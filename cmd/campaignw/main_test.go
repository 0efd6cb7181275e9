package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cosched/internal/campaign"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// tinySpec is a one-point, two-replicate campaign: two units.
func tinySpec() scenario.Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 2
	return scenario.Spec{
		Name:       "campaignw-test",
		Workload:   w,
		Policies:   []string{"norc", "ff-el"},
		Base:       "norc",
		Replicates: 2,
		Seed:       5,
	}
}

// line encodes one control message as a JSON line.
func line(t *testing.T, msg map[string]any) string {
	t.Helper()
	b, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// initLine is the coordinator's init for sp. The heartbeat cadence is an
// hour, so no heartbeat interleaves with a test's few milliseconds of
// output.
func initLine(t *testing.T, sp scenario.Spec) string {
	t.Helper()
	fp, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return line(t, map[string]any{"type": "init", "spec": sp, "fingerprint": fmt.Sprintf("%016x", fp), "heartbeat_ms": 3_600_000})
}

func TestEOFBeforeInit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := realMain(strings.NewReader(""), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "reading init") {
		t.Fatalf("EOF before init returned %v, want an init read error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("worker wrote %q before any init", stdout.String())
	}
}

func TestFirstMessageNotInit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	in := line(t, map[string]any{"type": "grant", "lease": 1, "units": []int{0}})
	err := realMain(strings.NewReader(in), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `expected init, got "grant"`) {
		t.Fatalf("grant before init returned %v, want an expected-init error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("worker wrote %q after a non-init first message", stdout.String())
	}
}

// TestRoundTrip drives the worker through init → ready → grant →
// results → shutdown and checks each result's values against the
// in-process unit runner. The worker sends nothing after a grant's last
// result: the coordinator ends the lease itself.
func TestRoundTrip(t *testing.T) {
	sp := tinySpec()
	in := initLine(t, sp) +
		line(t, map[string]any{"type": "grant", "lease": 4, "units": []int{0, 1}}) +
		line(t, map[string]any{"type": "shutdown"})
	var stdout, stderr bytes.Buffer
	if err := realMain(strings.NewReader(in), &stdout, &stderr); err != nil {
		t.Fatalf("round trip: %v (stderr %q)", err, stderr.String())
	}

	runner, err := campaign.NewUnitRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	type msg struct {
		Type       string    `json:"type"`
		TotalUnits int       `json:"total_units"`
		Lease      int       `json:"lease"`
		Unit       int       `json:"unit"`
		Vals       []float64 `json:"vals"`
	}
	var got []msg
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var m msg
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != 3 {
		t.Fatalf("got %d messages, want ready and two results: %+v", len(got), got)
	}
	if got[0].Type != "ready" || got[0].TotalUnits != runner.TotalUnits() {
		t.Fatalf("first message %+v, want ready with %d units", got[0], runner.TotalUnits())
	}
	for u := 0; u < 2; u++ {
		m := got[1+u]
		want, err := runner.RunUnit(u)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != "result" || m.Lease != 4 || m.Unit != u || !slices.Equal(m.Vals, want) {
			t.Fatalf("message %d: %+v, want result of lease 4 unit %d with values %v", 1+u, m, u, want)
		}
	}
}
