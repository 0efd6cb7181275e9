package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// TestRealMainRejectsBadParams covers inputs that used to panic or run
// away: each must come back as an error, with no trace written.
func TestRealMainRejectsBadParams(t *testing.T) {
	for _, args := range [][]string{
		{"-law", "weibull", "-shape", "0"},
		{"-mtbf", "-5"},
		{"-mtbf", "0"},
		{"-law", "lognormal"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout bytes.Buffer
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return realMain(append([]string{"-p", "8", "-count", "100"}, args...), &stdout, io.Discard)
			}()
			if err == nil || strings.HasPrefix(err.Error(), "panic") {
				t.Fatalf("want an error, got %v", err)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run wrote %d bytes of trace", stdout.Len())
			}
		})
	}
}

// TestGenerateInspectRoundTrip writes a small trace, checks it is the
// renewal process the flags describe, and reads it back with -inspect.
func TestGenerateInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.jsonl")
	args := []string{"-p", "16", "-mtbf", "0.001", "-horizon-days", "30", "-seed", "3", "-o", path}
	if err := realMain(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := failure.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := failure.NewRenewal(16, failure.Exponential{Lambda: 1 / (0.001 * workload.YearSeconds)}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := failure.Collect(src, 1000000, 30*86400)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("trace has %d faults, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	var report bytes.Buffer
	if err := realMain([]string{"-inspect", path}, &report, io.Discard); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("faults          %d\n", len(want)); !strings.Contains(report.String(), line) {
		t.Fatalf("inspect report lacks %q:\n%s", line, report.String())
	}
}
