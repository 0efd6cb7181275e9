package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cosched/internal/core"
)

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	var s HistSnapshot
	s.merge(h)
	// le=1 gets 0.5 and 1 (upper bounds are inclusive); le=2 gets 1.5;
	// le=4 gets 4; the overflow bucket gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count: got %d want 5", s.Count)
	}
	if s.Sum != 0.5+1+1.5+4+100 {
		t.Fatalf("sum: got %g", s.Sum)
	}
}

func TestFloatCounter(t *testing.T) {
	var c FloatCounter
	for i := 0; i < 100; i++ {
		c.Add(0.25)
	}
	if got := c.Value(); got != 25 {
		t.Fatalf("got %g want 25", got)
	}
}

func TestSnapshotMergesShardsInOrder(t *testing.T) {
	c := NewCampaign()
	// Claim shard 2 first: Shard must create (and later report) workers
	// 0..2 in index order regardless of claim order.
	for _, w := range []int{2, 0, 1} {
		sh := c.Shard(w)
		for i := 0; i <= w; i++ {
			sh.Units.Inc()
			sh.BusySeconds.Add(0.5)
			sh.UnitSeconds.Observe(0.5)
			sh.Sim.ObserveRun(core.Counters{Events: 10, TaskEnds: 2, Decisions: 3, PrunedScans: 4, RedistTime: 1.5})
		}
	}
	c.UnitsDone.Set(6)
	c.UnitsPlanned.Set(6)

	s := c.Snapshot()
	if len(s.Workers) != 3 {
		t.Fatalf("workers: got %d want 3", len(s.Workers))
	}
	for w, ws := range s.Workers {
		if ws.Worker != w || ws.Units != uint64(w+1) {
			t.Fatalf("worker %d out of order or miscounted: %+v", w, ws)
		}
	}
	if s.UnitsExecuted != 6 || s.Sim.Runs != 6 {
		t.Fatalf("totals: executed %d runs %d, want 6 and 6", s.UnitsExecuted, s.Sim.Runs)
	}
	if s.Sim.Events != 60 || s.Sim.TaskEnds != 12 || s.Sim.Decisions != 18 || s.Sim.PrunedScans != 24 {
		t.Fatalf("sim totals wrong: %+v", s.Sim)
	}
	if s.Sim.RedistSeconds != 9 {
		t.Fatalf("redist seconds: got %g want 9", s.Sim.RedistSeconds)
	}
	if s.RunEvents.Count != 6 || s.RunEvents.Sum != 60 {
		t.Fatalf("run events histogram: %+v", s.RunEvents)
	}
	if s.QueueDepth != 0 || s.UnitsDone != 6 {
		t.Fatalf("gauges: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCampaign()
	sh := c.Shard(0)
	sh.Units.Inc()
	sh.UnitSeconds.Observe(0.01)
	sh.Sim.ObserveRun(core.Counters{Events: 5, Failures: 1, PrunedScans: 3})
	c.UnitsDone.Set(1)
	c.UnitsPlanned.Set(2)

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cosched_campaign_units_done gauge",
		"cosched_campaign_units_done 1",
		"cosched_campaign_units_planned 2",
		`cosched_worker_units_total{worker="0"} 1`,
		"cosched_sim_runs_total 1",
		"cosched_sim_events_total 5",
		"cosched_sim_failures_total 1",
		"cosched_sim_pruned_scans_total 3",
		"# TYPE cosched_sim_run_events histogram",
		`cosched_sim_run_events_bucket{le="+Inf"} 1`,
		"cosched_sim_run_events_sum 5",
		"cosched_sim_run_events_count 1",
		`cosched_unit_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in render:\n%s", want, out)
		}
	}
}

func TestProgressRecord(t *testing.T) {
	c := NewCampaign()
	c.UnitsDone.Set(3)
	c.UnitsPlanned.Set(12)
	p := c.Snapshot().Progress(time.Unix(0, 0))
	if p.Done != 3 || p.Planned != 12 || p.Pct != 25 {
		t.Fatalf("progress: %+v", p)
	}
}

func TestHeartbeat(t *testing.T) {
	c := NewCampaign()
	c.UnitsDone.Set(1)
	c.UnitsPlanned.Set(1)
	var buf bytes.Buffer
	stop := Heartbeat(&buf, c, time.Hour)
	stop() // emits the final line; blocks until written
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no heartbeat line written")
	}
	var p Progress
	if err := json.Unmarshal([]byte(line), &p); err != nil {
		t.Fatalf("heartbeat line not JSON: %v\n%s", err, line)
	}
	if p.Done != 1 || p.Planned != 1 {
		t.Fatalf("heartbeat payload: %+v", p)
	}
}

func TestServeEndpoints(t *testing.T) {
	c := NewCampaign()
	sh := c.Shard(0)
	sh.Units.Inc()
	sh.Sim.ObserveRun(core.Counters{Events: 7})
	c.UnitsDone.Set(1)

	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cosched_sim_runs_total 1") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress: %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil || p.Done != 1 {
		t.Fatalf("/progress payload: %v %s", err, body)
	}
	code, body = get("/snapshot")
	var snap Snapshot
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil || snap.UnitsExecuted != 1 {
		t.Fatalf("/snapshot: %d %s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "cosched_campaign") {
		t.Fatalf("/debug/vars: %d\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d want 404", code)
	}

	// A second served campaign in the same process gets its own entry in
	// the namespaced cosched_campaigns map (deduplicated name), not a
	// last-writer-wins overwrite of the first campaign's view.
	c2 := NewCampaign()
	c2.UnitsDone.Set(42)
	srv2, err := Serve("127.0.0.1:0", c2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body2), `"units_done": 42`) && !strings.Contains(string(body2), `"units_done":42`) {
		t.Fatalf("expvar does not carry the second campaign:\n%s", body2)
	}
	if !strings.Contains(string(body2), `"campaign#2"`) {
		t.Fatalf("second campaign not namespaced in cosched_campaigns:\n%s", body2)
	}
	// Both campaigns remain visible concurrently.
	if !strings.Contains(string(body2), `"campaign"`) {
		t.Fatalf("first campaign vanished from cosched_campaigns:\n%s", body2)
	}
}

func TestPublishRegistry(t *testing.T) {
	c1, c2 := NewCampaign(), NewCampaign()
	n1, rel1 := Publish("dup", c1)
	n2, rel2 := Publish("dup", c2)
	defer rel2()
	if n1 != "dup" || n2 != "dup#2" {
		t.Fatalf("names: %q %q", n1, n2)
	}
	rel1()
	rel1() // release is idempotent
	// The freed name is reusable.
	n3, rel3 := Publish("dup", c1)
	defer rel3()
	if n3 != "dup" {
		t.Fatalf("freed name not reused: %q", n3)
	}
}
