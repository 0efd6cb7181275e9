package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range doc.Workloads {
		listed = append(listed, w.Name)
	}
	slices.Sort(listed)
	if !slices.Equal(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", listed, workloadNames())
	}
}

// exactCounters are the per-layer counts that must repeat exactly for a
// fixed seed.
var exactCounters = []string{
	"workload.packs",
	"model.hits", "model.misses", "model.delta_builds", "model.evictions",
	"core.events", "core.decisions", "core.candidate_evals", "core.redistributions", "core.failures",
	"dist.leases",
}

// TestWorkloadsTiny runs every workload at a smoke-test size, untraced
// and traced twice, and checks the emitted metrics.
func TestWorkloadsTiny(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	names, err := loadMetricNames(root)
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "campaignw"), "./cmd/campaignw")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building campaignw: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			cfg := config{workload: name, seed: 3, seconds: 0.2, campaignw: filepath.Join(bin, "campaignw"), tiny: true}
			run := func(trace bool) result {
				t.Helper()
				c := cfg
				c.trace = trace
				c.dir = filepath.Join(t.TempDir(), "run")
				c.traceOut = filepath.Join(t.TempDir(), "spans.json")
				res, err := execute(c, names, w.run, w.traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if trace {
					if _, err := os.Stat(c.traceOut); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				return res
			}
			plain := run(false)
			checkMetrics(t, plain.Metrics, names.endToEnd, true)
			a, b := run(true), run(true)
			checkMetrics(t, a.Metrics, names.perLayer, false)
			for _, c := range exactCounters {
				if a.Metrics[c].Value != b.Metrics[c].Value {
					t.Errorf("%s differs between two traced runs of seed %d: %v vs %v", c, cfg.seed, a.Metrics[c].Value, b.Metrics[c].Value)
				}
			}
		})
	}
}

// checkMetrics asserts that every named metric is present, finite and
// carries its unit, and for end-to-end metrics that it is positive.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "campaign.unit", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "model.acquire", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "core.simulate", Start: ms(3), End: ms(6)},   // overlaps its sibling
		{ID: 4, Parent: 1, Name: "journal.append", Start: ms(8), End: ms(12)}, // runs past its parent
	}
	self := selfTimes(spans)
	if got, want := self[1], ms(3); got != want { // 10 − (1..6 ∪ 8..10) = 10 − 7
		t.Errorf("parent self time %v, want %v", got, want)
	}
	if got, want := self[2], ms(3); got != want {
		t.Errorf("leaf self time %v, want %v", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	// Two buckets of four: the median sits at the first bucket's top.
	if got := histQuantile([]float64{1, 2}, []uint64{4, 4, 0}, 0.5); got != 1 {
		t.Errorf("histogram median %v, want 1", got)
	}
}
