package campaign

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// adaptiveSpec is a two-point scenario with strongly heterogeneous
// per-point variance: one near-reliable point (makespan noise comes only
// from the task draw) and one failure-hammered point.
func adaptiveSpec() scenario.Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 50
	return scenario.Spec{
		Name:       "adaptive-test",
		XLabel:     "mtbf",
		Workload:   w,
		Policies:   []string{"norc", "ig-el"},
		Replicates: 1, // ignored: the precision block drives the counts
		Seed:       17,
		Axes: []scenario.Axis{
			{Param: scenario.ParamMTBF, Values: []float64{50, 0.2}},
		},
		Precision: &scenario.PrecisionSpec{
			RelHalfWidth:  0.05,
			Confidence:    0.95,
			MinReplicates: 8,
			MaxReplicates: 256,
			Batch:         4,
		},
	}
}

// TestAdaptiveGoldenEquivalence pins that the precision machinery is
// invisible when unused: a spec without a precision block, and the same
// spec with max == min replicates, produce byte-identical JSONL and CSV
// across worker counts — and the precision-absent spec's fingerprint is
// pinned so schema growth cannot silently invalidate old manifests.
func TestAdaptiveGoldenEquivalence(t *testing.T) {
	fixed := testSpec()
	base, err := Run(fixed, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL := jsonl(t, base)
	baseTable, err := base.Table()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := baseTable.CSV()

	adaptive := testSpec()
	adaptive.Precision = &scenario.PrecisionSpec{
		RelHalfWidth:  0.01,
		MinReplicates: fixed.Replicates,
		MaxReplicates: fixed.Replicates,
		Batch:         2,
	}
	for _, workers := range []int{1, 4} {
		for name, sp := range map[string]scenario.Spec{"fixed": fixed, "pinned-adaptive": adaptive} {
			res, err := Run(sp, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonl(t, res); got != wantJSONL {
				t.Fatalf("%s/%d workers: JSONL diverges from the fixed-replicate runner", name, workers)
			}
			table, err := res.Table()
			if err != nil {
				t.Fatal(err)
			}
			if got := table.CSV(); got != wantCSV {
				t.Fatalf("%s/%d workers: CSV diverges from the fixed-replicate runner", name, workers)
			}
		}
	}

	// Fingerprint pin: adding the precision field must not change the
	// canonical encoding of precision-absent specs, or every existing
	// manifest would be refused. Update this constant only for a
	// deliberate, documented schema break.
	fp, err := fixed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const wantFP = "704aed1d37ca26a0"
	if got := fmt.Sprintf("%016x", fp); got != wantFP {
		t.Fatalf("precision-absent spec fingerprint changed: %s, pinned %s", got, wantFP)
	}
}

// TestAdaptiveConvergence is the acceptance test of the adaptive
// controller: on a spec with heterogeneous per-point variance it must
// meet the CI target at every (point, policy) cell, spend measurably
// fewer replicates than the fixed-count budget, allocate more replicates
// to the noisier point, and stay bit-deterministic across worker counts.
func TestAdaptiveConvergence(t *testing.T) {
	sp := adaptiveSpec()
	var first *Result
	var firstJSONL string
	for _, workers := range []int{1, 7} {
		res, err := Run(sp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := jsonl(t, res)
		if first == nil {
			first, firstJSONL = res, out
			continue
		}
		if out != firstJSONL {
			t.Fatal("adaptive JSONL depends on the worker count")
		}
		for pi := range res.Reps {
			if res.Reps[pi] != first.Reps[pi] {
				t.Fatalf("replicate counts depend on the worker count: %v vs %v", res.Reps, first.Reps)
			}
		}
	}

	prec := sp.Precision
	for pi := range first.Points {
		if first.Reps[pi] >= prec.MaxReplicates {
			t.Fatalf("point %d hit the replicate cap (%d) without converging", pi, first.Reps[pi])
		}
		if first.Reps[pi] < prec.MinReplicates {
			t.Fatalf("point %d stopped below the floor: %d", pi, first.Reps[pi])
		}
		for qi := range first.Policies {
			rel, ok := first.CellRelHalfWidth(pi, qi)
			if !ok || rel > prec.RelHalfWidth {
				t.Fatalf("cell (%d, %s) missed the CI target: rel=%v ok=%v", pi, first.Policies[qi].Name, rel, ok)
			}
			if cell := first.Cell(pi, qi); cell.N != first.Reps[pi] {
				t.Fatalf("cell (%d, %d) folded %d replicates, point ran %d", pi, qi, cell.N, first.Reps[pi])
			}
			if n := len(first.Makespans[pi][qi]); n != first.Reps[pi] {
				t.Fatalf("cell (%d, %d) stores %d replicates, point ran %d", pi, qi, n, first.Reps[pi])
			}
		}
	}
	if first.Units() >= first.ReplicateBudget() {
		t.Fatalf("adaptive run spent %d of %d budget units: no savings", first.Units(), first.ReplicateBudget())
	}
	// Heterogeneous variance must show up as heterogeneous allocation:
	// the controller gives the two points different replicate counts.
	// (Under expected-time semantics the failure-hammered point is the
	// *less* relatively noisy one — re-anchoring absorbs fault noise
	// while the quiet point keeps its full task-draw spread.)
	if first.Reps[0] == first.Reps[1] {
		t.Fatalf("both points got %d replicates: allocation not adaptive", first.Reps[0])
	}
	if !first.Adaptive() {
		t.Fatal("Adaptive() false on an adaptive result")
	}
}

// TestAdaptiveQuantiles: quantiles are exact order statistics over the
// stored replicates in both modes, for any q, and QuantileTable serves
// the same numbers.
func TestAdaptiveQuantiles(t *testing.T) {
	qs := []float64{0.25, 0.5, 0.95}
	for name, sp := range map[string]scenario.Spec{"adaptive": adaptiveSpec(), "fixed": testSpec()} {
		res, err := Run(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		table, err := res.QuantileTable(qs...)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Series) != len(res.Policies)*len(qs) || len(table.X) != len(res.Points) {
			t.Fatalf("%s: quantile table shape %d×%d", name, len(table.Series), len(table.X))
		}
		for pi := range res.Points {
			for qi := range res.Policies {
				mk := res.Makespans[pi][qi]
				for i, q := range qs {
					got, ok := res.Quantile(pi, qi, q)
					if want := stats.Quantile(mk, q); !ok || got != want {
						t.Fatalf("%s: cell (%d, %d) q%v = %v (ok %v), exact %v", name, pi, qi, q, got, ok, want)
					}
					if v := table.Series[qi*len(qs)+i].Y[pi]; v != got {
						t.Fatalf("%s: table cell (%d, %d) q%v = %v, Quantile %v", name, pi, qi, q, v, got)
					}
				}
			}
		}
	}
}

// TestAdaptiveStoresFixedReplicates: an adaptive campaign stores, for
// every point, policy and online metric, exactly the first Reps[pi]
// replicates the same spec produces when run fixed at the replicate
// cap — bit for bit — so every per-replicate analysis (paired ratios,
// quantiles) works under a precision block too. Besides Run, an
// Assembler with a wide speculation window folds every released window
// in reverse, so replicates beyond the point where a point stops are
// stored before its prefix completes and must be cut off.
func TestAdaptiveStoresFixedReplicates(t *testing.T) {
	online := onlineSpec()
	online.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.1, MinReplicates: 4, MaxReplicates: 32, Batch: 4}
	for name, sp := range map[string]scenario.Spec{"offline": adaptiveSpec(), "online": online} {
		fixedSpec := sp
		fixedSpec.Replicates = sp.Precision.MaxReplicates
		fixedSpec.Precision = nil
		fixed, err := Run(fixedSpec, Options{Workers: 9})
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(sp, Options{Workers: 9})
		if err != nil {
			t.Fatal(err)
		}
		if run.Units() == run.ReplicateBudget() {
			t.Fatalf("%s: every point ran to the cap; the stopped-prefix case is untested", name)
		}
		for mode, ad := range map[string]*Result{"run": run, "reversed": foldReversed(t, sp, 16)} {
			for pi := range ad.Points {
				n := ad.Reps[pi]
				for qi := range ad.Policies {
					for k := 0; k < metricsPerPolicy(sp); k++ {
						got, want := *ad.column(pi, qi, k), *fixed.column(pi, qi, k)
						if len(got) != n {
							t.Fatalf("%s/%s: cell (%d, %d) metric %d stores %d replicates, point ran %d", name, mode, pi, qi, k, len(got), n)
						}
						for rep := range got {
							if math.Float64bits(got[rep]) != math.Float64bits(want[rep]) {
								t.Fatalf("%s/%s: cell (%d, %d) metric %d rep %d: adaptive %v, fixed %v", name, mode, pi, qi, k, rep, got[rep], want[rep])
							}
						}
					}
				}
			}
		}
	}
}

// foldReversed assembles sp with executor width `width`, running every
// released window and folding it last unit first.
func foldReversed(t *testing.T, sp scenario.Spec, width int) *Result {
	t.Helper()
	p, err := prepare(sp)
	if err != nil {
		t.Fatal(err)
	}
	asm := newAssembler(p, width)
	runner, err := NewUnitRunner(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	for !asm.Done() {
		units := append([]int(nil), asm.Released()...)
		if len(units) == 0 {
			t.Fatal("assembler stalled")
		}
		for i := len(units) - 1; i >= 0; i-- {
			vals, err := runner.RunUnit(units[i])
			if err != nil {
				t.Fatal(err)
			}
			asm.Fold(units[i], vals)
		}
	}
	res, err := asm.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveManifestResume: an interrupted adaptive campaign resumes
// from its journal, honors the batches it already ran, re-runs only the
// missing units, and reproduces the uninterrupted output byte for byte.
func TestAdaptiveManifestResume(t *testing.T) {
	sp := adaptiveSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "adaptive.manifest")

	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(sp, Options{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	want := jsonl(t, full)

	// Interrupt: keep the header and roughly the first third of the
	// journal (arbitrary completion order, possibly mid-batch).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	cut := 1 + (len(lines)-1)/3
	if err := os.WriteFile(path, []byte(strings.Join(lines[:cut], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	restoredAtStart := 0
	resumed, err := Run(sp, Options{Manifest: man2, Progress: func(done, total int) {
		if restoredAtStart == 0 {
			restoredAtStart = done
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	man2.Close()
	if restoredAtStart == 0 {
		t.Fatal("resume restored nothing")
	}
	if got := jsonl(t, resumed); got != want {
		t.Fatal("resumed adaptive campaign diverges from the uninterrupted run")
	}
	for pi := range full.Reps {
		if full.Reps[pi] != resumed.Reps[pi] {
			t.Fatalf("resume changed replicate counts: %v vs %v", resumed.Reps, full.Reps)
		}
	}

	// A second resume restores everything and runs nothing new.
	man3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(sp, Options{Manifest: man3})
	if err != nil {
		t.Fatal(err)
	}
	man3.Close()
	if got := jsonl(t, again); got != want {
		t.Fatal("fully-restored adaptive campaign diverges")
	}
}

// TestAdaptiveProgress: done reaches the (shrinking) total exactly at
// completion.
func TestAdaptiveProgress(t *testing.T) {
	var lastDone, lastTotal, calls int
	res, err := Run(adaptiveSpec(), Options{Workers: 3, Progress: func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastDone != lastTotal || lastDone != res.Units() {
		t.Fatalf("progress ended at %d/%d after %d calls, units %d", lastDone, lastTotal, calls, res.Units())
	}
}

// TestAdaptiveValidation: malformed precision blocks are rejected before
// any unit runs.
func TestAdaptiveValidation(t *testing.T) {
	bad := []func(*scenario.PrecisionSpec){
		func(p *scenario.PrecisionSpec) { p.RelHalfWidth = 0 },
		func(p *scenario.PrecisionSpec) { p.RelHalfWidth = -1 },
		func(p *scenario.PrecisionSpec) { p.RelHalfWidth = math.Inf(1) },
		func(p *scenario.PrecisionSpec) { p.Confidence = 1.5 },
		func(p *scenario.PrecisionSpec) { p.Confidence = -0.5 },
		func(p *scenario.PrecisionSpec) { p.MinReplicates = -2 },
		func(p *scenario.PrecisionSpec) { p.MaxReplicates = 0 },
		func(p *scenario.PrecisionSpec) { p.MinReplicates = 9; p.MaxReplicates = 4 },
		func(p *scenario.PrecisionSpec) { p.Batch = -3 },
	}
	for i, mutate := range bad {
		sp := adaptiveSpec()
		mutate(sp.Precision)
		if _, err := Run(sp, Options{}); err == nil {
			t.Fatalf("bad precision block %d accepted", i)
		}
	}
	// With a precision block, the fixed replicate count may be absent.
	sp := adaptiveSpec()
	sp.Replicates = 0
	if err := sp.Validate(); err != nil {
		t.Fatalf("adaptive spec without fixed replicates rejected: %v", err)
	}
}
