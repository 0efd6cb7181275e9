package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosched/internal/model"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// testSpec is a small fault-heavy scenario exercising both grid axes and
// fault-free policies.
func testSpec() scenario.Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 2
	return scenario.Spec{
		Name:       "campaign-test",
		XLabel:     "#procs",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 3,
		Seed:       11,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{8, 12}},
			{Param: scenario.ParamMTBF, Values: []float64{2, 4}},
		},
	}
}

func jsonl(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	sp := testSpec()
	var outputs []string
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(sp, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, jsonl(t, res))
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatal("JSONL output depends on the worker count")
	}
	if !strings.Contains(outputs[0], `"policy":"ig-el"`) {
		t.Fatalf("JSONL output malformed: %s", outputs[0][:200])
	}
}

// TestParallelByteIdentical is the speculation golden contract: with
// more executor slots than the live points' batches can fill, an
// adaptive campaign releases replicates past the current batch
// boundary, and a wide pool shards a fixed campaign's replicate ranges
// — both must produce JSONL byte-identical to the sequential run for
// any width, because replicate seeds derive from (point, replicate)
// alone and the fold order is pinned. adaptiveSpec has 2 points ×
// batch 4, so every width here speculates.
func TestParallelByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   scenario.Spec
	}{
		{"fixed", testSpec()},
		{"adaptive", adaptiveSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := Run(tc.sp, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := jsonl(t, seq)
			for _, workers := range []int{9, 12, 16} {
				res, err := Run(tc.sp, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonl(t, res); got != want {
					t.Fatalf("%d-worker speculative output differs from sequential", workers)
				}
			}
		})
	}
}

func TestCommonRandomNumbers(t *testing.T) {
	// Two campaigns differing only in policy list must see identical
	// fault streams: the shared norc series comes out bit-identical.
	a := testSpec()
	b := testSpec()
	b.Policies = []string{"norc", "stf-eg"}
	ra, err := Run(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range ra.Points {
		for rep := 0; rep < a.Replicates; rep++ {
			if ra.Makespans[pi][0][rep] != rb.Makespans[pi][0][rep] {
				t.Fatal("unit streams depend on the policy list: common random numbers broken")
			}
		}
	}
}

func TestTableNormalization(t *testing.T) {
	res, err := Run(testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Series) != 3 || len(table.X) != 4 {
		t.Fatalf("table shape %d series × %d points", len(table.Series), len(table.X))
	}
	for _, v := range table.SeriesByName("norc").Y {
		if v != 1 {
			t.Fatalf("base series not normalized: %v", v)
		}
	}
	ff := table.SeriesByName("ff-el")
	for i, v := range ff.Y {
		if v <= 0 || v > 1+1e-9 {
			t.Fatalf("fault-free bound exceeds the fault baseline at %d: %v", i, v)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	sp := testSpec()
	var calls, last int
	_, err := Run(sp, Options{Workers: 2, Progress: func(done, total int) {
		if total != 12 || done <= last && done != total {
			// done is monotone under the runner's lock.
		}
		calls++
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 12 || last != 12 {
		t.Fatalf("progress called %d times, last done %d, want 12/12", calls, last)
	}
}

func TestManifestResume(t *testing.T) {
	sp := testSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest")

	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(sp, Options{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	want := jsonl(t, first)

	// Resume: every unit restores from the journal, none re-run.
	man2, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	restoredDone := 0
	second, err := Run(sp, Options{Manifest: man2, Progress: func(done, total int) {
		restoredDone = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	man2.Close()
	if restoredDone != 12 {
		t.Fatalf("resume restored %d units, want all 12", restoredDone)
	}
	if got := jsonl(t, second); got != want {
		t.Fatal("resumed campaign diverges from the original")
	}

	// Partial journal: drop the last two unit records, resume completes.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	partial := strings.Join(lines[:len(lines)-2], "\n") + "\n" +
		lines[len(lines)-1][:10] // truncated trailing write
	if err := os.WriteFile(path, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	man3, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	third, err := Run(sp, Options{Manifest: man3})
	if err != nil {
		t.Fatal(err)
	}
	man3.Close()
	if got := jsonl(t, third); got != want {
		t.Fatal("campaign resumed from a truncated manifest diverges")
	}

	// A manifest from a different campaign is refused.
	other := sp
	other.Seed++
	man4, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(other, Options{Manifest: man4}); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign manifest accepted: %v", err)
	}
	man4.Close()
}

func TestSinglePointScenario(t *testing.T) {
	sp := testSpec()
	sp.Axes = nil
	sp.Base = ""
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Units() != 3 || len(res.Points) != 1 {
		t.Fatalf("single-point campaign ran %d units over %d points", res.Units(), len(res.Points))
	}
	cell := res.Cell(0, 0)
	if cell.N != 3 || cell.Mean <= 0 || cell.Min > cell.Max {
		t.Fatalf("cell summary malformed: %+v", cell)
	}
}

func TestFaultFreeOnlyScenarioWithSilentFields(t *testing.T) {
	// A fault-free-only scenario may carry silent-error fields the
	// engine never uses; what scenario.Validate accepts, Run must run.
	sp := testSpec()
	sp.Workload.MTBFYears = 0
	sp.Workload.SilentMTBFYears = 5
	sp.Workload.VerifyUnit = 0.01
	sp.Policies = []string{"ff-norc", "ff-el"}
	sp.Base = ""
	sp.Axes = nil
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sp, Options{}); err != nil {
		t.Fatalf("validated fault-free-only scenario failed at runtime: %v", err)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	sp := testSpec()
	sp.Replicates = 0
	if _, err := Run(sp, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestModelCacheEquivalence pins the compiled-model cache's whole
// contract: with the cache enabled (a fresh injected cache, so no state
// leaks between subtests) the campaign's JSONL must be byte-identical to
// the cache-disabled per-unit compile path — for homogeneous and
// heterogeneous workloads, fixed and adaptive runners, speculative
// adaptive scheduling, and several worker counts.
func TestModelCacheEquivalence(t *testing.T) {
	for _, homog := range []bool{false, true} {
		sp := testSpec()
		if homog {
			sp.Workload.MInf = sp.Workload.MSup
		}
		run := func(opt Options, adaptive bool) string {
			s := sp
			if adaptive {
				s.Replicates = 0
				s.Precision = &scenario.PrecisionSpec{
					RelHalfWidth:  0.05,
					MinReplicates: 2,
					MaxReplicates: 6,
					Batch:         2,
				}
			}
			res, err := Run(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			return jsonl(t, res)
		}
		for _, adaptive := range []bool{false, true} {
			t.Setenv("COSCHED_MODEL_CACHE", "off")
			want := run(Options{Workers: 1}, adaptive)
			t.Setenv("COSCHED_MODEL_CACHE", "")
			for _, workers := range []int{1, 4} {
				cache := model.NewCache(0)
				if got := run(Options{Workers: workers, ModelCache: cache}, adaptive); got != want {
					t.Fatalf("homog=%v adaptive=%v workers=%d: model cache changes results", homog, adaptive, workers)
				}
				if s := cache.Stats(); s.Hits == 0 {
					t.Fatalf("homog=%v adaptive=%v workers=%d: cache never hit (stats %+v)", homog, adaptive, workers, s)
				}
				if adaptive {
					// 4 points × batch 2 = 8 < 8+workers slots: speculative.
					if got := run(Options{Workers: 8 + workers, ModelCache: cache}, true); got != want {
						t.Fatalf("homog=%v workers=%d: speculation with model cache changes results", homog, workers)
					}
				}
			}
		}
	}
}

// TestModelCacheCrossPointSharing pins the cross-point collapse the
// cache exists for: a heterogeneous sweep whose axis only moves the
// failure rate draws one pack per replicate across the whole axis
// (the MTBF is not a generation parameter), so the cache pays exactly
// one full compile per replicate, rewrites each remaining fault table
// as a λ-delta, and serves the axis-invariant fault-free table from
// outright hits after one delta build per replicate.
func TestModelCacheCrossPointSharing(t *testing.T) {
	sp := testSpec()
	sp.Axes = []scenario.Axis{
		{Param: scenario.ParamMTBF, Values: []float64{2, 4, 8, 16}},
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range packClasses(points) {
		if c != 0 {
			t.Fatalf("point %d in pack class %d, want 0 (MTBF axis keeps one pack class)", i, c)
		}
	}
	cache := model.NewCache(0)
	t.Setenv("COSCHED_MODEL_CACHE", "off")
	want, err := Run(sp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("COSCHED_MODEL_CACHE", "")
	got, err := Run(sp, Options{Workers: 4, ModelCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if jsonl(t, got) != jsonl(t, want) {
		t.Fatal("cached λ-sweep diverges from the per-unit compile path")
	}
	s := cache.Stats()
	points4, reps := uint64(4), uint64(sp.Replicates)
	if s.FullBuilds != reps {
		t.Fatalf("full builds = %d, want %d (one per replicate): %+v", s.FullBuilds, reps, s)
	}
	// Per replicate: 4 distinct fault tables (1 full + 3 λ-deltas) and
	// one fault-free table (1 delta) shared by all 4 points (3 hits).
	if wantMiss := reps * (points4 + 1); s.Misses != wantMiss {
		t.Fatalf("misses = %d, want %d: %+v", s.Misses, wantMiss, s)
	}
	if wantDelta := reps * points4; s.DeltaBuilds != wantDelta {
		t.Fatalf("delta builds = %d, want %d: %+v", s.DeltaBuilds, wantDelta, s)
	}
	if wantHits := reps * (points4 - 1); s.Hits != wantHits {
		t.Fatalf("hits = %d, want %d (fault-free table shared across the axis): %+v", s.Hits, wantHits, s)
	}
}
