package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cosched/internal/campaign"
	"cosched/internal/core"
	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// tiny returns Params that shrink every figure to test size.
func tiny() Params {
	return Params{Reps: 2, Seed: 7, Shrink: 0.05}
}

// figureTable runs a figure spec through the campaign runner, optionally
// trimmed to the grid points at the given x values (all when none).
func figureTable(t *testing.T, id string, pr Params, workers int, xs ...float64) *stats.Table {
	t.Helper()
	sp, err := FigureScenario(id, pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) > 0 {
		var kept []scenario.Point
		for _, pt := range sp.Points {
			for _, x := range xs {
				if pt.X == x {
					kept = append(kept, pt)
				}
			}
		}
		if len(kept) != len(xs) {
			t.Fatalf("figure %s has no grid point at some of %v", id, xs)
		}
		sp.Points = kept
	}
	res, err := campaign.Run(sp, campaign.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// pointAt returns the grid overrides of a figure spec at x.
func pointAt(t *testing.T, sp scenario.Spec, x float64) map[string]float64 {
	t.Helper()
	for _, pt := range sp.Points {
		if pt.X == x {
			return pt.Set
		}
	}
	t.Fatalf("%s has no grid point at x=%v", sp.Name, x)
	return nil
}

func TestFigureScenarioRoundTrip(t *testing.T) {
	// Every paper figure must survive the declarative round trip: figure
	// spec → JSON → decoded spec with identical grid and policies. This
	// is the contract that lets cmd/campaign replay figures from spec
	// files.
	for _, id := range SweepIDs() {
		sp, err := FigureScenario(id, tiny())
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("figure %s scenario invalid: %v", id, err)
		}
		var buf bytes.Buffer
		if err := sp.Encode(&buf); err != nil {
			t.Fatalf("figure %s encode: %v", id, err)
		}
		back, err := scenario.Decode(&buf)
		if err != nil {
			t.Fatalf("figure %s decode: %v", id, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("figure %s scenario does not round-trip through JSON", id)
		}
	}
}

// figureFingerprints pins the canonical fingerprint of every figure spec
// under three parameter sets: the zero value (paper scale, defaults), a
// paper-scale and a twentieth-scale one. These specs are what
// `campaign -figure ID -print-spec` exports and what the paper-figs
// benchmark runs, so any drift in a grid, title, label or default is a
// visible break, not a silent one.
var figureFingerprints = map[string][3]string{
	"5a":     {"e2a203bb54264705", "537d5a8275b81521", "644d11e4b95f99f3"},
	"5b":     {"85da2e70d6841d2e", "7c4556533ece85a0", "0b913119a959a448"},
	"6a":     {"8fed51d3d90113e3", "7c8b98b1c9e1dc6f", "9994ac9412d46049"},
	"6b":     {"8af2d75dfe80a574", "1496f5994bba980a", "8b891d847d09ef6a"},
	"7":      {"7c020f4749e14d84", "69d902762aa7382e", "761789b9beec633c"},
	"8":      {"9ef499c1d6cb1a8f", "4a66a5bd25328455", "018cbada5b0c89a0"},
	"10":     {"feef3b43e356081c", "2c35ec69636888b8", "29268d9a8604dd21"},
	"11":     {"e0b83b6c6d73790c", "bfce3ab440416950", "2438f1a03b1c83ad"},
	"12":     {"283a0c786ec6be46", "259b91f4bf0eedd2", "8515b4b78837e676"},
	"13a":    {"ff729747862b4a5c", "c26056e56b936578", "659dadb108560c61"},
	"13b":    {"78b658d8fe946b64", "a38743d82874ea98", "4fc382272ef0a685"},
	"13c":    {"909c57b96b32f186", "4e18c697687119c2", "4ff9be0a03756a77"},
	"14":     {"cf675e71f873f493", "c6317b58ea78a3df", "a5203fa0de6a4667"},
	"online": {"27f196d4d6fc04b9", "ba3bccafe5344125", "10c31b71f96f889a"},
}

func TestFigureSpecFingerprints(t *testing.T) {
	params := [3]Params{{}, {Reps: 3, Seed: 5, Shrink: 1}, {Reps: 1, Seed: 7, Shrink: 0.05}}
	ids := append(SweepIDs(), "online")
	if len(ids) != len(figureFingerprints) {
		t.Fatalf("%d figure ids %v, %d pinned", len(ids), ids, len(figureFingerprints))
	}
	for _, id := range ids {
		want, ok := figureFingerprints[id]
		if !ok {
			t.Fatalf("figure %s has no pinned fingerprint", id)
		}
		for i, pr := range params {
			sp, err := FigureScenario(id, pr)
			if err != nil {
				t.Fatalf("figure %s %+v: %v", id, pr, err)
			}
			fp, err := sp.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", fp); got != want[i] {
				t.Errorf("figure %s %+v fingerprint %s, pinned %s", id, pr, got, want[i])
			}
		}
	}
}

func TestShrinkSpec(t *testing.T) {
	s := workload.Default()
	s.N, s.P, s.MTBFYears = 100, 5000, 100
	sh := shrinkSpec(s, 0.1)
	if sh.N != 10 || sh.P != 500 {
		t.Fatalf("shrunk to n=%d p=%d, want 10/500", sh.N, sh.P)
	}
	if sh.MTBFYears != 10 {
		t.Fatalf("MTBF should scale with the platform, got %v", sh.MTBFYears)
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tiny shrink factors keep the spec valid.
	sh2 := shrinkSpec(s, 0.001)
	if err := sh2.Validate(); err != nil {
		t.Fatal(err)
	}
	// No-op above 1.
	if same := shrinkSpec(s, 1); same.N != s.N || same.P != s.P {
		t.Fatal("shrink factor 1 must be identity")
	}
}

func TestByIDCoversAllFigures(t *testing.T) {
	for _, id := range SweepIDs() {
		sp, err := FigureScenario(id, tiny())
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(sp.Points) == 0 || len(sp.Policies) == 0 {
			t.Fatalf("figure %s is structurally empty", id)
		}
		if sp.Base == "" {
			t.Fatalf("figure %s has no normalization base", id)
		}
		// Every point must produce a valid workload.
		points, err := sp.Expand()
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		for _, pt := range points {
			if err := pt.Spec.Validate(); err != nil {
				t.Fatalf("figure %s at x=%v: %v", id, pt.X, err)
			}
		}
	}
	for _, id := range []string{"nope", "5z", "13z", "9", "9a"} {
		_, err := FigureScenario(id, tiny())
		if err == nil {
			t.Fatalf("figure id %q accepted", id)
		}
		if strings.HasPrefix(id, "9") != strings.Contains(err.Error(), "single-execution") {
			t.Fatalf("figure id %q: %v", id, err)
		}
	}
	// The unknown-id error lists every valid id.
	_, err := FigureScenario("nope", tiny())
	if !strings.Contains(err.Error(), strings.Join(SweepIDs(), " ")) {
		t.Fatalf("unknown-id error does not list the figure ids: %v", err)
	}
}

func TestFigureParametersMatchPaper(t *testing.T) {
	full := Params{Reps: 1, Seed: 1}
	spec := func(id string) scenario.Spec {
		sp, err := FigureScenario(id, full)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	f7 := spec("7")
	if f7.Points[0].X != 100 || f7.Points[len(f7.Points)-1].X != 1000 {
		t.Fatalf("figure 7 sweeps %v .. %v", f7.Points[0].X, f7.Points[len(f7.Points)-1].X)
	}
	if got := pointAt(t, f7, 300); got[scenario.ParamP] != 5000 || got[scenario.ParamN] != 300 {
		t.Fatalf("figure 7 spec wrong: %v", got)
	}
	if got := pointAt(t, spec("10"), 50); got[scenario.ParamMTBF] != 50 || got[scenario.ParamP] != 1000 {
		t.Fatalf("figure 10 spec wrong: %v", got)
	}
	if got := pointAt(t, spec("13b"), 25); got[scenario.ParamCkptUnit] != 0.1 {
		t.Fatalf("figure 13b checkpoint cost %v, want 0.1", got[scenario.ParamCkptUnit])
	}
	if got := pointAt(t, spec("14"), 0.3); got[scenario.ParamSeqFrac] != 0.3 {
		t.Fatalf("figure 14 spec wrong: %v", got)
	}
	if got := pointAt(t, spec("5b"), 400); got[scenario.ParamMInf] != 1500 {
		t.Fatalf("figure 5b heterogeneity wrong: %v", got)
	}
}

func TestSweepRunSmall(t *testing.T) {
	table := figureTable(t, "5a", Params{Reps: 2, Seed: 3, Shrink: 0.04}, 2, 400, 600, 1200)
	if len(table.Series) != 3 {
		t.Fatalf("table has %d series, want 3", len(table.Series))
	}
	base := table.SeriesByName(SeriesFFNoRC)
	for _, v := range base.Y {
		if v != 1 {
			t.Fatalf("base series not normalized: %v", base.Y)
		}
	}
	for _, name := range []string{SeriesFFGreedy, SeriesFFLocal} {
		s := table.SeriesByName(name)
		if s == nil {
			t.Fatalf("series %s missing", name)
		}
		for i, v := range s.Y {
			if v <= 0 || v > 1.0+1e-9 {
				t.Fatalf("%s[%d] = %v: fault-free redistribution must not exceed the baseline", name, i, v)
			}
		}
	}
}

func TestSweepRunFaultFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep")
	}
	// Two MTBF points suffice for the test.
	table := figureTable(t, "10", Params{Reps: 2, Seed: 11, Shrink: 0.06}, 4, 5, 50)
	if len(table.Series) != 6 {
		t.Fatalf("table has %d series, want 6", len(table.Series))
	}
	ff := table.SeriesByName(SeriesFaultFree)
	for i, v := range ff.Y {
		if v <= 0 || v > 1.05 {
			t.Fatalf("fault-free bound series out of range at %d: %v", i, v)
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	pr := Params{Reps: 2, Seed: 5, Shrink: 0.03}
	a := figureTable(t, "5a", pr, 1, 400, 800)
	b := figureTable(t, "5a", pr, 3, 400, 800)
	if a.CSV() != b.CSV() {
		t.Fatalf("figure results depend on the worker count:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

func TestFigure9Small(t *testing.T) {
	res, err := Figure9(Params{Seed: 21, Shrink: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan.X) == 0 {
		t.Fatal("figure 9 has no fault dates")
	}
	if len(res.Makespan.Series) != 3 || len(res.StdDev.Series) != 3 {
		t.Fatal("figure 9 must carry three policies")
	}
	for _, s := range res.Makespan.Series {
		for i, v := range s.Y {
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("series %s point %d invalid: %v", s.Name, i, v)
			}
		}
	}
	for _, s := range res.StdDev.Series {
		for i, v := range s.Y {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("stddev series %s point %d invalid: %v", s.Name, i, v)
			}
		}
	}
	// The redistribution policies must actually act on this scenario:
	// their allocation-spread curves end up differing from NoRC's
	// (NoRC's stddev only moves when a task completes).
	noRC := res.StdDev.SeriesByName(SeriesFig9NoRC)
	ig := res.StdDev.SeriesByName(SeriesFig9IG)
	differs := false
	for i := range noRC.Y {
		if ig.Y[i] != noRC.Y[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("IteratedGreedy never changed any allocation in the Figure 9 scenario")
	}
}

func TestResample(t *testing.T) {
	snaps := []core.Snapshot{
		{Time: 10, PredictedMakespan: 1},
		{Time: 20, PredictedMakespan: 2},
		{Time: 30, PredictedMakespan: 3},
	}
	grid := []float64{5, 10, 15, 25, 40}
	got := resample(snaps, grid, func(s core.Snapshot) float64 { return s.PredictedMakespan })
	want := []float64{1, 1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resample[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if out := resample(nil, grid, func(s core.Snapshot) float64 { return 0 }); len(out) != len(grid) {
		t.Fatal("empty history must still produce a grid-sized slice")
	}
}

func TestSeriesNamesMatchPaperLegends(t *testing.T) {
	for _, sw := range []string{SeriesIGEG, SeriesIGEL, SeriesSTFEG, SeriesSTFEL} {
		if !strings.Contains(sw, "-End") {
			t.Fatalf("series name %q does not follow the paper's naming", sw)
		}
	}
}
