package shape

import (
	"math"
	"testing"

	"cosched/internal/experiments"
	"cosched/internal/stats"
)

func tableWith(x []float64, series map[string][]float64) *stats.Table {
	t := &stats.Table{X: x}
	// Deterministic insertion order for reproducible tests.
	for _, name := range []string{
		experiments.SeriesNoRC, experiments.SeriesIGEG, experiments.SeriesIGEL,
		experiments.SeriesSTFEG, experiments.SeriesSTFEL, experiments.SeriesFaultFree,
		experiments.SeriesFFNoRC, experiments.SeriesFFGreedy, experiments.SeriesFFLocal,
		"a", "b",
	} {
		if ys, ok := series[name]; ok {
			if err := t.AddSeries(name, ys); err != nil {
				panic(err)
			}
		}
	}
	return t
}

func TestTrends(t *testing.T) {
	if !TrendUp([]float64{1, 2, 3}, 0) || TrendUp([]float64{3, 2}, 0) {
		t.Fatal("TrendUp broken")
	}
	if !TrendDown([]float64{3, 2, 1}, 0) || TrendDown([]float64{1, 2}, 0) {
		t.Fatal("TrendDown broken")
	}
	// Tolerance forgives small reversals.
	if !TrendUp([]float64{1, 0.995, 1.2}, 0.01) {
		t.Fatal("tolerance not applied")
	}
	if !TrendDown([]float64{1, 1.005, 0.8}, 0.01) {
		t.Fatal("tolerance not applied on the way down")
	}
}

func TestAccessors(t *testing.T) {
	tab := tableWith([]float64{10, 20, 30}, map[string][]float64{"a": {1, 2, 3}})
	if First(tab, "a") != 1 || Last(tab, "a") != 3 {
		t.Fatal("endpoint accessors broken")
	}
	if At(tab, "a", 19) != 2 {
		t.Fatal("At should snap to the nearest x")
	}
	if !math.IsNaN(At(tab, "zz", 10)) || !math.IsNaN(MeanY(tab, "zz")) {
		t.Fatal("missing series should yield NaN")
	}
	if MeanY(tab, "a") != 2 {
		t.Fatal("MeanY broken")
	}
	if Gain(0.75) != 0.25 {
		t.Fatal("Gain broken")
	}
}

func TestCheckPrimitives(t *testing.T) {
	tab := tableWith([]float64{100, 1000}, map[string][]float64{"a": {0.7, 0.98}})
	if c := CheckGainAtLeast(tab, "a", 100, 0.25); !c.Pass {
		t.Fatalf("gain check failed: %+v", c)
	}
	if c := CheckGainAtLeast(tab, "a", 100, 0.35); c.Pass {
		t.Fatal("gain check should fail at 35%")
	}
	if c := CheckConvergesToBaseline(tab, "a", 0.05); !c.Pass {
		t.Fatalf("convergence check failed: %+v", c)
	}
	if c := CheckTrend(tab, "a", true, 0); !c.Pass {
		t.Fatal("trend check failed")
	}
	if c := CheckAllBelow(tab, "a", 0.99); !c.Pass {
		t.Fatal("below check failed")
	}
	if c := CheckAllBelow(tab, "a", 0.9); c.Pass {
		t.Fatal("below check should fail")
	}
	if c := CheckGainAtLeast(tab, "missing", 100, 0.1); c.Pass {
		t.Fatal("missing series must fail")
	}
}

func TestCheckOrderAndGap(t *testing.T) {
	tab := tableWith([]float64{0.01, 1}, map[string][]float64{
		experiments.SeriesIGEG:      {0.94, 0.70},
		experiments.SeriesFaultFree: {0.95, 0.66},
	})
	if c := CheckOrder(tab, experiments.SeriesFaultFree, experiments.SeriesIGEG, 0.0); !c.Pass {
		t.Fatalf("order check failed: %+v", c)
	}
	if c := CheckGapShrinks(tab, experiments.SeriesIGEG, experiments.SeriesFaultFree, 2); !c.Pass {
		t.Fatalf("gap check failed: %+v", c)
	}
	if c := CheckGapShrinks(tab, experiments.SeriesIGEG, experiments.SeriesFaultFree, 100); c.Pass {
		t.Fatal("gap factor 100 should fail on this data")
	}
}

// TestClaimsOnSyntheticPaperShapes drives CheckFigure with tables shaped
// exactly like the paper's figures; every check must pass.
func TestClaimsOnSyntheticPaperShapes(t *testing.T) {
	fig5 := tableWith([]float64{200, 1000, 2000}, map[string][]float64{
		experiments.SeriesFFNoRC:   {1, 1, 1},
		experiments.SeriesFFGreedy: {0.78, 0.95, 0.99},
		experiments.SeriesFFLocal:  {0.80, 0.96, 0.995},
	})
	for _, c := range CheckFigure("5a", fig5) {
		if !c.Pass {
			t.Fatalf("5a synthetic check failed: %+v", c)
		}
	}

	fig7 := tableWith([]float64{100, 500, 1000}, map[string][]float64{
		experiments.SeriesNoRC:      {1, 1, 1},
		experiments.SeriesIGEG:      {0.88, 0.64, 0.55},
		experiments.SeriesIGEL:      {0.88, 0.64, 0.56},
		experiments.SeriesSTFEG:     {0.85, 0.66, 0.56},
		experiments.SeriesSTFEL:     {0.86, 0.66, 0.56},
		experiments.SeriesFaultFree: {0.73, 0.57, 0.50},
	})
	for _, c := range CheckFigure("7", fig7) {
		if !c.Pass {
			t.Fatalf("7 synthetic check failed: %+v", c)
		}
	}

	fig10 := tableWith([]float64{5, 50, 125}, map[string][]float64{
		experiments.SeriesNoRC:      {1, 1, 1},
		experiments.SeriesIGEG:      {0.81, 0.74, 0.69},
		experiments.SeriesIGEL:      {0.81, 0.74, 0.69},
		experiments.SeriesSTFEG:     {0.80, 0.75, 0.69},
		experiments.SeriesSTFEL:     {0.80, 0.75, 0.70},
		experiments.SeriesFaultFree: {0.62, 0.67, 0.64},
	})
	for _, c := range CheckFigure("10", fig10) {
		if !c.Pass {
			t.Fatalf("10 synthetic check failed: %+v", c)
		}
	}

	// A broken shape must be caught.
	bad := tableWith([]float64{100, 500, 1000}, map[string][]float64{
		experiments.SeriesNoRC:      {1, 1, 1},
		experiments.SeriesIGEG:      {0.55, 0.70, 0.95}, // gains shrink with n: wrong
		experiments.SeriesIGEL:      {0.55, 0.70, 0.95},
		experiments.SeriesSTFEG:     {0.55, 0.70, 0.95},
		experiments.SeriesSTFEL:     {0.55, 0.70, 0.95},
		experiments.SeriesFaultFree: {0.50, 0.60, 0.90},
	})
	failures := 0
	for _, c := range CheckFigure("7", bad) {
		if !c.Pass {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("inverted Figure 7 shape passed all checks")
	}
}

func TestClaimTextCoverage(t *testing.T) {
	for _, id := range []string{"5a", "5b", "6a", "6b", "7", "8", "9", "10", "11", "12", "13a", "13b", "13c", "14"} {
		if ClaimText(id) == "" {
			t.Fatalf("figure %s has no claim text", id)
		}
	}
	if ClaimText("zz") != "" {
		t.Fatal("unknown figure should have empty claim")
	}
}

func TestSummary(t *testing.T) {
	checks := []Check{{Pass: true}, {Pass: false}, {Pass: true}}
	p, n := Summary(checks)
	if p != 2 || n != 3 {
		t.Fatalf("summary = %d/%d", p, n)
	}
}

func TestCheckFigureUnknown(t *testing.T) {
	if CheckFigure("zz", &stats.Table{}) != nil {
		t.Fatal("unknown figure should yield no checks")
	}
}
