package shape

import (
	"fmt"
	"math"

	"cosched/internal/experiments"
	"cosched/internal/stats"
)

// ClaimText returns the paper's statement attached to a figure id.
func ClaimText(id string) string {
	switch id {
	case "5a", "5b":
		return "Fault-free, n=100: redistribution gains ~20% on small platforms and " +
			"vanishes as p grows; heterogeneous packs (5b) gain more."
	case "6a", "6b":
		return "Fault-free, n=1000: same trends at larger scale; heterogeneity (6b) amplifies gains."
	case "7":
		return "More tasks increase the gain (>40% at n=1000): with many tasks each holds " +
			"few processors, giving the heuristics flexibility."
	case "8":
		return "More processors decrease the gain, but at least ~10% remains everywhere."
	case "10":
		return "Lower MTBF degrades all heuristics (p=1000); at very low MTBF " +
			"ShortestTasksFirst overtakes IteratedGreedy."
	case "11":
		return "At p=5000 and low MTBF, IteratedGreedy's aggressive allocations backfire " +
			"(it approaches/exceeds the no-redistribution baseline); STF is safer."
	case "12":
		return "Cheaper checkpoints shrink the gap between the fault context and the " +
			"fault-free context."
	case "13a", "13b", "13c":
		return "The MTBF sweep at decreasing checkpoint cost (c=1, 0.1, 0.01) flattens: " +
			"with cheap checkpoints the failure-context curves sit on the fault-free curve."
	case "14":
		return "More parallel tasks (small f) benefit more from redistribution; gains " +
			"shrink as the sequential fraction grows."
	case "9":
		return "Single run: IteratedGreedy reduces the predicted makespan faster than " +
			"ShortestTasksFirst by moving processors to the critical task more aggressively, " +
			"yielding a larger allocation spread."
	default:
		return ""
	}
}

// CheckFigure runs the shape checks of one reproduced figure table.
// Unknown ids return no checks.
func CheckFigure(id string, t *stats.Table) []Check {
	switch id {
	case "5a", "5b", "6a", "6b":
		return checkFaultFreeFigure(t)
	case "7":
		return checkFigure7(t)
	case "8":
		return checkFigure8(t)
	case "10":
		return checkFigure10(t)
	case "11":
		return checkFigure11(t)
	case "12":
		return checkFigure12(t)
	case "13a":
		return checkFigure13(t, 0.30)
	case "13b":
		return checkFigure13(t, 0.10)
	case "13c":
		return checkFigure13(t, 0.03)
	case "14":
		return checkFigure14(t)
	case "9a":
		return checkFigure9a(t)
	case "9b":
		return checkFigure9b(t)
	default:
		return nil
	}
}

// checkFigure9a: by the end of the single run, both redistribution
// policies predict a smaller makespan than no-redistribution.
func checkFigure9a(t *stats.Table) []Check {
	out := []Check{}
	for _, pol := range []string{experiments.SeriesFig9IG, experiments.SeriesFig9STF} {
		name := fmt.Sprintf("final predicted makespan of %q below no-redistribution", pol)
		ig, norc := Last(t, pol), Last(t, experiments.SeriesFig9NoRC)
		if math.IsNaN(ig) || math.IsNaN(norc) {
			out = append(out, fail(name, "series missing"))
		} else if ig < norc {
			out = append(out, pass(name, "%.4g vs %.4g", ig, norc))
		} else {
			out = append(out, fail(name, "%.4g vs %.4g", ig, norc))
		}
	}
	return out
}

// checkFigure9b: redistribution spreads the allocation — the policies'
// peak stddev exceeds the static no-redistribution allocation's.
func checkFigure9b(t *stats.Table) []Check {
	base := maxY(t, experiments.SeriesFig9NoRC)
	out := []Check{}
	for _, pol := range []string{experiments.SeriesFig9IG, experiments.SeriesFig9STF} {
		name := fmt.Sprintf("%q spreads allocations beyond the static schedule", pol)
		v := maxY(t, pol)
		if math.IsNaN(v) || math.IsNaN(base) {
			out = append(out, fail(name, "series missing"))
		} else if v > base {
			out = append(out, pass(name, "peak stddev %.3g vs %.3g", v, base))
		} else {
			out = append(out, fail(name, "peak stddev %.3g vs %.3g", v, base))
		}
	}
	return out
}

func checkFaultFreeFigure(t *stats.Table) []Check {
	return []Check{
		CheckGainAtLeast(t, experiments.SeriesFFLocal, t.X[0], 0.10),
		CheckGainAtLeast(t, experiments.SeriesFFGreedy, t.X[0], 0.10),
		CheckConvergesToBaseline(t, experiments.SeriesFFLocal, 0.15),
		// §6.2: "the two heuristics have a very similar behavior" — the
		// claim is closeness, not a strict ordering.
		closeMeans(t, experiments.SeriesFFGreedy, experiments.SeriesFFLocal, 0.02),
		CheckAllBelow(t, experiments.SeriesFFLocal, 1.0+1e-9),
	}
}

// closeMeans checks |mean(a) − mean(b)| ≤ tol.
func closeMeans(t *stats.Table, a, b string, tol float64) Check {
	name := fmt.Sprintf("%q and %q behave very similarly (|Δmean| ≤ %.2f)", a, b, tol)
	ma, mb := MeanY(t, a), MeanY(t, b)
	d := ma - mb
	if d < 0 {
		d = -d
	}
	if d <= tol {
		return pass(name, "means %.3f vs %.3f", ma, mb)
	}
	return fail(name, "means %.3f vs %.3f", ma, mb)
}

func checkFigure7(t *stats.Table) []Check {
	last := t.X[len(t.X)-1]
	return []Check{
		CheckTrend(t, experiments.SeriesIGEG, false, 0.03),
		CheckGainAtLeast(t, experiments.SeriesIGEG, last, 0.40),
		CheckGainAtLeast(t, experiments.SeriesSTFEL, last, 0.40),
		CheckAllBelow(t, experiments.SeriesFaultFree, 1.0),
		CheckOrder(t, experiments.SeriesFaultFree, experiments.SeriesIGEG, 0.0),
	}
}

func checkFigure8(t *stats.Table) []Check {
	return []Check{
		CheckTrend(t, experiments.SeriesIGEG, true, 0.04),
		CheckAllBelow(t, experiments.SeriesIGEG, 0.90),
		CheckAllBelow(t, experiments.SeriesSTFEL, 0.90),
		CheckGainAtLeast(t, experiments.SeriesIGEG, t.X[0], 0.30),
		CheckOrder(t, experiments.SeriesFaultFree, experiments.SeriesIGEL, 0.0),
	}
}

func checkFigure10(t *stats.Table) []Check {
	return []Check{
		// Degradation at low MTBF: worse (higher) at 5y than at 125y.
		orderAt(t, experiments.SeriesIGEG, 125, 5, "low MTBF degrades IteratedGreedy"),
		orderAt(t, experiments.SeriesSTFEL, 125, 5, "low MTBF degrades ShortestTasksFirst"),
		// The paper's crossover: STF ≤ IG at MTBF 5 years.
		crossover(t, 5),
		CheckAllBelow(t, experiments.SeriesSTFEL, 1.0),
	}
}

func checkFigure11(t *stats.Table) []Check {
	return []Check{
		orderAt(t, experiments.SeriesIGEG, 125, 5, "low MTBF degrades IteratedGreedy"),
		crossover(t, 5),
		crossover(t, 10),
		// IG at MTBF 5 must be close to (or beyond) the baseline.
		igNearBaseline(t),
	}
}

func checkFigure12(t *stats.Table) []Check {
	return []Check{
		CheckGapShrinks(t, experiments.SeriesIGEG, experiments.SeriesFaultFree, 2),
		CheckGapShrinks(t, experiments.SeriesSTFEL, experiments.SeriesFaultFree, 2),
		// With cheap checkpoints the failure baseline loses little, so the
		// normalized heuristic value climbs towards 1 as c → 0: the series
		// decreases along the ascending-c sweep.
		CheckTrend(t, experiments.SeriesIGEG, false, 0.03),
		CheckGainAtLeast(t, experiments.SeriesIGEG, 1, 0.20),
	}
}

// checkFigure13 verifies one panel of the MTBF × checkpoint-cost grid:
// the spread of the IG curve across the MTBF range must stay within
// flatTol — the thresholds per panel (c = 1, 0.1, 0.01) decrease, which
// encodes the paper's "curves flatten as checkpoints get cheap".
func checkFigure13(t *stats.Table, flatTol float64) []Check {
	s := t.SeriesByName(experiments.SeriesIGEG)
	name := fmt.Sprintf("IG spread across MTBF ≤ %.2f (flattens as c falls)", flatTol)
	var spreadCheck Check
	if s == nil {
		spreadCheck = fail(name, "series missing")
	} else {
		lo, hi := s.Y[0], s.Y[0]
		for _, v := range s.Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo <= flatTol {
			spreadCheck = pass(name, "spread %.4f", hi-lo)
		} else {
			spreadCheck = fail(name, "spread %.4f", hi-lo)
		}
	}
	return []Check{
		spreadCheck,
		CheckAllBelow(t, experiments.SeriesIGEG, 1.0),
	}
}

func checkFigure14(t *stats.Table) []Check {
	return []Check{
		CheckTrend(t, experiments.SeriesIGEG, true, 0.03),
		CheckTrend(t, experiments.SeriesSTFEL, true, 0.03),
		CheckGainAtLeast(t, experiments.SeriesIGEG, 0, 0.30),
		// Gains nearly gone at f = 0.5.
		CheckAllBelow(t, experiments.SeriesSTFEL, 1.0),
	}
}

// orderAt checks series(xGood) ≤ series(xBad): the series is better at
// the "good" end of the sweep.
func orderAt(t *stats.Table, series string, xGood, xBad float64, label string) Check {
	good, bad := At(t, series, xGood), At(t, series, xBad)
	name := fmt.Sprintf("%s: y(%g) ≤ y(%g)", label, xGood, xBad)
	if good <= bad {
		return pass(name, "%.3f vs %.3f", good, bad)
	}
	return fail(name, "%.3f vs %.3f", good, bad)
}

// crossover checks the paper's low-MTBF claim: STF ≤ IG at the given x.
func crossover(t *stats.Table, x float64) Check {
	stf := At(t, experiments.SeriesSTFEL, x)
	ig := At(t, experiments.SeriesIGEG, x)
	name := fmt.Sprintf("STF ≤ IG at MTBF %g years", x)
	if stf <= ig+1e-9 {
		return pass(name, "STF %.3f vs IG %.3f", stf, ig)
	}
	return fail(name, "STF %.3f vs IG %.3f", stf, ig)
}

// igNearBaseline checks Figure 11's headline: at MTBF 5 years and
// p=5000, IteratedGreedy is within a few percent of (or worse than) the
// no-redistribution baseline.
func igNearBaseline(t *stats.Table) Check {
	v := At(t, experiments.SeriesIGEG, 5)
	name := "IG ≥ 0.93 of the baseline at MTBF 5 years"
	if v >= 0.93 {
		return pass(name, "IG %.3f", v)
	}
	return fail(name, "IG %.3f", v)
}
