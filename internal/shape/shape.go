// Package shape provides the qualitative-shape analysis used to compare
// reproduced figures against the paper's claims: trends, gains, series
// orderings and crossovers. cmd/experiments runs these checks over the
// figures it regenerates and records them in EXPERIMENTS.md; the same
// primitives back assertions in the test suite.
//
// Reproduction philosophy (DESIGN.md §6): absolute numbers depend on the
// substrate, but the *shape* — who wins, by roughly what factor, where
// crossovers fall — must hold. Every check therefore takes explicit
// tolerances.
package shape

import (
	"fmt"
	"math"

	"cosched/internal/stats"
)

// Check is one verified claim about a figure.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

func pass(name, format string, args ...interface{}) Check {
	return Check{Name: name, Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func fail(name, format string, args ...interface{}) Check {
	return Check{Name: name, Pass: false, Detail: fmt.Sprintf(format, args...)}
}

// TrendUp reports whether ys is non-decreasing up to a relative
// tolerance (each step may dip by at most tol of the value).
func TrendUp(ys []float64, tol float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]*(1-tol)-tol*1e-12 {
			return false
		}
	}
	return true
}

// TrendDown reports whether ys is non-increasing up to a tolerance.
func TrendDown(ys []float64, tol float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]*(1+tol) {
			return false
		}
	}
	return true
}

// Gain converts a normalized makespan into the paper's "gain" (1 − y).
func Gain(y float64) float64 { return 1 - y }

// MeanY returns the mean of a named series (NaN if missing).
func MeanY(t *stats.Table, name string) float64 {
	s := t.SeriesByName(name)
	if s == nil {
		return math.NaN()
	}
	return stats.Mean(s.Y)
}

// At returns the value of a named series at the x closest to the target.
func At(t *stats.Table, name string, x float64) float64 {
	s := t.SeriesByName(name)
	if s == nil || len(t.X) == 0 {
		return math.NaN()
	}
	best, bestD := 0, math.Inf(1)
	for i, xv := range t.X {
		if d := math.Abs(xv - x); d < bestD {
			best, bestD = i, d
		}
	}
	return s.Y[best]
}

// First and Last return the endpoint values of a named series.
func First(t *stats.Table, name string) float64 {
	s := t.SeriesByName(name)
	if s == nil || len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[0]
}

// Last returns the final value of a named series.
func Last(t *stats.Table, name string) float64 {
	s := t.SeriesByName(name)
	if s == nil || len(s.Y) == 0 {
		return math.NaN()
	}
	return s.Y[len(s.Y)-1]
}

// CheckGainAtLeast verifies 1 − series(x≈target) ≥ minGain.
func CheckGainAtLeast(t *stats.Table, series string, x, minGain float64) Check {
	name := fmt.Sprintf("gain of %q at x≈%g ≥ %.0f%%", series, x, 100*minGain)
	v := At(t, series, x)
	if math.IsNaN(v) {
		return fail(name, "series missing")
	}
	if g := Gain(v); g >= minGain {
		return pass(name, "measured %.1f%%", 100*g)
	} else {
		return fail(name, "measured %.1f%%", 100*g)
	}
}

// CheckConvergesToBaseline verifies that the series approaches 1 at its
// last point (within slack) while starting strictly below it — the
// "redistribution stops paying on large platforms" shape of Figs 5–6.
func CheckConvergesToBaseline(t *stats.Table, series string, slack float64) Check {
	name := fmt.Sprintf("%q converges to the baseline", series)
	first, last := First(t, series), Last(t, series)
	if math.IsNaN(first) {
		return fail(name, "series missing")
	}
	if last < 1+slack && last > 1-slack && first < last {
		return pass(name, "from %.3f to %.3f", first, last)
	}
	return fail(name, "from %.3f to %.3f", first, last)
}

// CheckTrend verifies the monotone trend of a series.
func CheckTrend(t *stats.Table, series string, up bool, tol float64) Check {
	dir := "decreasing"
	if up {
		dir = "increasing"
	}
	name := fmt.Sprintf("%q is %s (tol %.0f%%)", series, dir, 100*tol)
	s := t.SeriesByName(series)
	if s == nil {
		return fail(name, "series missing")
	}
	ok := TrendDown(s.Y, tol)
	if up {
		ok = TrendUp(s.Y, tol)
	}
	if ok {
		return pass(name, "from %.3f to %.3f", s.Y[0], s.Y[len(s.Y)-1])
	}
	return fail(name, "series %v", s.Y)
}

// CheckOrder verifies mean(a) ≤ mean(b) + slack.
func CheckOrder(t *stats.Table, a, b string, slack float64) Check {
	name := fmt.Sprintf("mean of %q ≤ mean of %q (+%.3f)", a, b, slack)
	ma, mb := MeanY(t, a), MeanY(t, b)
	if math.IsNaN(ma) || math.IsNaN(mb) {
		return fail(name, "series missing")
	}
	if ma <= mb+slack {
		return pass(name, "%.3f vs %.3f", ma, mb)
	}
	return fail(name, "%.3f vs %.3f", ma, mb)
}

// maxY returns the largest value of a named series (NaN if missing).
func maxY(t *stats.Table, name string) float64 {
	s := t.SeriesByName(name)
	if s == nil {
		return math.NaN()
	}
	worst := math.Inf(-1)
	for _, v := range s.Y {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// CheckAllBelow verifies every point of the series stays below bound.
func CheckAllBelow(t *stats.Table, series string, bound float64) Check {
	name := fmt.Sprintf("%q stays below %.3g everywhere", series, bound)
	worst := maxY(t, series)
	if math.IsNaN(worst) {
		return fail(name, "series missing")
	}
	if worst < bound {
		return pass(name, "max %.3f", worst)
	}
	return fail(name, "max %.3f", worst)
}

// CheckGapShrinks verifies that the pointwise gap between a heuristic
// and the fault-free bound shrinks from the first to the last x — the
// Figure 12 claim about cheap checkpoints.
func CheckGapShrinks(t *stats.Table, heuristic, bound string, factor float64) Check {
	name := fmt.Sprintf("gap %q − %q shrinks by ≥ %.0fx across the sweep", heuristic, bound, factor)
	h, bd := t.SeriesByName(heuristic), t.SeriesByName(bound)
	if h == nil || bd == nil {
		return fail(name, "series missing")
	}
	n := len(h.Y) - 1
	gFirst := math.Abs(h.Y[0] - bd.Y[0]) // cheapest checkpoints
	gLast := math.Abs(h.Y[n] - bd.Y[n])  // most expensive checkpoints
	if gLast >= gFirst*factor {
		return pass(name, "gap %.4f at x=%g vs %.4f at x=%g", gFirst, t.X[0], gLast, t.X[n])
	}
	return fail(name, "gap %.4f at x=%g vs %.4f at x=%g", gFirst, t.X[0], gLast, t.X[n])
}

// Summary counts passed checks.
func Summary(checks []Check) (passed, total int) {
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	return passed, len(checks)
}
