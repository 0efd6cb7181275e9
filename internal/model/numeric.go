package model

import "math"

// NaN-free rows.
//
// Eq. (6) folds a prefix minimum with prev < raw → keep prev, so a NaN
// cell restarts the fold and At stops being non-increasing past it. Line 9
// of Algorithm 1 (MinEval.DropsBelow) may stop at the first improving
// cell only on a row proven to hold no NaN. The proof below is O(1) per
// row (O(len(Times)) for a Table profile) and serves compiled tables and
// the direct reference Resilience.ExpectedTimeRaw alike, whose cells are
// bit-identical.
//
// It works on the operands of one raw Eq. (4) cell,
//
//	n = ⌊α·t/(τ−C)⌋, τ_last = α·t − n·(τ−C), s = silentSegment(τ_last),
//	cell = prefac · (n·expPer + Expm1(λj·s)),
//
// for every α in (0, 1] (α ≤ 0 yields 0; α > 1 is clamped to 1). Let t
// be any value but NaN, and let τ−C, V_{i,j} ≥ 0, λj > 0, λ_s·j > 0 (when
// silent errors are on), prefac > 0 and expPer ≥ 0 all be finite, with
// τ−C and expPer small enough that 2⁶³ times either stays finite. Then:
//   - n is an integer, |n| ≤ 2⁶³: Go's float→int conversion yields one
//     even for a quotient that is infinite or NaN;
//   - n·(τ−C) is finite, so τ_last is a number (±Inf at worst);
//   - s is 0, or lies in (0, ∞]: e^{λ_s·j·τ_last}·(τ_last + V) multiplies
//     two positive values;
//   - Expm1(λj·s) lies in [0, ∞] and n·expPer is finite, so their sum is
//     a number, and a finite positive prefactor keeps it one.
//
// In the fault-free limit a cell is α·t, a number whenever t is.
//
// timesNumeric and failNumeric establish those operand ranges for every
// even j ≤ maxJ from quantities that do not depend on j. Every operand
// they bound stays in [1/numCap, numCap], far from overflow and
// underflow, so each computed product, quotient and square root is
// within a few ulps of its exact value, and the margins below absorb all
// rounding. Write x = λ·C: then
// λj·C_{i,j} = x and, for Young's period, λj·(τ−C) = √(2x). Daly's period
// gives at most 1.445·√(2x), or 1 when C_{i,j} ≥ 2µ_{i,j}, which needs
// x ≥ 2. So λj·(τ−C) ≤ w = 1.5·√(2x), λj·V_{i,j} = λ·V, and the silent
// inflation exponent λ_s·j·(τ−C) is at most (λ_s/λ)·w. The period term's
// argument λj·(s + C) is then at most e^{(λ_s/λ)·w}·(w + 2λV) + 2x,
// required to stay below 350, which keeps expPer below e³⁵⁰ and the
// prefactor e^{x}·(1/λj + D) finite.
//
// The proof is sufficient, not necessary: extreme magnitudes and
// near-overflowing exponentials fail it, and those rows keep the full
// line-9 comparison.

// numCap bounds every operand the proof relies on, from both sides.
const numCap = 1e100

// inCap reports whether x lies in [1/numCap, numCap].
func inCap(x float64) bool { return x >= 1/numCap && x <= numCap }

// failNumeric is the proof's resilience half: given times that hold no
// NaN (timesNumeric, its profile half), every raw cell for even j ≤ maxJ
// and α in (0, 1] is a number.
func (r Resilience) failNumeric(t Task, maxJ int) bool {
	if r.Lambda == 0 {
		return true
	}
	lam, c, v, d, j := r.Lambda, t.Ckpt, t.Verify, r.Downtime, float64(maxJ)
	if !(inCap(2*lam) && inCap(lam*j) && inCap(c) && inCap(c/j) &&
		v >= 0 && v <= numCap && d >= 0 && d <= numCap && r.SilentLambda <= numCap) {
		return false
	}
	x := lam * c
	w := 1.5 * math.Sqrt(2*x)
	return math.Exp(r.SilentLambda/lam*w)*(w+2*lam*v)+2*x <= 350
}

// timesNumeric reports whether no t_{i,j} with j ≥ 2 of the profile is
// NaN, for the profile kinds where that is decidable: a Synthetic
// profile with a finite t(m,1) = 2m·log₂m, m ≥ 1 and 0 ≤ f ≤ 1 (every term
// of Eq. (10) is then finite and non-negative), or a Table with no NaN
// entry past the first (t_{i,1} is never read).
func timesNumeric(p Profile) bool {
	pv, ok := profileValue(p)
	if !ok {
		return false
	}
	switch s := pv.(type) {
	case Synthetic:
		t1 := 2 * s.M * math.Log2(s.M)
		return s.M >= 1 && t1 <= math.MaxFloat64 && s.SeqFraction >= 0 && s.SeqFraction <= 1
	case Table:
		ts := s.Times
		if len(ts) > 1 {
			ts = ts[1:]
		}
		for _, x := range ts {
			if x != x {
				return false
			}
		}
		return len(ts) > 0
	}
	return false
}
