package model

import "fmt"

// MinEval evaluates the monotonized expected completion time of Eq. (6),
//
//	t^R_{i,j}(α) = min{ t^R_{i,j−2}(α), t^R_{i,j}(α) },
//
// i.e. the prefix-minimum of the raw Eq. (4) values over even processor
// counts. Adding processors beyond a task's threshold increases the raw
// expected time (more failures), and Eq. (6) caps the model at the
// threshold so that expected time is non-increasing in j — the property
// the greedy algorithms rely on.
//
// The evaluator reads the raw Eq. (4) cells from a compiled table
// (ResetCompiled) and extends its cache incrementally, so a loop scanning
// ascending j pays O(1) amortized per step instead of O(j) per query.
// It is bound to one (task, α) pair; rebind it whenever the remaining
// fraction α changes. Resilience.ExpectedTime is the direct reference it
// is tested against.
type MinEval struct {
	c     *Compiled // the tables raw queries read
	ti    int       // task index within c
	alpha float64
	mins  []float64 // mins[k] = prefix-min of raw t^R at j = 2(k+1)
	// numTo is the largest allocation through which every raw cell is
	// proven a number (numeric.go), so At is non-increasing up to it; −1
	// until DropsBelow first needs the proof.
	numTo int
}

// ResetCompiled binds the evaluator to task ti of a compiled instance
// model at work fraction α, invalidating the cache but keeping its
// capacity: raw Eq. (4) queries are table lookups plus one Expm1,
// bit-identical to Resilience.ExpectedTimeRaw (see rawRange). A simulator
// that owns one evaluator per task slot re-primes them at every decision
// round, and across whole runs, without allocating.
func (e *MinEval) ResetCompiled(c *Compiled, ti int, alpha float64) {
	e.c = c
	e.ti = ti
	e.alpha = alpha
	e.mins = e.mins[:0]
	e.numTo = -1
}

// At returns the monotonized expected time on j processors. j must be a
// positive even count (the double-checkpointing buddy constraint) within
// the table.
func (e *MinEval) At(j int) float64 {
	if j < 2 || j%2 != 0 {
		panic(fmt.Sprintf("model: MinEval.At with j=%d (want positive even)", j))
	}
	k := j/2 - 1
	if len(e.mins) <= k {
		e.extend(k)
	}
	return e.mins[k]
}

// DropsBelow reports whether At(pmax) < At(sigma), for even
// 2 ≤ sigma ≤ pmax: line 9 of Algorithm 1, "can the task's expected time
// still strictly drop with up to pmax processors?". On a row proven free
// of NaN, At is a non-increasing prefix minimum, so the first cell past
// sigma that drops below At(sigma) decides the answer and the scan stops
// there: a greedy that grants one pair per true answer reads about one
// new cell per grant instead of filling the row out to pmax. A row that
// may hold a NaN — which restarts the Eq. (6) fold, so At can rise past
// it — takes the full comparison. Either way the result is exactly
// At(sigma) > At(pmax).
func (e *MinEval) DropsBelow(sigma, pmax int) bool {
	cur := e.At(sigma)
	if !e.NumericThrough(pmax) {
		return cur > e.At(pmax)
	}
	for k := sigma / 2; k < pmax/2; k++ { // j = 2(k+1) = sigma+2, …, pmax
		if len(e.mins) <= k {
			e.extend(k)
		}
		if e.mins[k] < cur {
			return true
		}
	}
	return false
}

// NumericThrough reports whether every raw cell through allocation j is
// proven a number at the evaluator's α, so that At is non-increasing
// through j. The proof (numeric.go) runs once per binding, for the j of
// the first call; Algorithm 1's first query on a task is for the largest
// allocation any later one reaches, since σ + avail only falls. The
// proof's profile half is read from the table.
func (e *MinEval) NumericThrough(j int) bool {
	if e.alpha != e.alpha { // NaN α: every cell is NaN
		return false
	}
	if e.numTo < 0 {
		e.numTo = 0
		if e.c.trow[e.ti].times && e.c.res.failNumeric(e.c.tasks[e.ti], j) {
			e.numTo = j
		}
	}
	return j <= e.numTo
}

// Cached returns how many allocations (2, 4, …) the evaluator has
// evaluated so far: the raw Eq. (4) cells its queries have paid for.
func (e *MinEval) Cached() int { return len(e.mins) }

// extend grows the prefix-min cache through row index k. It fills the
// whole missing range with one rawRange pass over the task's contiguous
// table row, then folds the Eq. (6) prefix minimum in ascending index
// order (prev < raw → keep prev, so a NaN cell restarts the fold). The
// fold stays scalar and ordered, since each cached value is defined in
// terms of its predecessor; the raw fills themselves are batched.
func (e *MinEval) extend(k int) {
	lo := len(e.mins)
	if cap(e.mins) <= k {
		grown := make([]float64, len(e.mins), 2*(k+1))
		copy(grown, e.mins)
		e.mins = grown
	}
	e.mins = e.mins[:k+1]
	e.c.rawRange(e.ti, e.alpha, lo, k+1, e.mins[lo:])
	for kk := lo; kk <= k; kk++ {
		if kk > 0 && e.mins[kk-1] < e.mins[kk] {
			e.mins[kk] = e.mins[kk-1]
		}
	}
}
