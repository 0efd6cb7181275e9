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
// The evaluator extends its cache incrementally, so a loop scanning
// ascending j pays O(1) amortized per step instead of O(j) per query.
// It is bound to one (task, α) pair; allocate a fresh evaluator whenever
// the remaining fraction α changes.
type MinEval struct {
	r     Resilience
	t     Task
	alpha float64
	c     *Compiled // when non-nil, raw queries read the compiled tables
	ti    int       // task index within c
	mins  []float64 // mins[k] = prefix-min of raw t^R at j = 2(k+1)
	// numTo is the largest allocation through which every raw cell is
	// proven a number (numeric.go), so At is non-increasing up to it; −1
	// until DropsBelow first needs the proof.
	numTo int
}

// NewMinEval returns an evaluator for t^R_{i,·}(α) with Eq. (6) applied.
func NewMinEval(r Resilience, t Task, alpha float64) *MinEval {
	return &MinEval{r: r, t: t, alpha: alpha, numTo: -1}
}

// Reset rebinds the evaluator to a new (task, α) pair in place,
// invalidating the cache but keeping its capacity. A simulator that owns
// one evaluator per task slot can therefore re-prime them at every
// decision round — and across whole runs — without allocating; the
// cached prefix-min values are shared by every candidate query of the
// round, exactly as with a freshly allocated evaluator.
func (e *MinEval) Reset(r Resilience, t Task, alpha float64) {
	e.r = r
	e.t = t
	e.alpha = alpha
	e.c = nil
	e.mins = e.mins[:0]
	e.numTo = -1
}

// ResetCompiled rebinds the evaluator to task ti of a compiled instance
// model: raw Eq. (4) queries become table lookups plus one Expm1 instead
// of full recomputations, with bit-identical results (see rawRange).
// Everything else — the prefix-min cache, the amortized-O(1) ascending
// scan — behaves exactly as after Reset.
func (e *MinEval) ResetCompiled(c *Compiled, ti int, alpha float64) {
	e.r = c.res
	e.t = c.tasks[ti]
	e.alpha = alpha
	e.c = c
	e.ti = ti
	e.mins = e.mins[:0]
	e.numTo = -1
}

// At returns the monotonized expected time on j processors. j must be a
// positive even count (the double-checkpointing buddy constraint).
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
// through j. The proof (Resilience.rowNumeric) runs once per binding, for
// the j of the first call; Algorithm 1's first query on a task is for the
// largest allocation any later one reaches, since σ + avail only falls.
// Compiled cells are bit-identical to direct ones, so one proof serves
// both; a compiled evaluator reads the proof's profile half from the
// table.
func (e *MinEval) NumericThrough(j int) bool {
	if e.alpha != e.alpha { // NaN α: every cell is NaN
		return false
	}
	if e.numTo < 0 {
		e.numTo = 0
		var times bool
		if e.c != nil {
			times = e.c.trow[e.ti].times
		} else {
			times = timesNumeric(e.t.Profile)
		}
		if times && e.r.failNumeric(e.t, j) {
			e.numTo = j
		}
	}
	return j <= e.numTo
}

// Cached returns how many allocations (2, 4, …) the evaluator has
// evaluated so far: the raw Eq. (4) cells its queries have paid for.
func (e *MinEval) Cached() int { return len(e.mins) }

// extend grows the prefix-min cache through row index k. Compiled-backed
// evaluators fill the whole missing range with one rawRange pass over
// the task's contiguous table row, then fold the Eq. (6) prefix minimum
// in ascending index order with the exact comparison of the incremental
// path (prev < raw → keep prev) — the fold must stay scalar and ordered,
// since each cached value is defined in terms of its predecessor; the
// raw fills themselves are batched. Direct-path evaluators fill
// element-wise, as before.
func (e *MinEval) extend(k int) {
	lo := len(e.mins)
	if cap(e.mins) <= k {
		grown := make([]float64, len(e.mins), 2*(k+1))
		copy(grown, e.mins)
		e.mins = grown
	}
	e.mins = e.mins[:k+1]
	if e.c != nil {
		e.c.rawRange(e.ti, e.alpha, lo, k+1, e.mins[lo:])
	} else {
		for kk := lo; kk <= k; kk++ {
			e.mins[kk] = e.r.ExpectedTimeRaw(e.t, 2*(kk+1), e.alpha)
		}
	}
	for kk := lo; kk <= k; kk++ {
		if kk > 0 && e.mins[kk-1] < e.mins[kk] {
			e.mins[kk] = e.mins[kk-1]
		}
	}
}
