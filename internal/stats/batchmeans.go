package stats

import "math"

// BatchMeans estimates a confidence interval for the mean of a stream
// without storing samples: observations fold into fixed-length batches,
// each completed batch contributes its mean, and the interval comes from
// the Student-t distribution over those batch means. For i.i.d. inputs
// this matches the classic t interval at batch granularity; for weakly
// correlated streams the batching is what makes the interval honest.
//
// All deterministic-stopping consumers (the adaptive campaign
// controller) read only completed batches, so conclusions drawn from a
// BatchMeans depend on the number of whole batches folded — never on how
// a partial batch is split across arrivals.
type BatchMeans struct {
	batchLen int
	n        int     // total observations, including the partial batch
	sum      float64 // running sum of the current partial batch
	cnt      int     // observations in the current partial batch
	means    Accumulator
}

// NewBatchMeans returns an accumulator folding batchLen observations
// into each batch mean. It panics if batchLen < 1.
func NewBatchMeans(batchLen int) BatchMeans {
	var b BatchMeans
	b.Reset(batchLen)
	return b
}

// Reset re-arms the accumulator in place for a new stream.
func (b *BatchMeans) Reset(batchLen int) {
	if batchLen < 1 {
		panic("stats: BatchMeans batch length must be at least 1")
	}
	*b = BatchMeans{batchLen: batchLen}
}

// Add folds one observation. Non-finite values taint the accumulator
// (see Valid).
func (b *BatchMeans) Add(x float64) {
	if b.batchLen == 0 {
		b.batchLen = 1 // zero value degrades to per-sample batches
	}
	b.sum += x
	b.cnt++
	b.n++
	if b.cnt == b.batchLen {
		b.means.Add(b.sum / float64(b.batchLen))
		b.sum, b.cnt = 0, 0
	}
}

// N returns the total number of observations folded, including any
// partial batch not yet reflected in the interval.
func (b *BatchMeans) N() int { return b.n }

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return b.means.N() }

// Mean returns the grand mean over completed batches (0 before the
// first batch completes). Equal-length batches make this the plain mean
// of the first Batches()·batchLen observations.
func (b *BatchMeans) Mean() float64 { return b.means.Mean() }

// Valid reports whether every folded observation was finite.
func (b *BatchMeans) Valid() bool { return b.means.Valid() && b.sum-b.sum == 0 }

// HalfWidth returns the half-width of the two-sided Student-t confidence
// interval for the mean at the given confidence level, computed over
// completed batch means. The second return is false while fewer than two
// batches have completed (no variance estimate exists yet).
func (b *BatchMeans) HalfWidth(confidence float64) (float64, bool) {
	nb := b.means.N()
	if nb < 2 {
		return 0, false
	}
	return TCrit(nb-1, confidence) * b.means.StdDev() / math.Sqrt(float64(nb)), true
}

// Converged reports whether the relative CI half-width has reached the
// target: HalfWidth ≤ relTarget·|Mean|. A zero mean converges only once
// the interval itself collapses to zero (constant streams).
func (b *BatchMeans) Converged(confidence, relTarget float64) bool {
	hw, ok := b.HalfWidth(confidence)
	if !ok || !b.Valid() {
		return false
	}
	mean := math.Abs(b.Mean())
	if mean == 0 {
		return hw == 0
	}
	return hw <= relTarget*mean
}
