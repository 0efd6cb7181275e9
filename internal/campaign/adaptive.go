package campaign

import (
	"cosched/internal/scenario"
	"cosched/internal/stats"
)

// CellQuantiles are the quantiles an adaptive campaign tracks per cell
// through streaming P² sketches (fixed campaigns compute any quantile
// exactly from their raw samples).
var CellQuantiles = []float64{0.5, 0.95}

// metricCell is the streaming aggregate of one metric of one (point,
// policy) cell: Summary-compatible moments, a batch-means CI, and P²
// quantile sketches.
type metricCell struct {
	acc    stats.Accumulator
	bm     stats.BatchMeans
	quants *stats.QuantileSet
}

func (c *metricCell) add(x float64) {
	c.acc.Add(x)
	c.bm.Add(x)
	c.quants.Add(x)
}

// cellState is the streaming aggregate of one (point, policy) cell of an
// adaptive campaign: one metricCell per metric (just the makespan
// offline; the per-job online metrics behind it for online campaigns, so
// adaptive precision drives stretch exactly like makespan). Replicates
// fold in replicate order, so every field is a deterministic function of
// the folded prefix.
type cellState struct {
	m []metricCell
}

// add folds one replicate's metric vector (width len(c.m)).
func (c *cellState) add(vals []float64) {
	for k := range c.m {
		c.m[k].add(vals[k])
	}
}

// pointState is the adaptive state of one grid point.
type pointState struct {
	folded  int               // contiguous replicates folded into cells
	next    int               // first replicate never released
	pending map[int][]float64 // accepted, waiting for the prefix below them
	stopped bool
}

// adaptive is the Assembler's state for a spec carrying a precision
// block; the methods below are the adaptive unit source and fold.
//
// Determinism contract: replicates fold strictly in replicate order per
// point (out-of-order results buffer in pending), and the stopping rule
// is evaluated only when the folded count reaches a batch boundary — so
// every decision is a pure function of the folded prefix, which is
// itself a pure function of (spec, seed). Executor width, arrival order,
// restores and speculation cannot change the outcome, only the
// wall-clock.
type adaptive struct {
	batch   int
	minReps int
	maxReps int
	conf    float64
	relHW   float64
	// width is the executor's unit parallelism. When it exceeds what the
	// live points' batches can fill (width > live × batch), each point
	// releases a speculation window of 2×width replicates (rounded up to
	// whole batches) past its folded prefix instead of one batch at a
	// time. Speculated units of a point that stops first are refused
	// unfolded, so the window never changes the output.
	width  int
	points []pointState
	live   int // points whose stopping rule has not fired
	// stops counts stopping-rule firings; reported is how many of them
	// Assembler.Report has mirrored into telemetry.
	stops, reported int
	// free recycles pending value-vector buffers.
	free [][]float64
}

// initAdaptive sets up the streaming cells and releases the first batch
// of every point.
func (a *Assembler) initAdaptive(prec scenario.PrecisionSpec, width int) {
	ad := &adaptive{
		batch:   prec.BatchSize(),
		minReps: prec.MinReps(),
		maxReps: prec.MaxReplicates,
		conf:    prec.ConfidenceLevel(),
		relHW:   prec.RelHalfWidth,
		width:   width,
		points:  make([]pointState, len(a.res.Points)),
		live:    len(a.res.Points),
	}
	res := a.res
	res.adaptive = true
	res.cells = make([][]cellState, len(res.Points))
	for pi := range res.cells {
		cs := make([]cellState, len(res.Policies))
		for qi := range cs {
			cs[qi].m = make([]metricCell, a.nm)
			for k := range cs[qi].m {
				cs[qi].m[k].bm = stats.NewBatchMeans(ad.batch)
				cs[qi].m[k].quants = stats.NewQuantileSet(CellQuantiles...)
			}
		}
		res.cells[pi] = cs
		ad.points[pi].pending = make(map[int][]float64)
	}
	a.ad = ad
	for pi := range ad.points {
		a.advance(pi)
	}
}

// foldAdaptive buffers one replicate of a live point and advances the
// point.
func (a *Assembler) foldAdaptive(pi, rep int, vals []float64) bool {
	ad := a.ad
	ps := &ad.points[pi]
	if ps.stopped {
		return false
	}
	var buf []float64
	if n := len(ad.free); n > 0 {
		buf, ad.free = ad.free[n-1], ad.free[:n-1]
	}
	ps.pending[rep] = append(buf[:0], vals...)
	a.got[pi*a.rcap+rep] = true
	a.advance(pi)
	return true
}

// advance folds the point's contiguous pending replicates, evaluates the
// stopping rule at batch boundaries and, while the point continues,
// releases the replicates its window now covers: the rest of the batch
// containing the folded prefix, or the speculation window.
func (a *Assembler) advance(pi int) {
	ad := a.ad
	ps := &ad.points[pi]
	for !ps.stopped {
		vals, ok := ps.pending[ps.folded]
		if !ok {
			break
		}
		delete(ps.pending, ps.folded)
		cells := a.res.cells[pi]
		for qi := range cells {
			cells[qi].add(vals[qi*a.nm : (qi+1)*a.nm])
		}
		ad.free = append(ad.free, vals)
		ps.folded++
		a.res.Reps[pi] = ps.folded
		a.done++
		if (ps.folded == ad.maxReps || ps.folded%ad.batch == 0) && a.shouldStop(pi) {
			ps.stopped = true
			ad.live--
			ad.stops++
			a.planned -= ad.maxReps - ps.folded
			for rep, v := range ps.pending {
				delete(ps.pending, rep)
				ad.free = append(ad.free, v)
			}
		}
	}
	if ps.stopped {
		return
	}
	end := (ps.folded/ad.batch + 1) * ad.batch
	if ad.width > ad.live*ad.batch {
		la := 2 * ad.width
		if r := la % ad.batch; r != 0 {
			la += ad.batch - r
		}
		end = ps.folded + la
	}
	if end > ad.maxReps {
		end = ad.maxReps
	}
	if ps.next < ps.folded {
		ps.next = ps.folded
	}
	// next only moves forward, so no replicate is released twice;
	// restored ones already accepted are skipped.
	for ; ps.next < end; ps.next++ {
		if u := pi*a.rcap + ps.next; !a.got[u] {
			a.released = append(a.released, u)
		}
	}
}

// shouldStop evaluates the sequential stopping rule for one point: stop
// at the replicate cap, never before the floor, and otherwise only once
// every policy's batch-means CI half-width is within the target relative
// to its mean — for the makespan and, in online campaigns, the mean
// stretch as well (response/wait/utilization are reported but do not
// gate stopping: queue wait can be legitimately zero-mean, where a
// relative CI target is undefined).
func (a *Assembler) shouldStop(pi int) bool {
	ad := a.ad
	folded := ad.points[pi].folded
	if folded >= ad.maxReps {
		return true
	}
	if folded < ad.minReps {
		return false
	}
	cells := a.res.cells[pi]
	for qi := range cells {
		if !cells[qi].m[MetricMakespan].bm.Converged(ad.conf, ad.relHW) {
			return false
		}
		if a.nm > 1 && !cells[qi].m[MetricStretch].bm.Converged(ad.conf, ad.relHW) {
			return false
		}
	}
	return true
}
