package campaign

import (
	"cosched/internal/scenario"
	"cosched/internal/stats"
)

// pointState is the adaptive state of one grid point.
type pointState struct {
	folded  int // contiguous replicates fed to the stopping rule
	next    int // first replicate never released
	stopped bool
}

// adaptive is the Assembler's state for a spec carrying a precision
// block; the methods below are the adaptive unit source and stopping
// rule. Replicate values themselves live in the Result's columns, like
// a fixed campaign's.
//
// Determinism contract: the stopping rule consumes each point's
// replicates strictly in replicate order (a replicate that arrives early
// waits in its column slot until the prefix below it is complete), and
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
	// gated lists the metrics the stopping rule checks; bm[pi] holds one
	// batch-means estimator per (policy, gated metric) of point pi, fed
	// as the point's folded prefix grows.
	gated []int
	bm    [][]stats.BatchMeans
	live  int // points whose stopping rule has not fired
	// stops counts stopping-rule firings; reported is how many of them
	// Assembler.Report has mirrored into telemetry.
	stops, reported int
}

// initAdaptive sets up the stopping-rule estimators and releases the
// first batch of every point. The makespan always gates stopping; online
// campaigns gate on the mean stretch as well (response, wait and
// utilization are reported but do not gate: queue wait can be
// legitimately zero-mean, where a relative CI target is undefined).
func (a *Assembler) initAdaptive(prec scenario.PrecisionSpec, width int) {
	ad := &adaptive{
		batch:   prec.BatchSize(),
		minReps: prec.MinReps(),
		maxReps: prec.MaxReplicates,
		conf:    prec.ConfidenceLevel(),
		relHW:   prec.RelHalfWidth,
		width:   width,
		points:  make([]pointState, len(a.res.Points)),
		gated:   []int{MetricMakespan},
		bm:      make([][]stats.BatchMeans, len(a.res.Points)),
		live:    len(a.res.Points),
	}
	if a.nm > 1 {
		ad.gated = append(ad.gated, MetricStretch)
	}
	for pi := range ad.bm {
		ad.bm[pi] = make([]stats.BatchMeans, len(a.res.Policies)*len(ad.gated))
		for i := range ad.bm[pi] {
			ad.bm[pi][i].Reset(ad.batch)
		}
	}
	a.ad = ad
	for pi := range ad.points {
		a.advance(pi)
	}
}

// advance feeds the point's newly contiguous replicates to the stopping
// rule, evaluates it at batch boundaries and, while the point continues,
// releases the replicates its window now covers: the rest of the batch
// containing the folded prefix, or the speculation window. A point that
// stops keeps exactly its folded prefix.
func (a *Assembler) advance(pi int) {
	ad := a.ad
	ps := &ad.points[pi]
	for !ps.stopped && a.got[pi*a.rcap+ps.folded] {
		bm := ad.bm[pi]
		for qi := range a.res.Policies {
			for g, metric := range ad.gated {
				bm[qi*len(ad.gated)+g].Add((*a.res.column(pi, qi, metric))[ps.folded])
			}
		}
		ps.folded++
		a.res.Reps[pi] = ps.folded
		a.done++
		if (ps.folded == ad.maxReps || ps.folded%ad.batch == 0) && a.shouldStop(pi) {
			ps.stopped = true
			ad.live--
			ad.stops++
			a.planned -= ad.maxReps - ps.folded
			a.res.truncate(pi, ps.folded)
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
// every (policy, gated metric) batch-means CI half-width is within the
// target relative to its mean.
func (a *Assembler) shouldStop(pi int) bool {
	ad := a.ad
	folded := ad.points[pi].folded
	if folded >= ad.maxReps {
		return true
	}
	if folded < ad.minReps {
		return false
	}
	for i := range ad.bm[pi] {
		if !ad.bm[pi][i].Converged(ad.conf, ad.relHW) {
			return false
		}
	}
	return true
}
