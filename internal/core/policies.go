package core

import (
	"fmt"

	"cosched/internal/model"
)

// Decision is the working state handed to a redistribution heuristic: a
// frozen snapshot of the eligible tasks (work fractions, allocations,
// expected finish times) plus candidate allocations the heuristic is
// free to mutate. Engine state is only touched at commit time, so an
// aborted heuristic leaves no trace.
//
// All scratch is index-addressed by task and owned by the Simulator —
// maps were deliberately traded for slices so that a decision round
// performs no allocation and no hashing. Eligibility is tracked with a
// round-stamp (mark[i] == round) so clearing between rounds is O(1).
//
// Rules mutate candidate allocations only through SetSigma, which
// enforces the invariants (even allocations ≥ 2, processor
// conservation).
type Decision struct {
	e       *Simulator
	t       float64
	faulty  int   // task index, or -1
	arrived []int // just-admitted tasks; set for arrival rounds only

	mark      []uint64 // eligibility stamp per task
	bound     []uint64 // evaluator-binding stamp per task (lazy, see bind)
	round     uint64
	elig      []int // shared with the simulator's eligibility buffer
	sigmaInit []int
	sigmaNew  []int
	alphaT    []float64
	oldTU     []float64
	tUc       []float64 // candidate tU, indexed by task (heap key)
	evals     []model.MinEval
	rcRow     []model.RedistRow // frozen-source Eq. (9) cost rows (lazy)
	base      []float64         // t + extra(i), frozen per round (lazy)
	ckRow     [][]float64       // post-redist ckpt surcharge rows (lazy)
	avail     int               // free processors under the current candidate assignment
}

// resize grows the decision's arenas to n tasks, retaining capacity.
// The round counter is monotonic across Resets, so mark entries never
// need clearing: a fresh (zeroed) or stale stamp can only be smaller
// than the next round beginDecision stamps with.
func (d *Decision) resize(e *Simulator, n int) {
	d.e = e
	growInts(&d.sigmaInit, n)
	growInts(&d.sigmaNew, n)
	growFloats(&d.alphaT, n)
	growFloats(&d.oldTU, n)
	growFloats(&d.tUc, n)
	if cap(d.mark) < n {
		d.mark = make([]uint64, n)
	}
	d.mark = d.mark[:n]
	if cap(d.bound) < n {
		d.bound = make([]uint64, n)
	}
	d.bound = d.bound[:n]
	if cap(d.evals) < n {
		d.evals = make([]model.MinEval, n)
	}
	d.evals = d.evals[:n]
	if cap(d.rcRow) < n {
		d.rcRow = make([]model.RedistRow, n)
	}
	d.rcRow = d.rcRow[:n]
	growFloats(&d.base, n)
	if cap(d.ckRow) < n {
		d.ckRow = make([][]float64, n)
	}
	d.ckRow = d.ckRow[:n]
}

// beginDecision primes the scratch for one heuristic invocation over the
// eligible tasks. For the faulty task the skeleton already rolled α back
// to the last checkpoint; everyone else is frozen at alphaT(t). The
// per-task evaluator binding (work fraction, prefix-min evaluator, cost
// row) is deferred to the first Candidate query of the round — many
// rounds touch only a few of the eligible tasks (Algorithm 3 stops when
// the free pool runs dry, Algorithm 4 only looks at the faulty task and
// its donors), and the engine state is frozen during the round, so a
// late binding computes exactly what an eager one would have.
func (e *Simulator) beginDecision(t float64, elig []int, faulty int) {
	e.ctr.Decisions++
	d := &e.d
	d.t = t
	d.faulty = faulty
	d.elig = elig
	d.round++
	d.avail = e.plat.FreeProcs()
	for _, i := range elig {
		d.mark[i] = d.round
		d.sigmaInit[i] = e.st[i].sigma
		d.sigmaNew[i] = e.st[i].sigma
		d.oldTU[i] = e.st[i].tU
		d.tUc[i] = e.st[i].tU
	}
}

// bind computes task i's frozen work fraction and rebinds its prefix-min
// evaluator and redistribution-cost row, once per round, on first use.
func (d *Decision) bind(i int) {
	if d.bound[i] == d.round {
		return
	}
	d.bound[i] = d.round
	if i == d.faulty {
		d.alphaT[i] = d.e.st[i].alpha
	} else {
		d.alphaT[i] = d.e.alphaT(i, d.t)
	}
	d.evals[i].ResetCompiled(d.e.cm, i, d.alphaT[i])
	d.rcRow[i] = d.e.cm.RedistRowFrom(i, d.sigmaInit[i])
	d.base[i] = d.t + d.extra(i)
	d.ckRow[i] = d.e.cm.PostRedistCkptRow(i)
}

// Now returns the decision time t.
func (d *Decision) Now() float64 { return d.t }

// Eligible returns the tasks available for redistribution, in ascending
// index order. The slice is shared: do not mutate or retain it.
func (d *Decision) Eligible() []int { return d.elig }

// IsEligible reports whether task i participates in this decision.
func (d *Decision) IsEligible(i int) bool {
	return i >= 0 && i < len(d.mark) && d.mark[i] == d.round
}

// Avail returns the number of free processors not claimed by the current
// candidate assignment.
func (d *Decision) Avail() int { return d.avail }

// Sigma returns the candidate allocation of task i.
func (d *Decision) Sigma(i int) int { return d.sigmaNew[i] }

// InitialSigma returns the allocation task i held when the decision
// started.
func (d *Decision) InitialSigma(i int) int { return d.sigmaInit[i] }

// TU returns the candidate expected finish time of task i under its
// current candidate allocation.
func (d *Decision) TU(i int) float64 { return d.tUc[i] }

// extra returns the downtime + recovery surcharge paid by the faulty task
// before any redistribution can start. The pseudocode of Algorithms 4/5
// omits it from candidate finish times while §3.3.2 includes it in
// tlastR; we apply it consistently on both sides (DESIGN.md §5.3).
func (d *Decision) extra(i int) float64 {
	if i != d.faulty {
		return 0
	}
	return d.e.in.Res.Downtime + d.e.cm.Recovery(i, d.sigmaInit[i])
}

// Candidate returns the expected finish time of task i if it were
// redistributed from its initial allocation to cand processors at time t:
//
//	tE = t [+ D + R] + RC^{init→cand} + C_{i,cand} + t^R_{i,cand}(αt).
//
// Reverting to the initial allocation means no redistribution at all, so
// the candidate is the task's unperturbed trajectory (its current tU).
func (d *Decision) Candidate(i, cand int) float64 {
	d.e.ctr.CandidateEvals++
	return d.candidate(i, cand)
}

// candidate is Candidate without the CandidateEvals count.
func (d *Decision) candidate(i, cand int) float64 {
	if cand == d.sigmaInit[i] {
		return d.oldTU[i]
	}
	d.bind(i)
	// The sum below associates exactly as the pre-cached form
	// t + extra + RC + C + t^R: base is the frozen (t + extra).
	return d.base[i] +
		d.rcRow[i].Cost(cand) +
		d.ckpt(i, cand) +
		d.evals[i].At(cand)
}

// ckpt returns task i's post-redistribution checkpoint surcharge at
// target cand from its contiguous row: zero when fault-free, and
// PostRedistCkpt for targets past the stride. C_{i,cand} = C_i/cand, so
// it is non-increasing in cand. i must be bound.
func (d *Decision) ckpt(i, cand int) float64 {
	row := d.ckRow[i]
	if row == nil {
		return 0
	}
	if k := cand/2 - 1; k < len(row) {
		return row[k]
	}
	return d.e.cm.PostRedistCkpt(i, cand)
}

// pruneMargin is the relative slack provablyDead leaves between its
// bound and tUc: the bound is exact-arithmetic, and the float64 rounding
// of Candidate's few positive terms moves it by ulps, far below 1e-9.
const pruneMargin = 1e-9

// provablyDead reports, in O(1) and with no Eq. (4) evaluation, that no
// candidate of task i in the even range [lo, hi] finishes before tUc[i].
// Every term of Candidate(i, c) for c ≠ σ_init is bounded below over the
// range (DESIGN.md §12, "Pruned scans"):
//
//	base + RC(σ_init→c) + C_{i,c} + t^R_{i,c}(α)
//	  ≥ base + MinCost(lo, hi) + C_{i,hi} + RawFloor(hi).
//
// The candidate c = σ_init is the unperturbed trajectory oldTU, compared
// exactly. A false result proves nothing.
func (d *Decision) provablyDead(i, lo, hi int) bool {
	if s := d.sigmaInit[i]; lo <= s && s <= hi && d.oldTU[i] < d.tUc[i] {
		return false
	}
	d.bind(i)
	lb := d.base[i] +
		d.rcRow[i].MinCost(lo, hi) +
		d.ckpt(i, hi) +
		d.e.cm.RawFloor(i, hi, d.alphaT[i])
	return lb*(1-pruneMargin) >= d.tUc[i]
}

// skipDead reports whether a heuristic may skip scanning task i's even
// candidates in [lo, hi] because provablyDead proves none improves, and
// counts the skip in PrunedScans. Under Options.Paranoia it re-runs the
// skipped scan in full through the uncounted candidate, and records the
// first improving candidate as the error check (and so Run) returns.
func (d *Decision) skipDead(i, lo, hi int) bool {
	if !d.provablyDead(i, lo, hi) {
		return false
	}
	d.e.ctr.PrunedScans++
	if !d.e.opt.Paranoia {
		return true
	}
	for c := lo; c <= hi && d.e.pruneErr == nil; c += 2 {
		if tE := d.candidate(i, c); tE < d.tUc[i] {
			d.e.pruneErr = fmt.Errorf("core: pruned scan of task %d over [%d, %d] at t=%v hides candidate %d: %v < %v",
				i, lo, hi, d.t, c, tE, d.tUc[i])
		}
	}
	return true
}

// SetSigma sets the candidate allocation of task i to cand processors and
// refreshes its candidate finish time. It panics when i is not eligible,
// cand is not a positive even count, or the candidate assignment would
// oversubscribe the platform — external heuristics cannot break
// processor conservation.
func (d *Decision) SetSigma(i, cand int) {
	if !d.IsEligible(i) {
		panic(fmt.Sprintf("core: SetSigma on non-eligible task %d", i))
	}
	if cand < 2 || cand%2 != 0 {
		panic(fmt.Sprintf("core: SetSigma task %d to invalid allocation %d (want positive even)", i, cand))
	}
	d.avail += d.sigmaNew[i] - cand
	if d.avail < 0 {
		panic(fmt.Sprintf("core: SetSigma task %d to %d oversubscribes the platform by %d processors", i, cand, -d.avail))
	}
	d.sigmaNew[i] = cand
	d.tUc[i] = d.Candidate(i, cand)
}

// commit applies every allocation change to the engine. Shrinks are
// applied before grows so the processor pool can always serve the grows,
// and tasks are visited in index order (Eligible is ascending) for
// determinism.
func (d *Decision) commit() {
	for pass := 0; pass < 2; pass++ {
		for _, i := range d.elig {
			if d.sigmaNew[i] == d.sigmaInit[i] {
				continue
			}
			shrink := d.sigmaNew[i] < d.sigmaInit[i]
			if (pass == 0) != shrink {
				continue
			}
			err := d.e.commitRedist(i, d.t, d.sigmaNew[i], d.alphaT[i], &d.evals[i], i == d.faulty)
			if err != nil {
				// Allocation arithmetic is validated by construction; a
				// failure here is a programming error, not a user error.
				panic(err)
			}
		}
	}
}

// --- The paper's heuristics ------------------------------------------

// endLocal is Algorithm 3 (Redistrib-Available-Procs): hand the free
// processors to the longest tasks, two at a time, as long as their
// expected finish improves; a task that cannot be improved is dropped
// from consideration for this invocation.
func endLocal(d *Decision) {
	k := d.avail
	if k < 2 || len(d.elig) == 0 {
		return
	}
	h := &d.e.heap
	h.build(d.elig)
	for k >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		// Scan even extensions; the first improving one proves the task
		// is improvable (lines 10–15), after which it grows by one pair.
		// The bound runs first, so a provably dead task never extends
		// its prefix-min cache.
		improvable := false
		if !d.skipDead(i, d.sigmaNew[i]+2, d.sigmaNew[i]+k) {
			for q := 2; q <= k; q += 2 {
				if d.Candidate(i, d.sigmaNew[i]+q) < d.tUc[i] {
					improvable = true
					break
				}
			}
		}
		if improvable {
			d.SetSigma(i, d.sigmaNew[i]+2)
			h.fixTop()
			k -= 2
		} else {
			h.popMax()
		}
	}
}

// iteratedGreedy is Algorithm 5, shared by the end-of-task (EndGreedy,
// faulty < 0), failure (IteratedGreedy) and arrival (ArrivalGreedy)
// variants: virtually reset every eligible task to one pair, then regrow
// the longest task two processors at a time while its expected finish
// (including redistribution costs) improves. Reaching the initial
// allocation again means "no redistribution" and restores the task's
// unperturbed trajectory.
func iteratedGreedy(d *Decision) {
	if len(d.elig) == 0 {
		return
	}
	for _, i := range d.elig {
		d.SetSigma(i, 2)
	}
	h := &d.e.heap
	h.build(d.elig)
	for d.avail >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		pmax := d.sigmaNew[i] + d.avail
		// After the reset to one pair the first candidate almost always
		// improves, so the bound only runs once it has failed, over the
		// rest of the range.
		first := d.sigmaNew[i] + 2
		improvable := d.Candidate(i, first) < d.tUc[i]
		if !improvable && first < pmax && !d.skipDead(i, first+2, pmax) {
			for cand := first + 2; cand <= pmax; cand += 2 {
				if d.Candidate(i, cand) < d.tUc[i] {
					improvable = true
					break
				}
			}
		}
		if !improvable {
			// Line 30 of Algorithm 5: once the longest task cannot be
			// improved the expected makespan is settled; stop growing.
			break
		}
		d.SetSigma(i, d.sigmaNew[i]+2)
		h.fixTop()
	}
}

// shortestTasksFirst is Algorithm 4: give the free processors to the
// faulty task while that improves it, then transfer pairs from the
// shortest tasks as long as both the faulty task improves and the donor
// does not become the new longest task.
func shortestTasksFirst(d *Decision) {
	if !d.IsEligible(d.faulty) {
		return
	}
	absorbAndSteal(d, d.faulty)
}

// absorbAndSteal is the body of Algorithm 4, shared by the failure-time
// rule (ShortestTasksFirst, f = the faulty task) and the arrival-time
// rule (ArrivalSteal, f = a just-admitted job): grow f from the free
// pool while that improves it, then transfer pairs from the shortest
// tasks as long as f improves and no donor becomes the new bottleneck.
func absorbAndSteal(d *Decision, f int) {
	// Phase 1 (lines 12–25): absorb free processors, smallest improving
	// even increment first, repeatedly.
	k := d.avail
	for k >= 2 {
		granted := 0
		for q := 2; q <= k; q += 2 {
			if tE := d.Candidate(f, d.sigmaNew[f]+q); tE < d.tUc[f] {
				granted = q
				d.SetSigma(f, d.sigmaNew[f]+q)
				break
			}
		}
		if granted == 0 {
			break
		}
		k -= granted
	}

	// Phase 2 (lines 26–41): steal pairs from the shortest tasks. A
	// transfer requires an even amount q whose removal keeps the donor's
	// new finish below the faulty task's current expected finish.
	for {
		s := shortestDonor(d, f)
		if s < 0 {
			break
		}
		improvable := false
		for q := 2; q <= d.sigmaNew[s]-2; q += 2 {
			tEf := d.Candidate(f, d.sigmaNew[f]+q)
			tEs := d.Candidate(s, d.sigmaNew[s]-q)
			if tEf < d.tUc[f] && tEs < d.tUc[f] {
				improvable = true
				break
			}
		}
		if !improvable {
			break
		}
		// Shrink the donor before growing the faulty task so the pair
		// transfer never transits through an oversubscribed state.
		d.SetSigma(s, d.sigmaNew[s]-2)
		d.SetSigma(f, d.sigmaNew[f]+2)
		if d.tUc[s] > d.tUc[f] {
			// Line 39: the donor became the bottleneck; stop stealing.
			break
		}
	}
}

// shortestDonor returns the eligible task with the smallest candidate
// finish time that still has a pair to spare (σ ≥ 4), or -1.
func shortestDonor(d *Decision, faulty int) int {
	best := -1
	for _, i := range d.elig {
		if i == faulty || d.sigmaNew[i] < 4 {
			continue
		}
		if best < 0 || d.tUc[i] < d.tUc[best] || (d.tUc[i] == d.tUc[best] && i < best) {
			best = i
		}
	}
	return best
}
