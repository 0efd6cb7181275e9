package core

import (
	"fmt"
	"math"

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
// Rules read the scratch fields directly and mutate candidate
// allocations only through setEvaluated, which commits a candidate the
// rule has already evaluated, or its wrapper setSigma, which evaluates
// it first; both enforce the invariants (even allocations ≥ 2,
// processor conservation).
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

	// The level rounds of Algorithms 5 and 1 (levelround.go): a round's
	// evaluated steps in one flat arena, queued per task from stepHead[i]
	// through levelStep.next to stepTail[i]; stepCount counts each task's
	// steps in the round, open lists the tasks still stepping, and sel is
	// the budget cut's selection buffer. fitA and fitB hold the key fit
	// A + B/j behind Algorithm 1's predicted level (planLevel).
	steps     []levelStep
	stepHead  []int
	stepTail  []int
	stepCount []int
	open      []int
	sel       []levelElem
	fitA      []float64
	fitB      []float64

	// Options.Paranoia's replay of Algorithm 5 through the heap loop
	// (saveReset, replayHeapLoop).
	rpSigma []int
	rpKey   []float64
	rpAvail int
	rpHeap  taskHeap
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
	growInts(&d.stepHead, n)
	growInts(&d.stepTail, n)
	growInts(&d.stepCount, n)
	growFloats(&d.fitA, n)
	growFloats(&d.fitB, n)
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
// row) is deferred to the first candidate query of the round — many
// rounds touch only a few of the eligible tasks (Algorithm 3 stops when
// the free pool runs dry, Algorithm 4 only looks at the faulty task and
// its donors), and the engine state is frozen during the round, so a
// late binding computes exactly what an eager one would have.
func (e *Simulator) beginDecision(t float64, elig []int, faulty int) {
	e.ctr.Decisions++
	d := &e.d
	d.t = t
	d.faulty = faulty
	d.arrived = nil
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

// isEligible reports whether task i participates in this decision.
func (d *Decision) isEligible(i int) bool {
	return i >= 0 && i < len(d.mark) && d.mark[i] == d.round
}

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

// candidate returns the expected finish time of task i if it were
// redistributed from its initial allocation to cand processors at time t:
//
//	tE = t [+ D + R] + RC^{init→cand} + C_{i,cand} + t^R_{i,cand}(αt).
//
// Reverting to the initial allocation means no redistribution at all, so
// the candidate is the task's unperturbed trajectory (its current tU).
func (d *Decision) candidate(i, cand int) float64 {
	d.e.ctr.CandidateEvals++
	return d.uncountedCandidate(i, cand)
}

// uncountedCandidate is candidate without the CandidateEvals count.
func (d *Decision) uncountedCandidate(i, cand int) float64 {
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
// target cand from its contiguous row: zero when fault-free.
// C_{i,cand} = C_i/cand, so it is non-increasing in cand. i must be
// bound.
func (d *Decision) ckpt(i, cand int) float64 {
	row := d.ckRow[i]
	if row == nil {
		return 0
	}
	return row[cand/2-1]
}

// pruneMargin is the relative slack provablyDead leaves between its
// bound and tUc: the bound is exact-arithmetic, and the float64 rounding
// of candidate's few positive terms moves it by ulps, far below 1e-9.
const pruneMargin = 1e-9

// provablyDead reports, in O(1) and with no Eq. (4) evaluation, that no
// candidate of task i in the even range [lo, hi] finishes before tUc[i].
// Every term of candidate(i, c) for c ≠ σ_init is bounded below over the
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
	for c := lo; c <= hi && d.e.paranoidErr == nil; c += 2 {
		if tE := d.uncountedCandidate(i, c); tE < d.tUc[i] {
			d.e.paranoidErr = fmt.Errorf("core: pruned scan of task %d over [%d, %d] at t=%v hides candidate %d: %v < %v",
				i, lo, hi, d.t, c, tE, d.tUc[i])
		}
	}
	return true
}

// setSigma sets the candidate allocation of task i to cand processors and
// refreshes its candidate finish time. It panics when i is not eligible,
// cand is not a positive even count, or the candidate assignment would
// oversubscribe the platform — no rule can break processor
// conservation. The checks run before the candidate is evaluated, so a
// malformed call reads no row.
func (d *Decision) setSigma(i, cand int) {
	d.checkSet(i, cand)
	d.setEvaluated(i, cand, d.candidate(i, cand))
}

// setEvaluated is the one commit path of a candidate allocation: it sets
// task i to cand processors with candidate finish time tE, which the
// caller has just computed as candidate(i, cand), so a grow step never
// evaluates the candidate it chose twice. It enforces setSigma's
// invariants. Under Options.Paranoia it recomputes the candidate through
// the uncounted path and records a bit mismatch as the error check (and
// so Run) returns.
func (d *Decision) setEvaluated(i, cand int, tE float64) {
	d.checkSet(i, cand)
	if d.e.opt.Paranoia && d.e.paranoidErr == nil {
		if want := d.uncountedCandidate(i, cand); math.Float64bits(want) != math.Float64bits(tE) {
			d.e.paranoidErr = fmt.Errorf("core: task %d set to %d at t=%v with candidate time %v, want %v",
				i, cand, d.t, tE, want)
		}
	}
	d.avail += d.sigmaNew[i] - cand
	d.sigmaNew[i] = cand
	d.tUc[i] = tE
}

// checkSet panics unless task i is eligible, cand is a positive even
// count and moving i to cand keeps the candidate assignment within the
// platform.
func (d *Decision) checkSet(i, cand int) {
	if !d.isEligible(i) {
		panic(fmt.Sprintf("core: SetSigma on non-eligible task %d", i))
	}
	if cand < 2 || cand%2 != 0 {
		panic(fmt.Sprintf("core: SetSigma task %d to invalid allocation %d (want positive even)", i, cand))
	}
	if over := cand - d.sigmaNew[i] - d.avail; over > 0 {
		panic(fmt.Sprintf("core: SetSigma task %d to %d oversubscribes the platform by %d processors", i, cand, over))
	}
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
		// is improvable (lines 10–15), after which it grows by one pair,
		// committing the q = 2 value the scan computed first. The bound
		// runs first, so a provably dead task never extends its
		// prefix-min cache.
		improvable := false
		var tE2 float64
		if !d.skipDead(i, d.sigmaNew[i]+2, d.sigmaNew[i]+k) {
			for q := 2; q <= k; q += 2 {
				tE := d.candidate(i, d.sigmaNew[i]+q)
				if q == 2 {
					tE2 = tE
				}
				if tE < d.tUc[i] {
					improvable = true
					break
				}
			}
		}
		if improvable {
			d.setEvaluated(i, d.sigmaNew[i]+2, tE2)
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
// unperturbed trajectory. The regrowth's leading simple steps are taken
// in level rounds (levelRounds); the heap loop takes the rest.
func iteratedGreedy(d *Decision) {
	if len(d.elig) == 0 {
		return
	}
	resetToPairs(d)
	if d.e.opt.Paranoia {
		d.saveReset()
	}
	d.levelRounds(algorithm5)
	growLongest(d)
	if d.e.opt.Paranoia {
		d.replayHeapLoop()
	}
}

// resetToPairs virtually resets every eligible task to one pair
// (Algorithm 5's first loop).
func resetToPairs(d *Decision) {
	// Regrowth reads each row from 2 up to about the task's old
	// allocation, one cell per step. Reading that prefix now fills it in
	// one rawRange pass; the prefix-min fold runs in ascending order
	// whatever the batch, so every value is the one the steps would read.
	// A task already at one pair has no prefix to read, and stays unbound
	// until the regrowth first asks for one of its candidates.
	for _, i := range d.elig {
		if d.sigmaInit[i] > 2 {
			d.bind(i)
			d.evals[i].At(d.sigmaInit[i])
		}
		d.setSigma(i, 2)
	}
}

// growLongest is Algorithm 5's regrowth loop: take the longest task and
// grow it by one pair while some extension within the free pool improves
// it.
func growLongest(d *Decision) {
	if d.avail < 2 {
		return
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
		tFirst := d.nextCandidate(i)
		improvable := tFirst < d.tUc[i]
		if !improvable && first < pmax && !d.skipDead(i, first+2, pmax) {
			for cand := first + 2; cand <= pmax; cand += 2 {
				if d.candidate(i, cand) < d.tUc[i] {
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
		d.setEvaluated(i, first, tFirst)
		h.fixTop()
	}
}

// shortestTasksFirst is Algorithm 4: give the free processors to the
// faulty task while that improves it, then transfer pairs from the
// shortest tasks as long as both the faulty task improves and the donor
// does not become the new longest task.
func shortestTasksFirst(d *Decision) {
	if !d.isEligible(d.faulty) {
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
			if tE := d.candidate(f, d.sigmaNew[f]+q); tE < d.tUc[f] {
				granted = q
				d.setEvaluated(f, d.sigmaNew[f]+q, tE)
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
		// The transfer moves one pair and commits the q = 2 values the
		// scan computed first (σ_s ≥ 4, so q = 2 is always scanned).
		improvable := false
		var tEf2, tEs2 float64
		for q := 2; q <= d.sigmaNew[s]-2; q += 2 {
			tEf := d.candidate(f, d.sigmaNew[f]+q)
			tEs := d.candidate(s, d.sigmaNew[s]-q)
			if q == 2 {
				tEf2, tEs2 = tEf, tEs
			}
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
		d.setEvaluated(s, d.sigmaNew[s]-2, tEs2)
		d.setEvaluated(f, d.sigmaNew[f]+2, tEf2)
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
