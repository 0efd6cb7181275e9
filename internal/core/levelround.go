package core

import (
	"fmt"
	"math"
)

// Algorithm 5 regrows the longest task one pair at a time. Most of its
// grow steps are simple: the task's first candidate, one pair more,
// strictly lowers its key. A simple step reads only its own task's row,
// base time and source allocation, never the free pool or another task,
// so every task's simple steps form a strictly decreasing sequence of
// keys fixed in advance, and the heap loop pops a merge of those
// sequences in its total order (keyedBefore). The set of steps whose
// pre-step element orders before any cut is therefore a prefix of the
// heap's pop order, and can be taken without the heap. Algorithm 1's
// grants have the same shape: a grant whose next cell strictly drops,
// t^R_{i,σ+2}(1) < t^R_{i,σ}(1), reads only its own row, and is line 9's
// answer whatever the pool holds on a row proven free of NaN.
//
// levelRounds takes them in rounds. A round's threshold is the last task
// in heap order. The tasks ordering before it evaluate their candidates
// in ascending order, in passes of at most their share of the unspent
// budget each, while their pre-step element orders before the cut and
// their steps still improve; the evaluated steps go to a flat arena.
// The cut starts at the threshold and only moves earlier: to the first
// non-simple pre-step element found, and, once the round holds more
// steps than the free pool pays for, to the first step past the budget,
// selected from the stored elements. Each task then commits once, with
// its last key before the cut. Rounds run only while the pool funds two
// steps per task. DESIGN.md §5.5 and §12 carry the argument.
//
// Algorithm 1 starts each round's cut at a predicted level instead of the
// threshold when it can predict one (planLevel): any cut splits off a
// prefix of the pop order, and one near the level the pool funds lets
// each task read its row in one pass to about its final allocation.

// levelAlg is the greedy whose grow steps levelRounds takes. A step's
// key, its commit and Algorithm 1's predicted cut differ between them.
type levelAlg int

const (
	// algorithm5 steps a task to candidate(i, σ+2), its finish time
	// redistributed there, and commits through setEvaluated.
	algorithm5 levelAlg = iota
	// algorithm1 steps a task to its own Eq. (6) time t^R_{i,σ+2}(1) and
	// commits to the decision's σ, keys and pool directly
	// (initialSchedule).
	algorithm1
)

// levelMinSteps is the number of steps per eligible task the free pool
// must fund for a level round to run (DESIGN.md §12 has the
// measurements for both greedies).
const levelMinSteps = 2

// levelElem is the pre-step element of one grow step: the task's key
// before the step and its index, ordered as the heap orders tasks.
type levelElem struct {
	key float64
	i   int
}

// before reports whether a orders before b in the heap's total order.
func (a levelElem) before(b levelElem) bool { return keyedBefore(a.key, a.i, b.key, b.i) }

// levelStop says how levelRounds ended.
type levelStop int

const (
	// stopSpent: the free pool fell below one pair short of any budget
	// cut.
	stopSpent levelStop = iota
	// stopEmpty: a round took no step — one eligible task (it is its own
	// threshold) or a NaN key, which leaves the heap order undefined.
	stopEmpty
	// stopNonSimple: a round was cut at a step whose first candidate does
	// not improve; the heap loop takes that step and the rest.
	stopNonSimple
	// stopBudget: a round was cut where the free pool runs out.
	stopBudget
	// stopSmallPool: the pool left funds fewer than two steps per
	// eligible task, so no further round ran (see levelRounds).
	stopSmallPool
)

// levelStep is one grow step a level round evaluated: the task's key
// before and after it, the task, and the arena index of the task's next
// evaluated step (-1: none).
type levelStep struct {
	pre, post float64
	i, next   int
}

// live reports whether step s is a simple step starting before cut.
func (s *levelStep) live(cut levelElem) bool {
	return s.post < s.pre && (levelElem{s.pre, s.i}).before(cut)
}

// levelRounds takes, round by round, the leading simple grow steps of
// alg's greedy: the steps the heap loop would take before its first
// non-simple step or the end of the free pool, all of them unless it
// stops early at a pool too small for a round. It returns how many steps
// it committed and why it stopped. Algorithm 5's steps evaluated past
// the last cut stay queued on their task for nextCandidate; Algorithm
// 1's stay cached in the task's evaluator.
func (d *Decision) levelRounds(alg levelAlg) (taken int, stop levelStop) {
	for _, i := range d.elig {
		d.stepHead[i] = -1
	}
	for _, i := range d.elig {
		if math.IsNaN(d.tUc[i]) {
			return 0, stopEmpty
		}
	}
	for d.avail >= 2 {
		k := d.avail / 2
		// Every round scans every eligible task, and a round the budget
		// cuts leaves the steps its lower tasks evaluated unused. A pool
		// funding few steps per task is mostly such rounds, and cheaper
		// on the heap: one O(n) build, then O(log n) per step, with no
		// evaluation past the budget.
		if k < levelMinSteps*len(d.elig) {
			return taken, stopSmallPool
		}
		cut, kind := d.lastInOrder(), stopSpent
		level := math.NaN() // Algorithm 1's predicted level; NaN: none
		if alg == algorithm1 {
			if l, ok := d.planLevel(k); ok {
				cut, level = levelElem{l, -1}, l
			}
		}
		d.steps = d.steps[:0]
		d.open = d.open[:0]
		for _, i := range d.elig {
			d.stepHead[i], d.stepTail[i], d.stepCount[i] = -1, -1, 0
			if (levelElem{d.tUc[i], i}).before(cut) {
				d.open = append(d.open, i)
			}
		}
		// The open tasks step in passes, each taking at most its share
		// of the unspent budget per pass, so that no task runs far past
		// a budget cut the others have not revealed yet; a pool that
		// funds many steps per task leaves one pass. A task closes at
		// its first element not before the cut, at a non-simple step,
		// or after k steps: one task never takes more of a round.
		live := 0 // simple steps stored before the cut (at most)
		for len(d.open) > 0 {
			burst := max(1, (k-live)/len(d.open))
			open := d.open[:0]
			for _, i := range d.open {
				key := d.tUc[i]
				if t := d.stepTail[i]; t >= 0 {
					key = d.steps[t].post
				}
				n := d.stepCount[i]
				last, more := min(n+burst, k), false
				if alg == algorithm1 && (levelElem{key, i}).before(cut) {
					// The level already shares the budget out: a task may
					// take its predicted steps in one pass, and reads
					// their cells in one rawRange call.
					if m := d.predictSteps(i, level, k); m > n {
						last = max(last, m)
						d.evals[i].At(d.sigmaNew[i] + 2*m)
					}
				}
				for {
					if more = (levelElem{key, i}).before(cut); !more || n == last {
						break
					}
					n++
					// Algorithm 1's key is the task's own t^R(1);
					// Algorithm 5's its counted candidate finish time.
					var tE float64
					if cand := d.sigmaNew[i] + 2*n; alg == algorithm1 {
						tE = d.evals[i].At(cand)
					} else {
						tE = d.candidate(i, cand)
					}
					d.pushStep(i, key, tE)
					if !(tE < key) {
						cut, kind, more = levelElem{key, i}, stopNonSimple, false
						break
					}
					key = tE
					live++
				}
				d.stepCount[i] = n
				if more && n < k {
					open = append(open, i)
				}
				// Bound the evaluations past the budget: a round holding
				// a quarter more steps than the pool pays for moves its
				// cut to the budget's.
				if live > k+k/4 {
					cut, kind, live = d.budgetCut(cut, kind, k)
				}
			}
			d.open = open
		}
		if live > k {
			cut, kind, _ = d.budgetCut(cut, kind, k)
		}
		round := 0
		for _, i := range d.elig {
			m, key, s := 0, 0.0, d.stepHead[i]
			if t := d.stepTail[i]; t >= 0 && d.steps[t].live(cut) {
				// A task's pre-step elements descend, so when its last
				// step is live they all are.
				m, key, s = d.stepCount[i], d.steps[t].post, -1
			}
			for ; s >= 0 && d.steps[s].live(cut); s = d.steps[s].next {
				m, key = m+1, d.steps[s].post
			}
			d.stepHead[i] = s
			if m > 0 {
				d.takeSteps(alg, i, d.sigmaNew[i]+2*m, key)
				round += m
			}
		}
		taken += round
		switch {
		case kind == stopBudget, kind == stopNonSimple && d.avail >= 2:
			return taken, kind
		case round == 0:
			return taken, stopEmpty
		}
	}
	return taken, stopSpent
}

// takeSteps commits task i's steps of a round: cand processors, with key
// key. Algorithm 1 commits without setEvaluated's eligibility stamp and
// candidate check, which belong to a decision round, but keeps its
// processor conservation.
func (d *Decision) takeSteps(alg levelAlg, i, cand int, key float64) {
	if alg == algorithm5 {
		d.setEvaluated(i, cand, key)
		return
	}
	if over := cand - d.sigmaNew[i] - d.avail; over > 0 {
		panic(fmt.Sprintf("core: Algorithm 1 grants task %d up to %d, oversubscribing the platform by %d processors", i, cand, over))
	}
	d.avail -= cand - d.sigmaNew[i]
	d.sigmaNew[i], d.tUc[i] = cand, key
}

// planLevel predicts the level at which Algorithm 1's pool of k pairs
// runs out, as the key below which no grant of the round falls; ok is
// false when it finds none below the top key. levelRounds cuts the round
// there and lets each task take its predicted steps in one pass, reading
// their cells in one rawRange call.
//
// Cut at the threshold, a round of a pool-bound schedule holds many more
// simple steps than the pool pays for, and the budget cut discards the
// excess after its cells were paid for; cut at the level, each task
// reads its row once, to about its final allocation. The prediction fits
// t_{i,j} = A + B/j through the fault-free times at σ and σ+2 (exact for
// the synthetic profile of Eq. (10)), scales it by the task's key over
// its fault-free time at σ, and bisects on a log scale for the lowest
// level whose predicted steps fit the budget. It only steers the cost:
// the steps before any cut are a prefix of the heap loop's, and the
// budget and non-simple cuts still apply to the round.
func (d *Decision) planLevel(k int) (level float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range d.elig {
		s, key := d.sigmaNew[i], d.tUc[i]
		t1, t2 := d.e.cm.Time(i, s), d.e.cm.Time(i, s+2)
		b := (t1 - t2) * float64(s) * float64(s+2) / 2
		r := key / t1
		d.fitA[i], d.fitB[i] = r*(t1-b/float64(s)), r*b
		if !(b > 0 && r > 0) || math.IsInf(d.fitA[i], 0) || math.IsInf(d.fitB[i], 0) {
			d.fitB[i] = 0 // no prediction past the first step
		}
		lo, hi = min(lo, key), max(hi, key)
	}
	top := hi
	if !(lo > 0 && top < math.Inf(1)) {
		return 0, false // keys that are not positive, finite times
	}
	// Bracket the level between hi, whose predicted steps the budget
	// funds, and lo, whose do not: halve lo below the lowest key until
	// the budget runs out, then bisect on a log scale.
	for halvings := 0; d.predictedTotal(lo, k) <= k; halvings++ {
		if hi, lo = lo, lo/2; halvings == 30 {
			break
		}
	}
	for range 8 {
		if mid := math.Sqrt(lo) * math.Sqrt(hi); d.predictedTotal(mid, k) > k {
			lo = mid
		} else {
			hi = mid
		}
	}
	// A level at the top key would leave the round empty: the fit is too
	// steep there for the bisection to find one below it.
	return hi, hi < top
}

// predictedTotal is the number of steps planLevel predicts above level,
// summed over the eligible tasks.
func (d *Decision) predictedTotal(level float64, k int) int {
	sum := 0
	for _, i := range d.elig {
		sum += d.predictSteps(i, level, k)
	}
	return sum
}

// predictSteps is the number of task i's steps whose pre-step key the
// fit puts above level, at most k: the even j ≥ σ with A + B/j > level.
func (d *Decision) predictSteps(i int, level float64, k int) int {
	if !(d.tUc[i] > level) {
		return 0
	}
	a, b := d.fitA[i], d.fitB[i]
	switch {
	case b == 0:
		return 1
	case !(level > a):
		return k
	}
	m := (b/(level-a) - float64(d.sigmaNew[i])) / 2
	if !(m < float64(k)) {
		return k
	}
	return max(1, int(math.Ceil(m)))
}

// pushStep appends task i's next evaluated step to the arena and its
// queue.
func (d *Decision) pushStep(i int, pre, post float64) {
	s := len(d.steps)
	d.steps = append(d.steps, levelStep{pre: pre, post: post, i: i, next: -1})
	if t := d.stepTail[i]; t >= 0 {
		d.steps[t].next = s
	} else {
		d.stepHead[i] = s
	}
	d.stepTail[i] = s
}

// lastInOrder returns the element of the eligible task the heap would
// pop last: the smallest key, ties to the larger index.
func (d *Decision) lastInOrder() levelElem {
	last := levelElem{d.tUc[d.elig[0]], d.elig[0]}
	for _, i := range d.elig[1:] {
		if e := (levelElem{d.tUc[i], i}); last.before(e) {
			last = e
		}
	}
	return last
}

// budgetCut collects the pre-step elements of the round's live steps.
// When they outnumber the k steps the free pool pays for, the (k+1)-th
// in heap order becomes the cut, of kind stopBudget: the k steps before
// it are the ones the heap loop takes before the pool runs dry.
// Otherwise cut and kind stay. live is the number of live steps left.
func (d *Decision) budgetCut(cut levelElem, kind levelStop, k int) (newCut levelElem, newKind levelStop, live int) {
	d.sel = d.sel[:0]
	for s := range d.steps {
		if st := &d.steps[s]; st.live(cut) {
			d.sel = append(d.sel, levelElem{st.pre, st.i})
		}
	}
	if len(d.sel) <= k {
		return cut, kind, len(d.sel)
	}
	return selectKth(d.sel, k), stopBudget, k
}

// selectKth returns the element of s at 0-based rank k in heap order,
// partially reordering s (Hoare's selection; elements are distinct).
func selectKth(s []levelElem, k int) levelElem {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := s[int(uint(lo+hi)>>1)]
		i, j := lo, hi
		for i <= j {
			for s[i].before(p) {
				i++
			}
			for p.before(s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// nextCandidate returns candidate(i, σ+2) for task i's current candidate
// allocation σ. A step the level rounds evaluated past their cut is read
// from the task's queue instead of evaluated again: every step of the
// heap loop moves its task up by exactly one pair, so the queued keys
// come up in order.
func (d *Decision) nextCandidate(i int) float64 {
	if s := d.stepHead[i]; s >= 0 {
		d.stepHead[i] = d.steps[s].next
		return d.steps[s].post
	}
	return d.candidate(i, d.sigmaNew[i]+2)
}

// saveReset records Algorithm 5's post-reset state for replayHeapLoop
// (Options.Paranoia).
func (d *Decision) saveReset() {
	growInts(&d.rpSigma, len(d.sigmaNew))
	growFloats(&d.rpKey, len(d.tUc))
	copy(d.rpSigma, d.sigmaNew)
	copy(d.rpKey, d.tUc)
	d.rpAvail = d.avail
}

// replayHeapLoop is Options.Paranoia's check of the level rounds: it
// replays the decision from the state saveReset recorded through the
// plain pair-by-pair heap loop, with uncounted candidates and full
// scans, and records the first bit mismatch in an allocation, a key or
// the free pool.
func (d *Decision) replayHeapLoop() {
	if d.e.paranoidErr != nil {
		return
	}
	sigma, key, avail := d.rpSigma, d.rpKey, d.rpAvail
	h := &d.rpHeap
	h.key = key
	h.build(d.elig)
	for avail >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		first := sigma[i] + 2
		tFirst := d.uncountedCandidate(i, first)
		improvable := tFirst < key[i]
		for c := first + 2; !improvable && c <= sigma[i]+avail; c += 2 {
			improvable = d.uncountedCandidate(i, c) < key[i]
		}
		if !improvable {
			break
		}
		sigma[i], key[i] = first, tFirst
		avail -= 2
		h.fixTop()
	}
	if avail != d.avail {
		d.e.paranoidErr = fmt.Errorf("core: Algorithm 5 at t=%v leaves %d processors free, the heap loop %d", d.t, d.avail, avail)
		return
	}
	for _, i := range d.elig {
		if sigma[i] != d.sigmaNew[i] || math.Float64bits(key[i]) != math.Float64bits(d.tUc[i]) {
			d.e.paranoidErr = fmt.Errorf("core: Algorithm 5 at t=%v gives task %d σ=%d, tU=%v; the heap loop σ=%d, tU=%v",
				d.t, i, d.sigmaNew[i], d.tUc[i], sigma[i], key[i])
			return
		}
	}
}
