package core

import (
	"fmt"
)

// This file is the online half of the kernel: dynamic job arrivals on
// top of the paper's offline Algorithm 2. Jobs are submitted through
// KindSubmit events, wait in a FIFO queue until a processor pair is
// free, and are then admitted by greedy insertion (Algorithm 1 restricted
// to the newcomers). The policy's arrival rule may afterwards rebalance
// the running tasks around them. With no Arrivals in the
// Instance none of these paths execute, so offline runs stay bit-
// identical to the pre-online engine (pinned by the golden tests).
//
// See DESIGN.md §10 for the event taxonomy, the admission/heuristic
// ordering at shared timestamps, and the compiled-table append rule.

// --- Arrival heuristics ----------------------------------------------

// arrivalSteal is the ArrivalSteal rule, the arrival-aware analogue of
// Algorithm 4: each admitted job — which enters with whatever greedy
// insertion could take from the free pool, and is therefore typically
// the new critical task — absorbs remaining free processors and then
// steals pairs from the shortest running tasks, as long as it improves
// and no donor becomes the new bottleneck. ArrivalGreedy is
// iteratedGreedy (Algorithm 5) run at admissions.
func arrivalSteal(d *Decision) {
	for _, a := range d.arrived {
		if !d.IsEligible(a) {
			continue
		}
		absorbAndSteal(d, a)
	}
}

// --- Online kernel machinery -----------------------------------------

// waiting returns the number of submitted jobs not yet admitted.
func (e *Simulator) waiting() int { return len(e.pendQ) - e.pendHead }

// accrueBusy integrates the busy-processor count up to t. It must be
// called before any allocation change; repeated calls at the same
// timestamp are no-ops.
func (e *Simulator) accrueBusy(t float64) {
	if t > e.busyAt {
		e.busyInt += float64(e.in.P-e.plat.FreeProcs()) * (t - e.busyAt)
		e.busyAt = t
	}
}

// processSubmit handles the arrival of job k (an index into the
// instance's Arrivals) at time t: create its task slot, append its
// compiled tables, queue it, and try to admit.
func (e *Simulator) processSubmit(k int, t float64) error {
	e.ctr.Events++
	e.ctr.Submits++
	e.submitsLeft--
	e.now = t
	i, err := e.addTask(e.in.Arrivals[k], t)
	if err != nil {
		return err
	}
	e.pendQ = append(e.pendQ, i)
	e.emit(TraceEvent{Time: t, Kind: "submit", Task: i})
	if admitted := e.admit(t); len(admitted) > 0 {
		e.arrivalDecision(t, admitted)
	}
	return nil
}

// addTask grows every task-indexed arena by one slot for an arriving job
// and appends its row to the compiled instance model (the per-arrival
// append rule: O(P/2) table work instead of a rebuild). The new task
// starts in the waiting state: no processors, no end event, excluded
// from eligibility until admitted.
func (e *Simulator) addTask(a Arrival, t float64) (int, error) {
	i := len(e.st)
	e.st = append(e.st, taskState{alpha: 1, arrive: t, waiting: true})
	n := len(e.st)
	if cap(e.elig) < n {
		e.elig = make([]int, 0, 2*n)
	}
	e.d.resize(e, n)
	e.heap.rebind(e.d.tUc)
	idx, err := e.cm.AppendTask(a.Task)
	if err != nil {
		return 0, fmt.Errorf("core: appending arrival tables: %w", err)
	}
	if idx != i {
		return 0, fmt.Errorf("core: compiled table row %d for task %d (tables out of sync)", idx, i)
	}
	return i, nil
}

// admit moves waiting jobs onto the platform while a processor pair is
// free, FIFO by submission order, then grows the admitted set by greedy
// insertion: free processors go two at a time to the admitted job with
// the largest expected finish, as long as it can still strictly improve
// (Algorithm 1 restricted to the newcomers; running tasks are never
// touched here — that is the arrival rule's job). It returns the
// admitted task indices (shared scratch, valid until the next admit).
func (e *Simulator) admit(t float64) []int {
	if !e.online || e.waiting() == 0 || e.plat.FreeProcs() < 2 {
		return nil
	}
	admitted := e.arrivedBuf[:0]
	e.accrueBusy(t)
	for e.waiting() > 0 && e.plat.FreeProcs() >= 2 {
		i := e.pendQ[e.pendHead]
		e.pendHead++
		if err := e.plat.Alloc(i, 2); err != nil {
			// A free pair was checked above; failure here is a bug.
			panic(fmt.Sprintf("core: admitting task %d: %v", i, err))
		}
		s := &e.st[i]
		s.waiting = false
		s.sigma = 2
		s.alpha = 1
		s.tlastR = t
		s.start = t
		e.live++
		admitted = append(admitted, i)
	}
	if e.pendHead == len(e.pendQ) {
		// Queue drained: rewind so the backing array is reused.
		e.pendQ = e.pendQ[:0]
		e.pendHead = 0
	}
	// Greedy growth over the admitted set only (longest first).
	for _, i := range admitted {
		e.d.evals[i].ResetCompiled(e.cm, i, 1)
		e.d.tUc[i] = e.d.evals[i].At(2)
	}
	e.heap.build(admitted)
	avail := e.plat.FreeProcs()
	for avail >= 2 {
		i, ok := e.heap.top()
		if !ok {
			break
		}
		s := &e.st[i]
		pmax := s.sigma + avail
		// Same improvability test as Algorithm 1 line 9: expected time is
		// non-increasing after Eq. (6), so a strict decrease at pmax means
		// some extension helps.
		if e.d.evals[i].At(s.sigma) > e.d.evals[i].At(pmax) {
			if err := e.plat.Alloc(i, 2); err != nil {
				panic(fmt.Sprintf("core: growing admitted task %d: %v", i, err))
			}
			s.sigma += 2
			e.d.tUc[i] = e.d.evals[i].At(s.sigma)
			e.heap.fixTop()
			avail -= 2
		} else {
			// The longest admitted job cannot be improved: keep the
			// remaining processors free for later events.
			break
		}
	}
	for _, i := range admitted {
		s := &e.st[i]
		s.tU = t + e.d.evals[i].At(s.sigma)
		e.scheduleEnd(i)
		e.emit(TraceEvent{Time: t, Kind: "admit", Task: i, To: s.sigma})
	}
	e.arrivedBuf = admitted
	return admitted
}

// arrivalDecision runs the policy's arrival rule over the eligible
// tasks after an admission round.
func (e *Simulator) arrivalDecision(t float64, admitted []int) {
	if e.arrive == nil || e.live <= len(admitted) {
		// Nothing to rebalance: the admitted jobs are the only live
		// tasks and greedy insertion already grew them.
		return
	}
	e.beginDecision(t, e.eligible(t), -1)
	e.d.arrived = admitted
	e.arrive(&e.d)
	e.d.commit()
}
