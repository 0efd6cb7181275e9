package core

import (
	"fmt"
	"math"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/platform"
	"cosched/internal/sim"
	"cosched/internal/stats"
)

const defaultMaxEvents = 5_000_000

// taskState is the per-task bookkeeping of Algorithm 2, extended with
// the online fields (arrival/admission times and the waiting flag; all
// zero for the offline base pack).
type taskState struct {
	sigma   int     // σ(i): current processor count (0 once finished)
	alpha   float64 // α_i: remaining fraction of work at tlastR
	tlastR  float64 // time the current segment starts computing
	tU      float64 // expected finish time tU_i = tlastR + t^R_{i,σ}(α)
	end     float64 // scheduled end-event time (tU or fault-free finish)
	done    bool
	waiting bool    // submitted, not yet admitted (online mode)
	arrive  float64 // submission time (0 for the base pack)
	start   float64 // admission time (0 for the base pack)
	finish  float64 // realized completion time
	lastSig int     // allocation held when the task completed
}

// Simulator drives simulated executions of Algorithm 2. It is an arena:
// every run-sized structure — task states, the event queue, the
// eligibility buffer, the policy scratch, the Result slices — is
// preallocated by Reset and reused across runs, so a Monte-Carlo loop
// that calls Reset+Run per replicate allocates nothing in steady state.
//
// A Simulator is not safe for concurrent use; campaign-level parallelism
// uses one Simulator per worker. The Result returned by Run aliases the
// simulator's arenas (Finish, Sigma, Arrive, Start, History): callers
// that keep results across the next Reset must copy them (see
// DESIGN.md §7).
type Simulator struct {
	in     Instance
	pol    Policy
	end    func(*Decision) // the policy's rules, resolved by Reset (nil: none)
	fail   func(*Decision)
	arrive func(*Decision)
	opt    Options
	plat   *platform.Platform
	st     []taskState
	q      sim.Queue
	src    failure.Source
	next   failure.Fault
	have   bool
	live   int
	ctr    Counters
	hist   []Snapshot
	now    float64
	acct   *accounting
	primed bool
	// pruneErr is the first pruned scan Options.Paranoia found hiding
	// an improving candidate (Decision.skipDead); check returns it.
	pruneErr error

	// Online state (see online.go). The task arena e.st grows past the
	// base pack as jobs arrive; pendQ/pendHead form the FIFO admission
	// queue; busyInt integrates busy processor-seconds.
	online      bool
	submitsLeft int   // submit events still in the queue
	pendQ       []int // submitted task indices awaiting admission
	pendHead    int
	arrivedBuf  []int // admission-round scratch
	busyInt     float64
	busyAt      float64

	// Arenas reused across runs.
	sigma0    []int         // initial schedule (Algorithm 1)
	elig      []int         // eligibility buffer
	finish    []float64     // Result.Finish backing
	sigmaRes  []int         // Result.Sigma backing
	arriveRes []float64     // Result.Arrive backing
	startRes  []float64     // Result.Start backing
	heap      taskHeap      // shared by Algorithm 1 and the heuristics
	d         Decision      // policy scratch (index-addressed slices)
	tuEval    model.MinEval // spare evaluator for one-shot tU queries

	// Compiled instance model: every steady-state model query goes
	// through cm. It points either at the caller's shared tables
	// (Instance.Compiled) or at the simulator's own arena ownComp, which
	// is recompiled only when the instance actually changed (bindCompiled).
	cm      *model.Compiled
	ownComp model.Compiled
	ownOK   bool // ownComp holds tables for the instance it claims

	// Initial-schedule memo. Algorithm 1 is a pure function of the
	// instance (tasks, resilience, platform size) and independent of the
	// policy and fault source, so its result — σ0 and each task's
	// expected finish under it — is cached keyed on the compiled model's
	// content ID: a campaign unit that runs several policies over one
	// instance computes the schedule once and the later Resets replay
	// the exact cached values (bit-identical by construction; pinned by
	// the golden-equivalence tests). The memo holds several instances
	// (FIFO-bounded), so a worker cycling through shared cache-resident
	// tables — the compiled-model cache hands the same table to many
	// units — re-derives each schedule once, not once per unit. Private
	// per-unit arenas draw a new ID on every rebuild, so for them the
	// memo degenerates to the single live entry it always was. The key
	// holds no pointer, so the memo never keeps an evicted table alive.
	memo     map[schedKey]*schedMemo
	memoFIFO []schedKey
	memoFree []*schedMemo
}

// schedKey is the initial-schedule memo key: the compiled model's
// content ID plus the base task count (online runs reset with appended
// rows truncated, so n is part of the instance).
type schedKey struct {
	id uint64
	n  int
}

// schedMemo is one memoized Algorithm 1 result.
type schedMemo struct {
	sig []int
	tU  []float64
}

// schedMemoMax bounds the per-simulator memo. Entries are ~2n words;
// eviction recycles them through a free list, so a steady state that
// misses every time (private arenas) stays allocation-free.
const schedMemoMax = 64

// bindCompiled points e.cm at valid tables for in: the caller's shared
// model when Instance.Compiled is set (after verifying it was built for
// exactly this instance), the simulator's own tables when they still
// match — the replicate-loop fast path: Reset with an unchanged instance
// never recompiles — or a fresh in-place compile otherwise. Instance
// identity is the Tasks slice header plus Res/RC/P by value; callers
// that mutate task contents in place must pass a different slice (the
// same aliasing contract as Result, DESIGN.md §9).
func (e *Simulator) bindCompiled(in Instance) error {
	if in.Compiled != nil {
		if !in.Compiled.Matches(in.Tasks, in.Res, in.RC, in.P) {
			return fmt.Errorf("core: Instance.Compiled was built for a different instance")
		}
		e.cm = in.Compiled
		return nil
	}
	if e.ownOK && e.ownComp.Matches(in.Tasks, in.Res, in.RC, in.P) {
		e.cm = &e.ownComp
		return nil
	}
	e.ownOK = false
	if err := e.ownComp.Recompile(in.Tasks, in.Res, in.RC, in.P); err != nil {
		return err
	}
	e.ownOK = true
	e.cm = &e.ownComp
	return nil
}

// NewSimulator returns an empty simulator; Reset sizes it to an instance.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Run simulates the execution of the pack under the given policy and
// fault source, starting from the optimal no-redistribution schedule
// (Algorithm 1) and iterating over failure and termination events
// (Algorithm 2). It is the one-shot convenience form: each call builds a
// fresh Simulator, so the Result owns its slices. Loops should hold a
// Simulator and call Reset+Run instead.
func Run(in Instance, pol Policy, src failure.Source, opt Options) (Result, error) {
	s := NewSimulator()
	if err := s.Reset(in, pol, src, opt); err != nil {
		return Result{}, err
	}
	return s.Run()
}

// Reset primes the simulator for one run: it validates the instance,
// resolves the policy's rules in the policy table, computes the
// initial schedule (Algorithm 1), re-arms the platform, the event queue
// and the per-task state, and preallocates (or reuses) every arena. The
// fault source is consumed by the subsequent Run.
func (e *Simulator) Reset(in Instance, pol Policy, src failure.Source, opt Options) error {
	// A failed Reset must not leave the simulator runnable with the
	// previous configuration.
	e.primed = false
	end, fail, arrive, err := pol.rules()
	if err != nil {
		return err
	}
	if err := in.Validate(); err != nil {
		return err
	}
	online := len(in.Arrivals) > 0
	if online {
		if in.Compiled != nil {
			return fmt.Errorf("core: Instance.Compiled cannot be shared with Arrivals (the online kernel appends per-arrival tables)")
		}
		if opt.Accounting {
			return fmt.Errorf("core: Options.Accounting is not supported with Arrivals")
		}
	}
	if src == nil {
		src = failure.Null{}
	}
	n := len(in.Tasks)
	e.in = in
	e.pol = pol
	e.end, e.fail, e.arrive = end, fail, arrive
	e.opt = opt
	if e.opt.MaxEvents <= 0 {
		e.opt.MaxEvents = defaultMaxEvents
	}
	e.src = src
	e.online = online
	e.submitsLeft = len(in.Arrivals)
	e.pendQ = e.pendQ[:0]
	e.pendHead = 0
	e.busyInt, e.busyAt = 0, 0
	e.resize(n)
	// Drop any per-arrival rows a previous online run appended, so the
	// base tables keep matching across the replicate loop (the PR 4
	// identity-check contract; appended rows sit strictly after the base
	// rows, so this is a length change, not a rebuild).
	e.ownComp.TruncateExtra()
	if err := e.bindCompiled(in); err != nil {
		return err
	}
	if e.plat == nil {
		e.plat, err = platform.New(in.P)
	} else {
		err = e.plat.Reset(in.P)
	}
	if err != nil {
		return err
	}
	e.q.Reset()
	e.ctr = Counters{}
	e.pruneErr = nil
	e.hist = e.hist[:0]
	e.now = 0
	e.live = n
	e.have = false
	e.acct = nil

	var memoKey schedKey
	var memoEnt *schedMemo
	if e.cm != nil {
		memoKey = schedKey{id: e.cm.ID(), n: n}
		memoEnt = e.memo[memoKey]
	}
	memoHit := memoEnt != nil
	if memoHit {
		copy(e.sigma0[:n], memoEnt.sig[:n])
	} else if err := e.initialSchedule(); err != nil {
		return err
	}
	if opt.Accounting {
		e.acct = newAccounting(n, e.sigma0)
	}
	for i := range e.st {
		if err := e.plat.Alloc(i, e.sigma0[i]); err != nil {
			return fmt.Errorf("core: initial allocation: %w", err)
		}
		s := &e.st[i]
		*s = taskState{
			sigma:  e.sigma0[i],
			alpha:  1,
			tlastR: 0,
		}
		if memoHit {
			s.tU = memoEnt.tU[i]
		} else {
			// d.evals[i] is still bound to (task i, α = 1) by the initial
			// schedule, so this is ExpectedTime without the allocation.
			s.tU = e.d.evals[i].At(s.sigma)
		}
		e.scheduleEnd(i)
	}
	if !memoHit && e.cm != nil {
		if e.memo == nil {
			e.memo = make(map[schedKey]*schedMemo)
		}
		for len(e.memoFIFO) >= schedMemoMax {
			old := e.memoFIFO[0]
			e.memoFIFO = append(e.memoFIFO[:0], e.memoFIFO[1:]...)
			if ent := e.memo[old]; ent != nil {
				e.memoFree = append(e.memoFree, ent)
			}
			delete(e.memo, old)
		}
		var ent *schedMemo
		if k := len(e.memoFree); k > 0 {
			ent, e.memoFree = e.memoFree[k-1], e.memoFree[:k-1]
		} else {
			ent = &schedMemo{}
		}
		growInts(&ent.sig, n)
		copy(ent.sig, e.sigma0[:n])
		growFloats(&ent.tU, n)
		for i := range e.st {
			ent.tU[i] = e.st[i].tU
		}
		e.memo[memoKey] = ent
		e.memoFIFO = append(e.memoFIFO, memoKey)
	}
	// Submit events are enqueued after the base end events, so at equal
	// timestamps an initial end sorts before a submission (FIFO seq
	// order, the sim.Queue tie-break contract).
	for k := range in.Arrivals {
		e.q.Push(sim.Event{Time: in.Arrivals[k].Time, Kind: sim.KindSubmit, Task: k})
	}
	e.pullFault()
	e.primed = true
	return nil
}

// growInts resizes an int arena to n elements, retaining capacity.
func growInts(p *[]int, n int) {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
}

// growFloats resizes a float64 arena to n elements, retaining capacity.
func growFloats(p *[]float64, n int) {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
}

// resize grows every task-indexed arena to n, retaining capacity.
func (e *Simulator) resize(n int) {
	if cap(e.st) < n {
		e.st = make([]taskState, n)
	}
	e.st = e.st[:n]
	growInts(&e.sigma0, n)
	growInts(&e.sigmaRes, n)
	growFloats(&e.finish, n)
	if cap(e.elig) < n {
		e.elig = make([]int, 0, n)
	}
	e.d.resize(e, n)
	e.heap.rebind(e.d.tUc)
}

// initialSchedule is Algorithm 1 evaluated into the simulator's arenas
// (same algorithm as the exported InitialSchedule, without its per-call
// allocations). The result lands in e.sigma0. With no compiled model
// bound (e.cm nil — the one-shot InitialSchedule wrapper) the
// evaluators take the direct path: Algorithm 1 alone queries only
// ~n + P/2 entries via the ascending prefix-min scans, so building the
// full n·P/2 table would cost more than it saves (the packs DP calls
// the wrapper once per candidate subset).
func (e *Simulator) initialSchedule() error {
	n := len(e.in.Tasks)
	e.elig = e.elig[:0]
	for i := range e.in.Tasks {
		e.sigma0[i] = 2
		if e.cm != nil {
			e.d.evals[i].ResetCompiled(e.cm, i, 1)
		} else {
			e.d.evals[i].Reset(e.in.Res, e.in.Tasks[i], 1)
		}
		e.d.tUc[i] = e.d.evals[i].At(2)
		e.elig = append(e.elig, i)
	}
	e.heap.build(e.elig)
	avail := e.in.P - 2*n
	for avail >= 2 {
		i, ok := e.heap.top()
		if !ok {
			break
		}
		pmax := e.sigma0[i] + avail
		// Line 9: is there any hope of improving the longest task with
		// everything we have? ExpectedTime is non-increasing in j after
		// Eq. (6), so a strict decrease at pmax means some extension helps.
		if e.d.evals[i].At(e.sigma0[i]) > e.d.evals[i].At(pmax) {
			e.sigma0[i] += 2
			e.d.tUc[i] = e.d.evals[i].At(e.sigma0[i])
			e.heap.fixTop()
			avail -= 2
		} else {
			// The longest task cannot be improved: the overall expected
			// completion time is settled, keep the processors free.
			break
		}
	}
	return nil
}

// Run executes the primed simulation to completion. The returned
// Result's slices alias the simulator's arenas and remain valid only
// until the next Reset.
func (e *Simulator) Run() (Result, error) {
	if !e.primed {
		return Result{}, fmt.Errorf("core: Simulator.Run without a successful Reset")
	}
	e.primed = false

	for e.live > 0 || e.waiting() > 0 || e.submitsLeft > 0 {
		if e.ctr.Events >= e.opt.MaxEvents {
			return Result{}, fmt.Errorf("core: aborted after %d events (divergent configuration?)", e.ctr.Events)
		}
		ev, ok := e.peekValid()
		if !ok {
			return Result{}, fmt.Errorf("core: no pending event with %d live and %d waiting tasks", e.live, e.waiting())
		}
		if e.have && e.next.Time < ev.Time {
			f := e.next
			e.pullFault()
			e.processFault(f)
		} else {
			e.q.Pop()
			if ev.Kind == sim.KindSubmit {
				if err := e.processSubmit(ev.Task, ev.Time); err != nil {
					return Result{}, err
				}
			} else {
				e.processEnd(ev.Task, ev.Time)
			}
		}
		if e.opt.Paranoia {
			if err := e.check(); err != nil {
				return Result{}, err
			}
		}
	}

	// The task arena may have grown past the base pack; the Result
	// arenas follow (their previous contents are dead, so growth need
	// not preserve them).
	nAll := len(e.st)
	growFloats(&e.finish, nAll)
	growInts(&e.sigmaRes, nAll)
	growFloats(&e.arriveRes, nAll)
	growFloats(&e.startRes, nAll)
	res := Result{
		Makespan:    0,
		Finish:      e.finish,
		Sigma:       e.sigmaRes,
		Arrive:      e.arriveRes,
		Start:       e.startRes,
		ProcSeconds: e.busyInt,
		Counters:    e.ctr,
	}
	if e.opt.RecordHistory {
		res.History = e.hist
	}
	for i := range e.st {
		e.finish[i] = e.st[i].finish
		e.sigmaRes[i] = e.st[i].lastSig
		e.arriveRes[i] = e.st[i].arrive
		e.startRes[i] = e.st[i].start
		if e.st[i].finish > res.Makespan {
			res.Makespan = e.st[i].finish
		}
	}
	if e.acct != nil {
		bd := e.acct.finalize(e.in.P, res.Makespan)
		res.Breakdown = &bd
	}
	if e.opt.Observer != nil {
		e.opt.Observer.ObserveRun(e.ctr)
	}
	return res, nil
}

// pullFault advances the fault stream.
func (e *Simulator) pullFault() {
	e.next, e.have = e.src.Next()
}

// peekValid returns the earliest queued event. Every queued task-end
// event is current: scheduleEnd replaces a task's event in place
// (Queue.UpdateTask) and finalize removes it (Queue.RemoveTask), so the
// queue holds at most one live end event per task and there is nothing
// stale to discard. Submit events are always valid; their Task field is
// an arrival index, not a task index.
func (e *Simulator) peekValid() (sim.Event, bool) {
	return e.q.Peek()
}

// scheduleEnd recomputes task i's end-event time from its current state
// and replaces the task's queued end event in place.
func (e *Simulator) scheduleEnd(i int) {
	s := &e.st[i]
	switch e.opt.Semantics {
	case SemanticsDeterministic:
		s.end = s.tlastR + e.cm.FFTime(i, s.sigma, s.alpha)
	default:
		s.end = s.tU
	}
	e.q.UpdateTask(sim.Event{Time: s.end, Kind: sim.KindTaskEnd, Task: i})
}

// finalize marks task i finished at time t and releases its processors.
// The trace event carries the task's finish time, which for early
// finalizations (Algorithm 2 line 28) lies after the event being
// processed; trace consumers sort by time.
func (e *Simulator) finalize(i int, t float64) {
	s := &e.st[i]
	if e.acct != nil {
		// Close the final segment: the remaining fraction completes,
		// with its fault-free checkpoint count.
		n := e.cm.FFCheckpoints(i, s.sigma, s.alpha)
		e.acct.segmentClose(t-s.tlastR, n, e.cm.CkptCost(i, s.sigma), s.alpha*e.cm.Time(i, s.sigma))
		e.acct.allocChange(i, t, 0)
		e.acct.taskFinished(t)
	}
	s.done = true
	s.finish = t
	// Early finalizations (Algorithm 2 line 28) happen while the task's
	// end event is still queued; drop it so no stale event surfaces. For
	// finalizations triggered by the event itself this is a no-op — the
	// pop already cleared the queue's index.
	e.q.RemoveTask(i)
	e.emit(TraceEvent{Time: t, Kind: "end", Task: i})
	s.alpha = 0
	s.lastSig = s.sigma
	e.accrueBusy(t)
	e.plat.ReleaseAll(i)
	s.sigma = 0
	e.live--
}

// eligible returns the live tasks available for redistribution at time t:
// those not still paying for a previous redistribution or recovery
// (Algorithm 2 line 15 excludes tasks with t < tlastR_i). The returned
// slice is the simulator's shared eligibility buffer.
func (e *Simulator) eligible(t float64) []int {
	out := e.elig[:0]
	for i := range e.st {
		s := &e.st[i]
		if !s.done && !s.waiting && t >= s.tlastR {
			out = append(out, i)
		}
	}
	e.elig = out
	return out
}

// checkpointsIn is Eq. (8): the number N = ⌊elapsed/τ⌋ of checkpoints
// completed in elapsed seconds of a segment with period τ. A period of
// +Inf (fault-free, no checkpointing) completes none.
func checkpointsIn(elapsed, tau float64) float64 {
	if math.IsInf(tau, 1) {
		return 0
	}
	return math.Floor(elapsed / tau)
}

// alphaT returns the remaining work fraction of a (non-faulty) task i
// frozen at time t: α_i minus the fraction executed since tlastR_i,
// where checkpointing overhead is discounted (§3.3.2):
//
//	executed = (t − tlastR_i − N_{i,j}·C_{i,j}) / t_{i,j}.
//
// The result is clamped to [0, 1]; under the expected-time semantics the
// elapsed wall-clock can exceed the fault-free time of the remaining
// work, in which case the task is treated as (almost) finished.
func (e *Simulator) alphaT(i int, t float64) float64 {
	s := &e.st[i]
	j := s.sigma
	elapsed := t - s.tlastR
	if elapsed <= 0 {
		return s.alpha
	}
	nCkpt := checkpointsIn(elapsed, e.cm.Period(i, j))
	executed := (elapsed - nCkpt*e.cm.CkptCost(i, j)) / e.cm.Time(i, j)
	a := s.alpha - executed
	if a < 0 {
		return 0
	}
	return a
}

// emit delivers a trace event to the observer, if any.
func (e *Simulator) emit(ev TraceEvent) {
	if e.opt.OnTrace != nil {
		e.opt.OnTrace(ev)
	}
}

// processEnd handles the termination of task i at time t (Algorithm 2
// lines 17–20): release the processors, then redistribute them. Waiting
// jobs have priority over the end-of-task heuristic — freed processors
// admit them first (minimizing queue wait), and an end event that admits
// jobs triggers the arrival hook instead of the end hook, since the
// newcomers change the landscape the end rule was designed for.
func (e *Simulator) processEnd(i int, t float64) {
	e.ctr.Events++
	e.ctr.TaskEnds++
	e.now = t
	e.finalize(i, t)
	admitted := e.admit(t)
	if e.live == 0 {
		return
	}
	if len(admitted) > 0 {
		e.arrivalDecision(t, admitted)
		return
	}
	if e.end != nil {
		e.beginDecision(t, e.eligible(t), -1)
		e.end(&e.d)
		e.d.commit()
	}
}

// processFault handles a failure event (Algorithm 2 lines 21–32).
func (e *Simulator) processFault(f failure.Fault) {
	e.ctr.Events++
	e.now = f.Time
	owner := e.plat.Owner(f.Proc)
	if owner == platform.Free {
		e.ctr.IdleFault++
		e.emit(TraceEvent{Time: f.Time, Kind: "idle", Task: -1, Proc: f.Proc})
		return
	}
	s := &e.st[owner]
	if f.Time < s.tlastR {
		// §6.1: no failures during downtime, recovery or redistribution.
		e.ctr.SuppressedFault++
		e.emit(TraceEvent{Time: f.Time, Kind: "suppressed", Task: owner, Proc: f.Proc})
		return
	}
	e.ctr.Failures++
	e.emit(TraceEvent{Time: f.Time, Kind: "failure", Task: owner, Proc: f.Proc})
	t := f.Time
	j := s.sigma

	// The tasks available for redistribution are determined before the
	// faulty task's own tlastR moves past t (Algorithm 2 line 15).
	elig := e.eligible(t)

	// Roll back to the last checkpoint: only whole periods survive.
	tau := e.cm.Period(owner, j)
	ck := e.cm.CkptCost(owner, j)
	// With no checkpoint completed (τ = +Inf included) nothing survives;
	// the guard keeps 0·Inf out of the arithmetic.
	n := checkpointsIn(t-s.tlastR, tau)
	var committed, sealed float64
	if n > 0 {
		committed, sealed = n*(tau-ck), n*tau
	}
	if e.acct != nil {
		kept := committed
		if cap := s.alpha * e.cm.Time(owner, j); kept > cap {
			kept = cap
		}
		e.acct.segmentClose(t-s.tlastR, int(n), ck, kept)
		e.acct.failure((t-s.tlastR)-sealed, e.in.Res.Downtime+e.cm.Recovery(owner, j))
	}
	s.alpha -= committed / e.cm.Time(owner, j)
	if s.alpha < 0 {
		s.alpha = 0
	}
	s.tlastR = t + e.in.Res.Downtime + e.cm.Recovery(owner, j)
	e.tuEval.ResetCompiled(e.cm, owner, s.alpha)
	s.tU = s.tlastR + e.tuEval.At(j)
	e.scheduleEnd(owner)

	// Algorithm 2 line 28: tasks that finish during the faulty task's
	// downtime + recovery window are finalized now so their processors
	// are available to the failure heuristic. Waiting jobs have no end
	// event (their zero end is not a finish time) and are skipped.
	for k := range e.st {
		ks := &e.st[k]
		if k != owner && !ks.done && !ks.waiting && ks.end <= s.tlastR {
			e.finalize(k, ks.end)
			e.ctr.EarlyFinalized++
		}
	}

	// Tasks finalized above may still sit in the eligibility snapshot;
	// drop them before handing the list to a heuristic.
	kept := elig[:0]
	for _, k := range elig {
		if !e.st[k].done {
			kept = append(kept, k)
		}
	}
	elig = kept
	e.elig = kept

	// Only try to redistribute when the faulty task now dominates the
	// schedule (Algorithm 2 line 30).
	redistributed := false
	if e.live > 0 && s.tU >= e.maxLiveTU() {
		before := e.ctr.Redistributions
		if e.fail != nil {
			e.beginDecision(t, elig, owner)
			e.fail(&e.d)
			e.d.commit()
		}
		redistributed = e.ctr.Redistributions > before
	}

	if e.opt.RecordHistory {
		e.hist = append(e.hist, Snapshot{
			Time:              t,
			PredictedMakespan: e.predictedMakespan(),
			AllocStdDev:       e.allocStdDev(),
			FaultyTask:        owner,
			Redistributed:     redistributed,
		})
	}

	// Early finalizations may have freed processors beyond what the
	// failure heuristic claimed; admit waiting jobs with the remainder
	// (after the failure response, which keeps the paper's semantics).
	if admitted := e.admit(t); len(admitted) > 0 {
		e.arrivalDecision(t, admitted)
	}
}

// maxLiveTU returns the largest expected finish time among live tasks
// (waiting jobs have no meaningful tU yet and are skipped).
func (e *Simulator) maxLiveTU() float64 {
	worst := math.Inf(-1)
	for i := range e.st {
		if !e.st[i].done && !e.st[i].waiting && e.st[i].tU > worst {
			worst = e.st[i].tU
		}
	}
	return worst
}

// predictedMakespan is the projected pack completion time: realized
// finishes for done tasks, expected finishes for live ones.
func (e *Simulator) predictedMakespan() float64 {
	worst := 0.0
	for i := range e.st {
		if e.st[i].waiting {
			continue
		}
		v := e.st[i].tU
		if e.st[i].done {
			v = e.st[i].finish
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// allocStdDev is the population standard deviation of live allocations
// (Figure 9b). Waiting jobs hold no processors and are excluded.
func (e *Simulator) allocStdDev() float64 {
	var acc stats.Accumulator
	for i := range e.st {
		if !e.st[i].done && !e.st[i].waiting {
			acc.Add(float64(e.st[i].sigma))
		}
	}
	return acc.PopStdDev()
}

// commitRedist applies one redistribution decided by a policy: resize the
// allocation, pay the redistribution cost, take the immediate checkpoint
// (§3.3.2), and reschedule the end event. For the faulty task the
// downtime and recovery on the old allocation are paid first.
func (e *Simulator) commitRedist(i int, t float64, newSigma int, alphaT float64, eval *model.MinEval, faulty bool) error {
	s := &e.st[i]
	oldSigma := s.sigma
	if newSigma == oldSigma {
		return nil
	}
	e.accrueBusy(t)
	if err := e.plat.Resize(i, newSigma); err != nil {
		return fmt.Errorf("core: redistributing task %d: %w", i, err)
	}
	rc := e.cm.RedistRowFrom(i, oldSigma).Cost(newSigma)
	extra := 0.0
	if faulty {
		extra = e.in.Res.Downtime + e.cm.Recovery(i, oldSigma)
	}
	if e.acct != nil {
		if !faulty {
			// Close the frozen segment of a non-faulty redistributed
			// task; the faulty task's segment was closed by processFault.
			elapsed := t - s.tlastR
			var n float64
			if elapsed > 0 {
				n = checkpointsIn(elapsed, e.cm.Period(i, oldSigma))
			}
			work := elapsed - n*e.cm.CkptCost(i, oldSigma)
			if work < 0 {
				work = 0
			}
			if cap := s.alpha * e.cm.Time(i, oldSigma); work > cap {
				work = cap
			}
			e.acct.segmentClose(elapsed, int(n), e.cm.CkptCost(i, oldSigma), work)
		}
		e.acct.redistribution(rc, e.cm.PostRedistCkpt(i, newSigma))
		e.acct.allocChange(i, t, newSigma)
	}
	s.sigma = newSigma
	s.alpha = alphaT
	s.tlastR = t + extra + rc + e.cm.PostRedistCkpt(i, newSigma)
	s.tU = s.tlastR + eval.At(newSigma)
	e.scheduleEnd(i)
	e.ctr.Redistributions++
	e.ctr.RedistTime += rc
	e.emit(TraceEvent{Time: t, Kind: "redistribute", Task: i, From: oldSigma, To: newSigma, Cost: rc})
	return nil
}

// check validates cross-structure invariants (Options.Paranoia).
func (e *Simulator) check() error {
	if e.pruneErr != nil {
		return e.pruneErr
	}
	if err := e.plat.Validate(); err != nil {
		return err
	}
	total := 0
	for i := range e.st {
		s := &e.st[i]
		if s.done || s.waiting {
			state := "finished"
			if s.waiting {
				state = "waiting"
			}
			if e.plat.Count(i) != 0 {
				return fmt.Errorf("core: %s task %d still owns processors", state, i)
			}
			continue
		}
		if s.sigma%2 != 0 || s.sigma < 2 {
			return fmt.Errorf("core: task %d has invalid allocation %d", i, s.sigma)
		}
		if e.plat.Count(i) != s.sigma {
			return fmt.Errorf("core: task %d σ=%d but platform says %d", i, s.sigma, e.plat.Count(i))
		}
		if s.alpha < 0 || s.alpha > 1 {
			return fmt.Errorf("core: task %d α=%v outside [0,1]", i, s.alpha)
		}
		total += s.sigma
	}
	if total+e.plat.FreeProcs() != e.in.P {
		return fmt.Errorf("core: processor conservation broken")
	}
	return nil
}
