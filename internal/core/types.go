// Package core implements the paper's contribution: resilient
// co-scheduling of a pack of malleable tasks with processor
// redistribution (Benoit, Pottier, Robert, RR-8795 / ICPP'16).
//
// It contains:
//   - Algorithm 1 — the optimal schedule without redistribution
//     (InitialSchedule, Theorem 1);
//   - Algorithm 2 — the event-driven skeleton handling failures and task
//     terminations, as a reusable arena (Simulator, with Run as the
//     one-shot convenience);
//   - Algorithm 3 — EndLocal, local redistribution of released processors;
//   - EndGreedy — full schedule recomputation at task terminations;
//   - Algorithm 4 — ShortestTasksFirst, failure-time stealing;
//   - Algorithm 5 — IteratedGreedy, full recomputation at failures;
//   - one closed policy table per rule kind (rules.go) naming the rules
//     above and the extensions EndProportional, ArrivalGreedy and
//     ArrivalSteal once each, keyed by the stable Policy.String() names;
//   - the online kernel (online.go): dynamic job arrivals via Submit
//     events, FIFO admission with greedy insertion, and arrival-aware
//     redistribution — the offline paper setting is the zero-Arrivals
//     special case and stays bit-identical.
//
// See DESIGN.md §5 for the documented resolutions of the pseudocode's
// ambiguities (D+R accounting, busy-task exclusion, loop termination),
// DESIGN.md §7 for the policy table and the simulator-reuse contract, and
// DESIGN.md §10 for the online kernel's contracts.
package core

import (
	"fmt"
	"math"

	"cosched/internal/model"
)

// EndRule selects what happens when a task terminates and releases its
// processors (§5.2 of the paper). Each id is one row of the end-rule
// policy table (rules.go).
type EndRule int

const (
	// EndNone performs no redistribution at task terminations.
	EndNone EndRule = iota
	// EndLocal greedily hands released processors to the longest tasks
	// (Algorithm 3).
	EndLocal
	// EndGreedy recomputes a complete schedule, accounting for
	// redistribution costs (the end-of-task variant of Algorithm 5).
	EndGreedy
	// EndProportional apportions released processors among the eligible
	// tasks in proportion to their remaining expected work (not part of
	// the paper; see proportional.go).
	EndProportional
)

// String implements fmt.Stringer with the rule's table name, or
// "EndRule(n)" for an id outside the table.
func (e EndRule) String() string { return ruleName(endRules[:], int(e), "EndRule") }

// FailRule selects what happens when a failure strikes the longest task
// (§5.3 of the paper). Each id is one row of the failure-rule policy
// table (rules.go).
type FailRule int

const (
	// FailNone performs no redistribution at failures.
	FailNone FailRule = iota
	// FailShortestTasksFirst gives the faulty task the available
	// processors, then steals from the shortest tasks (Algorithm 4).
	FailShortestTasksFirst
	// FailIteratedGreedy recomputes a complete schedule at each failure
	// (Algorithm 5).
	FailIteratedGreedy
)

// String implements fmt.Stringer with the rule's table name, or
// "FailRule(n)" for an id outside the table.
func (f FailRule) String() string { return ruleName(failRules[:], int(f), "FailRule") }

// ArrivalRule selects what happens when newly arrived jobs are admitted
// in online mode (dynamic job arrivals; not part of the paper, which is
// offline). Each id is one row of the arrival-rule policy table
// (rules.go).
type ArrivalRule int

const (
	// ArrivalNone performs no redistribution at job arrivals: admitted
	// jobs receive free processors only (greedy insertion) and running
	// tasks are never touched. It is the zero value, so every offline
	// Policy literal keeps its exact behavior.
	ArrivalNone ArrivalRule = iota
	// ArrivalGreedy recomputes the whole schedule at every admission.
	ArrivalGreedy
	// ArrivalSteal grows each admitted job by stealing from the shortest
	// running tasks (the arrival-time variant of Algorithm 4). It is the
	// default for online scenario specs (workload.ArrivalSpec).
	ArrivalSteal
)

// String implements fmt.Stringer with the rule's table name, or
// "ArrivalRule(n)" for an id outside the table.
func (a ArrivalRule) String() string { return ruleName(arrivalRules[:], int(a), "ArrivalRule") }

// Policy pairs an end-of-task rule with a failure rule — the paper's four
// heuristic combinations are IteratedGreedy/ShortestTasksFirst crossed
// with EndGreedy/EndLocal — plus, for online scenarios, an arrival rule.
// The zero OnArrival keeps the offline combinations' names and behavior
// untouched.
type Policy struct {
	OnEnd     EndRule
	OnFailure FailRule
	OnArrival ArrivalRule
}

// String implements fmt.Stringer, using the paper's naming convention
// ("<fail>-<end>", or "NoRedistribution") with an optional "+<arrival>"
// suffix for online policies. PolicyByName inverts it.
func (p Policy) String() string {
	base := fmt.Sprintf("%s-%s", p.OnFailure, p.OnEnd)
	if p.OnEnd == EndNone && p.OnFailure == FailNone {
		base = "NoRedistribution"
	}
	if p.OnArrival == ArrivalNone {
		return base
	}
	return base + "+" + p.OnArrival.String()
}

// Named policy combinations from the paper's evaluation (§6.2).
var (
	NoRedistribution = Policy{OnEnd: EndNone, OnFailure: FailNone}
	IGEndGreedy      = Policy{OnEnd: EndGreedy, OnFailure: FailIteratedGreedy}
	IGEndLocal       = Policy{OnEnd: EndLocal, OnFailure: FailIteratedGreedy}
	STFEndGreedy     = Policy{OnEnd: EndGreedy, OnFailure: FailShortestTasksFirst}
	STFEndLocal      = Policy{OnEnd: EndLocal, OnFailure: FailShortestTasksFirst}
)

// Semantics selects how the simulator schedules task-end events.
type Semantics int

const (
	// SemanticsExpected is the paper-faithful mode: a task's end event is
	// its expected finish time tU = tlastR + t^R(α), as in Algorithm 2.
	SemanticsExpected Semantics = iota
	// SemanticsDeterministic is the physical mode: a task ends at its
	// fault-free completion tlastR + α·t_{i,j} + N^ff·C_{i,j}, and all
	// delay comes from simulated failures. Decision-making still uses
	// expected times. Used for the ablation study.
	SemanticsDeterministic
)

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case SemanticsExpected:
		return "expected"
	case SemanticsDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// TraceEvent is one observable step of a simulation, delivered to
// Options.OnTrace as it happens. From and To are meaningful only for
// redistribution events; Proc only for fault events.
type TraceEvent struct {
	Time float64 `json:"t"`
	Kind string  `json:"kind"` // failure | suppressed | idle | end | redistribute | submit | admit
	Task int     `json:"task"`
	Proc int     `json:"proc,omitempty"`
	From int     `json:"from,omitempty"` // σ before redistribution
	To   int     `json:"to,omitempty"`   // σ after redistribution
	Cost float64 `json:"cost,omitempty"` // redistribution cost RC
}

// Options tunes a simulation run.
type Options struct {
	// Semantics selects the end-event model (default SemanticsExpected).
	Semantics Semantics
	// RecordHistory captures a Snapshot at every handled failure,
	// feeding Figure 9.
	RecordHistory bool
	// MaxEvents aborts pathological runs; 0 means the default of
	// 5,000,000 events (defaultMaxEvents in engine.go).
	MaxEvents int
	// Paranoia re-validates platform invariants after every event,
	// among them that no running task's remaining work α rises between
	// two events, and re-runs every candidate scan a heuristic skipped as
	// provably dead, failing the run if one hid an improving candidate
	// (slow; used by tests). It changes no decision and no counter.
	Paranoia bool
	// OnTrace, when non-nil, receives every observable event.
	OnTrace func(TraceEvent)
	// Accounting enables the waste-breakdown decomposition
	// (Result.Breakdown).
	Accounting bool
	// Observer, when non-nil, receives the run's final Counters exactly
	// once per completed Run — the telemetry hook (internal/obs). The
	// simulator never touches it mid-run, so with a nil Observer (the
	// default) the engine performs no telemetry work at all.
	Observer RunObserver
}

// RunObserver receives the final event counters of each completed run.
// The campaign runner attaches one per-worker instance (obs.SimMetrics)
// so simulator activity aggregates without any hot-path synchronization;
// implementations must tolerate calls from whichever goroutine owns the
// simulator.
type RunObserver interface {
	ObserveRun(Counters)
}

// Counters aggregates what happened during a run.
type Counters struct {
	Failures        int     // failures striking a running, unprotected task
	SuppressedFault int     // failures during downtime/recovery/redistribution (discarded, §6.1)
	IdleFault       int     // failures on processors not currently allocated
	Redistributions int     // tasks whose allocation actually changed
	RedistTime      float64 // total redistribution time paid (sum of RC)
	TaskEnds        int     // task-end events processed
	EarlyFinalized  int     // tasks finalized by Algorithm 2 line 28
	Events          int     // total events processed
	Submits         int     // submit events processed (online mode)
	Decisions       int     // heuristic invocations (end/fail/arrival rounds)
	CandidateEvals  int     // candidate expected-finish evaluations inside heuristics
	PrunedScans     int     // candidate scans skipped because a lower bound proved them dead
}

// Snapshot is one Figure-9 history point, taken after handling a failure.
type Snapshot struct {
	Time              float64 // date of the fault
	PredictedMakespan float64 // max over tasks of expected finish
	AllocStdDev       float64 // population stddev of σ(i) over live tasks
	FaultyTask        int
	Redistributed     bool // whether the failure policy changed any allocation
}

// Result is the outcome of one simulated execution. All per-task slices
// are indexed by task: the base pack first (indices 0..n−1), then
// arrived jobs in admission order.
type Result struct {
	Makespan float64   // completion time of the last task
	Finish   []float64 // per-task completion times
	Sigma    []int     // final allocation at each task's completion
	// Arrive and Start are the per-task submission and admission times
	// (both 0 for the base pack): response time is Finish−Arrive, queue
	// wait is Start−Arrive.
	Arrive []float64
	Start  []float64
	// ProcSeconds is ∫ Σ_i σ_i(t) dt, the busy processor-seconds of the
	// run; utilization is ProcSeconds / (P · Makespan). Exact except
	// across early-finalization windows (Algorithm 2 line 28), where the
	// released allocation is accrued at its logical release time.
	ProcSeconds float64
	Counters    Counters
	History     []Snapshot // non-nil only with Options.RecordHistory
	Breakdown   *Breakdown // non-nil only with Options.Accounting
}

// Arrival is one dynamically arriving job of an online instance: a task
// submitted at Time that queues until a processor pair is free. It is an
// alias of model.Arrival so workload generators can produce schedules
// without importing the engine.
type Arrival = model.Arrival

// Instance bundles the inputs of a run: the pack, the platform size and
// the resilience parameters.
type Instance struct {
	Tasks []model.Task
	P     int
	Res   model.Resilience
	// RC parameterizes the redistribution cost; the zero value is the
	// paper's Eq. (9) (zero latency, unit bandwidth).
	RC model.CostModel
	// Compiled optionally supplies prebuilt per-(task, allocation)
	// resilience tables for exactly this instance (model.Compile over the
	// same Tasks slice, Res, RC and P). When nil the Simulator compiles —
	// and, across Resets with an unchanged instance, reuses — its own
	// tables; a non-nil handle lets many simulators share one read-only
	// model (the campaign runner's compiled-model cache, DESIGN.md §15).
	// A shared handle cannot be combined with Arrivals: an online run
	// reads one table over the base pack followed by every arrival's
	// task, which the Simulator compiles at Reset (and reuses while
	// Tasks, Arrivals, Res, RC and P are unchanged).
	Compiled *model.Compiled
	// Arrivals, when non-empty, switches the run to online mode: the
	// simulation starts from the base pack and jobs arrive over time
	// (non-decreasing Time), queueing until a processor pair frees up.
	Arrivals []Arrival
}

// Validate checks that the instance is schedulable.
func (in Instance) Validate() error {
	n := len(in.Tasks)
	if n == 0 {
		return fmt.Errorf("core: empty pack")
	}
	if in.P <= 0 || in.P%2 != 0 {
		return fmt.Errorf("core: processor count %d must be positive and even", in.P)
	}
	if in.P < 2*n {
		return fmt.Errorf("core: %d processors cannot give %d tasks a pair each (need ≥ %d)", in.P, n, 2*n)
	}
	if err := in.Res.Validate(); err != nil {
		return err
	}
	for i, t := range in.Tasks {
		if t.Profile == nil {
			return fmt.Errorf("core: task %d has no speedup profile", i)
		}
		if t.Data < 0 || t.Ckpt < 0 {
			return fmt.Errorf("core: task %d has negative data or checkpoint size", i)
		}
	}
	prev := 0.0
	for k, a := range in.Arrivals {
		if a.Task.Profile == nil {
			return fmt.Errorf("core: arrival %d has no speedup profile", k)
		}
		if a.Task.Data < 0 || a.Task.Ckpt < 0 {
			return fmt.Errorf("core: arrival %d has negative data or checkpoint size", k)
		}
		if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
			return fmt.Errorf("core: arrival %d has invalid time %v", k, a.Time)
		}
		if a.Time < prev {
			return fmt.Errorf("core: arrivals must be sorted by time (arrival %d at %v after %v)", k, a.Time, prev)
		}
		prev = a.Time
	}
	return nil
}
