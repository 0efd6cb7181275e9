package core_test

// Golden-equivalence tests: the refactored reusable Simulator must be
// bit-identical to the pre-refactor per-run engine. The table below was
// generated from the engine as of PR 1 (commit 4c7a579) by running this
// test with COSCHED_UPDATE_GOLDEN=1 and pasting its output; makespans
// and finish-time checksums are recorded as hex float literals so the
// comparison is exact, not approximate.

import (
	"fmt"
	"math"
	"os"
	"testing"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// goldenInstance is one fixed workload configuration of the table.
type goldenInstance struct {
	name      string
	n, p      int
	mtbfYears float64
	taskSeed  uint64
	faultSeed uint64
}

var goldenInstances = []goldenInstance{
	{name: "small-hostile", n: 4, p: 24, mtbfYears: 2, taskSeed: 11, faultSeed: 101},
	{name: "mid-moderate", n: 8, p: 48, mtbfYears: 5, taskSeed: 12, faultSeed: 102},
}

var goldenPolicies = []core.Policy{
	core.NoRedistribution,
	core.IGEndGreedy,
	core.IGEndLocal,
	core.STFEndGreedy,
	core.STFEndLocal,
}

var goldenSemantics = []core.Semantics{
	core.SemanticsExpected,
	core.SemanticsDeterministic,
}

// goldenRow is the recorded outcome of one (instance, policy, semantics)
// cell: the exact makespan, the exact sum of per-task finish times, and
// the event counters that characterize the simulated trajectory.
type goldenRow struct {
	instance  string
	policy    string
	semantics core.Semantics
	makespan  float64
	finishSum float64
	failures  int
	redists   int
	taskEnds  int
	events    int
}

func goldenRun(t testing.TB, gi goldenInstance, pol core.Policy, sem core.Semantics) core.Result {
	spec := workload.Default()
	spec.N = gi.n
	spec.P = gi.p
	spec.MTBFYears = gi.mtbfYears
	tasks, err := spec.Generate(rng.New(gi.taskSeed))
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(gi.faultSeed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, pol, src, core.Options{Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func finishSum(res core.Result) float64 {
	s := 0.0
	for _, f := range res.Finish {
		s += f
	}
	return s
}

// TestGoldenEquivalence replays every recorded cell and requires exact
// agreement. Set COSCHED_UPDATE_GOLDEN=1 to print a fresh table instead
// (only valid against an engine known to be correct).
func TestGoldenEquivalence(t *testing.T) {
	if os.Getenv("COSCHED_UPDATE_GOLDEN") != "" {
		for _, gi := range goldenInstances {
			for _, pol := range goldenPolicies {
				for _, sem := range goldenSemantics {
					printGoldenRow(gi.name, pol, sem, goldenRun(t, gi, pol, sem))
				}
			}
		}
		t.Skip("golden table regenerated; paste the output above into goldenRows")
	}

	byName := map[string]core.Policy{}
	for _, pol := range goldenPolicies {
		byName[pol.String()] = pol
	}
	instances := map[string]goldenInstance{}
	for _, gi := range goldenInstances {
		instances[gi.name] = gi
	}
	for _, row := range goldenRows {
		row := row
		t.Run(fmt.Sprintf("%s/%s/%s", row.instance, row.policy, row.semantics), func(t *testing.T) {
			checkGoldenRow(t, goldenRun(t, instances[row.instance], byName[row.policy], row.semantics), row)
		})
	}
}

// goldenOnline is one fixed online configuration: the mid-moderate base
// pack plus a generated arrival stream.
type goldenOnline struct {
	name     string
	arrivals workload.ArrivalSpec
}

var goldenOnlineInstances = []goldenOnline{
	{name: "poisson", arrivals: workload.ArrivalSpec{Process: workload.ArrivalPoisson, Count: 6, Rate: 1e-6}},
	{name: "batch", arrivals: workload.ArrivalSpec{Process: workload.ArrivalBatch, Count: 6, Interval: 5e6, BatchSize: 3, Jitter: 3600}},
}

var goldenOnlinePolicies = []core.Policy{
	{OnEnd: core.EndGreedy, OnFailure: core.FailIteratedGreedy, OnArrival: core.ArrivalGreedy},
	{OnEnd: core.EndLocal, OnFailure: core.FailShortestTasksFirst, OnArrival: core.ArrivalSteal},
}

func goldenOnlineRun(t testing.TB, gi goldenOnline, pol core.Policy, sem core.Semantics) core.Result {
	spec := workload.Default()
	spec.N, spec.P, spec.MTBFYears = 8, 48, 5
	tasks, err := spec.Generate(rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := gi.arrivals.Generate(spec, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience(), Arrivals: arrivals}
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(103))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, pol, src, core.Options{Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenOnlineEquivalence is TestGoldenEquivalence for the online
// kernel: arrival streams on top of a base pack, under both arrival
// rules. Its rows were recorded from an engine that appended each
// arrival's table row at submission, a separate route to the same
// table values.
func TestGoldenOnlineEquivalence(t *testing.T) {
	if os.Getenv("COSCHED_UPDATE_GOLDEN") != "" {
		for _, gi := range goldenOnlineInstances {
			for _, pol := range goldenOnlinePolicies {
				for _, sem := range goldenSemantics {
					printGoldenRow(gi.name, pol, sem, goldenOnlineRun(t, gi, pol, sem))
				}
			}
		}
		t.Skip("golden table regenerated; paste the output above into goldenOnlineRows")
	}
	byName := map[string]core.Policy{}
	for _, pol := range goldenOnlinePolicies {
		byName[pol.String()] = pol
	}
	instances := map[string]goldenOnline{}
	for _, gi := range goldenOnlineInstances {
		instances[gi.name] = gi
	}
	for _, row := range goldenOnlineRows {
		row := row
		t.Run(fmt.Sprintf("%s/%s/%s", row.instance, row.policy, row.semantics), func(t *testing.T) {
			checkGoldenRow(t, goldenOnlineRun(t, instances[row.instance], byName[row.policy], row.semantics), row)
		})
	}
}

func printGoldenRow(instance string, pol core.Policy, sem core.Semantics, res core.Result) {
	fmt.Printf("\t{instance: %q, policy: %q, semantics: %d, makespan: %s, finishSum: %s, failures: %d, redists: %d, taskEnds: %d, events: %d},\n",
		instance, pol.String(), int(sem),
		hexLit(res.Makespan), hexLit(finishSum(res)),
		res.Counters.Failures, res.Counters.Redistributions,
		res.Counters.TaskEnds, res.Counters.Events)
}

// checkGoldenRow requires res to reproduce row exactly.
func checkGoldenRow(t *testing.T, res core.Result, row goldenRow) {
	t.Helper()
	if res.Makespan != row.makespan {
		t.Errorf("makespan = %x, golden %x (Δ=%g)", res.Makespan, row.makespan, res.Makespan-row.makespan)
	}
	if fs := finishSum(res); fs != row.finishSum {
		t.Errorf("finish sum = %x, golden %x (Δ=%g)", fs, row.finishSum, fs-row.finishSum)
	}
	if res.Counters.Failures != row.failures {
		t.Errorf("failures = %d, golden %d", res.Counters.Failures, row.failures)
	}
	if res.Counters.Redistributions != row.redists {
		t.Errorf("redistributions = %d, golden %d", res.Counters.Redistributions, row.redists)
	}
	if res.Counters.TaskEnds != row.taskEnds {
		t.Errorf("task ends = %d, golden %d", res.Counters.TaskEnds, row.taskEnds)
	}
	if res.Counters.Events != row.events {
		t.Errorf("events = %d, golden %d", res.Counters.Events, row.events)
	}
}

func hexLit(v float64) string {
	return fmt.Sprintf("math.Float64frombits(0x%016x)", math.Float64bits(v))
}

var goldenRows = []goldenRow{
	{instance: "small-hostile", policy: "NoRedistribution", semantics: 0, makespan: math.Float64frombits(0x417f5164a08718f0), finishSum: math.Float64frombits(0x419dd256c27c85d2), failures: 9, redists: 0, taskEnds: 4, events: 14},
	{instance: "small-hostile", policy: "NoRedistribution", semantics: 1, makespan: math.Float64frombits(0x417c5a25816327c2), finishSum: math.Float64frombits(0x419b37f7f40fe28a), failures: 9, redists: 0, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "IteratedGreedy-EndGreedy", semantics: 0, makespan: math.Float64frombits(0x417cb2cf82bfbac5), finishSum: math.Float64frombits(0x419c33dcc14f8681), failures: 9, redists: 7, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "IteratedGreedy-EndGreedy", semantics: 1, makespan: math.Float64frombits(0x417c5ca8bd29e8d2), finishSum: math.Float64frombits(0x419b979e297bfcc2), failures: 9, redists: 8, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "IteratedGreedy-EndLocal", semantics: 0, makespan: math.Float64frombits(0x417cfa8be6b0f748), finishSum: math.Float64frombits(0x419c340ae7257547), failures: 9, redists: 8, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "IteratedGreedy-EndLocal", semantics: 1, makespan: math.Float64frombits(0x417c725d424e40d8), finishSum: math.Float64frombits(0x419b44bb38971c6d), failures: 9, redists: 9, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "ShortestTasksFirst-EndGreedy", semantics: 0, makespan: math.Float64frombits(0x417cb2cf82bfbac5), finishSum: math.Float64frombits(0x419c33dcc14f8681), failures: 9, redists: 7, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "ShortestTasksFirst-EndGreedy", semantics: 1, makespan: math.Float64frombits(0x417c5ca8bd29e8d2), finishSum: math.Float64frombits(0x419b979e297bfcc2), failures: 9, redists: 8, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "ShortestTasksFirst-EndLocal", semantics: 0, makespan: math.Float64frombits(0x417cfa8be6b0f748), finishSum: math.Float64frombits(0x419c340ae7257547), failures: 9, redists: 8, taskEnds: 4, events: 13},
	{instance: "small-hostile", policy: "ShortestTasksFirst-EndLocal", semantics: 1, makespan: math.Float64frombits(0x417c725d424e40d8), finishSum: math.Float64frombits(0x419b44bb38971c6d), failures: 9, redists: 9, taskEnds: 4, events: 13},
	{instance: "mid-moderate", policy: "NoRedistribution", semantics: 0, makespan: math.Float64frombits(0x41869183cb5e99ad), finishSum: math.Float64frombits(0x41b1442f7a55dc89), failures: 6, redists: 0, taskEnds: 7, events: 18},
	{instance: "mid-moderate", policy: "NoRedistribution", semantics: 1, makespan: math.Float64frombits(0x41855273c15136c0), finishSum: math.Float64frombits(0x41af758ad95c4f12), failures: 5, redists: 0, taskEnds: 8, events: 19},
	{instance: "mid-moderate", policy: "IteratedGreedy-EndGreedy", semantics: 0, makespan: math.Float64frombits(0x418059a749868103), finishSum: math.Float64frombits(0x41aff162c0173706), failures: 6, redists: 13, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "IteratedGreedy-EndGreedy", semantics: 1, makespan: math.Float64frombits(0x41809ee33bac96aa), finishSum: math.Float64frombits(0x41b00463d14c00ae), failures: 6, redists: 17, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "IteratedGreedy-EndLocal", semantics: 0, makespan: math.Float64frombits(0x4180977afbd62a57), finishSum: math.Float64frombits(0x41b01800b397c146), failures: 6, redists: 11, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "IteratedGreedy-EndLocal", semantics: 1, makespan: math.Float64frombits(0x41802492bba56125), finishSum: math.Float64frombits(0x41af362b2b020890), failures: 6, redists: 14, taskEnds: 7, events: 13},
	{instance: "mid-moderate", policy: "ShortestTasksFirst-EndGreedy", semantics: 0, makespan: math.Float64frombits(0x41806702e510e9f9), finishSum: math.Float64frombits(0x41afea8712220fa7), failures: 6, redists: 14, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "ShortestTasksFirst-EndGreedy", semantics: 1, makespan: math.Float64frombits(0x41809ee33bac96aa), finishSum: math.Float64frombits(0x41b00463d14c00ae), failures: 6, redists: 17, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "ShortestTasksFirst-EndLocal", semantics: 0, makespan: math.Float64frombits(0x4180977afbd62a57), finishSum: math.Float64frombits(0x41b01800b397c146), failures: 6, redists: 11, taskEnds: 8, events: 14},
	{instance: "mid-moderate", policy: "ShortestTasksFirst-EndLocal", semantics: 1, makespan: math.Float64frombits(0x4180284e1b9dc1b8), finishSum: math.Float64frombits(0x41af14fdb1254445), failures: 6, redists: 14, taskEnds: 7, events: 13},
}

var goldenOnlineRows = []goldenRow{
	{instance: "poisson", policy: "IteratedGreedy-EndGreedy+ArrivalGreedy", semantics: 0, makespan: math.Float64frombits(0x418d09b4c2d7b112), finishSum: math.Float64frombits(0x41c35b308e4a8d78), failures: 9, redists: 47, taskEnds: 14, events: 29},
	{instance: "poisson", policy: "IteratedGreedy-EndGreedy+ArrivalGreedy", semantics: 1, makespan: math.Float64frombits(0x418c06679f825151), finishSum: math.Float64frombits(0x41c32328dbeed73b), failures: 7, redists: 39, taskEnds: 13, events: 28},
	{instance: "poisson", policy: "ShortestTasksFirst-EndLocal+ArrivalSteal", semantics: 0, makespan: math.Float64frombits(0x418d0417dc0afa0e), finishSum: math.Float64frombits(0x41c3881184c2b1b7), failures: 9, redists: 31, taskEnds: 12, events: 27},
	{instance: "poisson", policy: "ShortestTasksFirst-EndLocal+ArrivalSteal", semantics: 1, makespan: math.Float64frombits(0x418d09e00bb5137e), finishSum: math.Float64frombits(0x41c473fc09221f75), failures: 9, redists: 35, taskEnds: 11, events: 26},
	{instance: "batch", policy: "IteratedGreedy-EndGreedy+ArrivalGreedy", semantics: 0, makespan: math.Float64frombits(0x418d09b4c2d7b112), finishSum: math.Float64frombits(0x41c35bc2aa3a4496), failures: 9, redists: 47, taskEnds: 14, events: 29},
	{instance: "batch", policy: "IteratedGreedy-EndGreedy+ArrivalGreedy", semantics: 1, makespan: math.Float64frombits(0x418c722eb0c6e38e), finishSum: math.Float64frombits(0x41c353c532d62d66), failures: 7, redists: 48, taskEnds: 14, events: 29},
	{instance: "batch", policy: "ShortestTasksFirst-EndLocal+ArrivalSteal", semantics: 0, makespan: math.Float64frombits(0x418d2eb4fad67927), finishSum: math.Float64frombits(0x41c391c0ddfa59a9), failures: 9, redists: 31, taskEnds: 12, events: 27},
	{instance: "batch", policy: "ShortestTasksFirst-EndLocal+ArrivalSteal", semantics: 1, makespan: math.Float64frombits(0x418d1521e81a8e1b), finishSum: math.Float64frombits(0x41c47a16cb3607c7), failures: 9, redists: 36, taskEnds: 11, events: 26},
}
