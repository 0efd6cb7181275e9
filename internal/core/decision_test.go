package core

// Tests of rules run end to end under Paranoia, and of the safeguards
// every rule runs under: a Decision commits only even allocations that
// keep processor conservation, whatever the rule asks for.

import (
	"testing"

	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// runWithEndRule runs in with end as the end-of-task rule and no failure
// or arrival rule: the seam that drives rules which deliberately
// misbehave.
func runWithEndRule(in Instance, end func(*Decision), src failure.Source, opt Options) (Result, error) {
	e := NewSimulator()
	if err := e.Reset(in, NoRedistribution, src, opt); err != nil {
		return Result{}, err
	}
	e.end = end
	return e.Run()
}

// proportionalInstance is a failure-heavy setup where EndProportional
// has free processors to apportion.
func proportionalInstance(t *testing.T) (Instance, workload.Spec) {
	t.Helper()
	spec := workload.Default()
	spec.N = 10
	spec.P = 60
	spec.MTBFYears = 3
	tasks, err := spec.Generate(rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	return Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}, spec
}

// TestEndProportionalRuns exercises the non-paper heuristic end to end
// with Paranoia on: platform invariants hold after every event, the pack
// completes, and the policy actually redistributes.
func TestEndProportionalRuns(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{OnEnd: EndProportional, OnFailure: FailIteratedGreedy}
	res, err := Run(in, pol, src, Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("suspicious makespan %v", res.Makespan)
	}
	if res.Counters.Redistributions == 0 {
		t.Fatal("EndProportional never redistributed in a failure-heavy run")
	}
}

// endAllToLongest is a deliberately naive end rule: it hands every free
// pair to the single longest task unconditionally, with no candidate
// check.
func endAllToLongest(d *Decision) {
	if len(d.elig) == 0 {
		return
	}
	longest := d.elig[0]
	for _, i := range d.elig {
		if d.tUc[i] > d.tUc[longest] {
			longest = i
		}
	}
	for d.avail >= 2 {
		d.setSigma(longest, d.sigmaNew[longest]+2)
	}
}

// TestExternalHeuristic runs the naive rule through a paranoid
// simulation: the engine must keep processor conservation even though
// the rule grows without candidate checks.
func TestExternalHeuristic(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWithEndRule(in, endAllToLongest, src, Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("suspicious makespan %v", res.Makespan)
	}
}

// endOversubscribe tries to claim more processors than exist; setSigma
// must panic rather than let the engine commit an impossible schedule.
func endOversubscribe(d *Decision) {
	if len(d.elig) == 0 {
		return
	}
	d.setSigma(d.elig[0], 1<<20)
}

// TestDecisionOversubscribePanics verifies the conservation safeguard of
// Decision.setSigma.
func TestDecisionOversubscribePanics(t *testing.T) {
	in, spec := proportionalInstance(t)
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(79))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribing setSigma did not panic")
		}
	}()
	_, _ = runWithEndRule(in, endOversubscribe, src, Options{})
	t.Fatal("run with an oversubscribing rule completed")
}
