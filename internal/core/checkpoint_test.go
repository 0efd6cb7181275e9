package core

import (
	"math"
	"testing"
	"testing/quick"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
)

// stepWalk is the reference for Eq. (8): it walks a segment that starts
// at start period by period (work τ−C, then a checkpoint C) up to
// wall-clock time t, and returns the completed checkpoints and the work
// they sealed. It intentionally has no clever arithmetic.
func stepWalk(start, tau, ck, t float64) (checkpoints int, committed float64) {
	if math.IsInf(tau, 1) {
		return 0, 0
	}
	for clock := start; clock+tau <= t; clock += tau {
		checkpoints++
		committed += tau - ck
	}
	return checkpoints, committed
}

func TestCheckpointsIn(t *testing.T) {
	const start, tau = 100.0, 10.0
	for _, c := range []struct {
		t    float64
		want float64
	}{
		{100, 0}, {105, 0}, {110, 1}, {119.9, 1}, {120, 2}, {155, 5},
	} {
		if got := checkpointsIn(c.t-start, tau); got != c.want {
			t.Fatalf("checkpointsIn(%v, %v) = %v, want %v", c.t-start, tau, got, c.want)
		}
	}
}

// TestFaultFreeSegment: a τ = +Inf segment (λ = 0) neither checkpoints
// nor commits work, however long it runs.
func TestFaultFreeSegment(t *testing.T) {
	inf := math.Inf(1)
	if got := checkpointsIn(1e12, inf); got != 0 {
		t.Fatalf("fault-free segment checkpointed %v times", got)
	}
	if walked, committed := stepWalk(0, inf, 0, 1e12); walked != 0 || committed != 0 {
		t.Fatalf("period walk of a fault-free segment: %d checkpoints, %v committed", walked, committed)
	}
}

// randomSegment draws a segment start, period τ, checkpoint cost C < τ
// and a horizon up to 50 periods later.
func randomSegment(src *rng.Source) (start, tau, ck, horizon float64) {
	start = src.Uniform(0, 1e6)
	tau = src.Uniform(1, 1e5)
	ck = src.Uniform(0, tau*0.9)
	horizon = start + src.Uniform(0, 50)*tau
	return start, tau, ck, horizon
}

// TestClosedFormMatchesStepSimulator cross-validates the engine's Eq. (8)
// checkpoint count N against the period walk.
func TestClosedFormMatchesStepSimulator(t *testing.T) {
	src := rng.New(99)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		start, tau, ck, horizon := randomSegment(src)
		walked, _ := stepWalk(start, tau, ck, horizon)
		return checkpointsIn(horizon-start, tau) == float64(walked)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommittedWork checks the work that survives a failure, N·(τ−C),
// against the work the period walk seals.
func TestCommittedWork(t *testing.T) {
	// τ = 10, C = 2, failure at t = 25: two full periods seal 16 units.
	if n := checkpointsIn(25, 10); n*(10-2) != 16 {
		t.Fatalf("committed work at t=25 = %v, want 16", n*(10-2))
	}
	src := rng.New(98)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		start, tau, ck, horizon := randomSegment(src)
		_, committed := stepWalk(start, tau, ck, horizon)
		n := checkpointsIn(horizon-start, tau)
		return math.Abs(committed-n*(tau-ck)) < 1e-6*(committed+1)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultOnFaultFreeInstance replays a fault against an instance with
// λ = 0, whose checkpoint period is +Inf: the strike loses the whole
// segment and the run completes with a finite makespan.
func TestFaultOnFaultFreeInstance(t *testing.T) {
	in := stealScenario()
	in.Res = model.Resilience{}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 5, Proc: 0}})
	r := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Counters.Failures != 1 || math.IsNaN(r.Makespan) || math.IsInf(r.Makespan, 0) {
		t.Fatalf("failures %d, makespan %v", r.Counters.Failures, r.Makespan)
	}
}
