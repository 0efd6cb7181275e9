package core

import (
	"math"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
)

// TestCostModelDefaultMatchesPaper: the zero-value CostModel reproduces
// the hand-computed EndLocal scenario exactly.
func TestCostModelDefaultMatchesPaper(t *testing.T) {
	short := model.Task{ID: 0, Data: 4, Ckpt: 4, Profile: model.Table{Times: []float64{20, 10, 10, 10}}}
	long := model.Task{ID: 1, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 60}}}
	in := Instance{Tasks: []model.Task{short, long}, P: 4, Res: model.Resilience{}}
	r := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	if math.Abs(r.Finish[1]-66) > 1e-9 {
		t.Fatalf("default cost model broke the baseline scenario: %v", r.Finish[1])
	}
}

// TestSlowNetworkScalesCost: halving the bandwidth doubles the
// redistribution term in the realized finish time.
func TestSlowNetworkScalesCost(t *testing.T) {
	short := model.Task{ID: 0, Data: 4, Ckpt: 4, Profile: model.Table{Times: []float64{20, 10, 10, 10}}}
	long := model.Task{ID: 1, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 60}}}
	in := Instance{Tasks: []model.Task{short, long}, P: 4, Res: model.Resilience{},
		RC: model.CostModel{InvBandwidth: 2}}
	r := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	// RC doubles from 2 to 4: finish = 10 + 4 + 0.9·60 = 68.
	if math.Abs(r.Finish[1]-68) > 1e-9 {
		t.Fatalf("finish %v, want 68 with halved bandwidth", r.Finish[1])
	}
}

// TestHighLatencyDisablesRedistribution: with an exorbitant per-round
// startup cost the heuristics must decide redistribution is not worth it.
func TestHighLatencyDisablesRedistribution(t *testing.T) {
	in := stealScenario()
	in.RC = model.CostModel{Latency: 1e9}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	r := mustRun(t, in, Policy{OnFailure: FailShortestTasksFirst}, trace, Options{})
	if r.Counters.Redistributions != 0 {
		t.Fatalf("redistributed %d times across a 10^9-second-latency network", r.Counters.Redistributions)
	}
	trace.Rewind()
	base := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Makespan != base.Makespan {
		t.Fatal("with no redistribution the policies must coincide")
	}
}

// TestLatencySweepMonotone: as latency grows, the heuristic's makespan
// approaches the no-redistribution baseline from below and the number of
// redistributions never increases.
func TestLatencySweepMonotone(t *testing.T) {
	in := stealScenario()
	prevRedist := math.MaxInt32
	prevSpan := 0.0
	for _, lat := range []float64{0, 100, 1e4, 1e9} {
		run := in
		run.RC = model.CostModel{Latency: lat}
		trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
		r := mustRun(t, run, Policy{OnFailure: FailIteratedGreedy}, trace, Options{})
		if r.Counters.Redistributions > prevRedist {
			t.Fatalf("redistributions increased with latency: %d after %d",
				r.Counters.Redistributions, prevRedist)
		}
		if r.Makespan < prevSpan-1e-9 {
			t.Fatalf("makespan improved as the network degraded: %v after %v", r.Makespan, prevSpan)
		}
		prevRedist = r.Counters.Redistributions
		prevSpan = r.Makespan
	}
}

func TestCostModelUnits(t *testing.T) {
	// rounds(4→6) = 4, per-edge volume = m/(j·k) = 48/24 = 2.
	c := model.CostModel{Latency: 3, InvBandwidth: 5}
	got := c.Cost(48, 4, 6)
	want := 4 * (3 + 2*5.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost %v, want %v", got, want)
	}
	if c.Cost(48, 4, 4) != 0 {
		t.Fatal("no-op redistribution must be free")
	}
	if (model.CostModel{}).Cost(48, 4, 6) != float64(model.RedistRounds(4, 6))*48/(4*6) {
		t.Fatal("zero-value cost model must equal Eq. (9)")
	}
}
