package core

import (
	"math"
	"testing"

	"cosched/internal/rng"
	"cosched/internal/workload"
)

// BenchmarkDecisionRound measures one end-of-task redistribution round
// in isolation: beginDecision over the eligible set plus the end-local
// heuristic's candidate sweep (Algorithm 3), without the commit — the
// engine state is untouched, so every iteration evaluates an identical
// round. This is the row-kernel path's own ledger entry: candidate
// scoring through the lazily bound prefix-min evaluators, frozen
// redistribution-cost rows and surcharge rows, with zero steady-state
// allocations.
func BenchmarkDecisionRound(b *testing.B) {
	in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
	e := NewSimulator()
	if err := e.Reset(in, Policy{OnEnd: EndLocal}, nil, Options{}); err != nil {
		b.Fatal(err)
	}
	// Finalize one task so its processors are free: the round now has
	// something to redistribute, as after a real task end. Skipping the
	// commit keeps the platform and task states frozen, so iterations
	// stay identical.
	e.finalize(0, 0)
	benchEndLocalRound(b, e, 0, e.eligible(0))
}

// BenchmarkDecisionRoundPaperScale is one EndLocal round at the paper's
// scale (Figure 8: n = 100, P = 5000, the default workload), taken
// mid-run: after 30 events, 44 of the round's 50 eligible tasks are
// non-improvable, the scans the pruned-scan bound (Decision.provablyDead)
// skips. It reports the round's candidate evaluations and pruned scans
// alongside its time.
func BenchmarkDecisionRoundPaperScale(b *testing.B) {
	e, t, elig := paperScaleRound(b)
	benchEndLocalRound(b, e, t, elig)
}

// paperScaleInstance is one Figure-8-like instance: the default
// workload's n = 100 tasks on P = 5000 processors.
func paperScaleInstance(tb testing.TB) Instance {
	spec := workload.Default()
	spec.P = 5000
	tasks, err := spec.Generate(rng.New(8))
	if err != nil {
		tb.Fatal(err)
	}
	return Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
}

// paperScaleRound runs the paper-scale instance fault-free under
// EndLocal for 30 events (the event cap stops the run there, state
// intact), then ends the next task. It returns the simulator and the
// time and eligible set of the EndLocal round that end triggers.
func paperScaleRound(tb testing.TB) (*Simulator, float64, []int) {
	e := NewSimulator()
	if err := e.Reset(paperScaleInstance(tb), Policy{OnEnd: EndLocal}, nil, Options{MaxEvents: 30}); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		tb.Fatal("the run finished inside the event cap")
	}
	next, t := -1, math.Inf(1)
	for i := range e.st {
		if !e.st[i].done && e.st[i].end < t {
			next, t = i, e.st[i].end
		}
	}
	e.finalize(next, t)
	return e, t, e.eligible(t)
}

// benchEndLocalRound times the EndLocal round of e at time t over elig
// without committing it, so every iteration evaluates the same round.
func benchEndLocalRound(b *testing.B, e *Simulator, t float64, elig []int) {
	e.ctr = Counters{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.beginDecision(t, elig, -1)
		e.end(&e.d)
	}
	b.StopTimer()
	b.ReportMetric(float64(e.ctr.CandidateEvals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(e.ctr.PrunedScans)/float64(b.N), "pruned/op")
}
