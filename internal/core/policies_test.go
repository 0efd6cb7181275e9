package core

import (
	"math"
	"strings"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
)

// TestEndLocalHandComputed replays §3.3.1's scenario with concrete
// numbers: a short task ends and the long task absorbs its processors,
// paying the redistribution cost of Eq. (7) (no checkpoint since the run
// is fault-free).
func TestEndLocalHandComputed(t *testing.T) {
	short := model.Task{ID: 0, Data: 4, Ckpt: 4, Profile: model.Table{Times: []float64{20, 10, 10, 10}}}
	long := model.Task{ID: 1, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 60}}}
	in := Instance{Tasks: []model.Task{short, long}, P: 4, Res: model.Resilience{}}

	r := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	// Short task ends at 10. Long task: αt = 1 − 10/100 = 0.9.
	// RC(2→4) = max(2,2)·(1/4)·(8/2) = 2. New finish: 10 + 2 + 0.9·60 = 66.
	if math.Abs(r.Finish[0]-10) > 1e-9 {
		t.Fatalf("short task finished at %v, want 10", r.Finish[0])
	}
	if math.Abs(r.Finish[1]-66) > 1e-9 {
		t.Fatalf("long task finished at %v, want 66", r.Finish[1])
	}
	if r.Counters.Redistributions != 1 {
		t.Fatalf("redistributions = %d, want 1", r.Counters.Redistributions)
	}
	if math.Abs(r.Counters.RedistTime-2) > 1e-9 {
		t.Fatalf("redistribution time %v, want 2", r.Counters.RedistTime)
	}
	if r.Sigma[1] != 4 {
		t.Fatalf("long task ended on %d processors, want 4", r.Sigma[1])
	}
}

// TestEndLocalSkipsWhenCostExceedsBenefit: redistribution must only
// happen when the predicted finish improves (§3.3.1's condition
// t_{i,j} − (t_e + t') > RC).
func TestEndLocalSkipsWhenCostExceedsBenefit(t *testing.T) {
	short := model.Task{ID: 0, Data: 4, Ckpt: 4, Profile: model.Table{Times: []float64{20, 10, 10, 10}}}
	// Huge data volume: RC(2→4) = 2·(1/4)·(m/2) = m/4 = 250 ≫ benefit 6.
	long := model.Task{ID: 1, Data: 1000, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 60}}}
	in := Instance{Tasks: []model.Task{short, long}, P: 4, Res: model.Resilience{}}
	r := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	if r.Counters.Redistributions != 0 {
		t.Fatalf("uneconomical redistribution performed: %+v", r.Counters)
	}
	if math.Abs(r.Finish[1]-100) > 1e-9 {
		t.Fatalf("long task finish %v, want undisturbed 100", r.Finish[1])
	}
}

// TestEndGreedyMatchesEndLocalOnSimplePack: with one beneficiary the two
// end rules coincide.
func TestEndGreedyMatchesEndLocalOnSimplePack(t *testing.T) {
	short := model.Task{ID: 0, Data: 4, Ckpt: 4, Profile: model.Table{Times: []float64{20, 10, 10, 10}}}
	long := model.Task{ID: 1, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 60}}}
	in := Instance{Tasks: []model.Task{short, long}, P: 4, Res: model.Resilience{}}
	a := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	b := mustRun(t, in, Policy{OnEnd: EndGreedy}, nil, Options{})
	if math.Abs(a.Makespan-b.Makespan) > 1e-9 {
		t.Fatalf("EndLocal %v vs EndGreedy %v", a.Makespan, b.Makespan)
	}
}

// stealScenario is a two-task instance where the initial schedule is
// (28, 4) on 32 processors and a failure on the big task makes stealing a
// pair from the small one profitable (verified against the model by
// hand; see also TestSTFStealsFromShortest's assertions).
func stealScenario() Instance {
	long := model.Task{ID: 0, Data: 1e5, Ckpt: 100, Profile: model.Synthetic{M: 1e5, SeqFraction: 0.08}}
	short := model.Task{ID: 1, Data: 2e4, Ckpt: 20, Profile: model.Synthetic{M: 2e4, SeqFraction: 0.08}}
	res := model.Resilience{Lambda: 1e-7, Downtime: 60}
	return Instance{Tasks: []model.Task{long, short}, P: 32, Res: res}
}

// TestSTFStealsFromShortest builds a failure on the longest task and
// verifies that ShortestTasksFirst takes a pair from the shortest task
// when that helps the faulty one without making the donor critical.
func TestSTFStealsFromShortest(t *testing.T) {
	in := stealScenario()
	sigma, err := InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if sigma[0] != 28 || sigma[1] != 4 {
		t.Fatalf("initial schedule %v, want [28 4]", sigma)
	}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	r := mustRun(t, in, Policy{OnFailure: FailShortestTasksFirst}, trace, Options{})
	if r.Counters.Failures != 1 {
		t.Fatalf("failures = %d, want 1", r.Counters.Failures)
	}
	if r.Counters.Redistributions != 2 { // faulty grows, donor shrinks
		t.Fatalf("redistributions = %d, want 2", r.Counters.Redistributions)
	}
	if r.Sigma[0] != 30 || r.Sigma[1] != 2 {
		t.Fatalf("final allocations %v, want [30 2]", r.Sigma)
	}
	trace.Rewind()
	base := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Makespan >= base.Makespan {
		t.Fatalf("STF did not improve makespan: %v vs %v", r.Makespan, base.Makespan)
	}
}

// TestSTFGrowsFromFreePool: processors released by an already-finished
// task (EndNone keeps them free) are absorbed by the faulty task in
// phase 1 of Algorithm 4, on top of any stealing.
func TestSTFGrowsFromFreePool(t *testing.T) {
	in := stealScenario()
	tiny := model.Task{ID: 2, Data: 2e3, Ckpt: 2, Profile: model.Synthetic{M: 2e3, SeqFraction: 0.08}}
	in.Tasks = append(in.Tasks, tiny)
	in.P = 34
	sigma, _ := InitialSchedule(in)
	if sigma[0] != 28 || sigma[1] != 4 || sigma[2] != 2 {
		t.Fatalf("initial schedule %v, want [28 4 2]", sigma)
	}
	// The tiny task ends around t≈35k; the fault lands after, so its pair
	// is free for phase 1.
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	r := mustRun(t, in, Policy{OnFailure: FailShortestTasksFirst}, trace, Options{})
	if r.Finish[2] >= 1e5 {
		t.Fatalf("tiny task finished at %v, expected before the fault", r.Finish[2])
	}
	// 28 + 2 (free pool) + 2 (stolen) = 32.
	if r.Sigma[0] != 32 || r.Sigma[1] != 2 {
		t.Fatalf("final allocations %v, want [32 2 2]", r.Sigma)
	}
}

// TestIGRebalancesAfterFailure: IteratedGreedy rebuilds the whole
// schedule; on the steal scenario it reaches the same allocation as STF
// and improves on no-redistribution.
func TestIGRebalancesAfterFailure(t *testing.T) {
	in := stealScenario()
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	r := mustRun(t, in, Policy{OnFailure: FailIteratedGreedy}, trace, Options{})
	if r.Sigma[0] != 30 || r.Sigma[1] != 2 {
		t.Fatalf("final allocations %v, want [30 2]", r.Sigma)
	}
	trace.Rewind()
	base := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Makespan >= base.Makespan {
		t.Fatalf("IG did not improve makespan: %v vs %v", r.Makespan, base.Makespan)
	}
}

// TestFailurePolicySkippedWhenNotLongest: a failure on a non-critical
// task must not trigger any redistribution (Algorithm 2 line 30).
func TestFailurePolicySkippedWhenNotLongest(t *testing.T) {
	long := model.Task{ID: 0, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{4000, 2000}}}
	short := model.Task{ID: 1, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{100, 50}}}
	res := model.Resilience{Lambda: 1e-5, Downtime: 1}
	in := Instance{Tasks: []model.Task{long, short}, P: 4, Res: res}
	// Fault the *short* task early: it recovers and is still far from
	// being the longest, so no policy run.
	sigma, _ := InitialSchedule(in)
	if sigma[0] != 2 || sigma[1] != 2 {
		t.Fatalf("unexpected initial schedule %v", sigma)
	}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 10, Proc: 2}})
	r := mustRun(t, in, Policy{OnFailure: FailIteratedGreedy}, trace, Options{})
	if r.Counters.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (owner of proc 2 should be task 1, got sigma %v)", r.Counters.Failures, sigma)
	}
	if r.Counters.Redistributions != 0 {
		t.Fatal("policy ran although the faulty task was not the longest")
	}
}

// TestIGCanShrinkTasks: IteratedGreedy may take processors away from a
// task when the rebuilt schedule no longer needs them there.
func TestIGCanShrinkTasks(t *testing.T) {
	src := rng.New(40)
	in := Instance{Tasks: synthPack(12, src), P: 48, Res: paperRes(0.5)}
	fsrc, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(3))
	r := mustRun(t, in, IGEndLocal, fsrc, Options{})
	if r.Counters.Failures == 0 || r.Counters.Redistributions == 0 {
		t.Skipf("scenario produced no redistribution (failures=%d)", r.Counters.Failures)
	}
	// No strong assertion here beyond a clean, invariant-respecting run —
	// Paranoia mode in mustRun validates conservation after every event.
}

// TestPolicyStringNames pins the paper's naming.
func TestPolicyStringNames(t *testing.T) {
	cases := map[string]Policy{
		"NoRedistribution":             NoRedistribution,
		"IteratedGreedy-EndGreedy":     IGEndGreedy,
		"IteratedGreedy-EndLocal":      IGEndLocal,
		"ShortestTasksFirst-EndGreedy": STFEndGreedy,
		"ShortestTasksFirst-EndLocal":  STFEndLocal,
	}
	for want, pol := range cases {
		if got := pol.String(); got != want {
			t.Fatalf("policy %v stringifies to %q, want %q", pol, got, want)
		}
	}
	if EndLocal.String() != "EndLocal" || FailIteratedGreedy.String() != "IteratedGreedy" {
		t.Fatal("rule names wrong")
	}
	if SemanticsExpected.String() != "expected" || SemanticsDeterministic.String() != "deterministic" {
		t.Fatal("semantics names wrong")
	}
}

// TestFaultyCommitIncludesDowntimeRecovery verifies the §3.3.2 accounting
// for a redistributed faulty task: tlastR = t + D + R_{f,jold} + RC + C.
func TestFaultyCommitIncludesDowntimeRecovery(t *testing.T) {
	in := stealScenario()
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	r := mustRun(t, in, Policy{OnFailure: FailShortestTasksFirst}, trace, Options{})
	if r.Counters.Redistributions == 0 {
		t.Fatal("scenario must redistribute")
	}
	// The faulty task's finish must exceed t + D + R + RC + remaining
	// work at full speed: those are serial, unavoidable phases.
	long := in.Tasks[0]
	sigma, _ := InitialSchedule(in)
	minFinish := 1e5 + in.Res.Downtime + in.Res.Recovery(long, sigma[0]) +
		model.CostModel{}.Cost(long.Data, sigma[0], r.Sigma[0])
	if r.Finish[0] <= minFinish {
		t.Fatalf("faulty task finish %v ignores serial recovery phases (min %v)", r.Finish[0], minFinish)
	}
}

// TestParanoiaCatchesStaleCommit commits a shrink through setEvaluated
// with a candidate time one ulp above the true Candidate value, as a
// loop that kept the value of the wrong candidate would. With Paranoia
// the recheck reports it and Run fails; without, nothing notices. The
// recheck counts no candidate evaluation.
func TestParanoiaCatchesStaleCommit(t *testing.T) {
	for _, paranoia := range []bool{false, true} {
		in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
		e := NewSimulator()
		if err := e.Reset(in, IGEndLocal, nil, Options{Paranoia: paranoia}); err != nil {
			t.Fatal(err)
		}
		elig := e.eligible(0)
		e.beginDecision(0, elig, -1)
		d := &e.d
		i := -1
		for _, k := range elig {
			if d.sigmaNew[k] >= 4 {
				i = k
			}
		}
		if i < 0 {
			t.Fatal("no task holds two pairs: no shrink to commit")
		}
		tE := d.candidate(i, d.sigmaNew[i]-2)
		evals := e.ctr.CandidateEvals
		d.setEvaluated(i, d.sigmaNew[i]-2, math.Nextafter(tE, math.Inf(1)))
		if e.ctr.CandidateEvals != evals {
			t.Fatalf("Paranoia %v: the recheck counted %d evaluations", paranoia, e.ctr.CandidateEvals-evals)
		}
		_, err := e.Run()
		if !paranoia {
			if err != nil {
				t.Fatalf("without Paranoia: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "candidate time") {
			t.Fatalf("Run after a stale commit: err = %v, want the commit report", err)
		}
	}
}
