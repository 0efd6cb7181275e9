package core

import (
	"math"
	"strings"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
	"cosched/internal/sim"
)

func mustRun(t *testing.T, in Instance, pol Policy, src failure.Source, opt Options) Result {
	t.Helper()
	opt.Paranoia = true
	res, err := Run(in, pol, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultFreeNoRedistribution(t *testing.T) {
	in := Instance{Tasks: synthPack(6, rng.New(4)), P: 40, Res: model.Resilience{}}
	res := mustRun(t, in, NoRedistribution, nil, Options{})
	sigma, _ := InitialSchedule(in)
	want := ScheduleMakespan(in, sigma)
	if math.Abs(res.Makespan-want) > 1e-9*want {
		t.Fatalf("fault-free NoRC makespan %v, want %v", res.Makespan, want)
	}
	// Every task finishes exactly at its fault-free time.
	for i, task := range in.Tasks {
		if math.Abs(res.Finish[i]-task.Time(sigma[i])) > 1e-9 {
			t.Fatalf("task %d finished at %v, want %v", i, res.Finish[i], task.Time(sigma[i]))
		}
	}
	if res.Counters.Failures != 0 || res.Counters.Redistributions != 0 {
		t.Fatalf("unexpected counters: %+v", res.Counters)
	}
	if res.Counters.TaskEnds != 6 {
		t.Fatalf("task ends %d, want 6", res.Counters.TaskEnds)
	}
}

func TestFaultFreeEndLocalNeverHurts(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := Instance{Tasks: synthPack(8, rng.New(seed)), P: 24, Res: model.Resilience{}}
		base := mustRun(t, in, NoRedistribution, nil, Options{})
		local := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
		if local.Makespan > base.Makespan*(1+1e-9) {
			t.Fatalf("seed %d: EndLocal worsened makespan %v > %v", seed, local.Makespan, base.Makespan)
		}
	}
}

func TestFaultFreeEndGreedyNeverHurts(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := Instance{Tasks: synthPack(8, rng.New(seed)), P: 24, Res: model.Resilience{}}
		base := mustRun(t, in, NoRedistribution, nil, Options{})
		greedy := mustRun(t, in, Policy{OnEnd: EndGreedy}, nil, Options{})
		if greedy.Makespan > base.Makespan*(1+1e-9) {
			t.Fatalf("seed %d: EndGreedy worsened makespan %v > %v", seed, greedy.Makespan, base.Makespan)
		}
	}
}

func TestFaultFreeRedistributionGains(t *testing.T) {
	// A pack with a few large and many small tasks on a tight platform:
	// when the small tasks finish, the large ones should absorb their
	// processors and the makespan must strictly improve.
	src := rng.New(11)
	var tasks []model.Task
	for i := 0; i < 2; i++ {
		tasks = append(tasks, model.Task{ID: i, Data: 2.5e6, Ckpt: 0, Profile: model.Synthetic{M: 2.5e6, SeqFraction: 0.08}})
	}
	for i := 2; i < 10; i++ {
		m := src.Uniform(1e4, 5e4)
		tasks = append(tasks, model.Task{ID: i, Data: m, Ckpt: 0, Profile: model.Synthetic{M: m, SeqFraction: 0.08}})
	}
	in := Instance{Tasks: tasks, P: 24, Res: model.Resilience{}}
	base := mustRun(t, in, NoRedistribution, nil, Options{})
	local := mustRun(t, in, Policy{OnEnd: EndLocal}, nil, Options{})
	if local.Makespan >= base.Makespan*0.999 {
		t.Fatalf("redistribution gained nothing: %v vs %v", local.Makespan, base.Makespan)
	}
	if local.Counters.Redistributions == 0 {
		t.Fatal("no redistribution recorded")
	}
	if local.Counters.RedistTime <= 0 {
		t.Fatal("redistribution cost not accounted")
	}
}

// TestFailureBookkeepingHandComputed verifies the skeleton's rollback
// arithmetic (Algorithm 2 lines 22–26) on a hand-sized example.
func TestFailureBookkeepingHandComputed(t *testing.T) {
	// One task on p=2. λ=0.01/proc ⇒ rate 0.02 on 2 procs, µ_task=50.
	// C_1=8 ⇒ C_{1,2}=4, τ = sqrt(2·50·4)+4 = 24, work/period = 20.
	// t_{1,2}=100 ⇒ 5 fault-free periods.
	task := model.Task{ID: 0, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100}}}
	res := model.Resilience{Lambda: 0.01, Downtime: 10}
	in := Instance{Tasks: []model.Task{task}, P: 2, Res: res}

	tau := res.Period(task, 2)
	if math.Abs(tau-24) > 1e-9 {
		t.Fatalf("period %v, want 24", tau)
	}

	trace, _ := failure.NewTrace([]failure.Fault{{Time: 50, Proc: 0}})
	r := mustRun(t, in, NoRedistribution, trace, Options{})

	if r.Counters.Failures != 1 {
		t.Fatalf("failures = %d, want 1", r.Counters.Failures)
	}
	// At t=50: N = ⌊50/24⌋ = 2 periods committed, α = 1 − 2·20/100 = 0.6.
	// tlastR = 50 + D + R = 50 + 10 + 4 = 64. Makespan = 64 + t^R(0.6).
	want := 64 + res.ExpectedTime(task, 2, 0.6)
	if math.Abs(r.Makespan-want) > 1e-9*want {
		t.Fatalf("makespan %v, want %v", r.Makespan, want)
	}
}

func TestSuppressedFaultDuringRecovery(t *testing.T) {
	task := model.Task{ID: 0, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100}}}
	res := model.Resilience{Lambda: 0.01, Downtime: 10}
	in := Instance{Tasks: []model.Task{task}, P: 2, Res: res}
	// Second fault lands at t=60 < tlastR=64: suppressed per §6.1.
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 50, Proc: 0}, {Time: 60, Proc: 1}})
	r := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Counters.Failures != 1 || r.Counters.SuppressedFault != 1 {
		t.Fatalf("counters %+v, want 1 failure and 1 suppressed", r.Counters)
	}
	want := 64 + res.ExpectedTime(task, 2, 0.6)
	if math.Abs(r.Makespan-want) > 1e-9*want {
		t.Fatalf("suppressed fault changed the outcome: %v vs %v", r.Makespan, want)
	}
}

func TestIdleFault(t *testing.T) {
	// p=4 but a single task uses only 2 processors; faults on the free
	// pair must be counted as idle strikes and change nothing.
	task := model.Task{ID: 0, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100, 100, 100}}}
	res := model.Resilience{Lambda: 0.01, Downtime: 10}
	in := Instance{Tasks: []model.Task{task}, P: 4, Res: res}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 5, Proc: 3}})
	r := mustRun(t, in, NoRedistribution, trace, Options{})
	if r.Counters.IdleFault != 1 || r.Counters.Failures != 0 {
		t.Fatalf("counters %+v, want 1 idle strike", r.Counters)
	}
	if math.Abs(r.Makespan-res.ExpectedTime(task, 2, 1)) > 1e-9 {
		t.Fatal("idle fault affected the makespan")
	}
}

func TestRollbackDelaysCompletion(t *testing.T) {
	task := model.Task{ID: 0, Data: 8, Ckpt: 8, Profile: model.Table{Times: []float64{200, 100}}}
	res := model.Resilience{Lambda: 0.01, Downtime: 10}
	in := Instance{Tasks: []model.Task{task}, P: 2, Res: res}
	opt := Options{Semantics: SemanticsDeterministic}

	clean := mustRun(t, in, NoRedistribution, nil, opt)
	// Deterministic fault-free finish: α·t + N^ff·C = 100 + 5·4 = 120.
	if math.Abs(clean.Makespan-120) > 1e-9 {
		t.Fatalf("clean deterministic makespan %v, want 120", clean.Makespan)
	}
	trace, _ := failure.NewTrace([]failure.Fault{{Time: 50, Proc: 0}})
	hit := mustRun(t, in, NoRedistribution, trace, opt)
	// Rollback to 2 committed periods (α=0.6), resume at 64:
	// 64 + 0.6·100 + N^ff(0.6)·4 = 64 + 60 + 12 = 136.
	if math.Abs(hit.Makespan-136) > 1e-9 {
		t.Fatalf("post-failure deterministic makespan %v, want 136", hit.Makespan)
	}
	if hit.Makespan <= clean.Makespan {
		t.Fatal("failure must delay the deterministic completion")
	}

	// Under the paper's expected-time semantics the rollback re-anchors
	// the expectation to wall-clock progress measured at fault-free rate,
	// so the projected completion can actually move *earlier* — a known
	// artifact of Algorithm 2's bookkeeping that we reproduce faithfully.
	cleanE := mustRun(t, in, NoRedistribution, nil, Options{})
	trace.Rewind()
	hitE := mustRun(t, in, NoRedistribution, trace, Options{})
	if hitE.Makespan == cleanE.Makespan {
		t.Fatal("failure should perturb the expected-semantics makespan")
	}
}

func TestDeterministicRuns(t *testing.T) {
	in := Instance{Tasks: synthPack(10, rng.New(8)), P: 60, Res: paperRes(2)}
	for _, pol := range []Policy{NoRedistribution, IGEndLocal, IGEndGreedy, STFEndLocal, STFEndGreedy} {
		mk := make([]float64, 2)
		for rep := 0; rep < 2; rep++ {
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(555))
			if err != nil {
				t.Fatal(err)
			}
			r := mustRun(t, in, pol, src, Options{})
			mk[rep] = r.Makespan
		}
		if mk[0] != mk[1] {
			t.Fatalf("%v: runs with identical seeds differ: %v vs %v", pol, mk[0], mk[1])
		}
	}
}

func TestSemanticsAgreeFaultFree(t *testing.T) {
	// With λ=0, t^R(α) = α·t = the deterministic fault-free time, so both
	// semantics must produce identical schedules.
	in := Instance{Tasks: synthPack(7, rng.New(14)), P: 30, Res: model.Resilience{}}
	for _, pol := range []Policy{NoRedistribution, {OnEnd: EndLocal}, {OnEnd: EndGreedy}} {
		exp := mustRun(t, in, pol, nil, Options{Semantics: SemanticsExpected})
		det := mustRun(t, in, pol, nil, Options{Semantics: SemanticsDeterministic})
		if math.Abs(exp.Makespan-det.Makespan) > 1e-9*exp.Makespan {
			t.Fatalf("%v: semantics disagree fault-free: %v vs %v", pol, exp.Makespan, det.Makespan)
		}
	}
}

func TestDeterministicSemanticsWithFaults(t *testing.T) {
	in := Instance{Tasks: synthPack(6, rng.New(21)), P: 36, Res: paperRes(2)}
	src, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(99))
	det := mustRun(t, in, IGEndLocal, src, Options{Semantics: SemanticsDeterministic})
	if det.Makespan <= 0 {
		t.Fatal("deterministic run produced empty makespan")
	}
	// The deterministic finish must be at least the fault-free optimum.
	sigma, _ := InitialSchedule(Instance{Tasks: in.Tasks, P: in.P, Res: model.Resilience{}})
	ff := 0.0
	for i, task := range in.Tasks {
		if v := task.Time(sigma[i]); v > ff {
			ff = v
		}
	}
	if det.Makespan < ff*0.5 {
		t.Fatalf("deterministic makespan %v suspiciously below fault-free %v", det.Makespan, ff)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	in := Instance{Tasks: synthPack(4, rng.New(3)), P: 16, Res: paperRes(1)}
	src, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(1))
	if _, err := Run(in, NoRedistribution, src, Options{MaxEvents: 1}); err == nil {
		t.Fatal("MaxEvents guard did not trip")
	}
}

func TestHistoryRecording(t *testing.T) {
	in := Instance{Tasks: synthPack(8, rng.New(17)), P: 32, Res: paperRes(1)}
	src, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(7))
	r := mustRun(t, in, IGEndLocal, src, Options{RecordHistory: true})
	if r.Counters.Failures == 0 {
		t.Fatal("test needs at least one failure; lower the MTBF")
	}
	if len(r.History) != r.Counters.Failures {
		t.Fatalf("history has %d entries for %d failures", len(r.History), r.Counters.Failures)
	}
	prev := -1.0
	for _, h := range r.History {
		if h.Time < prev {
			t.Fatal("history not time-ordered")
		}
		prev = h.Time
		if h.PredictedMakespan <= 0 || h.AllocStdDev < 0 {
			t.Fatalf("bad snapshot %+v", h)
		}
	}
	// Without the flag no history is kept.
	src2, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(7))
	r2 := mustRun(t, in, IGEndLocal, src2, Options{})
	if r2.History != nil {
		t.Fatal("history recorded without the flag")
	}
}

func TestResultShapes(t *testing.T) {
	in := Instance{Tasks: synthPack(5, rng.New(2)), P: 20, Res: model.Resilience{}}
	r := mustRun(t, in, NoRedistribution, nil, Options{})
	if len(r.Finish) != 5 || len(r.Sigma) != 5 {
		t.Fatal("result arrays sized wrong")
	}
	for i, f := range r.Finish {
		if f <= 0 || f > r.Makespan {
			t.Fatalf("task %d finish %v outside (0, makespan]", i, f)
		}
	}
}

// TestCheckCatchesQueueCorruption corrupts a freshly reset simulator's
// event queue, or its clock, in one way at a time: the Paranoia check
// passes before each corruption and reports it after.
func TestCheckCatchesQueueCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(e *Simulator)
	}{
		{"moved end event", "end event is queued at", func(e *Simulator) {
			e.q.UpdateTask(sim.Event{Time: e.st[1].end + 1, Kind: sim.KindTaskEnd, Task: 1})
		}},
		{"lost end event", "no end event queued", func(e *Simulator) { e.q.RemoveTask(2) }},
		{"extra event", "events queued", func(e *Simulator) {
			e.q.Push(sim.Event{Time: e.st[0].end, Kind: sim.KindSubmit})
		}},
		{"finished task's end event", "finished task 0 has an end event", func(e *Simulator) {
			e.plat.ReleaseAll(0)
			e.st[0].done = true
		}},
		{"time went back", "event time went back", func(e *Simulator) { e.now = -1 }},
	} {
		in := Instance{Tasks: synthPack(4, rng.New(9)), P: 24, Res: paperRes(5)}
		e := NewSimulator()
		if err := e.Reset(in, IGEndLocal, nil, Options{Paranoia: true}); err != nil {
			t.Fatal(err)
		}
		if err := e.check(); err != nil {
			t.Fatalf("%s: check fails before the corruption: %v", tc.name, err)
		}
		tc.corrupt(e)
		if err := e.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: check = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckCatchesRisingWork: the Paranoia check accepts a running task's
// remaining work α falling between two checks and reports it rising, and
// a faulty run whose redistributions lower α event by event passes it.
func TestCheckCatchesRisingWork(t *testing.T) {
	in := Instance{Tasks: synthPack(12, rng.New(40)), P: 48, Res: paperRes(0.5)}
	e := NewSimulator()
	if err := e.Reset(in, IGEndLocal, nil, Options{Paranoia: true}); err != nil {
		t.Fatal(err)
	}
	e.st[1].alpha = 0.5
	if err := e.check(); err != nil {
		t.Fatalf("check fails on falling work: %v", err)
	}
	e.st[1].alpha = 0.75
	if err := e.check(); err == nil || !strings.Contains(err.Error(), "remaining work rose") {
		t.Fatalf("check = %v, want an error on rising work", err)
	}

	fsrc, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(3))
	if r := mustRun(t, in, IGEndLocal, fsrc, Options{}); r.Counters.Redistributions == 0 {
		t.Fatal("the faulty run made no redistribution")
	}
}
