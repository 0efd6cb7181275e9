package core

import (
	"math"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// runAllPolicies executes the five paper configurations on one shared
// fault trace and returns makespans keyed by policy name.
func runAllPolicies(t *testing.T, in Instance, seed uint64) map[string]float64 {
	t.Helper()
	var gen failure.Source
	if in.Res.Lambda > 0 {
		g, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		// Record one long prefix, then replay for all policies.
		probe := failure.Collect(g, 100000, 0)
		trace, err := failure.NewTrace(probe)
		if err != nil {
			t.Fatal(err)
		}
		gen = trace
	}
	out := make(map[string]float64)
	for _, pol := range []Policy{NoRedistribution, IGEndGreedy, IGEndLocal, STFEndGreedy, STFEndLocal} {
		if tr, ok := gen.(*failure.Trace); ok {
			tr.Rewind()
		}
		r := mustRun(t, in, pol, gen, Options{})
		out[pol.String()] = r.Makespan
	}
	return out
}

// TestPaperScaleMiniature runs a scaled-down version of the paper's
// default setting (§6.1) and checks the headline qualitative claim:
// redistribution reduces the average makespan.
func TestPaperScaleMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := workload.Default()
	spec.N = 20
	spec.P = 100
	spec.MTBFYears = 10 // scaled down with the platform
	sums := make(map[string]float64)
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		tasks, err := spec.Generate(rng.New(uint64(1000 + rep)))
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
		mks := runAllPolicies(t, in, uint64(2000+rep))
		for k, v := range mks {
			sums[k] += v
		}
	}
	base := sums["NoRedistribution"]
	for _, name := range []string{"IteratedGreedy-EndGreedy", "IteratedGreedy-EndLocal",
		"ShortestTasksFirst-EndGreedy", "ShortestTasksFirst-EndLocal"} {
		got, ok := sums[name]
		if !ok {
			t.Fatalf("policy %q missing", name)
		}
		ratio := got / base
		if ratio > 1.02 {
			t.Fatalf("%s normalized makespan %.3f — redistribution should not lose more than noise", name, ratio)
		}
		t.Logf("%s: %.3f (normalized against NoRedistribution)", name, ratio)
	}
}

// TestCommonTraceDeterminismAcrossPolicies: replaying the same recorded
// trace yields identical results run-to-run for every policy.
func TestCommonTraceDeterminismAcrossPolicies(t *testing.T) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 50
	spec.MTBFYears = 5
	tasks, err := spec.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	a := runAllPolicies(t, in, 99)
	b := runAllPolicies(t, in, 99)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("policy %s not deterministic: %v vs %v", k, v, b[k])
		}
	}
}

// TestFaultFreeLowerBounds: with failures, every policy's makespan must
// be at least the fault-free optimal completion time of the same pack.
func TestFaultFreeLowerBounds(t *testing.T) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 60
	spec.MTBFYears = 20
	tasks, err := spec.Generate(rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}

	ffIn := in
	ffIn.Res.Lambda = 0
	ff := mustRun(t, ffIn, Policy{OnEnd: EndGreedy}, nil, Options{})

	mks := runAllPolicies(t, in, 41)
	for name, v := range mks {
		if v < ff.Makespan*0.98 {
			t.Fatalf("%s makespan %v beats the fault-free redistribution bound %v", name, v, ff.Makespan)
		}
	}
}

// TestManyFailuresStressInvariants hammers the engine with a very low
// MTBF while paranoia checks run after every event.
func TestManyFailuresStressInvariants(t *testing.T) {
	spec := workload.Default()
	spec.N = 8
	spec.P = 40
	spec.MTBFYears = 0.5
	tasks, err := spec.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	for _, pol := range []Policy{IGEndGreedy, STFEndLocal} {
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		r := mustRun(t, in, pol, src, Options{})
		if r.Counters.Failures < 10 {
			t.Fatalf("%v: stress test saw only %d failures", pol, r.Counters.Failures)
		}
		if math.IsNaN(r.Makespan) || math.IsInf(r.Makespan, 0) {
			t.Fatalf("%v: non-finite makespan", pol)
		}
	}
}

// TestSilentErrorsExtension: enabling the §7 silent-error extension
// inflates makespans monotonically with the SDC rate while leaving the
// simulation machinery (policies, invariants) intact.
func TestSilentErrorsExtension(t *testing.T) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 60
	spec.MTBFYears = 20
	spec.VerifyUnit = 0.01
	tasks, err := spec.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	run := func(silentYears float64) Result {
		res := spec.Resilience()
		if silentYears > 0 {
			res.SilentLambda = 1 / (silentYears * workload.YearSeconds)
		}
		in := Instance{Tasks: tasks, P: spec.P, Res: res}
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: res.Lambda}, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, in, IGEndLocal, src, Options{})
	}
	base := run(0)
	mild := run(50)
	harsh := run(2)
	// A mild SDC rate shifts the makespan only marginally (redistribution
	// decisions may flip either way); an aggressive one must clearly
	// inflate it.
	if mild.Makespan < base.Makespan*0.95 || mild.Makespan > base.Makespan*1.3 {
		t.Fatalf("mild silent errors moved the makespan implausibly: %v vs %v", mild.Makespan, base.Makespan)
	}
	if harsh.Makespan < base.Makespan*1.10 {
		t.Fatalf("aggressive silent errors inflated by only %v → %v", base.Makespan, harsh.Makespan)
	}
}

// TestEarlyFinalization exercises Algorithm 2 line 28: a failure whose
// recovery window covers another task's end finalizes that task early.
func TestEarlyFinalization(t *testing.T) {
	spec := workload.Default()
	spec.N = 12
	spec.P = 48
	spec.MTBFYears = 1
	tasks, err := spec.Generate(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	// Run many seeds until the counter trips; it is probabilistic but
	// overwhelmingly likely across 20 seeds at this failure rate.
	for seed := uint64(0); seed < 20; seed++ {
		src, _ := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed))
		r := mustRun(t, in, IGEndLocal, src, Options{})
		if r.Counters.EarlyFinalized > 0 {
			return
		}
	}
	t.Skip("no early finalization observed in 20 seeds (rare but possible)")
}
