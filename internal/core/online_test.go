package core

import (
	"math"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// onlineInstance builds a small base pack plus a schedule of arriving
// jobs drawn from the same size range.
func onlineInstance(t *testing.T, n, p int, mtbfYears float64, times []float64) (Instance, workload.Spec) {
	t.Helper()
	spec := workload.Default()
	spec.N = n
	spec.P = p
	spec.MTBFYears = mtbfYears
	tasks, err := spec.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	arrivals := make([]Arrival, len(times))
	for k, at := range times {
		m := src.Uniform(spec.MInf, spec.MSup)
		arrivals[k] = Arrival{
			Time: at,
			Task: model.Task{
				ID:      n + k,
				Data:    m,
				Ckpt:    spec.CkptUnit * m,
				Profile: model.Synthetic{M: m, SeqFraction: spec.SeqFraction},
			},
		}
	}
	return Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience(), Arrivals: arrivals}, spec
}

// TestOnlineAdmission checks the online kernel end to end: every
// arriving job is admitted and finishes, per-job metrics are coherent
// (arrive ≤ start ≤ finish), processor conservation holds at every event
// (Paranoia), and utilization lands in (0, 1].
func TestOnlineAdmission(t *testing.T) {
	for _, rule := range []ArrivalRule{ArrivalNone, ArrivalGreedy, ArrivalSteal} {
		in, spec := onlineInstance(t, 3, 12, 10, []float64{1000, 5000, 5000, 250000})
		pol := IGEndLocal
		pol.OnArrival = rule
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(in, pol, src, Options{Paranoia: true})
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		nAll := len(in.Tasks) + len(in.Arrivals)
		if len(res.Finish) != nAll || len(res.Arrive) != nAll || len(res.Start) != nAll {
			t.Fatalf("%v: result slices sized %d/%d/%d, want %d",
				rule, len(res.Finish), len(res.Arrive), len(res.Start), nAll)
		}
		if res.Counters.Submits != len(in.Arrivals) {
			t.Fatalf("%v: %d submits processed, want %d", rule, res.Counters.Submits, len(in.Arrivals))
		}
		for i := 0; i < nAll; i++ {
			if res.Arrive[i] > res.Start[i] || res.Start[i] > res.Finish[i] {
				t.Fatalf("%v: task %d has arrive=%v start=%v finish=%v",
					rule, i, res.Arrive[i], res.Start[i], res.Finish[i])
			}
			if res.Finish[i] <= 0 || res.Finish[i] > res.Makespan {
				t.Fatalf("%v: task %d finish %v outside (0, makespan=%v]",
					rule, i, res.Finish[i], res.Makespan)
			}
		}
		for k, a := range in.Arrivals {
			if res.Arrive[len(in.Tasks)+k] != a.Time {
				t.Fatalf("%v: arrival %d recorded at %v, submitted at %v",
					rule, k, res.Arrive[len(in.Tasks)+k], a.Time)
			}
		}
		util := res.ProcSeconds / (float64(in.P) * res.Makespan)
		if !(util > 0 && util <= 1+1e-12) {
			t.Fatalf("%v: utilization %v outside (0, 1]", rule, util)
		}
	}
}

// TestOnlineQueueWait saturates the platform (p = 2n) so an arriving job
// must wait for the first task end before being admitted.
func TestOnlineQueueWait(t *testing.T) {
	in, _ := onlineInstance(t, 3, 6, 0, []float64{10})
	res, err := Run(in, NoRedistribution, nil, Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	j := len(in.Tasks) // the arrived job's task index
	if res.Start[j] <= res.Arrive[j] {
		t.Fatalf("job on a saturated platform should wait: arrive=%v start=%v",
			res.Arrive[j], res.Start[j])
	}
	// Admission must coincide with some base task's completion.
	found := false
	for i := 0; i < len(in.Tasks); i++ {
		if res.Finish[i] == res.Start[j] {
			found = true
		}
	}
	if !found {
		t.Fatalf("admission at %v matches no base-task finish %v", res.Start[j], res.Finish[:len(in.Tasks)])
	}
}

// TestOnlineSimulatorReuse pins the arena-reuse contract across runs
// whose task count grows and shrinks: online and offline runs alternate
// on one simulator and must match fresh-simulator results exactly.
func TestOnlineSimulatorReuse(t *testing.T) {
	onIn, onSpec := onlineInstance(t, 3, 12, 8, []float64{2000, 40000})
	offIn, offSpec := onlineInstance(t, 4, 16, 8, nil)
	offIn.Arrivals = nil

	fresh := func(in Instance, spec workload.Spec, seed uint64) Result {
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		pol := STFEndLocal
		pol.OnArrival = ArrivalSteal
		res, err := Run(in, pol, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantOn := fresh(onIn, onSpec, 31)
	wantOff := fresh(offIn, offSpec, 32)

	sim := NewSimulator()
	var renewal failure.Renewal
	rsrc := rng.New(0)
	for round := 0; round < 3; round++ {
		for _, mode := range []string{"online", "offline"} {
			in, spec, seed, want := onIn, onSpec, uint64(31), wantOn
			if mode == "offline" {
				in, spec, seed, want = offIn, offSpec, 32, wantOff
			}
			rsrc.Reseed(seed)
			if err := renewal.Reset(in.P, failure.Exponential{Lambda: spec.Lambda()}, rsrc); err != nil {
				t.Fatal(err)
			}
			pol := STFEndLocal
			pol.OnArrival = ArrivalSteal
			if err := sim.Reset(in, pol, &renewal, Options{}); err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan {
				t.Fatalf("round %d %s: reused simulator makespan %v, fresh %v",
					round, mode, got.Makespan, want.Makespan)
			}
			for i := range want.Finish {
				if got.Finish[i] != want.Finish[i] {
					t.Fatalf("round %d %s: task %d finish diverges: %v vs %v",
						round, mode, i, got.Finish[i], want.Finish[i])
				}
			}
			if got.Counters != want.Counters {
				t.Fatalf("round %d %s: counters diverge: %+v vs %+v", round, mode, got.Counters, want.Counters)
			}
		}
	}
}

// TestOnlineNewArrivalsSameBase pins that the simulator's own tables
// follow the arrival stream, not just the base pack: a Reset that keeps
// the base Tasks slice but brings a new Arrivals slice, of the same
// length with other jobs, must match a fresh simulator on the new
// instance.
func TestOnlineNewArrivalsSameBase(t *testing.T) {
	in, spec := onlineInstance(t, 3, 12, 8, []float64{2000, 40000, 90000})
	swapped := in
	swapped.Arrivals = make([]Arrival, len(in.Arrivals))
	for k, a := range in.Arrivals {
		m := spec.MInf + float64(k+1)*(spec.MSup-spec.MInf)/8
		a.Time *= 1.5
		a.Task.Data, a.Task.Ckpt = m, spec.CkptUnit*m
		a.Task.Profile = model.Synthetic{M: m, SeqFraction: spec.SeqFraction}
		swapped.Arrivals[k] = a
	}
	pol := IGEndLocal
	pol.OnArrival = ArrivalGreedy
	run := func(sim *Simulator, in Instance) Result {
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Reset(in, pol, src, Options{}); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(NewSimulator(), swapped)
	sim := NewSimulator()
	run(sim, in)
	got := run(sim, swapped)
	if got.Makespan != want.Makespan || got.Counters != want.Counters {
		t.Fatalf("reused simulator: makespan %v, counters %+v; fresh: %v, %+v",
			got.Makespan, got.Counters, want.Makespan, want.Counters)
	}
	for i := range want.Finish {
		if got.Finish[i] != want.Finish[i] {
			t.Fatalf("task %d finish diverges: %v vs %v", i, got.Finish[i], want.Finish[i])
		}
	}
}

// TestOwnTableKeptAcrossResets pins the replicate-loop fast path: a
// Reset with an unchanged instance, offline or online, keeps the
// simulator's own table with the schedule the first Reset stored on it,
// while a new Arrivals slice, even with equal contents, rebuilds it,
// which empties the stored schedule. A rebuild is seen by the slot
// being empty right after bindCompiled, not by comparing schedule
// pointers across Resets: an in-place TableArena.Build keeps the old schedule
// as its spare and the next store republishes that same object.
func TestOwnTableKeptAcrossResets(t *testing.T) {
	in, _ := onlineInstance(t, 3, 12, 8, []float64{2000, 40000})
	off := in
	off.Arrivals = nil
	pol := STFEndLocal
	pol.OnArrival = ArrivalSteal
	sim := NewSimulator()
	reset := func(in Instance) *model.Schedule {
		t.Helper()
		if err := sim.Reset(in, pol, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		if sim.cm != sim.ownComp {
			t.Fatal("simulator is not on its own table")
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		sched := sim.cm.Schedule()
		if sched == nil {
			t.Fatal("Reset stored no schedule on the table")
		}
		return sched
	}
	for _, inst := range []Instance{off, in} {
		first := reset(inst)
		if err := sim.bindCompiled(inst); err != nil {
			t.Fatal(err)
		}
		if sim.cm.Schedule() != first {
			t.Fatalf("%d arrivals: an unchanged instance rebuilt the table", len(inst.Arrivals))
		}
	}
	reset(in)
	copied := in
	copied.Arrivals = append([]Arrival(nil), in.Arrivals...)
	if err := sim.bindCompiled(copied); err != nil {
		t.Fatal(err)
	}
	if sim.cm.Schedule() != nil {
		t.Fatal("a new Arrivals slice kept the previous table")
	}
}

// TestOnlineEqualTimestamps pins the deterministic tie-break order of
// the kernel at shared timestamps (the sim.Queue FIFO contract): an end
// event scheduled at Reset pops before a submit event at the same
// instant, so the ending task is finalized first and the arriving job is
// admitted by its own submit event using the freed processors.
func TestOnlineEqualTimestamps(t *testing.T) {
	// Fault-free, saturated platform: base tasks end exactly at their
	// fault-free time, and a job arrives exactly at the earliest end.
	spec := workload.Default()
	spec.N = 2
	spec.P = 4
	spec.MTBFYears = 0
	tasks, err := spec.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	probe, err := Run(in, NoRedistribution, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := math.Min(probe.Finish[0], probe.Finish[1])

	m := spec.MInf
	in.Arrivals = []Arrival{{
		Time: first,
		Task: model.Task{ID: 2, Data: m, Ckpt: m, Profile: model.Synthetic{M: m, SeqFraction: spec.SeqFraction}},
	}}
	var order []string
	opt := Options{OnTrace: func(ev TraceEvent) {
		if ev.Time == first {
			order = append(order, ev.Kind)
		}
	}}
	res, err := Run(in, NoRedistribution, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"end", "submit", "admit"}
	if len(order) != len(want) {
		t.Fatalf("events at t=%v: %v, want %v", first, order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("events at t=%v: %v, want %v", first, order, want)
		}
	}
	if res.Start[2] != first {
		t.Fatalf("job admitted at %v, want %v (no queue wait at the tie)", res.Start[2], first)
	}
}

// TestOnlinePolicyNames pins the "+<arrival>" composition grammar:
// String and PolicyByName invert each other for arrival-carrying
// policies.
func TestOnlinePolicyNames(t *testing.T) {
	cases := []Policy{
		{OnEnd: EndLocal, OnFailure: FailIteratedGreedy, OnArrival: ArrivalGreedy},
		{OnEnd: EndGreedy, OnFailure: FailShortestTasksFirst, OnArrival: ArrivalSteal},
		{OnArrival: ArrivalSteal},
	}
	for _, p := range cases {
		name := p.String()
		got, ok := PolicyByName(name)
		if !ok || got != p {
			t.Fatalf("PolicyByName(%q) = %+v, %v; want %+v", name, got, ok, p)
		}
	}
	if name := (Policy{OnArrival: ArrivalSteal}).String(); name != "NoRedistribution+ArrivalSteal" {
		t.Fatalf("arrival-only policy renders as %q", name)
	}
	if _, ok := PolicyByName("IteratedGreedy-EndLocal+ArrivalNone"); ok {
		t.Fatal("explicit +ArrivalNone must not parse (String never emits it)")
	}
	if _, ok := PolicyByName("IteratedGreedy-EndLocal+Nope"); ok {
		t.Fatal("unknown arrival rule must not parse")
	}
}

// TestOnlineRejections pins the guard rails: shared compiled tables and
// accounting are incompatible with arrivals.
func TestOnlineRejections(t *testing.T) {
	in, _ := onlineInstance(t, 2, 8, 10, []float64{100})
	cm, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
	if err != nil {
		t.Fatal(err)
	}
	shared := in
	shared.Compiled = cm
	if _, err := Run(shared, NoRedistribution, nil, Options{}); err == nil {
		t.Fatal("Instance.Compiled with Arrivals must be rejected")
	}
	if _, err := Run(in, NoRedistribution, nil, Options{Accounting: true}); err == nil {
		t.Fatal("Options.Accounting with Arrivals must be rejected")
	}
	bad := in
	bad.Arrivals = []Arrival{{Time: 5, Task: in.Arrivals[0].Task}, {Time: 1, Task: in.Arrivals[0].Task}}
	if _, err := Run(bad, NoRedistribution, nil, Options{}); err == nil {
		t.Fatal("unsorted arrivals must be rejected")
	}
}

// TestArrivedSetForArrivalRoundsOnly counts the decision rounds that see
// a list of just-admitted jobs: exactly the arrival rounds, never an end
// or failure round that follows an admission.
func TestArrivedSetForArrivalRoundsOnly(t *testing.T) {
	in, _ := onlineInstance(t, 8, 64, 2, []float64{1e3, 5e3, 2e4, 6e4, 1.5e5})
	src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	e := NewSimulator()
	pol := Policy{OnEnd: EndGreedy, OnFailure: FailIteratedGreedy, OnArrival: ArrivalGreedy}
	if err := e.Reset(in, pol, src, Options{}); err != nil {
		t.Fatal(err)
	}
	withList, arrivals, later := 0, 0, 0
	count := func(rule func(*Decision), arrival bool) func(*Decision) {
		return func(d *Decision) {
			if d.arrived != nil {
				withList++
			}
			if arrival {
				arrivals++
			} else if arrivals > 0 {
				later++
			}
			rule(d)
		}
	}
	e.end, e.fail, e.arrive = count(e.end, false), count(e.fail, false), count(e.arrive, true)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d arrival rounds, %d end and failure rounds after the first", arrivals, later)
	if arrivals == 0 || later == 0 {
		t.Fatal("the run has no arrival round, or no other round after one")
	}
	if withList != arrivals {
		t.Fatalf("%d rounds saw a just-admitted list, want the %d arrival rounds", withList, arrivals)
	}
}
