package core

import (
	"math"
	"strings"
	"testing"

	"cosched/internal/model"
	"cosched/internal/rng"
)

const yearSeconds = 365.25 * 24 * 3600

func synthPack(n int, src *rng.Source) []model.Task {
	tasks := make([]model.Task, n)
	for i := range tasks {
		m := src.Uniform(1.5e6, 2.5e6)
		tasks[i] = model.Task{ID: i, Data: m, Ckpt: m, Profile: model.Synthetic{M: m, SeqFraction: 0.08}}
	}
	return tasks
}

func paperRes(mtbfYears float64) model.Resilience {
	if mtbfYears == 0 {
		return model.Resilience{Downtime: 60}
	}
	return model.Resilience{Lambda: 1 / (mtbfYears * yearSeconds), Downtime: 60}
}

func TestInitialScheduleBasics(t *testing.T) {
	in := Instance{Tasks: synthPack(10, rng.New(1)), P: 64, Res: paperRes(100)}
	sigma, err := InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range sigma {
		if s < 2 || s%2 != 0 {
			t.Fatalf("task %d has invalid allocation %d", i, s)
		}
		total += s
	}
	if total > in.P {
		t.Fatalf("allocated %d > p = %d", total, in.P)
	}
}

func TestInitialScheduleValidation(t *testing.T) {
	good := Instance{Tasks: synthPack(4, rng.New(2)), P: 16, Res: paperRes(100)}
	bad := []Instance{
		{Tasks: nil, P: 16, Res: good.Res},
		{Tasks: good.Tasks, P: 7, Res: good.Res},
		{Tasks: good.Tasks, P: 6, Res: good.Res}, // < 2n
		{Tasks: good.Tasks, P: 16, Res: model.Resilience{Lambda: -1}},
		{Tasks: []model.Task{{}}, P: 16, Res: good.Res}, // nil profile
		// Expected times overflow to +Inf: no end event can be queued.
		{Tasks: []model.Task{{Data: 1e6, Ckpt: 1e12, Profile: model.Synthetic{M: 1e6, SeqFraction: 0.08}}},
			P: 8, Res: model.Resilience{Lambda: 1, Downtime: 60}},
	}
	for i, in := range bad {
		if _, err := InitialSchedule(in); err == nil {
			t.Fatalf("bad instance %d accepted", i)
		}
	}
	if _, err := InitialSchedule(good); err != nil {
		t.Fatal(err)
	}
}

// bruteForceOptimal enumerates all even allocations with Σσ ≤ p and
// returns the minimal achievable expected makespan.
func bruteForceOptimal(in Instance) float64 {
	n := len(in.Tasks)
	best := math.Inf(1)
	sigma := make([]int, n)
	var recurse func(i, used int)
	recurse = func(i, used int) {
		if i == n {
			worst := 0.0
			for k, t := range in.Tasks {
				v := in.Res.ExpectedTime(t, sigma[k], 1)
				if v > worst {
					worst = v
				}
			}
			if worst < best {
				best = worst
			}
			return
		}
		maxHere := in.P - used - 2*(n-i-1)
		for s := 2; s <= maxHere; s += 2 {
			sigma[i] = s
			recurse(i+1, used+s)
		}
	}
	recurse(0, 0)
	return best
}

// TestAlgorithm1Optimality is the Theorem 1 cross-check: the greedy
// schedule matches exhaustive search over all even allocations.
func TestAlgorithm1Optimality(t *testing.T) {
	src := rng.New(33)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(3) // 2..4 tasks
		p := 2*n + 2*src.Intn(5)
		mtbf := src.Uniform(5, 150)
		in := Instance{Tasks: synthPack(n, src), P: p, Res: paperRes(mtbf)}
		sigma, err := InitialSchedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got := ScheduleMakespan(in, sigma)
		want := bruteForceOptimal(in)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("trial %d (n=%d p=%d): greedy %v != optimal %v", trial, n, p, got, want)
		}
	}
}

// TestAlgorithm1KeepsUselessProcessorsFree checks line 9 of the
// pseudocode: when the longest task cannot benefit from more processors,
// they stay free for later redistribution.
func TestAlgorithm1KeepsUselessProcessorsFree(t *testing.T) {
	// Table profiles that stop improving beyond 2 processors.
	flat := model.Table{Times: []float64{100, 50, 50, 50, 50, 50, 50, 50}}
	tasks := []model.Task{
		{ID: 0, Data: 10, Ckpt: 0, Profile: flat},
		{ID: 1, Data: 10, Ckpt: 0, Profile: flat},
	}
	in := Instance{Tasks: tasks, P: 16, Res: model.Resilience{}}
	sigma, err := InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if sigma[0] != 2 || sigma[1] != 2 {
		t.Fatalf("allocations %v, want [2 2]: extra processors bring no benefit", sigma)
	}
}

// TestAlgorithm1BalancesHeterogeneousPack: the larger task must receive
// at least as many processors as the smaller one.
func TestAlgorithm1Balances(t *testing.T) {
	big := model.Task{ID: 0, Data: 2.5e6, Ckpt: 2.5e6, Profile: model.Synthetic{M: 2.5e6, SeqFraction: 0.08}}
	small := model.Task{ID: 1, Data: 1.5e5, Ckpt: 1.5e5, Profile: model.Synthetic{M: 1.5e5, SeqFraction: 0.08}}
	in := Instance{Tasks: []model.Task{big, small}, P: 40, Res: paperRes(100)}
	sigma, err := InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if sigma[0] <= sigma[1] {
		t.Fatalf("big task got %d procs, small got %d", sigma[0], sigma[1])
	}
}

// TestAlgorithm1FaultFreeMatchesAupy: with λ=0 the algorithm degenerates
// to the fault-free greedy of Aupy et al. on the raw t_{i,j} values.
func TestAlgorithm1FaultFree(t *testing.T) {
	in := Instance{Tasks: synthPack(5, rng.New(9)), P: 30, Res: model.Resilience{}}
	sigma, err := InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	got := ScheduleMakespan(in, sigma)
	want := bruteForceOptimal(in)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("fault-free greedy %v != optimal %v", got, want)
	}
	// Fault-free expected time is just t_{i,σ}; check directly.
	for i, task := range in.Tasks {
		if math.Abs(in.Res.ExpectedTime(task, sigma[i], 1)-task.Time(sigma[i])) > 1e-9 {
			t.Fatal("fault-free expected time mismatch")
		}
	}
}

// BenchmarkInitialSchedule is the one-shot wrapper the packs DP calls per
// candidate subset: each call compiles the instance's table on a fresh
// simulator and then runs Algorithm 1 on it, so it times compile plus
// schedule (BenchmarkCompileCold in internal/model times the compile).
func BenchmarkInitialSchedule(b *testing.B) {
	in := Instance{Tasks: synthPack(100, rng.New(5)), P: 1000, Res: paperRes(100)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InitialSchedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitialScheduleCompiled is Algorithm 1 on compiled tables for
// the hetero-sweep pack shape (n = 50, P = 600), run again and again on
// one table: the failure rows its first iteration fills stay filled, so
// it times the schedule's own work on warm rows (the Paranoia re-run of
// a stored schedule). BenchmarkInitialScheduleCold times a fresh table's.
func BenchmarkInitialScheduleCompiled(b *testing.B) {
	in := Instance{Tasks: synthPack(50, rng.New(6)), P: 600, Res: paperRes(10)}
	c, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
	if err != nil {
		b.Fatal(err)
	}
	e := NewSimulator()
	e.in = in
	e.cm = c
	e.resize(len(in.Tasks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.initialSchedule()
	}
}

// BenchmarkInitialScheduleCold is Algorithm 1 at the same shape on a
// table whose failure rows are empty, as the first Reset on a fresh table
// runs it: the per-unit cost of a sweep whose units each bring a fresh
// table (hetero-sweep builds about two per unit). Each iteration rebuilds
// the table in its TableArena outside the timer, which empties its rows.
func BenchmarkInitialScheduleCold(b *testing.B) {
	in := Instance{Tasks: synthPack(50, rng.New(6)), P: 600, Res: paperRes(10)}
	var a model.TableArena
	e := NewSimulator()
	e.in = in
	e.resize(len(in.Tasks))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := a.Build(in.Tasks, in.Res, in.RC, in.P)
		if err != nil {
			b.Fatal(err)
		}
		e.cm = c
		if i == 0 {
			// Size the table's and the simulator's arenas.
			e.initialSchedule()
			if _, err := a.Build(in.Tasks, in.Res, in.RC, in.P); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
		}
		b.StartTimer()
		e.initialSchedule()
	}
}

// TestStoredScheduleFollowsRebuilds rebuilds one table in place for a
// sequence of different packs: every Reset on it must run on the new
// pack's Algorithm 1 result (ColdInitialSchedule over the rebuilt
// table), never on the schedule stored for the previous pack, and the
// Paranoia re-run of Algorithm 1 on the replicate Resets stays silent.
func TestStoredScheduleFollowsRebuilds(t *testing.T) {
	src := rng.New(41)
	var a model.TableArena
	sim := NewSimulator()
	var prev []float64
	changed := 0
	for trial := 0; trial < 12; trial++ {
		in := Instance{Tasks: synthPack(4+(trial/3)%2, src), P: 20 + 4*(trial%3), Res: paperRes(src.Uniform(1, 20))}
		c, err := a.Build(in.Tasks, in.Res, in.RC, in.P)
		if err != nil {
			t.Fatal(err)
		}
		in.Compiled = c
		wantSig, wantTU, _, err := ColdInitialSchedule(in, c)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if err := sim.Reset(in, IGEndLocal, nil, Options{Paranoia: true}); err != nil {
				t.Fatal(err)
			}
			for i := range in.Tasks {
				if s := sim.st[i]; s.sigma != wantSig[i] || math.Float64bits(s.tU) != math.Float64bits(wantTU[i]) {
					t.Fatalf("trial %d rep %d: task %d starts at σ=%d, tU=%v; want σ₀=%d, tU=%v",
						trial, rep, i, s.sigma, s.tU, wantSig[i], wantTU[i])
				}
			}
			if _, err := sim.Run(); err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
		}
		if prev != nil && len(prev) == len(wantTU) && math.Float64bits(prev[0]) != math.Float64bits(wantTU[0]) {
			changed++
		}
		prev = wantTU
	}
	if changed == 0 {
		t.Fatal("no rebuild of equal size changed the schedule: the test cannot tell schedules apart")
	}
}

// TestParanoiaCatchesStaleSchedule stores forged schedules on a fresh
// table before the first Reset reads it: one tU one ulp off, and one σ₀
// with a pair moved between two tasks. With Paranoia the re-run of
// Algorithm 1 reports each and Run fails; without, nothing notices.
func TestParanoiaCatchesStaleSchedule(t *testing.T) {
	in := Instance{Tasks: synthPack(6, rng.New(3)), P: 40, Res: paperRes(5)}
	probe, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
	if err != nil {
		t.Fatal(err)
	}
	sigma, tU, _, err := ColdInitialSchedule(in, probe)
	if err != nil {
		t.Fatal(err)
	}
	from := -1
	for i, s := range sigma {
		if s >= 4 {
			from = i
		}
	}
	if from < 0 {
		t.Fatal("no task holds two pairs: no σ₀ forgery")
	}
	forgeries := map[string]func(sig []int, tU []float64){
		"tU": func(_ []int, tU []float64) { tU[0] = math.Nextafter(tU[0], math.Inf(1)) },
		"σ₀": func(sig []int, _ []float64) { sig[from] -= 2; sig[(from+1)%len(sig)] += 2 },
	}
	for name, forge := range forgeries {
		for _, paranoia := range []bool{false, true} {
			c, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
			if err != nil {
				t.Fatal(err)
			}
			sig, u := append([]int(nil), sigma...), append([]float64(nil), tU...)
			forge(sig, u)
			c.StoreSchedule(sig, u)
			shared := in
			shared.Compiled = c
			sim := NewSimulator()
			if err := sim.Reset(shared, NoRedistribution, nil, Options{Paranoia: paranoia}); err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run()
			if !paranoia {
				if err != nil {
					t.Fatalf("%s forgery without Paranoia: %v", name, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "stored schedule") {
				t.Fatalf("%s forgery: err = %v, want the stored-schedule report", name, err)
			}
		}
	}
}
