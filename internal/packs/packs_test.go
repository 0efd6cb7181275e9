package packs

import (
	"math"
	"reflect"
	"testing"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// packInstance builds an instance with n tasks and a platform of p
// processors; p may be smaller than 2n (the multi-pack case), so the
// workload generator runs with a large-enough virtual platform.
func packInstance(n, p int, seed uint64, mtbfYears float64) core.Instance {
	spec := workload.Default()
	spec.N = n
	spec.P = p
	if spec.P < 2*n {
		spec.P = 2 * n
	}
	spec.MTBFYears = mtbfYears
	tasks, err := spec.Generate(rng.New(seed))
	if err != nil {
		panic(err)
	}
	return core.Instance{Tasks: tasks, P: p, Res: spec.Resilience()}
}

func TestOnePack(t *testing.T) {
	in := packInstance(6, 24, 1, 0)
	pt, err := OnePack(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Packs) != 1 || len(pt.Packs[0]) != 6 {
		t.Fatalf("one-pack partition wrong: %v", pt.Packs)
	}
	if err := pt.Validate(in); err != nil {
		t.Fatal(err)
	}
	sigma, _ := core.InitialSchedule(in)
	if want := core.ScheduleMakespan(in, sigma); math.Abs(pt.Cost-want) > 1e-9 {
		t.Fatalf("one-pack cost %v, want %v", pt.Cost, want)
	}
}

func TestOnePackInfeasible(t *testing.T) {
	// 6 tasks need 12 processors; platform has 8.
	in := packInstance(6, 24, 1, 0)
	in.P = 8
	if _, err := OnePack(in); err == nil {
		t.Fatal("oversized one-pack accepted")
	}
}

func TestSortedDPNeverWorseThanOnePack(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		in := packInstance(8, 32, seed, 50)
		one, err := OnePack(in)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := SortedDP(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.Validate(in); err != nil {
			t.Fatal(err)
		}
		if dp.Cost > one.Cost*(1+1e-9) {
			t.Fatalf("seed %d: DP cost %v worse than one pack %v", seed, dp.Cost, one.Cost)
		}
	}
}

// TestSortedDPMatchesBruteForce verifies the DP against exhaustive
// enumeration of contiguous partitions of the sorted order.
func TestSortedDPMatchesBruteForce(t *testing.T) {
	in := packInstance(6, 12, 3, 20)
	dp, err := SortedDP(in)
	if err != nil {
		t.Fatal(err)
	}
	// The DP's sort key, replicated.
	order := []int{0, 1, 2, 3, 4, 5}
	key := make([]float64, 6)
	for i, task := range in.Tasks {
		key[i] = in.Res.ExpectedTime(task, 2, 1)
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if key[order[a]] < key[order[b]] {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	best := math.Inf(1)
	n := len(order)
	// Enumerate all 2^(n-1) contiguous splits.
	for mask := 0; mask < 1<<(n-1); mask++ {
		cost := 0.0
		start := 0
		feasible := true
		for i := 0; i < n; i++ {
			if i == n-1 || mask&(1<<i) != 0 {
				c := packCost(in, order[start:i+1])
				if math.IsInf(c, 1) {
					feasible = false
					break
				}
				cost += c
				start = i + 1
			}
		}
		if feasible && cost < best {
			best = cost
		}
	}
	if math.Abs(dp.Cost-best) > 1e-9*best {
		t.Fatalf("DP cost %v, brute force %v", dp.Cost, best)
	}
}

// TestSortedDPHandlesOverflow: more tasks than pairs forces multiple
// packs — exactly the situation OnePack cannot handle.
func TestSortedDPHandlesOverflow(t *testing.T) {
	in := packInstance(10, 8, 5, 0) // 4 pairs for 10 tasks
	in.P = 8
	dp, err := SortedDP(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Packs) < 3 {
		t.Fatalf("10 tasks on 4 pairs need ≥ 3 packs, got %d", len(dp.Packs))
	}
	if err := dp.Validate(in); err != nil {
		t.Fatal(err)
	}
	for _, pack := range dp.Packs {
		if 2*len(pack) > in.P {
			t.Fatalf("pack %v exceeds the platform", pack)
		}
	}
}

func TestPartitionValidateCatchesErrors(t *testing.T) {
	in := packInstance(4, 16, 2, 0)
	cases := []Partition{
		{Packs: [][]int{{0, 1, 2}}},             // missing task 3
		{Packs: [][]int{{0, 1, 2, 3}, {0}}},     // duplicate
		{Packs: [][]int{{0, 1, 2, 3, 9}}},       // out of range
		{Packs: [][]int{{}, {0, 1, 2, 3}}},      // empty pack
		{Packs: [][]int{{0, 1, 2, 3, 0, 1, 2}}}, // dup + too large
	}
	for i, pt := range cases {
		if pt.Validate(in) == nil {
			t.Fatalf("bad partition %d accepted", i)
		}
	}
}

func TestSimulateSequentialPacks(t *testing.T) {
	in := packInstance(10, 8, 7, 10)
	in.P = 8
	dp, err := SortedDP(in)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	newSource := func() failure.Source {
		seed++
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	res, err := Simulate(in, dp, core.IGEndLocal, newSource, core.Options{Paranoia: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PackSpans) != len(dp.Packs) {
		t.Fatalf("%d pack spans for %d packs", len(res.PackSpans), len(dp.Packs))
	}
	sum := 0.0
	for _, s := range res.PackSpans {
		if s <= 0 {
			t.Fatal("empty pack span")
		}
		sum += s
	}
	if math.Abs(sum-res.Makespan) > 1e-9*sum {
		t.Fatalf("makespan %v != sum of spans %v", res.Makespan, sum)
	}
	if res.Counters.TaskEnds != 10 {
		t.Fatalf("task ends %d, want 10", res.Counters.TaskEnds)
	}
}

func TestSimulateFaultFree(t *testing.T) {
	in := packInstance(6, 12, 9, 0)
	dp, err := SortedDP(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(in, dp, core.Policy{OnEnd: core.EndLocal}, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free with EndLocal must not exceed the DP's static estimate.
	if res.Makespan > dp.Cost*(1+1e-9) {
		t.Fatalf("simulated %v exceeds DP prediction %v", res.Makespan, dp.Cost)
	}
}

func TestSubsetReindexes(t *testing.T) {
	tasks := []model.Task{{ID: 0}, {ID: 1}, {ID: 2}}
	sub := subset(tasks, []int{2, 0})
	if len(sub) != 2 || sub[0].ID != 0 || sub[1].ID != 1 {
		t.Fatalf("subset IDs not reindexed: %+v", sub)
	}
}

func BenchmarkSortedDP(b *testing.B) {
	in := packInstance(40, 32, 11, 20)
	in.P = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SortedDP(in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddCountersSumsEveryField: the pack merge adds every core.Counters
// field, so a counter added to the engine cannot be dropped from
// multi-pack totals.
func TestAddCountersSumsEveryField(t *testing.T) {
	var src core.Counters
	v := reflect.ValueOf(&src).Elem()
	for f := 0; f < v.NumField(); f++ {
		switch fv := v.Field(f); fv.Kind() {
		case reflect.Int:
			fv.SetInt(int64(f + 1))
		case reflect.Float64:
			fv.SetFloat(float64(f) + 0.5)
		default:
			t.Fatalf("Counters.%s has unhandled kind %v", v.Type().Field(f).Name, fv.Kind())
		}
	}
	var dst core.Counters
	addCounters(&dst, src)
	addCounters(&dst, src)
	d := reflect.ValueOf(dst)
	for f := 0; f < v.NumField(); f++ {
		name := v.Type().Field(f).Name
		switch d.Field(f).Kind() {
		case reflect.Int:
			if got, want := d.Field(f).Int(), 2*v.Field(f).Int(); got != want {
				t.Fatalf("Counters.%s: merged %d, want %d", name, got, want)
			}
		case reflect.Float64:
			if got, want := d.Field(f).Float(), 2*v.Field(f).Float(); got != want {
				t.Fatalf("Counters.%s: merged %v, want %v", name, got, want)
			}
		}
	}
}
