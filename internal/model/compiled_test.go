package model

import (
	"math"
	"sync"
	"testing"

	"cosched/internal/rng"
)

// RawAt returns t^R_{i,j}(α) of Eq. (4) from the tables through the
// scalar cell path — the reference the row kernel is checked against.
func (c *Compiled) RawAt(i, j int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha > 1 {
		alpha = 1
	}
	k := c.cell(i, j)
	if c.res.Lambda == 0 {
		return alpha * c.tj[k]
	}
	f := c.failAt(i, j)
	n := float64(ffCount(alpha, c.tj[k], f.work))
	tauLast := alpha*c.tj[k] - n*f.work
	var last float64
	switch {
	case tauLast <= 0:
		last = 0
	case c.seg[i] == segPlain:
		last = tauLast
	case c.seg[i] == segVerify:
		last = tauLast + c.tasks[i].Verify/float64(j)
	default:
		last = math.Exp(c.res.SilentLambda*float64(j)*tauLast) * (tauLast + c.tasks[i].Verify/float64(j))
	}
	return f.prefac * (n*f.expPer + math.Expm1(f.lj*last))
}

// RawRow evaluates every candidate allocation of task i in one row-kernel
// pass: dst[k] = RawAt(i, 2(k+1), α) for k < len(dst) ≤ maxJ/2. It
// returns dst.
func (c *Compiled) RawRow(i int, alpha float64, dst []float64) []float64 {
	c.rawRange(i, alpha, 0, len(dst), dst)
	return dst
}

// MinOverRow fills dst like RawRow and reduces it to the minimum raw
// value and the smallest candidate allocation attaining it (strict <
// keeps the smallest j on ties). An empty dst returns (+Inf, 0).
func (c *Compiled) MinOverRow(i int, alpha float64, dst []float64) (float64, int) {
	if len(dst) == 0 {
		return math.Inf(1), 0
	}
	c.rawRange(i, alpha, 0, len(dst), dst)
	best, arg := dst[0], 0
	for k := 1; k < len(dst); k++ {
		if dst[k] < best {
			best, arg = dst[k], k
		}
	}
	return best, 2 * (arg + 1)
}

// fillAll fills every failure row of c through its covered range, so a
// test can compare every cell.
func fillAll(c *Compiled) {
	if c.res.FaultFree() {
		return
	}
	for i := 0; i < len(c.tasks); i++ {
		c.failRow(i, c.maxJ/2)
	}
}

// filledCells returns how many failure cells c's rows hold.
func filledCells(c *Compiled) int {
	if c.fail == nil {
		return 0
	}
	n := 0
	for i := range c.fail.rows {
		if s := c.fail.rows[i].Load(); s != nil {
			n += len(s.cells)
		}
	}
	return n
}

// compiledCases spans the model configurations the compiled tables must
// reproduce bit-for-bit: both profile families, both period rules, the
// silent-error extension on and off (with and without verification), and
// the fault-free limit.
func compiledCases() []struct {
	name  string
	tasks []Task
	res   Resilience
} {
	const year = 365.25 * 24 * 3600
	synth := func(m float64, verify float64) Task {
		return Task{Data: m, Ckpt: m, Verify: verify, Profile: Synthetic{M: m, SeqFraction: 0.08}}
	}
	tabTimes := make([]float64, 16)
	for j := range tabTimes {
		tabTimes[j] = 5e5/float64(j+1) + 100
	}
	table := Task{Data: 3e5, Ckpt: 2e5, Profile: Table{Times: tabTimes}}

	var cases []struct {
		name  string
		tasks []Task
		res   Resilience
	}
	add := func(name string, res Resilience, tasks ...Task) {
		cases = append(cases, struct {
			name  string
			tasks []Task
			res   Resilience
		}{name, tasks, res})
	}
	tasks := []Task{synth(1.5e6, 0), synth(2.5e6, 0), table}
	add("young", Resilience{Lambda: 1 / (20 * year), Downtime: 60}, tasks...)
	add("daly", Resilience{Lambda: 1 / (20 * year), Downtime: 60, Rule: PeriodDaly}, tasks...)
	add("hostile", Resilience{Lambda: 1 / (0.5 * year), Downtime: 300}, tasks...)
	add("fault-free", Resilience{}, tasks...)
	add("silent", Resilience{Lambda: 1 / (10 * year), Downtime: 60, SilentLambda: 1 / (5 * year)},
		synth(2e6, 2e4), synth(1.8e6, 0), table)
	add("verify-only", Resilience{Lambda: 1 / (10 * year), Downtime: 60},
		synth(2e6, 2e4), table)
	return cases
}

var compiledAlphas = []float64{-0.5, 0, 1e-12, 0.1, 0.25, 0.5, 0.875, 0.999999, 1, 1.5}

// TestCompiledMatchesDirect is the table-vs-direct equivalence property:
// every compiled accessor must be bit-equal (not approximately equal) to
// its Resilience/Task counterpart across profiles, period rules, the
// silent-error extension and the fault-free limit — the compiled model's
// core contract.
func TestCompiledMatchesDirect(t *testing.T) {
	const p = 64
	for _, tc := range compiledCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			for i, task := range tc.tasks {
				for j := 2; j <= p; j += 2 {
					if got, want := c.Time(i, j), task.Time(j); got != want {
						t.Fatalf("task %d j %d: Time %v != %v", i, j, want, got)
					}
					if got, want := c.Period(i, j), tc.res.Period(task, j); got != want {
						t.Fatalf("task %d j %d: Period %v != %v", i, j, want, got)
					}
					if got, want := c.CkptCost(i, j), tc.res.CkptCost(task, j); got != want {
						t.Fatalf("task %d j %d: CkptCost %v != %v", i, j, want, got)
					}
					if got, want := c.PostRedistCkpt(i, j), tc.res.PostRedistCkpt(task, j); got != want {
						t.Fatalf("task %d j %d: PostRedistCkpt %v != %v", i, j, want, got)
					}
					for _, alpha := range compiledAlphas {
						got := c.RawAt(i, j, alpha)
						want := tc.res.ExpectedTimeRaw(task, j, alpha)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("task %d j %d α %v: RawAt %x != ExpectedTimeRaw %x",
								i, j, alpha, math.Float64bits(got), math.Float64bits(want))
						}
						if got, want := c.FFCheckpoints(i, j, alpha), tc.res.FFCheckpoints(task, j, alpha); got != want {
							t.Fatalf("task %d j %d α %v: FFCheckpoints %d != %d", i, j, alpha, got, want)
						}
						gotFF := c.FFTime(i, j, alpha)
						wantFF := tc.res.FFTime(task, j, alpha)
						if math.Float64bits(gotFF) != math.Float64bits(wantFF) {
							t.Fatalf("task %d j %d α %v: FFTime %v != %v", i, j, alpha, gotFF, wantFF)
						}
					}
					for k := 2; k <= p; k += 2 {
						got := c.RedistRowFrom(i, j).Cost(k)
						want := CostModel{}.Cost(task.Data, j, k)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("task %d %d→%d: RedistRow cost %v != %v", i, j, k, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCompiledRedistCostNetworkModel pins the compiled redistribution
// cost against a non-default cost model (latency + bandwidth extension).
func TestCompiledRedistCostNetworkModel(t *testing.T) {
	rc := CostModel{Latency: 30, InvBandwidth: 0.5}
	tasks := []Task{{Data: 1e6, Ckpt: 1e6, Profile: Synthetic{M: 1e6, SeqFraction: 0.08}}}
	c, err := Compile(tasks, Resilience{Lambda: 1e-9, Downtime: 60}, rc, 32)
	if err != nil {
		t.Fatal(err)
	}
	for j := 2; j <= 32; j += 2 {
		for k := 2; k <= 32; k += 2 {
			got, want := c.RedistRowFrom(0, j).Cost(k), rc.Cost(tasks[0].Data, j, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d→%d: %v != %v", j, k, got, want)
			}
		}
	}
}

// TestMinEvalCompiledEquivalence pins the compiled evaluator against the
// direct reference Resilience.ExpectedTime: identical Eq. (6) prefix-mins
// for every (task, α, j), over the model configurations of
// compiledCases and the row-proof corpus, whose NaN rows restart the
// fold.
func TestMinEvalCompiledEquivalence(t *testing.T) {
	const p = 48
	type instance struct {
		name  string
		tasks []Task
		res   Resilience
	}
	var ins []instance
	for _, tc := range compiledCases() {
		ins = append(ins, instance{tc.name, tc.tasks, tc.res})
	}
	src := rng.New(2110)
	nanRows := 0
	for trial := 0; trial < 60; trial++ {
		tasks, res := numericCase(src, p)
		c := mustCompile(t, tasks, res, p)
		for i := range tasks {
			if rowHasNaN(res, c, i, p) {
				nanRows++
			}
		}
		ins = append(ins, instance{"corpus", tasks, res})
	}
	if nanRows == 0 {
		t.Fatal("the corpus holds no NaN row")
	}
	var e MinEval
	for _, in := range ins {
		c := mustCompile(t, in.tasks, in.res, p)
		for i, task := range in.tasks {
			for _, alpha := range compiledAlphas {
				e.ResetCompiled(c, i, alpha)
				for j := 2; j <= p; j += 2 {
					want, got := in.res.ExpectedTime(task, j, alpha), e.At(j)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("%s task %d α %v j %d: ExpectedTime %v, compiled %v", in.name, i, alpha, j, want, got)
					}
				}
			}
		}
	}
}

// TestCompiledMatches pins the identity check's semantics: same slice
// header and parameters match; a copied slice, different parameters, or
// a different platform do not.
func TestCompiledMatches(t *testing.T) {
	tc := compiledCases()[0]
	c, err := Compile(tc.tasks, tc.res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Matches(tc.tasks, tc.res, CostModel{}, 32) {
		t.Fatal("compiled model does not match its own instance")
	}
	clone := append([]Task(nil), tc.tasks...)
	if c.Matches(clone, tc.res, CostModel{}, 32) {
		t.Fatal("matched a copied task slice (content identity is not the contract)")
	}
	res2 := tc.res
	res2.Downtime++
	if c.Matches(tc.tasks, res2, CostModel{}, 32) {
		t.Fatal("matched different resilience parameters")
	}
	if c.Matches(tc.tasks, tc.res, CostModel{Latency: 1}, 32) {
		t.Fatal("matched a different cost model")
	}
	if c.Matches(tc.tasks, tc.res, CostModel{}, 34) {
		t.Fatal("matched a different platform size")
	}
}

// TestRecompileReusesArenas pins the in-place rebuild: rebuilding a
// TableArena for a same-shape instance must return the same table and
// must not grow the profile columns or the failure row arenas, and the
// rebuilt model must serve the new instance's values.
func TestRecompileReusesArenas(t *testing.T) {
	cases := compiledCases()
	var a TableArena
	c, err := a.Build(cases[0].tasks, cases[0].res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	fillAll(c)
	before, chunks, hdrs := cap(c.tj), len(c.fail.cells.chunks), len(c.fail.hdrs.chunks)
	if again, err := a.Build(cases[2].tasks, cases[2].res, CostModel{}, 32); err != nil || again != c {
		t.Fatalf("rebuild returned %p, %v; want the arena's table %p", again, err, c)
	}
	if filledCells(c) != 0 {
		t.Fatal("recompile kept the previous instance's failure cells")
	}
	fillAll(c)
	if cap(c.tj) != before {
		t.Fatalf("recompile grew the table arena: %d → %d", before, cap(c.tj))
	}
	if len(c.fail.cells.chunks) != chunks || len(c.fail.hdrs.chunks) != hdrs {
		t.Fatalf("refilling the rows grew the failure arenas: %d/%d chunks → %d/%d",
			chunks, hdrs, len(c.fail.cells.chunks), len(c.fail.hdrs.chunks))
	}
	task := cases[2].tasks[1]
	want := cases[2].res.ExpectedTimeRaw(task, 8, 0.5)
	if got := c.RawAt(1, 8, 0.5); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("recompiled tables serve stale values: %v != %v", got, want)
	}
}

// TestScheduleSlotEmptiedByRebuilds pins the stored-schedule slot: a
// build starts with none, the first store wins, an arena's in-place
// rebuild empties the slot and the next store reuses its arrays, and a
// delta build starts empty while its base keeps its own schedule.
func TestScheduleSlotEmptiedByRebuilds(t *testing.T) {
	cases := compiledCases()
	var a TableArena
	c, err := a.Build(cases[0].tasks, cases[0].res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.Schedule() != nil {
		t.Fatal("a fresh build holds a schedule")
	}
	c.StoreSchedule([]int{2, 4}, []float64{1, 2})
	c.StoreSchedule([]int{6, 8}, []float64{3, 4})
	first := c.Schedule()
	if first == nil || first.Sigma[0] != 2 || first.TU[1] != 2 {
		t.Fatalf("stored schedule %+v, want the first store's", first)
	}
	if _, err := a.Build(cases[2].tasks, cases[2].res, CostModel{}, 32); err != nil {
		t.Fatal(err)
	}
	if c.Schedule() != nil {
		t.Fatal("a rebuild kept the previous instance's schedule")
	}
	sigma, tU := &first.Sigma[0], &first.TU[0]
	c.StoreSchedule([]int{10, 12}, []float64{5, 6})
	if s := c.Schedule(); &s.Sigma[0] != sigma || &s.TU[0] != tU || s.Sigma[1] != 12 {
		t.Fatalf("the store after a rebuild did not reuse the slot's arrays: %+v", s)
	}

	base, err := Compile(cases[1].tasks, cases[1].res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	base.StoreSchedule([]int{2}, []float64{1})
	target := Resilience{Lambda: cases[1].res.Lambda, Downtime: cases[1].res.Downtime * 2}
	d, err := deltaOf(base, cases[1].tasks, target)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schedule() != nil {
		t.Fatal("a delta build starts with its base's schedule")
	}
	if s := base.Schedule(); s == nil || s.Sigma[0] != 2 {
		t.Fatalf("the delta base lost its schedule: %+v", s)
	}
}

// TestScheduleStoreConcurrent stores and reads one table's schedule
// from several goroutines at once, as workers sharing a cached table do:
// every reader sees the one schedule the first store published.
func TestScheduleStoreConcurrent(t *testing.T) {
	tc := compiledCases()[0]
	c, err := Compile(tc.tasks, tc.res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Schedule, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.Schedule() == nil {
				c.StoreSchedule([]int{2, 2 * g}, []float64{1, float64(g)})
			}
			got[g] = c.Schedule()
		}()
	}
	wg.Wait()
	for g, s := range got {
		if s == nil || s != got[0] || s.TU[1] != float64(s.Sigma[1]/2) {
			t.Fatalf("goroutine %d read %+v, want the one published schedule %+v", g, s, got[0])
		}
	}
}

// --- Benchmarks: the compiled query vs the direct recomputation -------

// rowSweepSink keeps the compiler from eliding the benchmark reduction.
var rowSweepSink float64

// BenchmarkCandidateRowSweep measures the batched row kernel: one
// MinOverRow pass over all 128 candidate allocations of a task
// (p = 256), the per-(task, round) unit of work behind Decision's
// heuristics, against 128 scalar BenchmarkExpectedTimeRaw calls
// (model_test.go). α varies per iteration so the α-dependent tail term is
// recomputed every sweep, as it is in a live decision round.
func BenchmarkCandidateRowSweep(b *testing.B) {
	task, res := synthTask(2e6), defaultRes()
	c, err := Compile([]Task{task}, res, CostModel{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alpha := 0.5 + float64(i%16)/32
		v, _ := c.MinOverRow(0, alpha, row)
		rowSweepSink = v
	}
}

// benchPack is the compile benchmarks' instance: n=100 tasks at the
// paper's default p=1000 scale.
func benchPack() ([]Task, Resilience) {
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = synthTask(1.5e6 + float64(i)*1e4)
	}
	return tasks, defaultRes()
}

// BenchmarkCompileCold measures the one-time table build on a fresh
// arena every iteration — the price of a true cache miss: the profile
// columns allocated and filled, the failure rows left to the queries.
func BenchmarkCompileCold(b *testing.B) {
	tasks, res := benchPack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(tasks, res, CostModel{}, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileWarm measures TableArena.Build over a reused arena —
// the steady state of a simulator's own table when its instance changes.
func BenchmarkCompileWarm(b *testing.B) {
	tasks, res := benchPack()
	var a TableArena
	if _, err := a.Build(tasks, res, CostModel{}, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Build(tasks, res, CostModel{}, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompileDelta measures the near-miss build for the delta
// classes a resilience sweep produces: downtime-only, λ and the
// fault-free limit. Each shares the base's profile columns and starts
// with empty failure rows (none at all when fault-free), so the three
// cost the same few small allocations. Every iteration builds a fresh
// table with deltaOf, as the cache does. The speedup over
// BenchmarkCompileWarm is the cache's near-miss payoff; B/op is the
// memory a near-miss adds to the cache before any query.
func BenchmarkRecompileDelta(b *testing.B) {
	tasks, res := benchPack()
	base, err := Compile(tasks, res, CostModel{}, 1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		res  Resilience
	}{
		{"downtime", Resilience{Lambda: res.Lambda, Downtime: res.Downtime * 2, Rule: res.Rule}},
		{"lambda", Resilience{Lambda: res.Lambda * 2, Downtime: res.Downtime, Rule: res.Rule}},
		{"fault-free", Resilience{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := deltaOf(base, tasks, bc.res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
