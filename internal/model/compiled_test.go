package model

import (
	"math"
	"testing"
)

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

// TestCompiledFallback covers queries outside the tables (beyond the
// platform, odd counts): they must route to the direct path and stay
// bit-equal.
func TestCompiledFallback(t *testing.T) {
	tc := compiledCases()[0]
	c, err := Compile(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tc.tasks {
		for _, j := range []int{3, 7, 18, 64} {
			got := c.RawAt(i, j, 0.5)
			want := tc.res.ExpectedTimeRaw(task, j, 0.5)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("task %d j %d: fallback %v != %v", i, j, got, want)
			}
		}
	}
}

// TestMinEvalCompiledEquivalence pins the compiled-backed evaluator
// against the direct one: identical Eq. (6) prefix-mins and thresholds
// for every (task, α, j).
func TestMinEvalCompiledEquivalence(t *testing.T) {
	const p = 48
	for _, tc := range compiledCases() {
		c, err := Compile(tc.tasks, tc.res, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		var direct, compiled MinEval
		for i, task := range tc.tasks {
			for _, alpha := range compiledAlphas {
				direct.Reset(tc.res, task, alpha)
				compiled.ResetCompiled(c, i, alpha)
				for j := 2; j <= p; j += 2 {
					dv, cv := direct.At(j), compiled.At(j)
					if math.Float64bits(dv) != math.Float64bits(cv) {
						t.Fatalf("%s task %d α %v j %d: direct %v compiled %v", tc.name, i, alpha, j, dv, cv)
					}
				}
				if dt, ct := direct.Threshold(p), compiled.Threshold(p); dt != ct {
					t.Fatalf("%s task %d α %v: thresholds %d vs %d", tc.name, i, alpha, dt, ct)
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

// TestRecompileReusesArenas pins the in-place rebuild: recompiling for a
// same-shape instance must not grow the tables, and the rebuilt model
// must serve the new instance's values.
func TestRecompileReusesArenas(t *testing.T) {
	cases := compiledCases()
	var c Compiled
	if err := c.Recompile(cases[0].tasks, cases[0].res, CostModel{}, 32); err != nil {
		t.Fatal(err)
	}
	before := cap(c.tj)
	if err := c.Recompile(cases[2].tasks, cases[2].res, CostModel{}, 32); err != nil {
		t.Fatal(err)
	}
	if cap(c.tj) != before {
		t.Fatalf("recompile grew the table arena: %d → %d", before, cap(c.tj))
	}
	task := cases[2].tasks[1]
	want := cases[2].res.ExpectedTimeRaw(task, 8, 0.5)
	if got := c.RawAt(1, 8, 0.5); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("recompiled tables serve stale values: %v != %v", got, want)
	}
}

// --- Benchmarks: the compiled query vs the direct recomputation -------

// BenchmarkCompiledAt measures the exact query of
// BenchmarkExpectedTimeRaw (model_test.go) through the compiled tables
// instead: the steady-state cost of Decision.Candidate's model term.
func BenchmarkCompiledAt(b *testing.B) {
	task, res := synthTask(2e6), defaultRes()
	c, err := Compile([]Task{task}, res, CostModel{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.RawAt(0, 2+(i%128)*2, 0.8)
	}
}

// rowSweepSink keeps the compiler from eliding the benchmark reduction.
var rowSweepSink float64

// BenchmarkCandidateRowSweep measures the batched row kernel: one
// MinOverRow pass over all 128 candidate allocations of a task
// (p = 256), the per-(task, round) unit of work behind Decision's
// heuristics — the batched counterpart of 128 BenchmarkCompiledAt
// queries. α varies per iteration so the α-dependent tail term is
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
// arena every iteration — the price of a true cache miss, columns
// allocated and filled.
func BenchmarkCompileCold(b *testing.B) {
	tasks, res := benchPack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(tasks, res, CostModel{}, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileWarm measures Recompile over a reused arena — the
// steady state of a campaign worker's private tables, zero allocations
// after the first build.
func BenchmarkCompileWarm(b *testing.B) {
	tasks, res := benchPack()
	var c Compiled
	if err := c.Recompile(tasks, res, CostModel{}, 1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Recompile(tasks, res, CostModel{}, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompileDelta measures the incremental rebuild for the delta
// classes a resilience sweep produces: downtime-only (share everything,
// rebuild the prefactor), λ (share the profile columns, rebuild the
// failure columns) and the fault-free limit (share everything, allocate
// nothing per cell). A delta build freezes its result, so every
// iteration builds into a fresh Compiled, as the cache does. The speedup
// over BenchmarkCompileWarm is the cache's near-miss payoff; B/op is the
// memory a near-miss adds to the cache.
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
				c := new(Compiled)
				if delta, err := c.RecompileDelta(base, tasks, bc.res, CostModel{}, 1000); err != nil || !delta {
					b.Fatalf("delta=%v err=%v", delta, err)
				}
			}
		})
	}
}

// TestAppendTaskEquivalence pins the online append rule: extending a
// compiled instance one task at a time must produce tables bit-identical
// to recompiling the grown pack from scratch, and TruncateExtra must
// restore the base instance (Matches accepts it again).
func TestAppendTaskEquivalence(t *testing.T) {
	for _, tc := range compiledCases() {
		t.Run(tc.name, func(t *testing.T) {
			const p = 20
			base := tc.tasks[:1]
			appended := tc.tasks[1:]

			grown, err := Compile(base, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			for k, task := range appended {
				idx, err := grown.AppendTask(task)
				if err != nil {
					t.Fatal(err)
				}
				if idx != len(base)+k {
					t.Fatalf("appended task %d landed at index %d", k, idx)
				}
			}
			if grown.NumTasks() != len(tc.tasks) {
				t.Fatalf("NumTasks = %d, want %d", grown.NumTasks(), len(tc.tasks))
			}
			full, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			alphas := []float64{1, 0.75, 0.3, 0.01}
			for i := range tc.tasks {
				for j := 2; j <= p; j += 2 {
					for _, a := range alphas {
						g, w := grown.RawAt(i, j, a), full.RawAt(i, j, a)
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("RawAt(%d, %d, %v): appended %v vs recompiled %v", i, j, a, g, w)
						}
						if g, w := grown.RawFloor(i, j, a), full.RawFloor(i, j, a); g != w {
							t.Fatalf("RawFloor(%d, %d, %v): appended %v vs recompiled %v", i, j, a, g, w)
						}
					}
					if grown.Time(i, j) != full.Time(i, j) ||
						grown.Period(i, j) != full.Period(i, j) ||
						grown.CkptCost(i, j) != full.CkptCost(i, j) ||
						grown.Recovery(i, j) != full.Recovery(i, j) ||
						grown.RedistRowFrom(i, 2).Cost(j) != full.RedistRowFrom(i, 2).Cost(j) ||
						grown.FFTime(i, j, 0.5) != full.FFTime(i, j, 0.5) {
						t.Fatalf("task %d j=%d: appended tables diverge from recompiled", i, j)
					}
				}
			}

			// Extended tables must not match the base instance...
			if grown.Matches(base, tc.res, CostModel{}, p) {
				t.Fatal("Matches accepted tables carrying appended tasks")
			}
			// ...until TruncateExtra restores it.
			grown.TruncateExtra()
			if !grown.Matches(base, tc.res, CostModel{}, p) {
				t.Fatal("Matches rejected truncated tables for the base instance")
			}
			if grown.NumTasks() != len(base) {
				t.Fatalf("NumTasks after truncate = %d, want %d", grown.NumTasks(), len(base))
			}
			baseOnly, err := Compile(base, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			for j := 2; j <= p; j += 2 {
				g, w := grown.RawAt(0, j, 0.5), baseOnly.RawAt(0, j, 0.5)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("truncated RawAt(0, %d): %v vs %v", j, g, w)
				}
			}
		})
	}
}

// TestAppendTaskErrors pins the append guard rails.
func TestAppendTaskErrors(t *testing.T) {
	var empty Compiled
	if _, err := empty.AppendTask(Task{Profile: Synthetic{M: 1e6, SeqFraction: 0.1}}); err == nil {
		t.Fatal("AppendTask on an uncompiled instance must fail")
	}
	tc := compiledCases()[0]
	c, err := Compile(tc.tasks, tc.res, CostModel{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendTask(Task{}); err == nil {
		t.Fatal("AppendTask without a profile must fail")
	}
}
