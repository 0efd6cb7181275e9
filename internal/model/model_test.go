package model

import (
	"math"
	"testing"
	"testing/quick"

	"cosched/internal/rng"
)

const yearSeconds = 365.25 * 24 * 3600

func synthTask(m float64) Task {
	return Task{ID: 0, Data: m, Ckpt: m, Profile: Synthetic{M: m, SeqFraction: 0.08}}
}

func defaultRes() Resilience {
	return Resilience{Lambda: 1 / (100 * yearSeconds), Downtime: 60}
}

// compiledEval returns an evaluator of task at α on a table compiled for
// that task alone on p processors.
func compiledEval(tb testing.TB, r Resilience, task Task, p int, alpha float64) *MinEval {
	tb.Helper()
	c, err := Compile([]Task{task}, r, CostModel{}, p)
	if err != nil {
		tb.Fatal(err)
	}
	e := new(MinEval)
	e.ResetCompiled(c, 0, alpha)
	return e
}

func TestSyntheticSequentialTime(t *testing.T) {
	m := 1024.0
	p := Synthetic{M: m, SeqFraction: 0.08}
	want := 2 * m * math.Log2(m) // 2·1024·10
	if got := p.Time(1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("t(m,1) = %v, want %v", got, want)
	}
}

func TestSyntheticParallelFormula(t *testing.T) {
	m, f := 2048.0, 0.25
	p := Synthetic{M: m, SeqFraction: f}
	t1 := 2 * m * math.Log2(m)
	for _, q := range []int{2, 4, 10, 100} {
		want := f*t1 + (1-f)*t1/float64(q) + m/float64(q)*math.Log2(m)
		if got := p.Time(q); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("t(m,%d) = %v, want %v", q, got, want)
		}
	}
}

func TestSyntheticTimeNonIncreasing(t *testing.T) {
	p := Synthetic{M: 1.5e6, SeqFraction: 0.08}
	prev := p.Time(2)
	for j := 3; j <= 512; j++ {
		cur := p.Time(j)
		if cur > prev+1e-9 {
			t.Fatalf("t(m,j) increased at j=%d: %v -> %v", j, prev, cur)
		}
		prev = cur
	}
}

func TestSyntheticWorkNonDecreasing(t *testing.T) {
	p := Synthetic{M: 2.5e6, SeqFraction: 0.08}
	prev := 2 * p.Time(2)
	for j := 3; j <= 512; j++ {
		cur := float64(j) * p.Time(j)
		if cur < prev-1e-6 {
			t.Fatalf("work j·t(m,j) decreased at j=%d: %v -> %v", j, prev, cur)
		}
		prev = cur
	}
}

func TestSyntheticPanicsOnBadJ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Time(0) did not panic")
		}
	}()
	Synthetic{M: 10, SeqFraction: 0}.Time(0)
}

func TestTableProfile(t *testing.T) {
	tab := Table{Times: []float64{10, 6, 4}}
	if tab.Time(1) != 10 || tab.Time(2) != 6 || tab.Time(3) != 4 {
		t.Fatal("table lookup wrong")
	}
	if tab.Time(7) != 4 {
		t.Fatalf("beyond-table query should clamp to last entry, got %v", tab.Time(7))
	}
}

func TestTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty table did not panic")
		}
	}()
	Table{}.Time(1)
}

func TestRedistCostGrow(t *testing.T) {
	// Paper's Figure 3 example: j=4 → k=6, rounds = max(4, 2) = 4.
	m := 24.0
	got := CostModel{}.Cost(m, 4, 6)
	want := 4.0 / 6.0 * m / 4.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RC(4→6) = %v, want %v", got, want)
	}
}

func TestRedistCostShrink(t *testing.T) {
	// Eq. (9): j=6 → k=2, rounds = max(min(6,2), 4) = 4.
	m := 12.0
	got := CostModel{}.Cost(m, 6, 2)
	want := 4.0 / 2.0 * m / 6.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RC(6→2) = %v, want %v", got, want)
	}
}

func TestRedistCostEq7MatchesEq9OnGrow(t *testing.T) {
	// For k > j, Eq. (7) max(j, k−j)·(1/k)·(m/j) equals Eq. (9).
	for j := 2; j <= 12; j += 2 {
		for k := j + 2; k <= 20; k += 2 {
			eq7 := float64(max(j, k-j)) / float64(k) * 100.0 / float64(j)
			eq9 := CostModel{}.Cost(100.0, j, k)
			if math.Abs(eq7-eq9) > 1e-12 {
				t.Fatalf("Eq7 != Eq9 for %d→%d: %v vs %v", j, k, eq7, eq9)
			}
		}
	}
}

func TestRedistCostNoop(t *testing.T) {
	if (CostModel{}).Cost(100, 4, 4) != 0 {
		t.Fatal("same-size redistribution must be free")
	}
}

func TestRedistCostPositive(t *testing.T) {
	err := quick.Check(func(jRaw, kRaw uint8) bool {
		j := int(jRaw%50)*2 + 2
		k := int(kRaw%50)*2 + 2
		if j == k {
			return CostModel{}.Cost(1e6, j, k) == 0
		}
		return CostModel{}.Cost(1e6, j, k) > 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMTBFAndRate(t *testing.T) {
	r := defaultRes()
	mu := 100 * yearSeconds
	if got := r.MTBF(1); math.Abs(got-mu) > 1e-3 {
		t.Fatalf("MTBF(1) = %v, want %v", got, mu)
	}
	if got := r.MTBF(10); math.Abs(got-mu/10) > 1e-3 {
		t.Fatalf("MTBF(10) = %v, want %v", got, mu/10)
	}
	if got := r.Rate(4); math.Abs(got-4*r.Lambda) > 1e-20 {
		t.Fatalf("Rate(4) = %v", got)
	}
}

func TestCkptCostScaling(t *testing.T) {
	r := defaultRes()
	task := synthTask(2e6)
	if got := r.CkptCost(task, 4); math.Abs(got-5e5) > 1e-6 {
		t.Fatalf("C_{i,4} = %v, want 5e5", got)
	}
	if r.Recovery(task, 4) != r.CkptCost(task, 4) {
		t.Fatal("paper assumes R = C")
	}
}

func TestYoungPeriod(t *testing.T) {
	r := defaultRes()
	task := synthTask(2e6)
	j := 10
	mu := r.MTBF(j)
	c := r.CkptCost(task, j)
	want := math.Sqrt(2*mu*c) + c
	if got := r.Period(task, j); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Young period = %v, want %v", got, want)
	}
	// Young's validity condition C ≪ µ holds for the paper defaults.
	if c > mu/10 {
		t.Fatalf("default parameters violate C ≪ µ: C=%v µ=%v", c, mu)
	}
}

func TestDalyPeriodCloseToYoung(t *testing.T) {
	young := defaultRes()
	daly := defaultRes()
	daly.Rule = PeriodDaly
	task := synthTask(2e6)
	for _, j := range []int{2, 8, 64} {
		y := young.Period(task, j)
		d := daly.Period(task, j)
		if d <= 0 || math.Abs(d-y)/y > 0.1 {
			t.Fatalf("Daly period at j=%d diverges: young=%v daly=%v", j, y, d)
		}
	}
}

func TestDalyPeriodLargeCkpt(t *testing.T) {
	r := Resilience{Lambda: 1.0, Downtime: 0, Rule: PeriodDaly}
	task := Task{Data: 10, Ckpt: 10, Profile: Table{Times: []float64{100, 50}}}
	// µ(1) = 1, C(1) = 10 ≥ 2µ → τ = µ + C.
	if got := r.Period(task, 1); math.Abs(got-11) > 1e-12 {
		t.Fatalf("Daly large-C period = %v, want 11", got)
	}
}

func TestFaultFreeLimits(t *testing.T) {
	r := Resilience{Lambda: 0, Downtime: 60}
	task := synthTask(1.5e6)
	if !r.FaultFree() {
		t.Fatal("Lambda=0 must be fault-free")
	}
	if !math.IsInf(r.Period(task, 4), 1) {
		t.Fatal("fault-free period must be +Inf")
	}
	if r.FFCheckpoints(task, 4, 1) != 0 {
		t.Fatal("fault-free run must take no checkpoints")
	}
	want := task.Time(4)
	if got := r.ExpectedTimeRaw(task, 4, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fault-free expected time = %v, want t_{i,j} = %v", got, want)
	}
	if got := r.FFTime(task, 4, 0.5); math.Abs(got-0.5*want) > 1e-9 {
		t.Fatalf("fault-free FFTime = %v, want %v", got, 0.5*want)
	}
}

func TestFFCheckpointsCount(t *testing.T) {
	r := defaultRes()
	task := synthTask(2.5e6)
	j := 50
	tau := r.Period(task, j)
	c := r.CkptCost(task, j)
	alpha := 1.0
	want := int(math.Floor(alpha * task.Time(j) / (tau - c)))
	if got := r.FFCheckpoints(task, j, alpha); got != want {
		t.Fatalf("N^ff = %d, want %d", got, want)
	}
	if want < 1 {
		t.Fatalf("test should exercise at least one checkpoint, got %d", want)
	}
	// τ_last consistency: α·t = N·(τ−C) + τ_last, with 0 ≤ τ_last < τ−C...
	last := r.TauLast(task, j, alpha)
	if last < 0 || last > tau-c+1e-9 {
		t.Fatalf("τ_last = %v out of [0, τ−C=%v]", last, tau-c)
	}
	recon := float64(want)*(tau-c) + last
	if math.Abs(recon-alpha*task.Time(j)) > 1e-6*recon {
		t.Fatalf("work decomposition broken: %v vs %v", recon, alpha*task.Time(j))
	}
}

func TestExpectedTimeRawHandComputed(t *testing.T) {
	// Small synthetic numbers so the expectation formula is checked
	// end-to-end against an independent in-test computation.
	r := Resilience{Lambda: 1e-6, Downtime: 30}
	task := Task{Data: 1000, Ckpt: 500, Profile: Table{Times: []float64{4e5, 2e5, 2e5, 1e5}}}
	j, alpha := 4, 0.8
	lj := 4e-6
	c := 500.0 / 4
	mu := 1 / lj
	tau := math.Sqrt(2*mu*c) + c
	tij := 1e5
	n := math.Floor(alpha * tij / (tau - c))
	tauLast := alpha*tij - n*(tau-c)
	want := math.Exp(lj*c) * (1/lj + 30) * (n*(math.Exp(lj*tau)-1) + (math.Exp(lj*tauLast) - 1))
	got := r.ExpectedTimeRaw(task, j, alpha)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("t^R = %v, want %v", got, want)
	}
}

func TestExpectedTimeRawSmallLambdaLimit(t *testing.T) {
	// As λ→0 the expected time tends to the fault-free time α·t_{i,j}.
	task := synthTask(2e6)
	alpha := 0.6
	for _, j := range []int{2, 10, 100} {
		r := Resilience{Lambda: 1e-18, Downtime: 60}
		got := r.ExpectedTimeRaw(task, j, alpha)
		want := alpha * task.Time(j)
		if math.Abs(got-want)/want > 1e-3 {
			t.Fatalf("λ→0 limit broken at j=%d: %v vs %v", j, got, want)
		}
	}
}

func TestExpectedTimeRawExceedsFaultFree(t *testing.T) {
	r := defaultRes()
	task := synthTask(2.5e6)
	for _, j := range []int{2, 20, 200} {
		ff := r.FFTime(task, j, 1)
		exp := r.ExpectedTimeRaw(task, j, 1)
		if exp <= ff {
			t.Fatalf("expected time %v should exceed fault-free-with-checkpoints %v at j=%d", exp, ff, j)
		}
	}
}

func TestExpectedTimeEdgeAlphas(t *testing.T) {
	r := defaultRes()
	task := synthTask(2e6)
	if r.ExpectedTimeRaw(task, 4, 0) != 0 {
		t.Fatal("α=0 must cost 0")
	}
	if r.ExpectedTimeRaw(task, 4, -0.5) != 0 {
		t.Fatal("negative α must clamp to 0")
	}
	over := r.ExpectedTimeRaw(task, 4, 1.5)
	one := r.ExpectedTimeRaw(task, 4, 1)
	if over != one {
		t.Fatalf("α>1 must clamp to 1: %v vs %v", over, one)
	}
}

func TestMinEvalMatchesBruteForcePrefixMin(t *testing.T) {
	r := defaultRes()
	task := synthTask(1.8e6)
	alpha := 0.7
	e := compiledEval(t, r, task, 300, alpha)
	best := math.Inf(1)
	for j := 2; j <= 300; j += 2 {
		raw := r.ExpectedTimeRaw(task, j, alpha)
		if raw < best {
			best = raw
		}
		if got := e.At(j); math.Abs(got-best) > 1e-9*best {
			t.Fatalf("MinEval.At(%d) = %v, want prefix-min %v", j, got, best)
		}
	}
}

func TestMinEvalNonIncreasing(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 50; trial++ {
		m := src.Uniform(1500, 2.5e6)
		mtbfYears := src.Uniform(2, 150)
		r := Resilience{Lambda: 1 / (mtbfYears * yearSeconds), Downtime: 60}
		task := Task{Data: m, Ckpt: m * src.Uniform(0.01, 1), Profile: Synthetic{M: m, SeqFraction: src.Uniform(0, 0.5)}}
		alpha := src.Uniform(0.01, 1)
		e := compiledEval(t, r, task, 256, alpha)
		prev := e.At(2)
		for j := 4; j <= 256; j += 2 {
			cur := e.At(j)
			if cur > prev+1e-9*prev {
				t.Fatalf("monotonized t^R increased at j=%d (trial %d)", j, trial)
			}
			prev = cur
		}
	}
}

func TestMinEvalRandomAccessOrder(t *testing.T) {
	r := defaultRes()
	task := synthTask(2e6)
	a := compiledEval(t, r, task, 64, 1)
	b := compiledEval(t, r, task, 64, 1)
	// Query a in descending order and b ascending; results must agree.
	var down []float64
	for j := 64; j >= 2; j -= 2 {
		down = append(down, a.At(j))
	}
	for i, j := 0, 64; j >= 2; i, j = i+1, j-2 {
		if got := b.At(j); got != down[i] {
			t.Fatalf("access-order dependence at j=%d", j)
		}
	}
}

// TestMinEvalPanicsOnOddJ: a query at an odd j, or past the table's
// largest allocation, panics instead of answering.
func TestMinEvalPanicsOnOddJ(t *testing.T) {
	const p = 16
	c, err := Compile([]Task{synthTask(2e6)}, defaultRes(), CostModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{3, p + 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a table for P=%d did not panic", j, p)
				}
			}()
			var e MinEval
			e.ResetCompiled(c, 0, 1)
			e.At(j)
		}()
	}
}

func TestThreshold(t *testing.T) {
	// With buddy checkpointing C_{i,j} = C_i/j, the per-period waste ratio
	// is j-independent; the processor-count threshold is driven by the
	// downtime term (1/λj + D). Make failures frequent and downtime large
	// so the threshold falls well inside the probed range.
	r := Resilience{Lambda: 1 / (0.005 * yearSeconds), Downtime: 3600}
	task := synthTask(2.5e6)
	e := compiledEval(t, r, task, 512, 1)
	th := e.Threshold(512)
	if th >= 400 {
		t.Fatalf("threshold %d should be interior under heavy failures", th)
	}
	// Beyond the threshold the raw expected time must strictly increase,
	// which is exactly what Eq. (6) protects against.
	if raw := r.ExpectedTimeRaw(task, 512, 1); raw <= e.At(512) {
		t.Fatalf("raw t^R at 512 (%v) should exceed monotonized value (%v)", raw, e.At(512))
	}
	// The prefix-min at the threshold equals the global min on the range.
	if math.Abs(e.At(th)-e.At(512)) > 1e-9*e.At(512) {
		t.Fatal("threshold does not attain the minimum")
	}
	// And under (near) fault-free conditions more processors keep helping.
	r0 := Resilience{Lambda: 1e-20, Downtime: 60}
	e0 := compiledEval(t, r0, task, 512, 1)
	if th0 := e0.Threshold(512); th0 != 512 {
		t.Fatalf("fault-free threshold = %d, want 512", th0)
	}
}

// TestExpectedDominatesFaultFreeProperty: for any admissible parameters,
// the expected time under failures is at least the deterministic
// fault-free time with checkpoints — failures only ever cost time.
func TestExpectedDominatesFaultFreeProperty(t *testing.T) {
	src := rng.New(101)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		m := src.Uniform(1e3, 3e6)
		task := Task{Data: m, Ckpt: m * src.Uniform(0.001, 1),
			Profile: Synthetic{M: m, SeqFraction: src.Uniform(0, 0.5)}}
		r := Resilience{Lambda: 1 / (src.Uniform(0.1, 150) * yearSeconds), Downtime: src.Uniform(0, 600)}
		j := 2 * (1 + src.Intn(128))
		alpha := src.Uniform(0.001, 1)
		ff := r.FFTime(task, j, alpha)
		exp := r.ExpectedTimeRaw(task, j, alpha)
		return exp >= ff*(1-1e-12)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPostRedistCkpt: zero in the fault-free scenario (§3.3.1), C_{i,j}
// otherwise (§3.3.2).
func TestPostRedistCkpt(t *testing.T) {
	task := synthTask(2e6)
	ff := Resilience{Lambda: 0}
	if ff.PostRedistCkpt(task, 4) != 0 {
		t.Fatal("fault-free redistribution must not checkpoint")
	}
	r := defaultRes()
	if r.PostRedistCkpt(task, 4) != r.CkptCost(task, 4) {
		t.Fatal("post-redistribution checkpoint must cost C_{i,j}")
	}
}

func TestExpectedTimeConvenience(t *testing.T) {
	r := defaultRes()
	task := synthTask(2e6)
	if r.ExpectedTime(task, 40, 1) != compiledEval(t, r, task, 40, 1).At(40) {
		t.Fatal("ExpectedTime must equal MinEval result")
	}
}

func TestValidate(t *testing.T) {
	good := defaultRes()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Resilience{
		{Lambda: -1},
		{Lambda: math.NaN()},
		{Lambda: math.Inf(1)},
		{Lambda: 1, Downtime: -5},
		{Lambda: 1, Rule: PeriodRule(99)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestPeriodRuleString(t *testing.T) {
	if PeriodYoung.String() != "young" || PeriodDaly.String() != "daly" {
		t.Fatal("period rule names wrong")
	}
	if PeriodRule(9).String() == "" {
		t.Fatal("unknown rule must still stringify")
	}
}

// BenchmarkExpectedTimeRaw measures the direct Eq. (4) evaluation the
// pre-compiled simulator performed on every candidate query; compare
// 128 of these with one BenchmarkCandidateRowSweep (compiled_test.go)
// for the table cost.
func BenchmarkExpectedTimeRaw(b *testing.B) {
	r := defaultRes()
	task := synthTask(2e6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.ExpectedTimeRaw(task, 2+(i%128)*2, 0.8)
	}
}

// BenchmarkMinEvalScan measures one ascending scan of a compiled row
// from a freshly bound evaluator: 128 cells through rawRange and the
// Eq. (6) fold.
func BenchmarkMinEvalScan(b *testing.B) {
	e := compiledEval(b, defaultRes(), synthTask(2e6), 256, 0.9)
	for i := 0; i < b.N; i++ {
		e.ResetCompiled(e.c, 0, 0.9)
		_ = e.At(256)
	}
}

// TestMinEvalReset verifies reset-in-place: a reused evaluator must
// produce exactly the values of a freshly bound one, including after
// rebinding to a different task and work fraction.
func TestMinEvalReset(t *testing.T) {
	r := Resilience{Lambda: 1e-7, Downtime: 60}
	a := Task{Profile: Synthetic{M: 2e6, SeqFraction: 0.08}, Data: 2e6, Ckpt: 2e6}
	b := Task{Profile: Synthetic{M: 1e6, SeqFraction: 0.3}, Data: 1e6, Ckpt: 1e6}
	c, err := Compile([]Task{a, b}, r, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}

	var reused MinEval
	reused.ResetCompiled(c, 0, 1)
	for j := 2; j <= 64; j += 2 {
		reused.At(j) // warm the cache past the rebind sizes
	}
	for _, tc := range []struct {
		task  int
		alpha float64
	}{{0, 0.5}, {1, 1}, {1, 0.25}, {0, 1}} {
		reused.ResetCompiled(c, tc.task, tc.alpha)
		var fresh MinEval
		fresh.ResetCompiled(c, tc.task, tc.alpha)
		for j := 2; j <= 40; j += 2 {
			if got, want := reused.At(j), fresh.At(j); got != want {
				t.Errorf("ResetCompiled(%d, %v) At(%d) = %v, fresh %v", tc.task, tc.alpha, j, got, want)
			}
		}
	}
}

// Threshold returns the smallest even processor count in [2, maxJ] that
// attains the minimum expected time, i.e. the point beyond which extra
// processors stop helping. It is a test helper.
func (e *MinEval) Threshold(maxJ int) int {
	if maxJ < 2 {
		maxJ = 2
	}
	if maxJ%2 != 0 {
		maxJ--
	}
	best := 2
	bestV := e.At(2)
	for j := 4; j <= maxJ; j += 2 {
		if v := e.At(j); v < bestV {
			best, bestV = j, v
		}
	}
	return best
}

// TauLast returns the final, possibly partial work segment τ_last (Eq. 3):
// the reference the Eq. (4) hand computations check against.
func (r Resilience) TauLast(t Task, j int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	tj := t.Time(j)
	if r.Lambda == 0 {
		return alpha * tj
	}
	work := r.Period(t, j) - r.CkptCost(t, j)
	n := float64(ffCount(alpha, tj, work))
	return alpha*tj - n*work
}
