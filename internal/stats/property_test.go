package stats

import (
	"math"
	"testing"

	"cosched/internal/rng"
)

// TestTCritTableValues pins the Student-t inverse against textbook
// critical values (two-sided 95% and 99%).
func TestTCritTableValues(t *testing.T) {
	cases := []struct {
		df   int
		conf float64
		want float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{4, 0.95, 2.776},
		{10, 0.95, 2.228},
		{30, 0.95, 2.042},
		{100, 0.95, 1.984},
		{10, 0.99, 3.169},
		{5, 0.90, 2.015},
	}
	for _, c := range cases {
		got := TCrit(c.df, c.conf)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("TCrit(%d, %v) = %v, want %v", c.df, c.conf, got, c.want)
		}
	}
	for _, bad := range []float64{0, 1, -0.5, math.NaN()} {
		if !math.IsNaN(TCrit(5, bad)) {
			t.Errorf("TCrit(5, %v) should be NaN", bad)
		}
	}
	if !math.IsNaN(TCrit(0, 0.95)) {
		t.Error("TCrit with df=0 should be NaN")
	}
	// Large df approaches the normal quantile.
	if got := TCrit(100000, 0.95); math.Abs(got-1.96) > 1e-2 {
		t.Errorf("TCrit(1e5, 0.95) = %v, want ≈1.96", got)
	}
}

// TestBatchMeansCoverage is the property test of the batch-means CI:
// over many independent streams with a known mean, the nominal-level
// interval must cover the truth at roughly the nominal rate.
func TestBatchMeansCoverage(t *testing.T) {
	const (
		streams  = 500
		batchLen = 8
		batches  = 8
		mean     = 5.0
		conf     = 0.95
	)
	src := rng.New(99)
	covered := 0
	for s := 0; s < streams; s++ {
		bm := NewBatchMeans(batchLen)
		for i := 0; i < batchLen*batches; i++ {
			bm.Add(mean + src.Normal())
		}
		hw, ok := bm.HalfWidth(conf)
		if !ok {
			t.Fatal("no interval after 8 batches")
		}
		if math.Abs(bm.Mean()-mean) <= hw {
			covered++
		}
	}
	rate := float64(covered) / streams
	// Binomial(500, 0.95) stays within ±4 points with overwhelming
	// probability; the stream is deterministic anyway.
	if rate < conf-0.04 || rate > conf+0.04 {
		t.Fatalf("coverage %v, want ≈%v", rate, conf)
	}
}

// TestBatchMeansMatchesClassicTInterval: with batch length 1 the
// batch-means interval is exactly the textbook t interval.
func TestBatchMeansMatchesClassicTInterval(t *testing.T) {
	src := rng.New(3)
	bm := NewBatchMeans(1)
	var acc Accumulator
	for i := 0; i < 40; i++ {
		x := src.Uniform(0, 9)
		bm.Add(x)
		acc.Add(x)
	}
	hw, ok := bm.HalfWidth(0.95)
	if !ok {
		t.Fatal("no interval")
	}
	want := TCrit(acc.N()-1, 0.95) * acc.StdDev() / math.Sqrt(float64(acc.N()))
	if math.Abs(hw-want) > 1e-12*want {
		t.Fatalf("batch-means hw %v, classic t hw %v", hw, want)
	}
	if math.Abs(bm.Mean()-acc.Mean()) > 1e-12 {
		t.Fatalf("grand mean %v, sample mean %v", bm.Mean(), acc.Mean())
	}
}

// TestBatchMeansShrinksWithData: the interval tightens as batches
// accumulate, so the sequential stopping rule terminates.
func TestBatchMeansShrinksWithData(t *testing.T) {
	src := rng.New(5)
	bm := NewBatchMeans(4)
	var early float64
	for i := 0; i < 400; i++ {
		bm.Add(src.Uniform(0, 1))
		if bm.Batches() == 4 && bm.N() == 16 {
			early, _ = bm.HalfWidth(0.95)
		}
	}
	late, ok := bm.HalfWidth(0.95)
	if !ok || late >= early {
		t.Fatalf("interval did not shrink: early %v late %v", early, late)
	}
	if !bm.Converged(0.95, 1.0) {
		t.Fatal("loose relative target not met after 100 batches")
	}
	if bm.Converged(0.95, 1e-9) {
		t.Fatal("absurdly tight target reported met")
	}
}

// --- edge cases: empty, single, constant, NaN/Inf ---------------------

func TestBatchMeansEdgeCases(t *testing.T) {
	// Zero value degrades to per-sample batches instead of dividing by 0.
	var zero BatchMeans
	zero.Add(2)
	zero.Add(4)
	if zero.Batches() != 2 || zero.Mean() != 3 {
		t.Fatalf("zero-value BatchMeans: batches=%d mean=%v", zero.Batches(), zero.Mean())
	}

	bm := NewBatchMeans(4)
	if _, ok := bm.HalfWidth(0.95); ok {
		t.Fatal("empty accumulator produced an interval")
	}
	bm.Add(1)
	if bm.N() != 1 || bm.Batches() != 0 {
		t.Fatalf("partial batch miscounted: n=%d batches=%d", bm.N(), bm.Batches())
	}
	if _, ok := bm.HalfWidth(0.95); ok {
		t.Fatal("single sample produced an interval")
	}
	if bm.Converged(0.95, 0.5) {
		t.Fatal("converged without an interval")
	}

	// Constant stream: interval collapses to zero, converges even at a
	// zero mean (hw == 0 special case).
	c := NewBatchMeans(2)
	for i := 0; i < 12; i++ {
		c.Add(0)
	}
	hw, ok := c.HalfWidth(0.95)
	if !ok || hw != 0 {
		t.Fatalf("constant stream: hw=%v ok=%v", hw, ok)
	}
	if !c.Converged(0.95, 0.01) {
		t.Fatal("constant zero stream did not converge")
	}

	// Non-finite samples taint the estimator and block convergence.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		n := NewBatchMeans(2)
		n.Add(1)
		n.Add(bad)
		n.Add(2)
		n.Add(3)
		if n.Valid() {
			t.Fatalf("BatchMeans accepted %v as valid", bad)
		}
		if n.Converged(0.95, 1e9) {
			t.Fatalf("tainted BatchMeans converged after %v", bad)
		}
	}
	// A non-finite value stuck in a partial batch is also reported.
	p := NewBatchMeans(8)
	p.Add(math.NaN())
	if p.Valid() {
		t.Fatal("NaN in partial batch not reported")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewBatchMeans(0) did not panic")
		}
	}()
	NewBatchMeans(0)
}

func TestAccumulatorNonFiniteGuards(t *testing.T) {
	var a Accumulator
	a.Add(1)
	if !a.Valid() {
		t.Fatal("finite input reported invalid")
	}
	a.Add(math.NaN())
	if a.Valid() {
		t.Fatal("NaN input reported valid")
	}
	var b Accumulator
	b.Add(math.Inf(1))
	if b.Valid() {
		t.Fatal("Inf input reported valid")
	}
}

func TestSummaryEdgeCases(t *testing.T) {
	var a Accumulator
	s := a.Summary()
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
	a.Add(2.5)
	s = a.Summary()
	if s.N != 1 || s.Mean != 2.5 || s.StdDev != 0 || s.Min != 2.5 || s.Max != 2.5 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
	var c Accumulator
	for i := 0; i < 9; i++ {
		c.Add(4)
	}
	s = c.Summary()
	if s.StdDev != 0 || s.Mean != 4 || s.Min != 4 || s.Max != 4 {
		t.Fatalf("constant summary wrong: %+v", s)
	}
}

func TestQuantileNaNGuard(t *testing.T) {
	if !math.IsNaN(Quantile([]float64{1, math.NaN(), 3}, 0.5)) {
		t.Fatal("Quantile over NaN input should be NaN")
	}
	got := ExactQuantiles([]float64{4, 1, 3, 2}, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 2.5 || got[2] != 4 {
		t.Fatalf("ExactQuantiles = %v", got)
	}
}

func BenchmarkBatchMeansAdd(b *testing.B) {
	bm := NewBatchMeans(16)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Add(src.Float64())
	}
}
