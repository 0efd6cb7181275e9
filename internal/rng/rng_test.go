package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seed diverged at step %d", i)
		}
	}
}

func TestReseedRestartsStream(t *testing.T) {
	a := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, step %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agree on %d/100 outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams agree on %d/100 outputs", same)
	}
	// Splitting must be reproducible from the parent seed.
	e1, e2 := New(99).Split(), New(99).Split()
	for i := 0; i < 100; i++ {
		if e1.Uint64() != e2.Uint64() {
			t.Fatal("child streams are not reproducible from parent seed")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		g := r.Float64Open()
		if g <= 0 || g > 1 {
			t.Fatalf("Float64Open out of (0,1]: %v", g)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) value %d has suspicious count %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExponentialMean(t *testing.T) {
	r := New(17)
	const rate = 0.25 // mean 4
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exponential(rate)
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~4", mean)
	}
}

func TestExponentialMemorylessTail(t *testing.T) {
	// P(X > 2/rate) should be about e^-2.
	r := New(23)
	const rate = 1.5
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Exponential(rate) > 2/rate {
			count++
		}
	}
	got := float64(count) / n
	want := math.Exp(-2)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("tail probability = %v, want ~%v", got, want)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	// Weibull(k=1, scale) has mean = scale.
	r := New(31)
	const scale = 3.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, scale)
	}
	mean := sum / n
	if math.Abs(mean-scale) > 0.05 {
		t.Fatalf("Weibull(1,%v) mean = %v, want ~%v", scale, mean, scale)
	}
}

func TestWeibullMeanShapeHalf(t *testing.T) {
	// Mean of Weibull(k, λ) is λ·Γ(1+1/k); for k = 0.5, Γ(3) = 2, mean = 2λ.
	r := New(37)
	const scale = 1.0
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(0.5, scale)
	}
	mean := sum / n
	if math.Abs(mean-2*scale) > 0.05 {
		t.Fatalf("Weibull(0.5,%v) mean = %v, want ~%v", scale, mean, 2*scale)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(41)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(47)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, sum2)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(53)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exponential(1e-9)
	}
}
