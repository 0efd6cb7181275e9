package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	if !almost(a.PopStdDev(), 2, 1e-12) {
		t.Fatalf("pop stddev = %v, want 2", a.PopStdDev())
	}
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 || a.PopStdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 {
		t.Fatalf("single-value accumulator: mean=%v var=%v", a.Mean(), a.Variance())
	}
	if a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("single-value min/max wrong")
	}
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp magnitude so naive two-pass arithmetic stays stable.
			xs = append(xs, math.Mod(v, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		a.AddAll(xs)
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return almost(a.Mean(), mean, 1e-9*math.Max(1, math.Abs(mean))) &&
			almost(a.Variance(), naiveVar, 1e-6*scale)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v, want 9", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %v, want 1.5", got)
	}
	// Out-of-range q clamps.
	if got := Quantile(xs, -3); got != 1 {
		t.Fatalf("clamped q = %v, want 1", got)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(nil) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestTableNormalize(t *testing.T) {
	tab := Table{X: []float64{1, 2}}
	if err := tab.AddSeries("base", []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddSeries("other", []float64{5, 10}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Normalize("base"); err != nil {
		t.Fatal(err)
	}
	b := tab.SeriesByName("base")
	o := tab.SeriesByName("other")
	if b.Y[0] != 1 || b.Y[1] != 1 {
		t.Fatalf("base not normalized to 1: %v", b.Y)
	}
	if o.Y[0] != 0.5 || o.Y[1] != 0.5 {
		t.Fatalf("other series wrong: %v", o.Y)
	}
}

func TestTableNormalizeErrors(t *testing.T) {
	tab := Table{X: []float64{1}}
	if err := tab.Normalize("nope"); err == nil {
		t.Fatal("expected error for missing base series")
	}
	if err := tab.AddSeries("z", []float64{0}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Normalize("z"); err == nil {
		t.Fatal("expected error for zero base value")
	}
}

func TestAddSeriesLengthMismatch(t *testing.T) {
	tab := Table{X: []float64{1, 2, 3}}
	if err := tab.AddSeries("bad", []float64{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{X: []float64{100, 200}}
	if err := tab.AddSeries("a", []float64{1.5, 2}); err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	want := "x,a\n100,1.5\n200,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	if !strings.HasSuffix(csv, "\n") {
		t.Fatal("CSV must end with newline")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := Table{X: []float64{100, 200, 300}}
	if err := tab.AddSeries("base", []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddSeries("heuristic", []float64{0.61, 0.72, 0.835}); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(tab.CSV())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.X) != 3 || len(back.Series) != 2 {
		t.Fatalf("round trip shape wrong: %+v", back)
	}
	for i := range tab.X {
		if back.X[i] != tab.X[i] {
			t.Fatal("x axis mangled")
		}
		if math.Abs(back.Series[1].Y[i]-tab.Series[1].Y[i]) > 1e-9 {
			t.Fatal("values mangled")
		}
	}
	if back.Series[0].Name != "base" || back.Series[1].Name != "heuristic" {
		t.Fatal("series names mangled")
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"x,a",        // no rows
		"y,a\n1,2",   // bad header
		"x,a\n1,2,3", // ragged row
		"x,a\nfoo,2", // bad x
		"x,a\n1,bar", // bad y
	}
	for i, c := range cases {
		if _, err := ParseCSV(c); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
}

func TestMeanPopStdDevHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
	var a Accumulator
	a.AddAll([]float64{1, 1, 1})
	if a.PopStdDev() != 0 {
		t.Fatal("constant slice stddev should be 0")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i & 1023))
	}
}
