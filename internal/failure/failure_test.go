package failure

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cosched/internal/rng"
)

const yearSeconds = 365.25 * 24 * 3600

func TestRenewalOrderedAndComplete(t *testing.T) {
	src, err := NewRenewal(16, Exponential{Lambda: 1e-3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	seen := make(map[int]int)
	for i := 0; i < 5000; i++ {
		f, ok := src.Next()
		if !ok {
			t.Fatal("renewal source must be endless")
		}
		if f.Time < prev {
			t.Fatalf("faults out of order: %v after %v", f.Time, prev)
		}
		if f.Proc < 0 || f.Proc >= 16 {
			t.Fatalf("processor %d out of range", f.Proc)
		}
		prev = f.Time
		seen[f.Proc]++
	}
	for q := 0; q < 16; q++ {
		if seen[q] == 0 {
			t.Fatalf("processor %d never failed in 5000 draws", q)
		}
	}
}

func TestRenewalExponentialRate(t *testing.T) {
	// 100 processors with MTBF 10 → platform MTBF 0.1; over horizon T we
	// expect ~T/0.1 failures.
	const lambda, p, horizon = 0.1, 100, 1000.0
	src, _ := NewRenewal(p, Exponential{Lambda: lambda}, rng.New(7))
	count := 0
	for {
		f, _ := src.Next()
		if f.Time > horizon {
			break
		}
		count++
	}
	want := lambda * p * horizon
	if math.Abs(float64(count)-want) > 0.05*want {
		t.Fatalf("observed %d failures, want ~%v", count, want)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewRenewal(0, Exponential{Lambda: 1}, rng.New(1)); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewRenewal(4, nil, rng.New(1)); err == nil {
		t.Fatal("nil law accepted")
	}
	if _, err := NewRenewal(4, Exponential{Lambda: 1}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestWeibullShapeOneMatchesExponentialRate(t *testing.T) {
	w := Weibull{Shape: 1, Scale: 100}
	if math.Abs(w.Rate()-0.01) > 1e-12 {
		t.Fatalf("Weibull(1,100) rate = %v, want 0.01", w.Rate())
	}
	e := Exponential{Lambda: 0.01}
	if e.Rate() != 0.01 {
		t.Fatal("Exponential rate accessor broken")
	}
	src, _ := NewRenewal(50, w, rng.New(5))
	count := 0
	horizon := 10000.0
	for {
		f, _ := src.Next()
		if f.Time > horizon {
			break
		}
		count++
	}
	want := 50 * horizon / 100
	if math.Abs(float64(count)-want) > 0.2*want {
		t.Fatalf("Weibull(1) renewal count %d, want ~%v", count, want)
	}
}

func TestWeibullRateZeroScale(t *testing.T) {
	if (Weibull{Shape: 1, Scale: 0}).Rate() != 0 {
		t.Fatal("zero-scale Weibull should report rate 0")
	}
}

func TestNullSource(t *testing.T) {
	var n Null
	if _, ok := n.Next(); ok {
		t.Fatal("Null source produced a fault")
	}
}

func TestTraceReplayAndRewind(t *testing.T) {
	faults := []Fault{{1, 3}, {2, 1}, {5, 0}}
	tr, err := NewTrace(faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, want := range faults {
			got, ok := tr.Next()
			if !ok || got != want {
				t.Fatalf("replay %d: got %+v ok=%v, want %+v", i, got, ok, want)
			}
		}
		if _, ok := tr.Next(); ok {
			t.Fatal("trace should be exhausted")
		}
		tr.Rewind()
	}
}

// TestReplayRecordsAndRewinds pins the common-random-numbers source:
// the rewound stream is identical to the recorded prefix, a consumer
// outliving the prefix continues pulling from the generator exactly
// where recording stopped, and Reset discards the log.
func TestReplayRecordsAndRewinds(t *testing.T) {
	gen, err := NewRenewal(4, Exponential{Lambda: 1e-3}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	var r Replay
	r.Reset(gen)
	first := make([]Fault, 10)
	for i := range first {
		f, ok := r.Next()
		if !ok {
			t.Fatal("renewal-backed replay ended")
		}
		first[i] = f
	}
	// Reference continuation: an identical generator advanced past the
	// same 10 draws tells us what the replay must produce after the
	// recorded prefix runs out.
	ref, err := NewRenewal(4, Exponential{Lambda: 1e-3}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ref.Next()
	}
	r.Rewind()
	for i, want := range first {
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("rewind draw %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	for i := 0; i < 5; i++ {
		got, _ := r.Next()
		want, _ := ref.Next()
		if got != want {
			t.Fatalf("post-prefix draw %d: got %+v, want %+v (generator state drifted)", i, got, want)
		}
	}
	// A second rewind covers the grown log (10 recorded + 5 appended).
	r.Rewind()
	for i := 0; i < 15; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("grown log ended at %d", i)
		}
	}
	r.Reset(gen)
	if f, ok := r.Next(); !ok || f == first[0] {
		t.Fatalf("Reset kept the old log head %+v", f)
	}
}

func TestTraceRejectsUnordered(t *testing.T) {
	if _, err := NewTrace([]Fault{{5, 0}, {1, 0}}); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	src, _ := NewRenewal(8, Exponential{Lambda: 0.25}, rng.New(31))
	faults := Collect(src, 100, 0)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, faults); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(faults) {
		t.Fatalf("round trip length %d, want %d", len(back), len(faults))
	}
	for i := range faults {
		if back[i] != faults[i] {
			t.Fatalf("round trip fault %d: %+v != %+v", i, back[i], faults[i])
		}
	}
}

func TestReadTraceRejectsGarbageAndDisorder(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := "{\"t\":5,\"proc\":0}\n{\"t\":1,\"proc\":0}\n"
	if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("unordered file accepted")
	}
}

func TestCollectHorizonAndLimit(t *testing.T) {
	src, _ := NewRenewal(4, Exponential{Lambda: 1}, rng.New(41))
	byLimit := Collect(src, 5, 0)
	if len(byLimit) != 5 {
		t.Fatalf("limit collect returned %d", len(byLimit))
	}
	src2, _ := NewRenewal(4, Exponential{Lambda: 1}, rng.New(41))
	byHorizon := Collect(src2, 1000000, 1.0)
	for _, f := range byHorizon {
		if f.Time >= 1.0 {
			t.Fatal("horizon not respected")
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	a, _ := NewRenewal(32, Exponential{Lambda: 0.01}, rng.New(77))
	b, _ := NewRenewal(32, Exponential{Lambda: 0.01}, rng.New(77))
	for i := 0; i < 1000; i++ {
		fa, _ := a.Next()
		fb, _ := b.Next()
		if fa != fb {
			t.Fatalf("renewal streams diverged at %d", i)
		}
	}
}

func BenchmarkRenewalNext(b *testing.B) {
	src, _ := NewRenewal(5000, Exponential{Lambda: 1e-9}, rng.New(1))
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}
