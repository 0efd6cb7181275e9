package model

import (
	"math"
	"testing"
	"testing/quick"

	"cosched/internal/rng"
)

func silentRes(mtbfYears, silentMTBFYears float64) Resilience {
	r := Resilience{Lambda: 1 / (mtbfYears * yearSeconds), Downtime: 60}
	if silentMTBFYears > 0 {
		r.SilentLambda = 1 / (silentMTBFYears * yearSeconds)
	}
	return r
}

// TestSilentDisabledReducesToEq4: with SilentLambda = 0 and Verify = 0
// the extended formula is bit-identical to the paper's Eq. (4).
func TestSilentDisabledReducesToEq4(t *testing.T) {
	src := rng.New(404)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		m := src.Uniform(1e4, 2.5e6)
		task := Task{Data: m, Ckpt: m, Profile: Synthetic{M: m, SeqFraction: 0.08}}
		r := silentRes(src.Uniform(1, 150), 0)
		j := 2 * (1 + src.Intn(64))
		alpha := src.Uniform(0.01, 1)
		lj := r.Rate(j)
		tau := r.Period(task, j)
		n := float64(r.FFCheckpoints(task, j, alpha))
		want := math.Exp(lj*r.Recovery(task, j)) * (1/lj + r.Downtime) *
			(n*math.Expm1(lj*tau) + math.Expm1(lj*r.TauLast(task, j, alpha)))
		return r.ExpectedTimeRaw(task, j, alpha) == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSilentSegmentValues(t *testing.T) {
	task := Task{Data: 1000, Ckpt: 100, Verify: 50, Profile: Table{Times: []float64{100, 50}}}
	r := Resilience{Lambda: 1e-6, Downtime: 0, SilentLambda: 1e-3}
	// w = 200 on j = 2: retry factor e^{1e-3·2·200} = e^{0.4}; V = 25.
	got := r.silentSegment(task, 2, 200)
	want := math.Exp(0.4) * (200 + 25)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("silent segment %v, want %v", got, want)
	}
	if r.silentSegment(task, 2, 0) != 0 {
		t.Fatal("empty segment must cost nothing")
	}
	// Verification without silent errors: plain additive overhead.
	r2 := Resilience{Lambda: 1e-6}
	if got := r2.silentSegment(task, 2, 200); got != 225 {
		t.Fatalf("verify-only segment %v, want 225", got)
	}
}

func TestVerifyCostScaling(t *testing.T) {
	task := Task{Verify: 80}
	r := Resilience{Lambda: 1e-6}
	if r.VerifyCost(task, 4) != 20 {
		t.Fatalf("V_{i,4} = %v, want 20", r.VerifyCost(task, 4))
	}
}

// TestSilentErrorsInflateExpectedTime: enabling the extension strictly
// increases the expected completion time, monotonically in the rate.
func TestSilentErrorsInflateExpectedTime(t *testing.T) {
	m := 2e6
	task := Task{Data: m, Ckpt: m, Verify: m / 100, Profile: Synthetic{M: m, SeqFraction: 0.08}}
	base := silentRes(100, 0)
	prev := base.ExpectedTimeRaw(task, 20, 1)
	for _, silentYears := range []float64{50, 10, 2} {
		r := silentRes(100, silentYears)
		cur := r.ExpectedTimeRaw(task, 20, 1)
		if cur <= prev {
			t.Fatalf("silent MTBF %v years did not inflate: %v ≤ %v", silentYears, cur, prev)
		}
		prev = cur
	}
}

// TestSilentMonotonizationStillHolds: Eq. (6) applies unchanged to the
// extended model.
func TestSilentMonotonizationStillHolds(t *testing.T) {
	m := 2e6
	task := Task{Data: m, Ckpt: m, Verify: m / 50, Profile: Synthetic{M: m, SeqFraction: 0.08}}
	r := silentRes(50, 5)
	e := compiledEval(t, r, task, 128, 1)
	prev := e.At(2)
	for j := 4; j <= 128; j += 2 {
		cur := e.At(j)
		if cur > prev*(1+1e-12) {
			t.Fatalf("monotonized silent t^R increased at j=%d", j)
		}
		prev = cur
	}
}

func TestSilentValidate(t *testing.T) {
	good := silentRes(100, 20)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Resilience{
		{Lambda: 1e-9, SilentLambda: -1},
		{Lambda: 1e-9, SilentLambda: math.NaN()},
		{Lambda: 0, SilentLambda: 1e-9}, // no detection points
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Fatalf("bad silent config %d accepted", i)
		}
	}
	if !good.SilentActive() || (Resilience{Lambda: 1}).SilentActive() {
		t.Fatal("SilentActive wrong")
	}
}

// TestSilentFFTimeUnchanged: the deterministic fault-free time excludes
// silent retries by design (errors are random, fault-free is not).
func TestSilentFFTimeUnchanged(t *testing.T) {
	m := 2e6
	task := Task{Data: m, Ckpt: m, Verify: m / 100, Profile: Synthetic{M: m, SeqFraction: 0.08}}
	with := silentRes(100, 10)
	without := silentRes(100, 0)
	if with.FFTime(task, 10, 1) != without.FFTime(task, 10, 1) {
		t.Fatal("FFTime must not include silent retries")
	}
}
