package core

import (
	"math"
	"testing"
	"testing/quick"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
)

// TestRandomInstancesAllPoliciesProperty fuzzes the engine: random packs,
// random failure rates, every policy combination, paranoia checks after
// every event, and cross-policy sanity relations.
func TestRandomInstancesAllPoliciesProperty(t *testing.T) {
	src := rng.New(20160816) // ICPP'16 conference date
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		n := 2 + src.Intn(8)
		p := 2*n + 2*src.Intn(3*n)
		mtbfYears := src.Uniform(0.5, 40)
		tasks := make([]model.Task, n)
		for i := range tasks {
			m := src.Uniform(1e4, 2.5e6)
			tasks[i] = model.Task{
				ID: i, Data: m, Ckpt: m * src.Uniform(0.001, 1),
				Profile: model.Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)},
			}
		}
		in := Instance{Tasks: tasks, P: p,
			Res: model.Resilience{Lambda: 1 / (mtbfYears * yearSeconds), Downtime: src.Uniform(0, 600)}}

		for _, pol := range []Policy{NoRedistribution, IGEndGreedy, IGEndLocal, STFEndGreedy, STFEndLocal} {
			fsrc, err := failure.NewRenewal(p, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed^0xabcd))
			if err != nil {
				return false
			}
			res, err := Run(in, pol, fsrc, Options{Paranoia: true})
			if err != nil {
				t.Logf("seed %d policy %v: %v", seed, pol, err)
				return false
			}
			if math.IsNaN(res.Makespan) || res.Makespan <= 0 {
				return false
			}
			for i, f := range res.Finish {
				if f <= 0 || f > res.Makespan {
					t.Logf("seed %d policy %v task %d finish %v", seed, pol, i, f)
					return false
				}
			}
			// Redistribution accounting is self-consistent.
			if res.Counters.Redistributions == 0 && res.Counters.RedistTime != 0 {
				return false
			}
			if res.Counters.RedistTime < 0 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicSemanticsProperty: under the physical semantics, a
// run with faults is never faster than the same run without faults.
func TestDeterministicSemanticsProperty(t *testing.T) {
	src := rng.New(77)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		n := 2 + src.Intn(6)
		p := 2*n + 2*src.Intn(2*n)
		tasks := make([]model.Task, n)
		for i := range tasks {
			m := src.Uniform(1e5, 2.5e6)
			tasks[i] = model.Task{ID: i, Data: m, Ckpt: m,
				Profile: model.Synthetic{M: m, SeqFraction: 0.08}}
		}
		res := model.Resilience{Lambda: 1 / (src.Uniform(1, 10) * yearSeconds), Downtime: 60}
		in := Instance{Tasks: tasks, P: p, Res: res}
		opt := Options{Semantics: SemanticsDeterministic, Paranoia: true}

		clean, err := Run(in, NoRedistribution, nil, opt)
		if err != nil {
			return false
		}
		fsrc, err := failure.NewRenewal(p, failure.Exponential{Lambda: res.Lambda}, rng.New(seed))
		if err != nil {
			return false
		}
		faulty, err := Run(in, NoRedistribution, fsrc, opt)
		if err != nil {
			return false
		}
		return faulty.Makespan >= clean.Makespan*(1-1e-9)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInitialScheduleInvariantsProperty: Algorithm 1 always emits even
// allocations summing to at most p, and its makespan is never improved
// by moving one pair between any two tasks (local optimality).
func TestInitialScheduleInvariantsProperty(t *testing.T) {
	src := rng.New(13)
	err := quick.Check(func(seed uint64) bool {
		src.Reseed(seed)
		n := 2 + src.Intn(5)
		p := 2*n + 2*src.Intn(10)
		in := Instance{Tasks: synthPack(n, src), P: p, Res: paperRes(src.Uniform(1, 100))}
		sigma, err := InitialSchedule(in)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range sigma {
			if s < 2 || s%2 != 0 {
				return false
			}
			total += s
		}
		if total > p {
			return false
		}
		base := ScheduleMakespan(in, sigma)
		// Moving one pair from task a to task b never helps.
		for a := 0; a < n; a++ {
			if sigma[a] < 4 {
				continue
			}
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				trial := append([]int(nil), sigma...)
				trial[a] -= 2
				trial[b] += 2
				if ScheduleMakespan(in, trial) < base*(1-1e-9) {
					t.Logf("seed %d: moving a pair %d→%d improves %v", seed, a, b, sigma)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// prunedCorpusInstance draws one instance of the pruned-scan corpus:
// Synthetic, monotone-Table and non-monotone-Table profiles; verification
// and silent-error segments; Young or Daly periods; the fault-free limit;
// and the paper's, a latency-bound or a bandwidth-bound cost model.
func prunedCorpusInstance(src *rng.Source) Instance {
	n := 2 + src.Intn(8)
	p := 2*n + 2*src.Intn(3*n)
	tasks := make([]model.Task, n)
	for i := range tasks {
		m := src.Uniform(1e4, 2.5e6)
		tk := model.Task{ID: i, Data: m, Ckpt: m * src.Uniform(0.001, 1)}
		switch src.Intn(3) {
		case 0:
			tk.Profile = model.Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)}
		case 1: // monotone table
			times := make([]float64, 1+src.Intn(p))
			v := 2 * m * math.Log2(m)
			for j := range times {
				times[j] = v
				v *= src.Uniform(0.6, 1)
			}
			tk.Profile = model.Table{Times: times}
		default: // non-monotone table: speedup with noise
			times := make([]float64, p)
			for j := range times {
				times[j] = 2 * m * math.Log2(m) / float64(j+1) * src.Uniform(0.7, 1.3)
			}
			tk.Profile = model.Table{Times: times}
		}
		tasks[i] = tk
	}
	res := model.Resilience{Rule: model.PeriodRule(src.Intn(2)), Downtime: src.Uniform(0, 600)}
	switch src.Intn(4) {
	case 0: // fault-free
	case 1:
		res.Lambda = 1 / (src.Uniform(0.5, 40) * yearSeconds)
	case 2: // verification only
		res.Lambda = 1 / (src.Uniform(0.5, 40) * yearSeconds)
		for i := range tasks {
			tasks[i].Verify = tasks[i].Data * src.Uniform(0, 0.05)
		}
	default: // silent errors
		res.Lambda = 1 / (src.Uniform(0.5, 40) * yearSeconds)
		res.SilentLambda = 1 / (src.Uniform(0.5, 40) * yearSeconds)
		for i := range tasks {
			tasks[i].Verify = tasks[i].Data * src.Uniform(0, 0.05)
		}
	}
	var rc model.CostModel
	switch src.Intn(3) {
	case 1:
		rc.Latency = src.Uniform(1, 600)
	case 2:
		rc.InvBandwidth = src.Uniform(0.01, 4)
	}
	return Instance{Tasks: tasks, P: p, Res: res, RC: rc}
}

// TestPrunedScansParanoiaProperty runs every redistributing policy over
// the pruned-scan corpus with Paranoia on, so every scan a heuristic
// skips is re-run in full and must hold no improving candidate. The same
// runs without Paranoia must make identical decisions and counts, and
// the corpus must actually prune.
func TestPrunedScansParanoiaProperty(t *testing.T) {
	src := rng.New(1214)
	pruned, onlinePruned := 0, 0
	for trial := 0; trial < 150; trial++ {
		in := prunedCorpusInstance(src)
		seed := src.Uint64()
		for _, pol := range []Policy{IGEndGreedy, IGEndLocal, STFEndGreedy, STFEndLocal} {
			run := func(paranoia bool) Result {
				var fsrc failure.Source
				if in.Res.Lambda > 0 {
					var err error
					fsrc, err = failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
				}
				res, err := Run(in, pol, fsrc, Options{Paranoia: paranoia})
				if err != nil {
					t.Fatalf("trial %d %v (res %+v, rc %+v): %v", trial, pol, in.Res, in.RC, err)
				}
				return res
			}
			checked, plain := run(true), run(false)
			if checked.Counters != plain.Counters || math.Float64bits(checked.Makespan) != math.Float64bits(plain.Makespan) {
				t.Fatalf("trial %d %v: Paranoia changed the run: %+v vs %+v", trial, pol, checked.Counters, plain.Counters)
			}
			pruned += checked.Counters.PrunedScans
		}
	}
	// Online arrivals exercise appended table rows.
	for _, rule := range []ArrivalRule{ArrivalGreedy, ArrivalSteal} {
		in, spec := onlineInstance(t, 4, 40, 5, []float64{1000, 5000, 5000, 40000, 250000})
		pol := IGEndLocal
		pol.OnArrival = rule
		fsrc, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(in, pol, fsrc, Options{Paranoia: true})
		if err != nil {
			t.Fatalf("online %v: %v", rule, err)
		}
		onlinePruned += res.Counters.PrunedScans
	}
	if pruned == 0 || onlinePruned == 0 {
		t.Fatalf("offline corpus pruned %d scans, online %d: the property is vacuous", pruned, onlinePruned)
	}
	t.Logf("%d offline and %d online pruned scans re-verified", pruned, onlinePruned)
}
