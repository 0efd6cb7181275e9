package model

import (
	"math"
	"testing"

	"cosched/internal/rng"
)

// TestRedistMinCostExhaustive: for every source j ≤ 128 and every range
// [lo, hi] ⊆ [1, 128], MinCost is at most Cost(k) for every k ≠ j in the
// range, and within the float slack of the true minimum — under the
// paper's cost model and random latency/bandwidth models.
func TestRedistMinCostExhaustive(t *testing.T) {
	const maxK = 128
	src := rng.New(1709)
	models := []CostModel{{}, {InvBandwidth: 0.25}, {Latency: 3}}
	for len(models) < 8 {
		models = append(models, CostModel{Latency: src.Uniform(0, 50), InvBandwidth: src.Uniform(0, 4)})
	}
	for _, rc := range models {
		m := src.Uniform(1e3, 1e7)
		for j := 1; j <= maxK; j++ {
			row := RedistRow{rc: rc, mj: m / float64(j), j: j}
			for lo := 1; lo <= maxK; lo++ {
				best := math.Inf(1)
				for hi := lo; hi <= maxK; hi++ {
					if hi != j {
						best = min(best, row.Cost(hi))
					}
					got := row.MinCost(lo, hi)
					if got > best || got < best*(1-1e-9) {
						t.Fatalf("%+v m=%v j=%d: MinCost(%d, %d) = %v, min Cost = %v", rc, m, j, lo, hi, got, best)
					}
				}
			}
		}
	}
	if got := (RedistRow{rc: CostModel{Latency: -1}, mj: 1, j: 4}).MinCost(2, 8); !math.IsInf(got, -1) {
		t.Fatalf("negative latency: MinCost = %v, want -Inf", got)
	}
}

// TestCandidateLowerBoundSound: over random tasks — Synthetic, monotone
// and non-monotone Table profiles; Young and Daly periods; λ = 0,
// verification and silent errors; α in [−0.1, 1.2] — the bound
// base + MinCost(lo, hi) + C_{i,hi} + RawFloor(hi), less its rounding
// margin, never exceeds base + Cost(k) + C_{i,k} + MinEval.At(k) for any
// even k ≠ j in [lo, hi]. On fault-free non-increasing rows RawFloor is
// exactly the Eq. (6) value at hi.
func TestCandidateLowerBoundSound(t *testing.T) {
	const year = 365.25 * 24 * 3600
	const margin = 1e-9
	src := rng.New(2016)
	for trial := 0; trial < 200; trial++ {
		p := 2 * (1 + src.Intn(64))
		tasks := make([]Task, 3)
		for i := range tasks {
			m := src.Uniform(1e4, 2.5e6)
			tk := Task{ID: i, Data: m, Ckpt: m * src.Uniform(0.001, 1)}
			switch src.Intn(3) {
			case 0:
				tk.Profile = Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)}
			case 1: // monotone table, possibly shorter than the platform
				times := make([]float64, 1+src.Intn(p))
				v := src.Uniform(1e5, 1e7)
				for j := range times {
					times[j] = v
					v *= src.Uniform(0.7, 1)
				}
				tk.Profile = Table{Times: times}
			default: // non-monotone table
				times := make([]float64, p)
				for j := range times {
					times[j] = src.Uniform(1e4, 1e7)
				}
				tk.Profile = Table{Times: times}
			}
			if src.Intn(2) == 0 {
				tk.Verify = m * src.Uniform(0, 0.05)
			}
			tasks[i] = tk
		}
		res := Resilience{Downtime: src.Uniform(0, 600), Rule: PeriodRule(src.Intn(2))}
		switch src.Intn(3) {
		case 0: // fault-free
			res.Downtime = 0
		case 1:
			res.Lambda = 1 / (src.Uniform(0.5, 40) * year)
		default:
			res.Lambda = 1 / (src.Uniform(0.5, 40) * year)
			res.SilentLambda = 1 / (src.Uniform(0.5, 40) * year)
		}
		var rc CostModel
		if src.Intn(2) == 0 {
			rc = CostModel{Latency: src.Uniform(0, 5), InvBandwidth: src.Uniform(0.1, 3)}
		}
		c, err := Compile(tasks, res, rc, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tasks {
			alpha := src.Uniform(-0.1, 1.2)
			var ev MinEval
			ev.ResetCompiled(c, i, alpha)
			j := 2 * (1 + src.Intn(p/2))
			row := c.RedistRowFrom(i, j)
			base := src.Uniform(0, 1e6)
			for lo := 2; lo <= p; lo += 2 {
				best := math.Inf(1)
				for hi := lo; hi <= p; hi += 2 {
					if hi != j {
						best = min(best, base+row.Cost(hi)+c.PostRedistCkpt(i, hi)+ev.At(hi))
					}
					lb := base + row.MinCost(lo, hi) + c.PostRedistCkpt(i, hi) + c.RawFloor(i, hi, alpha)
					if lb*(1-margin) > best {
						t.Fatalf("trial %d task %d (%+v, res %+v, α=%v, j=%d): bound %v over [%d, %d] exceeds best candidate %v",
							trial, i, tasks[i], res, alpha, j, lb, lo, hi, best)
					}
				}
			}
			if res.FaultFree() && c.trow[i].nonInc && alpha > 0 {
				for hi := 2; hi <= p; hi += 2 {
					if got, want := c.RawFloor(i, hi, alpha), ev.At(hi); got != want {
						t.Fatalf("trial %d task %d: fault-free RawFloor(%d) = %v, Eq. (6) value %v", trial, i, hi, got, want)
					}
				}
			}
		}
	}
}

// TestRawFloorRejects: tasks with negative costs get no bound.
func TestRawFloorRejects(t *testing.T) {
	res := Resilience{Lambda: 1e-8, Downtime: 60}
	tasks := []Task{
		{Data: 1e5, Ckpt: 1e5, Profile: Synthetic{M: 1e5, SeqFraction: 0.08}},
		{Data: 1e5, Ckpt: 1e5, Verify: -1, Profile: Synthetic{M: 1e5, SeqFraction: 0.08}},
		{Data: 1e5, Ckpt: -1, Profile: Synthetic{M: 1e5, SeqFraction: 0.08}},
	}
	c, err := Compile(tasks, res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RawFloor(0, 16, 1); !(got > 0) {
		t.Fatalf("valid task: RawFloor = %v, want a positive bound", got)
	}
	for _, q := range []struct{ i, hi int }{{1, 16}, {2, 16}} {
		if got := c.RawFloor(q.i, q.hi, 1); !math.IsInf(got, -1) {
			t.Fatalf("RawFloor(%d, %d) = %v, want -Inf", q.i, q.hi, got)
		}
	}
}
