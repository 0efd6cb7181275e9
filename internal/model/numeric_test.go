package model

import (
	"math"
	"testing"

	"cosched/internal/rng"
)

// numericCase draws a pack and resilience setting for the row-proof
// tests: the realistic regimes of randViewCase, plus inputs that make raw
// cells overflow or turn NaN. Failure rates of one per seconds to hours
// meet huge checkpoints, or λ·C lands near the proof's limits: e^{λjR}
// and the period term overflow to +Inf, and 0·Inf appears when a task
// finishes within one period. Tables get NaN, +Inf and negative times;
// Synthetic profiles get m < 1, f > 1, or m = 0 or +Inf (NaN times); and
// tasks get negative verification costs, zero checkpoints and huge
// downtimes.
func numericCase(src *rng.Source, p int) ([]Task, Resilience) {
	tasks, res := randViewCase(src, p)
	if src.Intn(2) == 0 {
		return tasks, res
	}
	for i := range tasks {
		tk := &tasks[i]
		switch src.Intn(8) {
		case 0:
			tk.Ckpt = tk.Data * src.Uniform(1e2, 1e6)
		case 1:
			tk.Ckpt = 0
		case 2:
			tk.Verify = -tk.Data * src.Uniform(0, 0.05)
		case 3:
			tk.Profile = Synthetic{M: src.Uniform(0.2, 1), SeqFraction: 0.08}
		case 4:
			tk.Profile = Synthetic{M: tk.Data, SeqFraction: src.Uniform(1, 2)}
		case 6: // 0·(−Inf) or 0·Inf in Eq. (10): every time is NaN
			tk.Profile = Synthetic{M: []float64{0, math.Inf(1)}[src.Intn(2)]}
		case 5:
			times := make([]float64, 2+src.Intn(p))
			for j := range times {
				times[j] = src.Uniform(1e4, 1e7)
			}
			times[1+src.Intn(len(times)-1)] = []float64{math.NaN(), math.Inf(1), -1}[src.Intn(3)]
			tk.Profile = Table{Times: times}
		}
	}
	switch src.Intn(5) {
	case 0:
		res.Lambda = 1 / src.Uniform(1, 3600)
		res.SilentLambda = 0
	case 1:
		res.Lambda = 1 / src.Uniform(1, 3600)
		res.SilentLambda = res.Lambda * src.Uniform(0, 4)
	case 2: // λ·C around the direct proof's limits, Daly's C ≥ 2µ branch included
		if c := tasks[0].Ckpt; c > 0 {
			res.Lambda = src.Uniform(0.01, 300) / c
			res.SilentLambda = res.Lambda * src.Uniform(0, 4) * float64(src.Intn(2))
		}
	case 3:
		if res.Lambda > 0 {
			res.Downtime = math.MaxFloat64 / src.Uniform(1, 4)
		}
	}
	return tasks, res
}

// rowNumeric reports whether every raw cell of task t for even j ≤ maxJ
// and α in (0, 1] is proven a number: both halves of the proof.
func (r Resilience) rowNumeric(t Task, maxJ int) bool {
	return timesNumeric(t.Profile) && r.failNumeric(t, maxJ)
}

// rowHasNaN reports whether any raw Eq. (4) cell of task i for even
// j ≤ p at one of compiledAlphas is NaN, on the direct path or in c.
func rowHasNaN(res Resilience, c *Compiled, i int, p int) bool {
	for _, a := range compiledAlphas {
		for j := 2; j <= p; j += 2 {
			if math.IsNaN(res.ExpectedTimeRaw(c.tasks[i], j, a)) || math.IsNaN(c.RawAt(i, j, a)) {
				return true
			}
		}
	}
	return false
}

// TestRowProofSound checks that the row proof (Resilience.rowNumeric)
// never vouches for a row holding a NaN cell, direct or compiled, over
// realistic and extreme inputs, and that the test is not vacuous: the
// proof holds on most realistic rows, and the corpus does produce NaN
// rows.
func TestRowProofSound(t *testing.T) {
	src := rng.New(2109)
	var proofs, nanRows, rows int
	for trial := 0; trial < 300; trial++ {
		p := 2 * (2 + src.Intn(40))
		tasks, res := numericCase(src, p)
		c := mustCompile(t, tasks, res, p)
		for i, tk := range tasks {
			rows++
			bad := rowHasNaN(res, c, i, p)
			if bad {
				nanRows++
			}
			if res.rowNumeric(tk, p) {
				proofs++
				if bad {
					t.Fatalf("trial %d task %d (%+v, res %+v): the proof vouches for a NaN row", trial, i, tk, res)
				}
			}
		}
	}
	t.Logf("%d rows: %d proofs, %d NaN rows", rows, proofs, nanRows)
	if nanRows == 0 || proofs < rows/2 {
		t.Fatal("the corpus is vacuous")
	}
}

func mustCompile(t *testing.T, tasks []Task, res Resilience, p int) *Compiled {
	t.Helper()
	c, err := Compile(tasks, res, CostModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDropsBelowMatchesFullRow checks DropsBelow against the comparison it
// replaces, At(sigma) > At(pmax) with At read from the direct reference
// Resilience.ExpectedTime, for every even sigma ≤ pmax over the row-proof
// corpus, NaN rows included.
func TestDropsBelowMatchesFullRow(t *testing.T) {
	src := rng.New(2111)
	for trial := 0; trial < 150; trial++ {
		p := 2 * (2 + src.Intn(25))
		tasks, res := numericCase(src, p)
		c := mustCompile(t, tasks, res, p)
		ref := make([]float64, p/2)
		for i, tk := range tasks {
			for _, alpha := range []float64{1, 0.5, 1e-9} {
				for k := range ref {
					ref[k] = res.ExpectedTime(tk, 2*(k+1), alpha)
				}
				var compiled MinEval
				for sigma := 2; sigma <= p; sigma += 2 {
					for pmax := sigma; pmax <= p; pmax += 2 {
						compiled.ResetCompiled(c, i, alpha)
						want := ref[sigma/2-1] > ref[pmax/2-1]
						if got := compiled.DropsBelow(sigma, pmax); got != want {
							t.Fatalf("trial %d task %d α=%v: compiled DropsBelow(%d, %d) = %v, full row %v", trial, i, alpha, sigma, pmax, got, want)
						}
					}
				}
			}
		}
	}
}
