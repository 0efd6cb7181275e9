package model

import (
	"math"
	"testing"
)

// TestRowKernelsMatchScalar is the batched-evaluation property: RawRow
// and MinOverRow must be bit-identical to per-candidate RawAt calls
// across both profile families, both period rules, the silent-error
// extension on and off, the fault-free limit, and appended (online)
// task rows — including destinations longer than the compiled stride,
// which exercise the uncovered-allocation fallback.
func TestRowKernelsMatchScalar(t *testing.T) {
	const p = 48
	for _, tc := range compiledCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			// An appended arrival re-checks the kernels over a row that
			// lives in the extra arena, not the base tables.
			extra := Task{Data: 4e5, Ckpt: 3e5, Profile: Synthetic{M: 9e5, SeqFraction: 0.08}}
			ai, err := c.AppendTask(extra)
			if err != nil {
				t.Fatal(err)
			}
			n := c.NumTasks()
			row := make([]float64, p/2+4) // past the stride: fallback cells
			for i := 0; i < n; i++ {
				for _, alpha := range compiledAlphas {
					c.RawRow(i, alpha, row)
					for k := range row {
						want := c.RawAt(i, 2*(k+1), alpha)
						if math.Float64bits(row[k]) != math.Float64bits(want) {
							t.Fatalf("task %d α %v j %d: RawRow %x != RawAt %x",
								i, alpha, 2*(k+1), math.Float64bits(row[k]), math.Float64bits(want))
						}
					}
					// Scalar reference reduction: strict < keeps the
					// smallest allocation on ties.
					wantMin, wantArg := math.Inf(1), 0
					for j := 2; j <= p; j += 2 {
						if v := c.RawAt(i, j, alpha); v < wantMin {
							wantMin, wantArg = v, j
						}
					}
					gotMin, gotArg := c.MinOverRow(i, alpha, row[:p/2])
					if math.Float64bits(gotMin) != math.Float64bits(wantMin) || gotArg != wantArg {
						t.Fatalf("task %d α %v: MinOverRow (%v, %d) != scalar (%v, %d)",
							i, alpha, gotMin, gotArg, wantMin, wantArg)
					}
				}
			}
			if ai != n-1 {
				t.Fatalf("appended task index %d, want %d", ai, n-1)
			}
		})
	}
}

// TestRedistRowMatchesScalar pins the frozen-source redistribution cost
// row against per-pair CostModel.Cost calls, for both the default and the
// latency+bandwidth network model. The hoisted m_i/j division is the
// same first division of the scalar cost chain, so the row must be
// bit-identical, not approximately equal.
func TestRedistRowMatchesScalar(t *testing.T) {
	tc := compiledCases()[0]
	for _, rc := range []CostModel{{}, {Latency: 30, InvBandwidth: 0.5}} {
		c, err := Compile(tc.tasks, tc.res, rc, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.tasks {
			for j := 2; j <= 32; j += 2 {
				row := c.RedistRowFrom(i, j)
				for k := 2; k <= 40; k += 2 {
					got, want := row.Cost(k), rc.Cost(tc.tasks[i].Data, j, k)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("rc %+v task %d %d→%d: row %v != scalar %v", rc, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestPostRedistCkptRowMatchesScalar pins the surcharge row: cell j/2−1
// equals PostRedistCkpt(i, j) for every covered even j, and fault-free
// instances return nil (the surcharge is identically zero).
func TestPostRedistCkptRowMatchesScalar(t *testing.T) {
	for _, tc := range compiledCases() {
		c, err := Compile(tc.tasks, tc.res, CostModel{}, 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.tasks {
			row := c.PostRedistCkptRow(i)
			if tc.res.Lambda == 0 {
				if row != nil {
					t.Fatalf("%s: fault-free surcharge row not nil", tc.name)
				}
				continue
			}
			for j := 2; j <= 2*len(row); j += 2 {
				got, want := row[j/2-1], c.PostRedistCkpt(i, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s task %d j %d: row %v != PostRedistCkpt %v", tc.name, i, j, got, want)
				}
			}
		}
	}
}

// TestRecompileFaultFreeMatchesCompile pins the column-copying fast
// path: rebuilding the fault-free variant of a compiled base must serve
// exactly the values of a from-scratch Compile over the same instance,
// and a base that does not match (appended rows) must fall back to the
// full rebuild with the same result.
func TestRecompileFaultFreeMatchesCompile(t *testing.T) {
	const p = 32
	for _, tc := range compiledCases() {
		if tc.res.Lambda == 0 {
			continue
		}
		ffRes := tc.res
		ffRes.Lambda = 0
		ffRes.SilentLambda = 0
		base, err := Compile(tc.tasks, tc.res, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(tc.tasks, ffRes, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		var got Compiled
		if err := got.RecompileFaultFree(base, tc.tasks, ffRes, CostModel{}, p); err != nil {
			t.Fatal(err)
		}
		compareCompiled(t, tc.name+"/fast", want, &got, len(tc.tasks), p)

		// A base with an appended row must take the full-recompile
		// fallback and still match.
		if _, err := base.AppendTask(tc.tasks[0]); err != nil {
			t.Fatal(err)
		}
		var fb Compiled
		if err := fb.RecompileFaultFree(base, tc.tasks, ffRes, CostModel{}, p); err != nil {
			t.Fatal(err)
		}
		compareCompiled(t, tc.name+"/fallback", want, &fb, len(tc.tasks), p)
	}
}

// compareCompiled asserts bit-identical accessor values between two
// compiled models over every (task, allocation, α).
func compareCompiled(t *testing.T, name string, want, got *Compiled, n, p int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 2; j <= p; j += 2 {
			pairs := [][2]float64{
				{want.Time(i, j), got.Time(i, j)},
				{want.CkptCost(i, j), got.CkptCost(i, j)},
				{want.Recovery(i, j), got.Recovery(i, j)},
				{want.Period(i, j), got.Period(i, j)},
			}
			for pi, pr := range pairs {
				if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
					t.Fatalf("%s task %d j %d accessor %d: %v != %v", name, i, j, pi, pr[1], pr[0])
				}
			}
			for _, alpha := range compiledAlphas {
				w, g := want.RawAt(i, j, alpha), got.RawAt(i, j, alpha)
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("%s task %d j %d α %v: RawAt %v != %v", name, i, j, alpha, g, w)
				}
				wf, gf := want.FFTime(i, j, alpha), got.FFTime(i, j, alpha)
				if math.Float64bits(wf) != math.Float64bits(gf) {
					t.Fatalf("%s task %d j %d α %v: FFTime %v != %v", name, i, j, alpha, gf, wf)
				}
				if w, g := want.RawFloor(i, j, alpha), got.RawFloor(i, j, alpha); w != g {
					t.Fatalf("%s task %d j %d α %v: RawFloor %v != %v", name, i, j, alpha, g, w)
				}
			}
		}
	}
}
