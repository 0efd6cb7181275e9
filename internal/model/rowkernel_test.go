package model

import (
	"math"
	"testing"
)

// TestRowKernelsMatchScalar is the batched-evaluation property: RawRow
// and MinOverRow must be bit-identical to per-candidate RawAt calls
// across both profile families, both period rules, the silent-error
// extension on and off, and the fault-free limit, over the whole covered
// row.
func TestRowKernelsMatchScalar(t *testing.T) {
	const p = 48
	for _, tc := range compiledCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]float64, p/2)
			for i := range tc.tasks {
				for _, alpha := range compiledAlphas {
					c.RawRow(i, alpha, row)
					for k := range row {
						want := c.RawAt(i, 2*(k+1), alpha)
						if math.Float64bits(row[k]) != math.Float64bits(want) {
							t.Fatalf("task %d α %v j %d: RawRow %x != RawAt %x",
								i, alpha, 2*(k+1), math.Float64bits(row[k]), math.Float64bits(want))
						}
					}
					// Scalar reference reduction from the first cell:
					// strict < keeps the smallest allocation on ties, and
					// a NaN first cell (a negative checkpoint cost) stays.
					wantMin, wantArg := c.RawAt(i, 2, alpha), 2
					for j := 4; j <= p; j += 2 {
						if v := c.RawAt(i, j, alpha); v < wantMin {
							wantMin, wantArg = v, j
						}
					}
					gotMin, gotArg := c.MinOverRow(i, alpha, row)
					if math.Float64bits(gotMin) != math.Float64bits(wantMin) || gotArg != wantArg {
						t.Fatalf("task %d α %v: MinOverRow (%v, %d) != scalar (%v, %d)",
							i, alpha, gotMin, gotArg, wantMin, wantArg)
					}
				}
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

// TestRecompileFaultFreeMatchesCompile pins the fault-free rebuild on a
// reused TableArena: rebuilding the fault-free variant over a table that
// held a fault-enabled instance — failure rows filled, and once over a pack
// one task longer — must serve exactly the values of a from-scratch
// Compile, and rebuilding the fault-enabled instance again must refill
// its rows from scratch.
func TestRecompileFaultFreeMatchesCompile(t *testing.T) {
	const p = 32
	for _, tc := range compiledCases() {
		if tc.res.Lambda == 0 {
			continue
		}
		ffRes := tc.res
		ffRes.Lambda = 0
		ffRes.SilentLambda = 0
		want, err := Compile(tc.tasks, ffRes, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		wantFault, err := Compile(tc.tasks, tc.res, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		longer := append(tc.tasks[:len(tc.tasks):len(tc.tasks)], tc.tasks[0])
		for _, pack := range [][]Task{tc.tasks, longer} {
			var a TableArena
			c, err := a.Build(pack, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			fillAll(c)
			if _, err := a.Build(tc.tasks, ffRes, CostModel{}, p); err != nil {
				t.Fatal(err)
			}
			if filledCells(c) != 0 {
				t.Fatalf("%s: fault-free rebuild kept failure cells", tc.name)
			}
			sameAnswers(t, tc.name+"/fault-free", want, c, p)
			if _, err := a.Build(tc.tasks, tc.res, CostModel{}, p); err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, tc.name+"/refault", wantFault, c, p)
		}
	}
}
