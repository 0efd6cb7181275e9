package model_test

import (
	"testing"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

// TestColdUnitLaziness guards the point of on-demand failure rows: a
// cold norc unit at the hetero-sweep scale (n = 50, P = 600, mild
// failures) fills at most twice the cells it reads, and under 5% of the
// n·P/2 a full compile would compute. Reads are measured by re-running
// the unit on a table whose fills are exact.
func TestColdUnitLaziness(t *testing.T) {
	spec := workload.Heterogeneous()
	spec.N, spec.P, spec.MTBFYears = 50, 600, 100
	defer model.SetFillGrowth(model.SetFillGrowth(2))
	for seed := uint64(1); seed <= 4; seed++ {
		tasks, err := spec.Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res := spec.Resilience()
		filled := func(growth int) int {
			model.SetFillGrowth(growth)
			c, err := model.Compile(tasks, res, model.CostModel{}, spec.P)
			if err != nil {
				t.Fatal(err)
			}
			src, err := failure.NewRenewal(spec.P, failure.Exponential{Lambda: res.Lambda}, rng.New(seed+50))
			if err != nil {
				t.Fatal(err)
			}
			in := core.Instance{Tasks: tasks, P: spec.P, Res: res, Compiled: c}
			if _, err := core.Run(in, core.NoRedistribution, src, core.Options{}); err != nil {
				t.Fatal(err)
			}
			return model.FilledCells(c)
		}
		read, fills := filled(1), filled(2)
		full := spec.N * spec.P / 2
		t.Logf("seed %d: read %d, filled %d of %d cells (%.1f%%)", seed, read, fills, full, 100*float64(fills)/float64(full))
		if read == 0 || fills > 2*read || 20*fills >= full {
			t.Fatalf("seed %d: filled %d cells for %d read, full table %d", seed, fills, read, full)
		}
	}
}
