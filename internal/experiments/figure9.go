package experiments

import (
	"fmt"
	"slices"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// Figure9Result carries the two panels of the paper's Figure 9: the
// predicted makespan after each handled failure (9a) and the standard
// deviation of the per-task processor counts (9b), for the three
// policies of the paper, on one single execution.
type Figure9Result struct {
	Makespan *stats.Table
	StdDev   *stats.Table
}

// Figure9 runs the single-execution behavioural study: n=100, p=1000,
// per-processor MTBF 50 years, one fault sequence shared by the three
// policies. Histories are resampled (step-function carry-forward) onto
// the union of fault dates so the curves share an x axis.
func Figure9(pr Params) (Figure9Result, error) {
	pr = pr.norm()
	spec := workload.Default()
	spec.MTBFYears = 50
	spec = shrinkSpec(spec, pr.Shrink)

	tasks, err := spec.Generate(rng.New(pr.Seed))
	if err != nil {
		return Figure9Result{}, err
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}

	histories := make([][]core.Snapshot, len(figure9Policies))
	for pi, pol := range figure9Policies {
		src, err := failure.NewRenewal(spec.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(pr.Seed+1))
		if err != nil {
			return Figure9Result{}, err
		}
		res, err := core.Run(in, pol.Policy, src, core.Options{RecordHistory: true})
		if err != nil {
			return Figure9Result{}, fmt.Errorf("experiments: figure 9 policy %s: %w", pol.Name, err)
		}
		histories[pi] = res.History
	}

	// Union of fault dates across policies.
	var union []float64
	for _, h := range histories {
		for _, snap := range h {
			union = append(union, snap.Time)
		}
	}
	if len(union) == 0 {
		return Figure9Result{}, fmt.Errorf("experiments: figure 9 run saw no failures; raise the failure rate")
	}
	slices.Sort(union)
	union = slices.Compact(union)

	mk := &stats.Table{
		Title:  "Makespan at each failure handled (paper Figure 9a)",
		XLabel: "date of faults (s)", YLabel: "predicted makespan (s)", X: union,
	}
	sd := &stats.Table{
		Title:  "Allocation stddev at each failure handled (paper Figure 9b)",
		XLabel: "date of faults (s)", YLabel: "stddev of #processors", X: union,
	}
	for pi, pol := range figure9Policies {
		mkY := resample(histories[pi], union, func(s core.Snapshot) float64 { return s.PredictedMakespan })
		sdY := resample(histories[pi], union, func(s core.Snapshot) float64 { return s.AllocStdDev })
		if err := mk.AddSeries(pol.Name, mkY); err != nil {
			return Figure9Result{}, err
		}
		if err := sd.AddSeries(pol.Name, sdY); err != nil {
			return Figure9Result{}, err
		}
	}
	return Figure9Result{Makespan: mk, StdDev: sd}, nil
}

// figure9Policies are Figure 9's three policies with their display names.
var figure9Policies = []struct {
	Name   string
	Policy core.Policy
}{
	{SeriesFig9NoRC, core.NoRedistribution},
	{SeriesFig9IG, core.IGEndLocal},
	{SeriesFig9STF, core.STFEndLocal},
}

// resample evaluates a policy's history as a right-continuous step
// function on the grid: before the first snapshot the first value is
// carried backward, after the last the last value holds.
func resample(hist []core.Snapshot, grid []float64, f func(core.Snapshot) float64) []float64 {
	out := make([]float64, len(grid))
	if len(hist) == 0 {
		return out
	}
	k := 0
	for gi, x := range grid {
		for k+1 < len(hist) && hist[k+1].Time <= x {
			k++
		}
		if hist[k].Time > x {
			out[gi] = f(hist[0])
		} else {
			out[gi] = f(hist[k])
		}
	}
	return out
}
