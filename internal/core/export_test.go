package core

import (
	"cosched/internal/failure"
	"cosched/internal/model"
)

// RunWithEndRule runs in with end as the end-of-task rule and no failure
// or arrival rule. It is a test seam, not a policy: the Decision
// safeguard tests use it to drive rules that deliberately misbehave.
func RunWithEndRule(in Instance, end func(*Decision), src failure.Source, opt Options) (Result, error) {
	e := NewSimulator()
	if err := e.Reset(in, NoRedistribution, src, opt); err != nil {
		return Result{}, err
	}
	e.end = end
	return e.Run()
}

// ColdInitialSchedule runs Algorithm 1 the way a cache miss does — a
// fresh simulator, so no schedule memo — over c, or over the direct path
// when c is nil (the InitialSchedule wrapper's setting). It returns σ₀,
// each task's expected time t^R_{i,σ₀(i)}(1) under it, and the raw Eq. (4)
// cells the evaluators paid for (the sum of their cached prefix lengths).
func ColdInitialSchedule(in Instance, c *model.Compiled) (sigma []int, tU []float64, cells int, err error) {
	if err := in.Validate(); err != nil {
		return nil, nil, 0, err
	}
	e := NewSimulator()
	e.in = in
	e.cm = c
	e.resize(len(in.Tasks))
	if err := e.initialSchedule(); err != nil {
		return nil, nil, 0, err
	}
	tU = make([]float64, len(in.Tasks))
	for i := range in.Tasks {
		cells += e.d.evals[i].Cached()
		tU[i] = e.d.evals[i].At(e.sigma0[i])
	}
	return append([]int(nil), e.sigma0...), tU, cells, nil
}
