package core

import "cosched/internal/model"

// ColdInitialSchedule runs Algorithm 1 afresh over c, as the first Reset
// on a table does before it stores the result. It never reads a schedule
// stored on c. It returns σ₀,
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
	e.initialSchedule()
	tU = make([]float64, len(in.Tasks))
	for i := range in.Tasks {
		cells += e.d.evals[i].Cached()
		tU[i] = e.d.evals[i].At(e.d.sigmaNew[i])
	}
	return append([]int(nil), e.d.sigmaNew[:len(in.Tasks)]...), tU, cells, nil
}
