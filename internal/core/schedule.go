package core

// InitialSchedule is Algorithm 1 of the paper (Theorem 1): the optimal
// processor assignment when no redistribution is allowed, under failures.
// Every task starts with one buddy pair (σ(i) = 2); processors are then
// granted two at a time to the task with the largest expected completion
// time t^R_{i,σ(i)}(1), as long as its expected time can still strictly
// decrease with the processors remaining (line 9 of the pseudocode keeps
// unusable processors free for later redistributions).
//
// The returned slice σ satisfies Σσ(i) ≤ p with every σ(i) even and ≥ 2.
// Complexity: O(p·log n) heap operations plus O(p) model evaluations in
// total: line 9 stops at the first improving cell (MinEval.DropsBelow),
// so each granted pair reads about one new cell.
//
// The single implementation of the algorithm lives in
// (*Simulator).initialSchedule — this wrapper exists for callers that
// only want the schedule (packs, examples, tests) and returns a slice
// they own.
func InitialSchedule(in Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// No bindCompiled here, deliberately: a one-shot schedule query (the
	// packs DP calls this once per candidate subset) touches far fewer
	// (task, j) pairs than a full table build, so initialSchedule runs
	// its evaluators on the direct path (e.cm stays nil).
	s := NewSimulator()
	s.in = in
	s.resize(len(in.Tasks))
	s.initialSchedule()
	return append([]int(nil), s.d.sigmaNew[:len(in.Tasks)]...), nil
}

// ScheduleMakespan returns the expected completion time of a schedule σ
// with no redistribution: max_i t^R_{i,σ(i)}(1).
func ScheduleMakespan(in Instance, sigma []int) float64 {
	worst := 0.0
	for i, t := range in.Tasks {
		v := in.Res.ExpectedTime(t, sigma[i], 1)
		if v > worst {
			worst = v
		}
	}
	return worst
}
