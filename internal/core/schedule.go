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
// The algorithm takes O(p·log n) heap operations plus O(p) model
// evaluations: line 9 stops at the first improving cell
// (MinEval.DropsBelow), so each granted pair reads about one new cell.
//
// The single implementation lives in (*Simulator).initialSchedule. This
// wrapper, for callers that only want the schedule (packs, examples,
// tests), resets a fresh simulator with no redistribution and no faults
// and returns a copy of the σ₀ that Reset stored on the table. Unless
// Instance.Compiled is set, that compiles the instance's table: O(n)
// per-task records, with failure cells filled as Algorithm 1 reads them.
func InitialSchedule(in Instance) ([]int, error) {
	s := NewSimulator()
	if err := s.Reset(in, NoRedistribution, nil, Options{}); err != nil {
		return nil, err
	}
	return append([]int(nil), s.cm.Schedule().Sigma...), nil
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
