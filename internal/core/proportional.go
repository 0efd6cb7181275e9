package core

// endProportional is the EndProportional rule: a proportional-share
// end-of-task rule that is NOT part of the paper. When a task
// terminates, the freed processors are apportioned among the eligible
// tasks proportionally to their remaining expected work (tU − t),
// largest-remaining-first, instead of all-to-the-longest (EndLocal) or
// by full recomputation (EndGreedy).
//
// Pairs are dealt one at a time by a Sainte-Laguë-style highest-quotient
// draw — weight_i / (2·granted_i + 1) — and a task only receives a pair
// when that pair strictly improves its candidate finish time, so the
// rule never wastes processors on saturated tasks. Ties break on the
// smaller task index; the rule is deterministic and terminates because
// every accepted round consumes one pair.
//
// It commits the winning pair through setEvaluated with the candidate
// time the draw computed, so the grant does not evaluate it again.
func endProportional(d *Decision) {
	if d.avail < 2 || len(d.elig) == 0 {
		return
	}
	for d.avail >= 2 {
		best := -1
		var bestQ, bestTE float64
		for _, i := range d.elig {
			// Remaining expected work under the frozen schedule; tasks
			// at (or past) their expected finish carry no weight but may
			// still improve, so keep them drawable with a zero quotient.
			w := d.tUc[i] - d.t
			if w < 0 {
				w = 0
			}
			granted := d.sigmaNew[i] - d.sigmaInit[i]
			q := w / float64(granted+1)
			tE := d.candidate(i, d.sigmaNew[i]+2)
			if tE >= d.tUc[i] {
				continue // one more pair would not strictly help task i
			}
			if best < 0 || q > bestQ {
				best, bestQ, bestTE = i, q, tE
			}
		}
		if best < 0 {
			return // nobody can use another pair
		}
		d.setEvaluated(best, d.sigmaNew[best]+2, bestTE)
	}
}
