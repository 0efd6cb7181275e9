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
// It uses only the exported Decision API (Eligible, TU, Now, Sigma,
// InitialSigma, Candidate, SetSigma, Avail).
func endProportional(d *Decision) {
	elig := d.Eligible()
	if d.Avail() < 2 || len(elig) == 0 {
		return
	}
	for d.Avail() >= 2 {
		best := -1
		var bestQ float64
		for _, i := range elig {
			// Remaining expected work under the frozen schedule; tasks
			// at (or past) their expected finish carry no weight but may
			// still improve, so keep them drawable with a zero quotient.
			w := d.TU(i) - d.Now()
			if w < 0 {
				w = 0
			}
			granted := d.Sigma(i) - d.InitialSigma(i)
			q := w / float64(granted+1)
			if d.Candidate(i, d.Sigma(i)+2) >= d.TU(i) {
				continue // one more pair would not strictly help task i
			}
			if best < 0 || q > bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return // nobody can use another pair
		}
		d.SetSigma(best, d.Sigma(best)+2)
	}
}
