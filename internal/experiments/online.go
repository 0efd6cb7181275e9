package experiments

import (
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// onlineScenario is the online-regime demonstration study (not a paper
// figure — the paper's setting is offline): the default pack starts at
// t = 0 and a Poisson stream of extra jobs arrives on top of it, sized
// to add roughly 50% offered load over the base pack's fair-share
// horizon. MTBF is swept so the interplay between failures and arrivals
// is visible; policies carry the ArrivalSteal rule (the arrival-time
// variant of Algorithm 4). FigureScenario serves it as figure "online";
// pr is already normalized.
func onlineScenario(pr Params) scenario.Spec {
	w := shrinkSpec(workload.Default(), pr.Shrink)
	w.MTBFYears = 0 // each grid point pins its own MTBF below

	// Fair-share service time of an average job: every job holds ~P/n
	// processors, so t ≈ m·(f + (1−f)·n/P). The Poisson rate is chosen
	// so the arriving work adds ~λ·t·(P/n)/P = 50% offered load.
	mMean := (w.MInf + w.MSup) / 2
	tFair := mMean * (w.SeqFraction + (1-w.SeqFraction)*float64(w.N)/float64(w.P))
	count := w.N / 2
	if count < 4 {
		count = 4
	}
	rate := 0.5 * float64(w.N) / tFair

	mtbf := []float64{5, 25, 100}
	if pr.Shrink > 0 && pr.Shrink < 1 {
		for i := range mtbf {
			mtbf[i] *= pr.Shrink
		}
	}
	return scenario.Spec{
		Name:       "online-poisson",
		Title:      "Online co-scheduling under Poisson arrivals",
		XLabel:     "MTBF (years)",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "stf-el"},
		Base:       "norc",
		Replicates: pr.Reps,
		Seed:       pr.Seed,
		Axes: []scenario.Axis{
			{Param: scenario.ParamMTBF, Values: mtbf},
		},
		Arrivals: &workload.ArrivalSpec{
			Process: workload.ArrivalPoisson,
			Count:   count,
			Rate:    rate,
			Rule:    "steal",
		},
	}
}
