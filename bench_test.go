// Benchmarks regenerating every table/figure of the paper's evaluation
// (§6) at bench scale, plus ablation benches for the design choices
// documented in DESIGN.md. Each BenchmarkFigureNN runs the corresponding
// sweep at a reduced platform scale (Shrink) and replicate count so a
// full `go test -bench=.` pass stays in the minutes range. The sweep
// benches run each figure's spec (experiments.FigureScenario) through
// campaign.Run, the same path cmd/experiments and `campaign -figure`
// take at paper scale.
//
// Reported custom metrics (all "normalized" = divided by the
// no-redistribution fault baseline, exactly as the paper's y axes):
//
//	igel_norm   — mean normalized makespan of IteratedGreedy-EndLocal
//	stfel_norm  — mean normalized makespan of ShortestTasksFirst-EndLocal
//	ffree_norm  — mean normalized fault-free-with-RC lower bound
//	rcgain      — 1 − best heuristic mean (the paper's headline "gain")
package cosched

import (
	"testing"

	"cosched/internal/campaign"
	"cosched/internal/core"
	"cosched/internal/experiments"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// benchParams keeps every figure bench at roughly laptop scale.
func benchParams() experiments.Params {
	return experiments.Params{Reps: 2, Seed: 1, Shrink: 0.10}
}

// meanOf returns the mean of a named series.
func meanOf(t *stats.Table, name string) float64 {
	s := t.SeriesByName(name)
	if s == nil {
		return 0
	}
	return stats.Mean(s.Y)
}

// benchSweep runs one figure sweep per iteration and reports the
// normalized headline metrics of its last completed table.
func benchSweep(b *testing.B, id string, faultSeries bool) {
	b.Helper()
	var last *stats.Table
	for i := 0; i < b.N; i++ {
		sp, err := experiments.FigureScenario(id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		res, err := campaign.Run(sp, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if last, err = res.Table(); err != nil {
			b.Fatal(err)
		}
	}
	if last == nil {
		return
	}
	if faultSeries {
		ig := meanOf(last, experiments.SeriesIGEL)
		stf := meanOf(last, experiments.SeriesSTFEL)
		b.ReportMetric(ig, "igel_norm")
		b.ReportMetric(stf, "stfel_norm")
		b.ReportMetric(meanOf(last, experiments.SeriesFaultFree), "ffree_norm")
		best := ig
		if stf < best {
			best = stf
		}
		b.ReportMetric(1-best, "rcgain")
	} else {
		local := meanOf(last, experiments.SeriesFFLocal)
		b.ReportMetric(local, "local_norm")
		b.ReportMetric(meanOf(last, experiments.SeriesFFGreedy), "greedy_norm")
		b.ReportMetric(1-local, "rcgain")
	}
}

func BenchmarkFigure05a(b *testing.B) { benchSweep(b, "5a", false) }
func BenchmarkFigure05b(b *testing.B) { benchSweep(b, "5b", false) }
func BenchmarkFigure06a(b *testing.B) { benchSweep(b, "6a", false) }
func BenchmarkFigure06b(b *testing.B) { benchSweep(b, "6b", false) }
func BenchmarkFigure07(b *testing.B)  { benchSweep(b, "7", true) }
func BenchmarkFigure08(b *testing.B)  { benchSweep(b, "8", true) }
func BenchmarkFigure10(b *testing.B)  { benchSweep(b, "10", true) }
func BenchmarkFigure11(b *testing.B)  { benchSweep(b, "11", true) }
func BenchmarkFigure12(b *testing.B)  { benchSweep(b, "12", true) }
func BenchmarkFigure13a(b *testing.B) { benchSweep(b, "13a", true) }
func BenchmarkFigure13b(b *testing.B) { benchSweep(b, "13b", true) }
func BenchmarkFigure13c(b *testing.B) { benchSweep(b, "13c", true) }
func BenchmarkFigure14(b *testing.B)  { benchSweep(b, "14", true) }

// BenchmarkFigure09 regenerates the single-execution behavioural study.
func BenchmarkFigure09(b *testing.B) {
	var res experiments.Figure9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure9(experiments.Params{Seed: 9, Shrink: 0.15})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Final predicted makespans: IG should not exceed NoRC at the end.
	mk := res.Makespan
	n := len(mk.X) - 1
	noRC := mk.SeriesByName(experiments.SeriesFig9NoRC).Y[n]
	ig := mk.SeriesByName(experiments.SeriesFig9IG).Y[n]
	b.ReportMetric(ig/noRC, "ig_vs_norc")
	b.ReportMetric(float64(len(mk.X)), "faults_handled")
}

// --- Ablation benches -----------------------------------------------

// ablationInstance is a mid-sized failure-heavy configuration shared by
// the ablation studies.
func ablationInstance(seed uint64) (core.Instance, workload.Spec) {
	spec := workload.Default()
	spec.N = 20
	spec.P = 120
	spec.MTBFYears = 8
	tasks, err := spec.Generate(rng.New(seed))
	if err != nil {
		panic(err)
	}
	return core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}, spec
}

// BenchmarkAblationSemantics compares the paper-faithful expected-time
// end events with the physically deterministic alternative (DESIGN.md
// §5.1): det_ratio is the deterministic-to-expected makespan ratio.
func BenchmarkAblationSemantics(b *testing.B) {
	var expSum, detSum float64
	for i := 0; i < b.N; i++ {
		in, spec := ablationInstance(uint64(33 + i%4))
		for _, sem := range []core.Semantics{core.SemanticsExpected, core.SemanticsDeterministic} {
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(uint64(77+i%4)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(in, core.IGEndLocal, src, core.Options{Semantics: sem})
			if err != nil {
				b.Fatal(err)
			}
			if sem == core.SemanticsExpected {
				expSum += res.Makespan
			} else {
				detSum += res.Makespan
			}
		}
	}
	if expSum > 0 {
		b.ReportMetric(detSum/expSum, "det_ratio")
	}
}

// BenchmarkAblationPeriodRule compares Young's period (the paper's
// choice) with Daly's higher-order estimate: daly_ratio is the
// Daly-to-Young makespan ratio under the same faults.
func BenchmarkAblationPeriodRule(b *testing.B) {
	var youngSum, dalySum float64
	for i := 0; i < b.N; i++ {
		in, spec := ablationInstance(uint64(55 + i%4))
		for _, rule := range []model.PeriodRule{model.PeriodYoung, model.PeriodDaly} {
			runIn := in
			runIn.Res.Rule = rule
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(uint64(88+i%4)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(runIn, core.IGEndLocal, src, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if rule == model.PeriodYoung {
				youngSum += res.Makespan
			} else {
				dalySum += res.Makespan
			}
		}
	}
	if youngSum > 0 {
		b.ReportMetric(dalySum/youngSum, "daly_ratio")
	}
}

// BenchmarkAblationFailureLaw compares exponential failures (the paper's
// model) against a Weibull law with the same long-run rate but infant
// mortality (shape 0.7): weibull_ratio is the makespan ratio.
func BenchmarkAblationFailureLaw(b *testing.B) {
	var expSum, weiSum float64
	for i := 0; i < b.N; i++ {
		in, spec := ablationInstance(uint64(66 + i%4))
		mean := 1 / spec.Lambda()
		laws := []failure.Law{
			failure.Exponential{Lambda: spec.Lambda()},
			failure.Weibull{Shape: 0.7, Scale: mean / 1.2658}, // Γ(1+1/0.7) ≈ 1.2658
		}
		for li, law := range laws {
			src, err := failure.NewRenewal(in.P, law, rng.New(uint64(99+i%4)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(in, core.IGEndLocal, src, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if li == 0 {
				expSum += res.Makespan
			} else {
				weiSum += res.Makespan
			}
		}
	}
	if expSum > 0 {
		b.ReportMetric(weiSum/expSum, "weibull_ratio")
	}
}

// BenchmarkAblationNetwork measures how sensitive the redistribution
// benefit is to network quality: lat_ratio compares the makespan under a
// 60 s per-round latency network against the paper's zero-latency model,
// and redist_drop the relative loss in redistribution count.
func BenchmarkAblationNetwork(b *testing.B) {
	var fastSum, slowSum float64
	var fastRedist, slowRedist int
	for i := 0; i < b.N; i++ {
		in, spec := ablationInstance(uint64(44 + i%4))
		for _, rc := range []model.CostModel{{}, {Latency: 60}} {
			runIn := in
			runIn.RC = rc
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(uint64(11+i%4)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Run(runIn, core.IGEndLocal, src, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if rc.Latency == 0 {
				fastSum += res.Makespan
				fastRedist += res.Counters.Redistributions
			} else {
				slowSum += res.Makespan
				slowRedist += res.Counters.Redistributions
			}
		}
	}
	if fastSum > 0 {
		b.ReportMetric(slowSum/fastSum, "lat_ratio")
	}
	if fastRedist > 0 {
		b.ReportMetric(float64(fastRedist-slowRedist)/float64(fastRedist), "redist_drop")
	}
}

// BenchmarkAblationSilentErrors measures the §7 silent-error extension:
// silent_ratio is the makespan inflation caused by silent errors at a
// 5-year SDC MTBF with 1% verification cost, versus the paper's model.
// Mild SDC rates are largely absorbed by Algorithm 2's wall-clock
// re-anchoring at every event (the same artifact documented for
// fail-stop inflation in DESIGN.md §5.1), so the ablation uses an
// aggressive rate where the inflation survives to the makespan.
func BenchmarkAblationSilentErrors(b *testing.B) {
	var baseSum, silentSum float64
	for i := 0; i < b.N; i++ {
		spec := workload.Default()
		spec.N = 20
		spec.P = 120
		spec.MTBFYears = 8
		spec.VerifyUnit = 0.01
		tasks, err := spec.Generate(rng.New(uint64(22 + i%4)))
		if err != nil {
			b.Fatal(err)
		}
		for _, silent := range []bool{false, true} {
			res := spec.Resilience()
			if silent {
				res.SilentLambda = 1 / (5 * workload.YearSeconds)
			}
			in := core.Instance{Tasks: tasks, P: spec.P, Res: res}
			src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: res.Lambda}, rng.New(uint64(66+i%4)))
			if err != nil {
				b.Fatal(err)
			}
			r, err := core.Run(in, core.IGEndLocal, src, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if silent {
				silentSum += r.Makespan
			} else {
				baseSum += r.Makespan
			}
		}
	}
	if baseSum > 0 {
		b.ReportMetric(silentSum/baseSum, "silent_ratio")
	}
}

// BenchmarkCampaignThroughput measures the campaign runner end to end: a
// two-axis grid with failures and a fault-free bound, all cores, units/s
// as the headline metric. This is the scaling path the campaign
// subsystem exists for, so regressions here are regressions of the
// north-star.
func BenchmarkCampaignThroughput(b *testing.B) {
	w := workload.Default()
	w.N = 5
	w.P = 40
	w.MTBFYears = 5
	sp := scenario.Spec{
		Name:       "bench",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "stf-el", "ff-el"},
		Base:       "norc",
		Replicates: 4,
		Seed:       1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{20, 40, 80}},
			{Param: scenario.ParamMTBF, Values: []float64{5, 15}},
		},
	}
	units := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
}

// heterogeneousSweepSpec is the compile-heavy campaign shape the
// compiled-model cache targets: a heterogeneous workload (every
// replicate draws a fresh pack, so the old homogeneous-point sharing
// never applied), a large instance (n=40, P=400 — table compiles
// dominate the short, mild-failure simulations), and a downtime axis,
// which leaves the pack untouched across the grid so every point past
// the first is a delta build over the first point's profile columns.
func heterogeneousSweepSpec() scenario.Spec {
	w := workload.Default() // MInf ≠ MSup: heterogeneous
	w.N = 50
	w.P = 600
	w.MTBFYears = 50
	return scenario.Spec{
		Name:       "bench-heterogeneous",
		Workload:   w,
		Policies:   []string{"norc", "ff-norc"},
		Base:       "norc",
		Replicates: 2,
		Seed:       1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamDowntime, Values: []float64{30, 60, 120, 240, 480, 960}},
		},
	}
}

// BenchmarkCampaignThroughputHeterogeneous measures the headline payoff
// of the compiled-model cache: re-executing a heterogeneous resilience
// sweep against the warm process-global cache — the campaignd /
// repeated-refinement steady state. Every unit's tables come back as
// hits of the exact (pack, resilience, cost model, P) key, and each
// Reset copies the initial schedule stored on the table instead of
// re-running Algorithm 1, so a unit pays only its event loop. The
// cache is warmed by one untimed run; the cold fill is the Misses ×
// BenchmarkCompileCold story, amortized away in this steady state.
func BenchmarkCampaignThroughputHeterogeneous(b *testing.B) {
	sp := heterogeneousSweepSpec()
	cache := model.NewCache(0)
	if _, err := campaign.Run(sp, campaign.Options{ModelCache: cache}); err != nil {
		b.Fatal(err)
	}
	units := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{ModelCache: cache})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkCampaignThroughputHeterogeneousNoCache is the same sweep
// with the cache disabled — every unit runs on the simulator's own
// table, recompiled and re-scheduled whenever the unit's instance
// changes, the uncached baseline the speedup is quoted against.
func BenchmarkCampaignThroughputHeterogeneousNoCache(b *testing.B) {
	b.Setenv("COSCHED_MODEL_CACHE", "off")
	sp := heterogeneousSweepSpec()
	units := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkCampaignResilienceSweepCold measures a resilience sweep on a
// cold cache: a heterogeneous pack class (n = 50, P = 600) over a 3×3
// MTBF × downtime grid with norc and ff-norc, each iteration on a fresh
// model.Cache. Every replicate draws a fresh pack, so each grid point's
// tables are a cold compile or a delta build whose failure rows fill
// only as far as the units read them: this is the table-build cost a
// parameter sweep pays, the hetero-sweep workload's shape at bench
// scale.
func BenchmarkCampaignResilienceSweepCold(b *testing.B) {
	w := workload.Heterogeneous()
	w.N, w.P, w.MTBFYears = 50, 600, 100
	sp := scenario.Spec{
		Name:       "bench-resilience-cold",
		Workload:   w,
		Policies:   []string{"norc", "ff-norc"},
		Base:       "norc",
		Replicates: 4,
		Seed:       1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamMTBF, Values: []float64{50, 100, 200}},
			{Param: scenario.ParamDowntime, Values: []float64{30, 60, 120}},
		},
	}
	units := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{ModelCache: model.NewCache(0)})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkCampaignPlatformAxis measures a platform sweep on a cold
// cache: Figure 8 at bench scale (P over eleven sizes, one pack class),
// each iteration on a fresh model.Cache. Every replicate compiles its
// tables once at the largest P and runs the smaller sizes on views of
// them, so B/op tracks the compiled-table bytes a platform axis costs.
func BenchmarkCampaignPlatformAxis(b *testing.B) {
	sp, err := experiments.FigureScenario("8", benchParams())
	if err != nil {
		b.Fatal(err)
	}
	units := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{ModelCache: model.NewCache(0)})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
}

// BenchmarkCampaignThroughputAdaptive runs the same grid under the
// adaptive precision controller: every point burns replicates only until
// its 95% batch-means CI is within ±5% of the mean (capped at 64). The
// headline metrics are units/s and reps_saved — the fraction of the
// fixed-count budget (points × max) the stopping rule avoided, i.e. what
// adaptive precision buys at equal statistical quality.
func BenchmarkCampaignThroughputAdaptive(b *testing.B) {
	w := workload.Default()
	w.N = 5
	w.P = 40
	w.MTBFYears = 5
	sp := scenario.Spec{
		Name:     "bench-adaptive",
		Workload: w,
		Policies: []string{"norc", "ig-el", "stf-el", "ff-el"},
		Base:     "norc",
		Seed:     1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{20, 40, 80}},
			{Param: scenario.ParamMTBF, Values: []float64{5, 15}},
		},
		Precision: &scenario.PrecisionSpec{
			RelHalfWidth:  0.05,
			MinReplicates: 4,
			MaxReplicates: 64,
			Batch:         4,
		},
	}
	units, budget := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(sp, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		units += res.Units()
		budget += res.ReplicateBudget()
	}
	b.ReportMetric(float64(units)/b.Elapsed().Seconds(), "units/s")
	if budget > 0 {
		b.ReportMetric(float64(budget-units)/float64(budget), "reps_saved")
	}
}

// BenchmarkEngineSingleRun measures one full simulated execution at the
// paper's default dimensions divided by ten (n=10, p=100, MTBF 10y),
// through the one-shot core.Run path (fresh Simulator per run). Compare
// with BenchmarkRunSingle to see what arena reuse buys.
func BenchmarkEngineSingleRun(b *testing.B) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 100
	spec.MTBFYears = 10
	tasks, err := spec.Generate(rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := failure.NewRenewal(in.P, failure.Exponential{Lambda: spec.Lambda()}, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(in, core.IGEndGreedy, src, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSingle is the Monte-Carlo steady state: the same workload
// as BenchmarkEngineSingleRun driven through one persistent Simulator,
// one reusable Renewal fault generator and one reseeded RNG. After the
// first iteration warms the arenas, the loop body performs (near) zero
// allocations — the target of the zero-allocation core refactor.
func BenchmarkRunSingle(b *testing.B) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 100
	spec.MTBFYears = 10
	tasks, err := spec.Generate(rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	// Box the law once: interface conversion at the Reset call site
	// would otherwise be the loop's only allocation.
	var law failure.Law = failure.Exponential{Lambda: spec.Lambda()}
	simulator := core.NewSimulator()
	var renewal failure.Renewal
	src := rng.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := renewal.Reset(in.P, law, src); err != nil {
			b.Fatal(err)
		}
		if err := simulator.Reset(in, core.IGEndGreedy, &renewal, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSingleObserved is BenchmarkRunSingle with a telemetry
// observer attached: the simulator flushes its per-run counters into an
// obs.SimMetrics shard once per Run. The delta against BenchmarkRunSingle
// is the entire cost of turning telemetry on — a dozen uncontended
// atomic adds per run, and still zero allocations.
func BenchmarkRunSingleObserved(b *testing.B) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 100
	spec.MTBFYears = 10
	tasks, err := spec.Generate(rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}
	var law failure.Law = failure.Exponential{Lambda: spec.Lambda()}
	simulator := core.NewSimulator()
	var renewal failure.Renewal
	src := rng.New(0)
	shard := obs.NewCampaign().Shard(0)
	opt := core.Options{Observer: &shard.Sim}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := renewal.Reset(in.P, law, src); err != nil {
			b.Fatal(err)
		}
		if err := simulator.Reset(in, core.IGEndGreedy, &renewal, opt); err != nil {
			b.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunOnline is the online steady state: the BenchmarkRunSingle
// workload plus a Poisson stream of arriving jobs, driven through one
// persistent Simulator. The arrival schedule is generated once; each
// iteration replays it, so the loop measures the online kernel itself —
// submit events, FIFO admission and the ArrivalSteal rebalance over the
// table Reset compiled once for the base pack and the arrivals.
// Allocations are reported: after warm-up the arenas (task slots,
// pending queue, the table and its filled rows) are all reused.
func BenchmarkRunOnline(b *testing.B) {
	spec := workload.Default()
	spec.N = 10
	spec.P = 100
	spec.MTBFYears = 10
	tasks, err := spec.Generate(rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	arrSpec := workload.ArrivalSpec{Process: workload.ArrivalPoisson, Count: 10, Rate: 2e-5}
	arrivals, err := arrSpec.Generate(spec, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience(), Arrivals: arrivals}
	pol := core.IGEndGreedy
	pol.OnArrival = core.ArrivalSteal
	var law failure.Law = failure.Exponential{Lambda: spec.Lambda()}
	simulator := core.NewSimulator()
	var renewal failure.Renewal
	src := rng.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := renewal.Reset(in.P, law, src); err != nil {
			b.Fatal(err)
		}
		if err := simulator.Reset(in, pol, &renewal, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := simulator.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyByName measures canonical policy-name resolution
// (PolicyByName over the policy tables, the scenario-spec path). Rule
// dispatch itself is resolved once per Reset into plain function calls,
// so a campaign pays this lookup only when it parses a spec.
func BenchmarkPolicyByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := core.PolicyByName("IteratedGreedy-EndLocal"); !ok {
			b.Fatal("IteratedGreedy-EndLocal does not resolve")
		}
	}
}
