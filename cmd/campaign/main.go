// Command campaign runs a declarative Monte-Carlo campaign: it loads a
// scenario spec (JSON), expands its parameter grid, executes every
// (point, replicate) unit on a sharded worker pool with deterministic
// per-unit RNG streams, and emits aggregate results as JSONL, CSV, and a
// terminal summary. Campaigns are resumable through a manifest journal.
// With -precision (or a spec-level precision block) replicate counts are
// adaptive: each grid point runs only until its confidence intervals
// meet the target.
//
// Examples:
//
//	campaign -example > sweep.json          # starter spec to edit
//	campaign -spec sweep.json -out results.jsonl -csv results.csv
//	campaign -spec big.json -manifest big.manifest   # interruptible
//	campaign -spec sweep.json -precision 0.02 -max-reps 500   # adaptive
//	campaign -figure 8 -reps 5 -shrink 0.2  # a paper figure, campaign-style
//	campaign -figure 8 -print-spec          # export that figure as JSON
//	campaign -spec examples/online-poisson.json          # online regime
//	campaign -figure online -shrink 0.1 -reps 3          # online demo study
//	campaign -spec sweep.json -arrivals poisson -jobs 20 -load 8   # add arrivals to any spec
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/experiments"
	"cosched/internal/obs"
	"cosched/internal/plot"
	"cosched/internal/profiling"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
}

// realMain is the whole CLI behind one error return, so every exit —
// including failures after campaign.Run — flows through the same
// cleanup path: deferred profile flushes, the final heartbeat line and
// its file close, the manifest close, and the metrics server shutdown.
// Results and the summary go to stdout, progress and notices to stderr.
func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath     = fs.String("spec", "", "JSON scenario spec file")
		figure       = fs.String("figure", "", "run a paper figure ("+strings.Join(experiments.SweepIDs(), " ")+") or the online demo study (online) as a campaign instead of -spec")
		reps         = fs.Int("reps", 0, "override the spec's replicate count (with -figure: default 10)")
		seed         = fs.Uint64("seed", 0, "override the spec's master seed (with -figure: default 1)")
		shrink       = fs.Float64("shrink", 1, "with -figure: platform scale factor in (0,1]")
		workers      = fs.Int("workers", 0, "parallel units (0 = all cores)")
		outPath      = fs.String("out", "", "write aggregate results as JSONL to this file")
		csvPath      = fs.String("csv", "", "write the result table as CSV to this file")
		quantPath    = fs.String("quantiles", "", "write per-cell p50/p95 makespan quantiles (exact, over the stored replicates) as CSV to this file")
		manifest     = fs.String("manifest", "", "resumable journal of completed units (reused on restart)")
		manifestSync = fs.Bool("manifest-sync", false, "fsync the manifest after every completed unit (journal survives machine crashes, at one fsync per unit)")
		printSpec    = fs.Bool("print-spec", false, "print the resolved spec as JSON and exit without running")
		example      = fs.Bool("example", false, "print an example scenario spec and exit")
		quiet        = fs.Bool("quiet", false, "suppress the ASCII chart and progress")
		listPol      = fs.Bool("list-policies", false, "list accepted policy names and exit")

		precision  = fs.Float64("precision", 0, "adaptive mode: target relative CI half-width per (point, policy) cell (0 = use the spec's precision block, if any)")
		confidence = fs.Float64("confidence", 0, "adaptive mode: confidence level (default 0.95)")
		minReps    = fs.Int("min-reps", 0, "adaptive mode: replicate floor per point (default two batches)")
		maxReps    = fs.Int("max-reps", 0, "adaptive mode: replicate cap per point (default 1000 when -precision sets up a new block)")
		batch      = fs.Int("batch", 0, "adaptive mode: scheduling batch size (default 8)")

		arrivals    = fs.String("arrivals", "", "online mode: arrival process (poisson | batch | trace:FILE); creates or overrides the spec's arrivals block")
		load        = fs.Float64("load", 0, "online mode: Poisson arrival rate in jobs per day (with -arrivals poisson)")
		jobs        = fs.Int("jobs", 0, "online mode: number of arriving jobs (default 16 for a new block)")
		arrivalRule = fs.String("arrival-rule", "", "online mode: arrival redistribution rule (none | greedy | steal | rule name)")

		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on successful exit")
		blockprofile = fs.String("blockprofile", "", "write a goroutine blocking profile to this file on successful exit")
		mutexprofile = fs.String("mutexprofile", "", "write a mutex contention profile to this file on successful exit")

		metricsAddr    = fs.String("metrics-addr", "", "serve live telemetry on this address: Prometheus /metrics, JSON /progress and /snapshot, /debug/vars, /debug/pprof")
		metricsDump    = fs.String("metrics-dump", "", "write a final Prometheus-text snapshot to this file after the campaign")
		metricsLinger  = fs.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint serving this long after the campaign finishes")
		heartbeatPath  = fs.String("heartbeat", "", "append JSONL progress heartbeats to this file ('-' = stderr)")
		heartbeatEvery = fs.Duration("heartbeat-every", time.Second, "heartbeat period for -heartbeat")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := profiling.Start("campaign", profiling.Config{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *listPol {
		scenario.FprintPolicies(stdout)
		return nil
	}

	if *example {
		return exampleSpec().Encode(stdout)
	}

	sp, err := loadSpec(*specPath, *figure, *reps, *seed, *shrink)
	if err != nil {
		return err
	}
	if err := applyPrecision(&sp, *precision, *confidence, *minReps, *maxReps, *batch); err != nil {
		return err
	}
	if err := applyArrivals(&sp, *arrivals, *load, *jobs, *arrivalRule); err != nil {
		return err
	}
	if *printSpec {
		return sp.Encode(stdout)
	}

	points, err := sp.Expand()
	if err != nil {
		return err
	}
	if sp.Arrivals != nil {
		fmt.Fprintf(stdout, "campaign %q: online regime — %s arrivals (%d jobs), arrival rule %q\n",
			sp.Name, sp.Arrivals.Process, sp.Arrivals.Count, sp.Arrivals.Rule)
	}
	if sp.Precision != nil {
		fmt.Fprintf(stdout, "campaign %q: %d grid points × adaptive replicates (target ±%g%% rel. CI, %d–%d per point, batches of %d), %d policies\n",
			sp.Name, len(points), sp.Precision.RelHalfWidth*100, sp.Precision.MinReps(),
			sp.Precision.MaxReplicates, sp.Precision.BatchSize(), len(sp.Policies))
	} else {
		units := len(points) * sp.Replicates
		fmt.Fprintf(stdout, "campaign %q: %d grid points × %d replicates = %d units, %d policies\n",
			sp.Name, len(points), sp.Replicates, units, len(sp.Policies))
	}

	opt := campaign.Options{Workers: *workers}
	var telemetry *obs.Campaign
	if *metricsAddr != "" || *metricsDump != "" || *heartbeatPath != "" {
		telemetry = obs.NewCampaign()
		opt.Metrics = telemetry
	}
	var server *obs.Server
	if *metricsAddr != "" {
		server, err = obs.Serve(*metricsAddr, telemetry)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		// Close runs on every exit; the success path below may linger
		// first. (Shutdown is idempotent, so the double close is free.)
		defer server.Close()
		fmt.Fprintf(stderr, "campaign: serving telemetry at http://%s/metrics\n", server.Addr())
	}
	var stopHeartbeat func()
	var heartbeatFile *os.File
	// finishHeartbeat emits the final heartbeat line and closes the file
	// exactly once; deferred so a failed run still gets its last line.
	finishHeartbeat := func() {
		if stopHeartbeat != nil {
			stopHeartbeat()
			stopHeartbeat = nil
		}
		if heartbeatFile != nil {
			heartbeatFile.Close()
			heartbeatFile = nil
		}
	}
	defer finishHeartbeat()
	if *heartbeatPath != "" {
		w := stderr
		if *heartbeatPath != "-" {
			heartbeatFile, err = os.Create(*heartbeatPath)
			if err != nil {
				return fmt.Errorf("-heartbeat: %w", err)
			}
			w = heartbeatFile
		}
		stopHeartbeat = obs.Heartbeat(w, telemetry, *heartbeatEvery)
	}
	if *manifest != "" {
		man, err := campaign.OpenManifest(*manifest)
		if err != nil {
			return err
		}
		defer man.Close()
		man.SetSync(*manifestSync)
		opt.Manifest = man
	}
	if !*quiet {
		lastPct := -5 // any finished unit forces the first print
		opt.Progress = func(done, total int) {
			pct := done * 100 / total
			if pct/5 != lastPct/5 || done == total {
				fmt.Fprintf(stderr, "\r%3d%% (%d/%d units)", pct, done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
				lastPct = pct
			}
		}
	}

	start := time.Now()
	cachePrev := campaign.ModelCacheStats()
	res, err := campaign.Run(sp, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	cacheDelta := campaign.ModelCacheStats().Delta(cachePrev)

	finishHeartbeat() // emits the final heartbeat line
	if *metricsDump != "" {
		f, err := os.Create(*metricsDump)
		if err != nil {
			return fmt.Errorf("-metrics-dump: %w", err)
		}
		if err := telemetry.WritePrometheus(f); err != nil {
			f.Close()
			return fmt.Errorf("-metrics-dump: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-metrics-dump: %w", err)
		}
		fmt.Fprintf(stderr, "campaign: wrote metrics snapshot %s\n", *metricsDump)
	}

	table, err := res.Table()
	if err != nil {
		return err
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := res.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d records)\n", *outPath, len(res.Points)*len(res.Policies))
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(table.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	if *quantPath != "" {
		qt, err := res.QuantileTable(0.5, 0.95)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*quantPath, []byte(qt.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *quantPath)
	}
	if !*quiet {
		fmt.Fprintln(stdout, plot.ASCII(table, 72, 18))
	}
	fmt.Fprintf(stdout, "campaign %q done: %d units in %v (%.1f units/s)\n",
		sp.Name, res.Units(), elapsed.Round(time.Millisecond), float64(res.Units())/elapsed.Seconds())
	// One-line compiled-model cache summary. Silent when the cache saw no
	// traffic (COSCHED_MODEL_CACHE=off, or a spec whose tables never reach
	// the shared cache: online units and incomparable profiles run on the
	// simulator's own table), so uncached output carries no such line.
	if cacheDelta.Hits+cacheDelta.Misses > 0 {
		fmt.Fprintf(stdout, "model cache: %d hits / %d misses (%d delta, %d full builds), %d evictions, %s resident in %d entries\n",
			cacheDelta.Hits, cacheDelta.Misses, cacheDelta.DeltaBuilds, cacheDelta.FullBuilds,
			cacheDelta.Evictions, fmtBytes(cacheDelta.ResidentBytes), cacheDelta.Entries)
	}
	if res.Adaptive() {
		budget := res.ReplicateBudget()
		saved := 100 * float64(budget-res.Units()) / float64(budget)
		worst, anyCI, unconverged := 0.0, false, 0
		for pi := range res.Points {
			missed := false
			for qi := range res.Policies {
				rel, ok := res.CellRelHalfWidth(pi, qi)
				if !ok {
					missed = true // no variance estimate: cannot claim convergence
					continue
				}
				anyCI = true
				if rel > worst {
					worst = rel
				}
				if rel > sp.Precision.RelHalfWidth {
					missed = true
				}
			}
			if missed {
				unconverged++
			}
		}
		fmt.Fprintf(stdout, "adaptive: spent %d of %d budgeted replicates (%.1f%% saved)",
			res.Units(), budget, saved)
		if anyCI {
			fmt.Fprintf(stdout, ", worst rel. CI half-width %.3g", worst)
		} else {
			fmt.Fprintf(stdout, ", no cell completed two batches (no CI estimate)")
		}
		if unconverged > 0 {
			fmt.Fprintf(stdout, ", %d point(s) stopped without meeting the target", unconverged)
		}
		fmt.Fprintln(stdout)
	}
	if res.Online() {
		fmt.Fprintln(stdout, "online metrics (means over grid points × replicates):")
		for qi, pol := range res.Policies {
			var resp, str, wait, util float64
			for pi := range res.Points {
				r, _ := res.OnlineCell(pi, qi, campaign.MetricResponse)
				s, _ := res.OnlineCell(pi, qi, campaign.MetricStretch)
				w, _ := res.OnlineCell(pi, qi, campaign.MetricWait)
				u, _ := res.OnlineCell(pi, qi, campaign.MetricUtilization)
				resp += r.Mean
				str += s.Mean
				wait += w.Mean
				util += u.Mean
			}
			np := float64(len(res.Points))
			fmt.Fprintf(stdout, "  %-24s response %12.0f s   stretch %6.2f   wait %10.0f s   utilization %5.1f%%\n",
				pol.Label, resp/np, str/np, wait/np, 100*util/np)
		}
	}
	if server != nil {
		if *metricsLinger > 0 {
			fmt.Fprintf(stderr, "campaign: metrics endpoint lingering %v at http://%s/\n",
				*metricsLinger, server.Addr())
			time.Sleep(*metricsLinger)
		}
		if err := server.Close(); err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
	}
	return nil
}

// applyArrivals folds the online-mode flags into the spec: -arrivals
// creates or retargets the arrivals block, and the companion flags
// override individual fields of an existing one.
func applyArrivals(sp *scenario.Spec, process string, load float64, jobs int, rule string) error {
	if process == "" && sp.Arrivals == nil {
		if load != 0 || jobs != 0 || rule != "" {
			return fmt.Errorf("-load/-jobs/-arrival-rule need -arrivals or a spec with an arrivals block")
		}
		return nil
	}
	if sp.Arrivals == nil {
		sp.Arrivals = &workload.ArrivalSpec{Count: 16}
	}
	if process != "" {
		proc, trace, err := workload.ParseProcessArg(process)
		if err != nil {
			return fmt.Errorf("-arrivals: %w", err)
		}
		sp.Arrivals.Process = proc
		if trace != "" {
			sp.Arrivals.Trace = trace
		}
	}
	if load > 0 {
		sp.Arrivals.Rate = load / 86400 // jobs per day → jobs per second
	}
	if jobs > 0 {
		sp.Arrivals.Count = jobs
	}
	if rule != "" {
		sp.Arrivals.Rule = rule
	}
	sp.Arrivals.ApplyFlagDefaults()
	return nil
}

// applyPrecision folds the adaptive-mode flags into the spec: -precision
// creates or retargets the precision block, and the companion flags
// override individual fields of an existing one.
func applyPrecision(sp *scenario.Spec, relHW, confidence float64, minReps, maxReps, batch int) error {
	if relHW <= 0 && sp.Precision == nil {
		if confidence != 0 || minReps != 0 || maxReps != 0 || batch != 0 {
			return fmt.Errorf("-confidence/-min-reps/-max-reps/-batch need -precision or a spec with a precision block")
		}
		return nil
	}
	if sp.Precision == nil {
		sp.Precision = &scenario.PrecisionSpec{MaxReplicates: 1000}
	}
	if relHW > 0 {
		sp.Precision.RelHalfWidth = relHW
	}
	if confidence > 0 {
		sp.Precision.Confidence = confidence
	}
	if minReps > 0 {
		sp.Precision.MinReplicates = minReps
	}
	if maxReps > 0 {
		sp.Precision.MaxReplicates = maxReps
	}
	if batch > 0 {
		sp.Precision.Batch = batch
	}
	return nil
}

// loadSpec resolves the scenario from -spec or -figure and applies the
// CLI overrides.
func loadSpec(specPath, figure string, reps int, seed uint64, shrink float64) (scenario.Spec, error) {
	switch {
	case specPath != "" && figure != "":
		return scenario.Spec{}, fmt.Errorf("-spec and -figure are mutually exclusive")
	case figure != "":
		return experiments.FigureScenario(figure, experiments.Params{Reps: reps, Seed: seed, Shrink: shrink})
	case specPath != "":
		f, err := os.Open(specPath)
		if err != nil {
			return scenario.Spec{}, err
		}
		defer f.Close()
		sp, err := scenario.Decode(f)
		if err != nil {
			return scenario.Spec{}, err
		}
		if reps > 0 {
			sp.Replicates = reps
		}
		if seed != 0 {
			sp.Seed = seed
		}
		return sp, nil
	default:
		return scenario.Spec{}, fmt.Errorf("need -spec FILE or -figure ID (try -example)")
	}
}

// exampleSpec is a small but representative starter: a two-axis grid
// crossing platform size with per-processor MTBF under a Weibull law.
func exampleSpec() scenario.Spec {
	w := workload.Default()
	w.N = 10
	w.P = 100
	w.MTBFYears = 10
	return scenario.Spec{
		Name:       "mtbf-x-platform",
		Title:      "Redistribution gain across platform size and MTBF",
		XLabel:     "#procs",
		Workload:   w,
		Failure:    scenario.FailureSpec{Law: "weibull", Shape: 0.7},
		Policies:   []string{"norc", "ig-el", "stf-el", "ff-el"},
		Base:       "norc",
		Replicates: 5,
		Seed:       1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{40, 80, 160}},
			{Param: scenario.ParamMTBF, Values: []float64{5, 20}},
		},
	}
}

// fmtBytes renders a byte count with a binary-prefix unit, compact
// enough for the one-line cache summary.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
