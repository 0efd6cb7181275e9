// Command experiments regenerates the paper's evaluation figures
// (Figures 5–14). For each figure it writes a CSV and an SVG into the
// output directory and prints an ASCII rendition to stdout.
//
// Examples:
//
//	experiments -figure 7 -reps 50 -out results   # full paper scale
//	experiments -figure all -reps 5 -shrink 0.2   # quick pass
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cosched/internal/experiments"
	"cosched/internal/obs"
	"cosched/internal/plot"
	"cosched/internal/profiling"
	"cosched/internal/scenario"
	"cosched/internal/stats"
)

func main() {
	var (
		figure    = flag.String("figure", "all", "figure id (5a 5b 6a 6b 7 8 9 10 11 12 13a 13b 13c 14) or 'all'")
		reps      = flag.Int("reps", 10, "replicates per data point (paper: 50)")
		seed      = flag.Uint64("seed", 1, "master random seed")
		shrink    = flag.Float64("shrink", 1, "platform scale factor in (0,1]; 1 = paper scale")
		outDir    = flag.String("out", "results", "output directory for CSV/SVG files")
		workers   = flag.Int("workers", 0, "parallel runs (0 = all cores)")
		quiet     = flag.Bool("quiet", false, "suppress ASCII charts")
		precision = flag.Float64("precision", 0, "adaptive replicates: target relative CI half-width per cell (0 = fixed -reps)")
		maxReps   = flag.Int("max-reps", 200, "with -precision: replicate cap per grid point")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on successful exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on successful exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on successful exit")
		metricsAddr  = flag.String("metrics-addr", "", "serve live telemetry on this address: Prometheus /metrics, JSON /progress, /debug/vars, /debug/pprof")
	)
	flag.Parse()

	stopProfiles, err := profiling.StartConfig("experiments", profiling.Config{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProfiles()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	params := experiments.Params{Reps: *reps, Seed: *seed, Shrink: *shrink, Workers: *workers}
	if *precision > 0 {
		params.Precision = &scenario.PrecisionSpec{RelHalfWidth: *precision, MaxReplicates: *maxReps}
	}
	if *metricsAddr != "" {
		// One telemetry campaign spans all figures of the run: gauges
		// reset per figure, counters and histograms accumulate.
		params.Metrics = obs.NewCampaign()
		server, err := obs.Serve(*metricsAddr, params.Metrics)
		if err != nil {
			fatalf("-metrics-addr: %v", err)
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "experiments: serving telemetry at http://%s/metrics\n", server.Addr())
	}

	ids := strings.Split(*figure, ",")
	if *figure == "all" {
		ids = append(experiments.SweepIDs(), "9")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		if id == "9" {
			if err := runFigure9(params, *outDir, *quiet); err != nil {
				fatalf("figure 9: %v", err)
			}
			fmt.Printf("figure 9 done in %v\n\n", time.Since(start).Round(time.Millisecond))
			continue
		}
		sweep, err := experiments.ByID(id, params)
		if err != nil {
			fatalf("%v", err)
		}
		if sweep.Precision != nil {
			fmt.Printf("running figure %s: %s (%d points × %d series, adaptive reps ≤ %d)\n",
				id, sweep.Title, len(sweep.X), len(sweep.Series), sweep.Precision.MaxReplicates)
		} else {
			fmt.Printf("running figure %s: %s (%d points × %d series × %d reps)\n",
				id, sweep.Title, len(sweep.X), len(sweep.Series), sweep.Reps)
		}
		res, err := sweep.RunCampaign()
		if err != nil {
			fatalf("figure %s: %v", id, err)
		}
		table, err := res.Table()
		if err != nil {
			fatalf("figure %s: %v", id, err)
		}
		if err := emit(table, filepath.Join(*outDir, "fig"+id), *quiet); err != nil {
			fatalf("figure %s: %v", id, err)
		}
		if res.Adaptive() {
			budget := res.ReplicateBudget()
			fmt.Printf("figure %s adaptive: %d of %d budgeted replicates (%.1f%% saved)\n",
				id, res.Units(), budget, 100*float64(budget-res.Units())/float64(budget))
		}
		fmt.Printf("figure %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func runFigure9(params experiments.Params, outDir string, quiet bool) error {
	fmt.Println("running figure 9: single-execution behaviour (n=100, p=1000, MTBF 50y)")
	res, err := experiments.Figure9(params)
	if err != nil {
		return err
	}
	if err := emit(res.Makespan, filepath.Join(outDir, "fig9a"), quiet); err != nil {
		return err
	}
	return emit(res.StdDev, filepath.Join(outDir, "fig9b"), quiet)
}

func emit(table *stats.Table, base string, quiet bool) error {
	if err := os.WriteFile(base+".csv", []byte(table.CSV()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".svg", []byte(plot.SVG(table, 760, 420)), 0o644); err != nil {
		return err
	}
	if !quiet {
		fmt.Println(plot.ASCII(table, 72, 18))
	}
	fmt.Printf("wrote %s.csv and %s.svg\n", base, base)
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
