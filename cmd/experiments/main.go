// Command experiments regenerates the paper's evaluation figures
// (Figures 5–14). For each figure it writes a CSV and an SVG into the
// output directory and prints an ASCII rendition to stdout; it then
// writes EXPERIMENTS.md into the same directory, recording every
// regenerated table with the paper's claim and the pass/fail result of
// its shape checks (internal/shape).
//
// Every sweep figure runs its declarative spec (experiments.FigureScenario,
// the spec `campaign -figure ID -print-spec` exports) through the
// campaign runner; Figure 9 is the single-execution study
// (experiments.Figure9). Profiling and live telemetry for a sweep figure
// are available through `campaign -figure ID`.
//
// Examples:
//
//	experiments -figure all -reps 50 -out results   # full paper scale
//	experiments -figure 7,9 -reps 5 -shrink 0.2     # quick pass
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/experiments"
	"cosched/internal/plot"
	"cosched/internal/scenario"
	"cosched/internal/stats"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run is one invocation's resolved parameters, as the report header
// states them.
type run struct {
	figure    string
	params    experiments.Params
	precision float64
	maxReps   int
	outDir    string
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		r       run
		workers int
		quiet   bool
	)
	fs.StringVar(&r.figure, "figure", "all", "comma-separated figure ids ("+strings.Join(experiments.SweepIDs(), " ")+" 9) or 'all'")
	fs.IntVar(&r.params.Reps, "reps", 10, "replicates per data point (paper: 50)")
	fs.Uint64Var(&r.params.Seed, "seed", 1, "master random seed (nonzero)")
	fs.Float64Var(&r.params.Shrink, "shrink", 1, "platform scale factor in (0,1]; 1 = paper scale")
	fs.IntVar(&workers, "workers", 0, "parallel runs (0 = all cores)")
	fs.Float64Var(&r.precision, "precision", 0, "adaptive replicates: target relative CI half-width per cell (0 = fixed -reps)")
	fs.IntVar(&r.maxReps, "max-reps", 200, "with -precision: replicate cap per grid point")
	fs.StringVar(&r.outDir, "out", "results", "output directory for CSV/SVG files and EXPERIMENTS.md")
	fs.BoolVar(&quiet, "quiet", false, "suppress ASCII charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject what the figure builders would silently replace by a
	// default, so the report header states what actually ran.
	switch {
	case r.params.Reps < 1:
		return fmt.Errorf("-reps must be at least 1")
	case r.params.Seed == 0:
		return fmt.Errorf("-seed must be nonzero")
	case !(r.params.Shrink > 0 && r.params.Shrink <= 1):
		return fmt.Errorf("-shrink must be in (0,1]")
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}

	ids := strings.Split(r.figure, ",")
	if r.figure == "all" {
		ids = append(experiments.SweepIDs(), "9")
	}
	// Tables by CSV name ("5a", "9a", ...), read back from the CSV text
	// so EXPERIMENTS.md records exactly what the CSV files hold.
	tables := map[string]*stats.Table{}
	emit := func(name string, table *stats.Table) error {
		base := filepath.Join(r.outDir, "fig"+name)
		csv := table.CSV()
		if err := os.WriteFile(base+".csv", []byte(csv), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".svg", []byte(plot.SVG(table, 760, 420)), 0o644); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintln(stdout, plot.ASCII(table, 72, 18))
		}
		fmt.Fprintf(stdout, "wrote %s.csv and %s.svg\n", base, base)
		var err error
		tables[name], err = stats.ParseCSV(csv)
		return err
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		if id == "9" {
			fmt.Fprintln(stdout, "running figure 9: single-execution behaviour (n=100, p=1000, MTBF 50y)")
			res, err := experiments.Figure9(r.params)
			if err != nil {
				return fmt.Errorf("figure 9: %w", err)
			}
			if err := emit("9a", res.Makespan); err != nil {
				return fmt.Errorf("figure 9: %w", err)
			}
			if err := emit("9b", res.StdDev); err != nil {
				return fmt.Errorf("figure 9: %w", err)
			}
			fmt.Fprintf(stdout, "figure 9 done in %v\n\n", time.Since(start).Round(time.Millisecond))
			continue
		}
		sp, err := experiments.FigureScenario(id, r.params)
		if err != nil {
			return err
		}
		if r.precision > 0 {
			sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: r.precision, MaxReplicates: r.maxReps}
			fmt.Fprintf(stdout, "running figure %s: %s (%d points × %d series, adaptive reps ≤ %d)\n",
				id, sp.Title, len(sp.Points), len(sp.Policies), r.maxReps)
		} else {
			fmt.Fprintf(stdout, "running figure %s: %s (%d points × %d series × %d reps)\n",
				id, sp.Title, len(sp.Points), len(sp.Policies), sp.Replicates)
		}
		res, err := campaign.Run(sp, campaign.Options{Workers: workers})
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		table, err := res.Table()
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if err := emit(id, table); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if res.Adaptive() {
			budget := res.ReplicateBudget()
			fmt.Fprintf(stdout, "figure %s adaptive: %d of %d budgeted replicates (%.1f%% saved)\n",
				id, res.Units(), budget, 100*float64(budget-res.Units())/float64(budget))
		}
		fmt.Fprintf(stdout, "figure %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	path := filepath.Join(r.outDir, "EXPERIMENTS.md")
	md, passed, total := report(r, tables)
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d/%d shape checks pass)\n", path, passed, total)
	return nil
}
