// Command faultgen generates and inspects fault traces — the stand-in
// for the fault simulator of Bougeret et al. [20] / Bosilca et al. [21]
// that the paper's evaluation uses. Traces are JSON Lines, one fault per
// line, replayable by coschedsim -faults.
//
// Examples:
//
//	faultgen -p 1000 -mtbf 100 -horizon-days 200 -o faults.jsonl
//	faultgen -inspect faults.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "faultgen: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		p           = fs.Int("p", 1000, "number of processors")
		mtbf        = fs.Float64("mtbf", 100, "per-processor MTBF in years")
		law         = fs.String("law", "exp", "inter-arrival law: exp | weibull")
		shape       = fs.Float64("shape", 0.7, "Weibull shape parameter")
		count       = fs.Int("count", 1000000, "maximum number of faults")
		horizonDays = fs.Float64("horizon-days", 365, "stop generating past this horizon")
		seed        = fs.Uint64("seed", 1, "random seed")
		out         = fs.String("o", "", "output file (default stdout)")
		inspect     = fs.String("inspect", "", "inspect an existing trace instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inspect != "" {
		return inspectTrace(*inspect, stdout)
	}

	lambda := 1 / (*mtbf * workload.YearSeconds)
	if !(lambda > 0) || math.IsInf(lambda, 1) {
		return fmt.Errorf("-mtbf must be a positive, finite number of years, got %v", *mtbf)
	}
	lawName := *law
	if lawName == "exp" {
		lawName = "exponential"
	}
	// Weibull scale is chosen so that the mean gap equals the MTBF.
	lawImpl, err := failure.LawForRate(lawName, lambda, *shape)
	if err != nil {
		return err
	}
	src, err := failure.NewRenewal(*p, lawImpl, rng.New(*seed))
	if err != nil {
		return err
	}
	faults := failure.Collect(src, *count, *horizonDays*86400)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := failure.WriteTrace(w, faults); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "faultgen: %d faults over %.1f days on %d processors (law %s)\n",
		len(faults), *horizonDays, *p, *law)
	return nil
}

func inspectTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	faults, err := failure.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(faults) == 0 {
		fmt.Fprintln(stdout, "empty trace")
		return nil
	}
	var gaps stats.Accumulator
	procs := map[int]int{}
	prev := 0.0
	for _, fl := range faults {
		gaps.Add(fl.Time - prev)
		prev = fl.Time
		procs[fl.Proc]++
	}
	fmt.Fprintf(stdout, "faults          %d\n", len(faults))
	fmt.Fprintf(stdout, "span            %.1f days\n", faults[len(faults)-1].Time/86400)
	fmt.Fprintf(stdout, "processors hit  %d distinct\n", len(procs))
	fmt.Fprintf(stdout, "platform MTBF   %.2f hours (mean gap)\n", gaps.Mean()/3600)
	fmt.Fprintf(stdout, "gap stddev      %.2f hours\n", gaps.StdDev()/3600)
	return nil
}
