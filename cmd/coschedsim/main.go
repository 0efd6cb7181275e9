// Command coschedsim runs one simulated execution of a co-scheduled pack
// under failures and prints the outcome: makespan, event counters and,
// optionally, the full event timeline or a JSONL trace. With -arrivals
// the run is online: jobs arrive over time on top of the base pack, and
// per-job metrics (response, stretch, queue wait, utilization) are
// reported.
//
// Examples:
//
//	coschedsim -n 100 -p 1000 -mtbf 100 -policy ig-el -seed 42 -verbose
//	coschedsim -n 20 -p 200 -arrivals poisson -jobs 10 -load 8 -arrival-rule steal
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/trace"
	"cosched/internal/workload"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "coschedsim: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coschedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 100, "number of tasks in the pack")
		p         = fs.Int("p", 1000, "number of processors (even, ≥ 2n)")
		mInf      = fs.Float64("minf", 1.5e6, "minimum problem size m_inf")
		mSup      = fs.Float64("msup", 2.5e6, "maximum problem size m_sup")
		seqFrac   = fs.Float64("f", 0.08, "sequential fraction of Eq. (10)")
		ckptUnit  = fs.Float64("c", 1, "checkpoint cost per data unit (C_i = c·m_i)")
		mtbf      = fs.Float64("mtbf", 100, "per-processor MTBF in years (0 = fault-free)")
		downtime  = fs.Float64("downtime", 60, "downtime D in seconds")
		policy    = fs.String("policy", "ig-el", "policy alias or <fail>-<end>[+<arrival>] composition (see -list-policies)")
		seed      = fs.Uint64("seed", 1, "master random seed")
		faultFile = fs.String("faults", "", "replay a JSONL fault trace instead of generating faults")
		semantics = fs.String("semantics", "expected", "end-event semantics: expected | deterministic")
		verbose   = fs.Bool("verbose", false, "print the full event timeline")
		traceOut  = fs.String("trace", "", "write the JSONL event trace to this file")
		breakdown = fs.Bool("breakdown", false, "print the waste-breakdown decomposition")
		listPol   = fs.Bool("list-policies", false, "list accepted policy names and exit")

		arrivals    = fs.String("arrivals", "", "online mode: arrival process (poisson | batch | trace:FILE)")
		load        = fs.Float64("load", 8, "online mode: Poisson arrival rate in jobs per day")
		jobs        = fs.Int("jobs", 10, "online mode: number of arriving jobs")
		arrivalRule = fs.String("arrival-rule", "steal", "online mode: arrival redistribution rule (none | greedy | steal | rule name)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listPol {
		scenario.FprintPolicies(stdout)
		return nil
	}

	ps, err := scenario.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	pol := ps.Policy
	if ps.FaultFree {
		// The ff- prefix is the fault-free-context variant: same
		// redistribution rules, λ forced to 0. Replaying a fault trace
		// into a fault-free model would mix the two regimes.
		if *faultFile != "" {
			return fmt.Errorf("-policy %s is fault-free; it cannot be combined with -faults", *policy)
		}
		*mtbf = 0
	}
	if *arrivals == "" && pol.OnArrival != core.ArrivalNone {
		// Offline runs have no admissions, so the rule could never fire
		// (scenario specs refuse the same policy without an arrivals
		// block).
		return fmt.Errorf("-policy %s names arrival rule %v, which needs -arrivals", *policy, pol.OnArrival)
	}
	// Check flag constraints up front with flag-level messages, before
	// the spec reaches the engine.
	switch {
	case *n <= 0:
		return fmt.Errorf("-n must be positive, got %d", *n)
	case *p <= 0 || *p%2 != 0:
		return fmt.Errorf("-p must be a positive even number (processors pair up for buddy checkpointing), got %d", *p)
	case *p < 2**n:
		return fmt.Errorf("-p %d is too small: every task needs a processor pair, so p ≥ 2n = %d", *p, 2**n)
	case *mtbf < 0:
		return fmt.Errorf("-mtbf must be zero (fault-free) or positive years, got %v", *mtbf)
	case *downtime < 0:
		return fmt.Errorf("-downtime must be non-negative seconds, got %v", *downtime)
	case *mInf <= 1 || *mSup < *mInf:
		return fmt.Errorf("problem-size range -minf %v, -msup %v is invalid (need 1 < minf ≤ msup)", *mInf, *mSup)
	case *seqFrac < 0 || *seqFrac > 1:
		return fmt.Errorf("-f must be a fraction in [0,1], got %v", *seqFrac)
	case *ckptUnit < 0:
		return fmt.Errorf("-c must be a non-negative checkpoint cost, got %v", *ckptUnit)
	}
	spec := workload.Spec{
		N: *n, P: *p,
		MInf: *mInf, MSup: *mSup,
		SeqFraction: *seqFrac, CkptUnit: *ckptUnit,
		MTBFYears: *mtbf, Downtime: *downtime,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	src := rng.New(*seed)
	tasks, err := spec.Generate(src)
	if err != nil {
		return err
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}

	if *arrivals != "" {
		if *breakdown {
			return fmt.Errorf("-breakdown is not supported with -arrivals (the accounting decomposition is offline-only)")
		}
		as := workload.ArrivalSpec{Count: *jobs, Rate: *load / 86400, Rule: *arrivalRule}
		proc, trace, err := workload.ParseProcessArg(*arrivals)
		if err != nil {
			return fmt.Errorf("-arrivals: %w", err)
		}
		as.Process, as.Trace = proc, trace
		as.ApplyFlagDefaults()
		rule, err := scenario.ParseArrivalRule(*arrivalRule)
		if err != nil {
			return err
		}
		// An arrival rule named explicitly in -policy ("…+ArrivalGreedy")
		// wins over the -arrival-rule flag's default, mirroring how
		// scenario specs treat the arrivals block's rule.
		if pol.OnArrival == core.ArrivalNone {
			pol.OnArrival = rule
		}
		in.Arrivals, err = as.Generate(spec, src.Split())
		if err != nil {
			return err
		}
	}

	var faults failure.Source
	switch {
	case *faultFile != "":
		f, err := os.Open(*faultFile)
		if err != nil {
			return err
		}
		recorded, err := failure.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		faults, err = failure.NewTrace(recorded)
		if err != nil {
			return err
		}
	case spec.Lambda() > 0:
		faults, err = failure.NewRenewal(spec.P, failure.Exponential{Lambda: spec.Lambda()}, src.Split())
		if err != nil {
			return err
		}
	}

	opt := core.Options{}
	switch strings.ToLower(*semantics) {
	case "expected":
	case "deterministic":
		opt.Semantics = core.SemanticsDeterministic
	default:
		return fmt.Errorf("unknown semantics %q", *semantics)
	}
	var log trace.Log
	if *verbose || *traceOut != "" {
		opt.OnTrace = log.Hook()
	}
	opt.Accounting = *breakdown

	res, err := core.Run(in, pol, faults, opt)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "policy             %s\n", pol)
	fmt.Fprintf(stdout, "pack               n=%d tasks on p=%d processors\n", spec.N, spec.P)
	fmt.Fprintf(stdout, "MTBF/processor     %.3g years\n", spec.MTBFYears)
	fmt.Fprintf(stdout, "makespan           %.2f s (%.2f days)\n", res.Makespan, res.Makespan/86400)
	c := res.Counters
	fmt.Fprintf(stdout, "failures           %d handled, %d suppressed, %d on idle processors\n",
		c.Failures, c.SuppressedFault, c.IdleFault)
	fmt.Fprintf(stdout, "redistributions    %d (total cost %.2f s)\n", c.Redistributions, c.RedistTime)
	fmt.Fprintf(stdout, "events             %d (%d task ends, %d finalized early)\n",
		c.Events, c.TaskEnds, c.EarlyFinalized)

	if len(in.Arrivals) > 0 {
		nBase := len(in.Tasks)
		var respSum, waitSum, worstWait float64
		for i := nBase; i < len(res.Finish); i++ {
			resp := res.Finish[i] - res.Arrive[i]
			wait := res.Start[i] - res.Arrive[i]
			respSum += resp
			waitSum += wait
			if wait > worstWait {
				worstWait = wait
			}
		}
		nj := float64(len(res.Finish) - nBase)
		fmt.Fprintf(stdout, "arrivals           %d submitted, mean response %.2f s, mean wait %.2f s (max %.2f s)\n",
			c.Submits, respSum/nj, waitSum/nj, worstWait)
		fmt.Fprintf(stdout, "utilization        %.1f%% (%.3g of %.3g proc-seconds)\n",
			100*res.ProcSeconds/(float64(in.P)*res.Makespan),
			res.ProcSeconds, float64(in.P)*res.Makespan)
	}

	if *breakdown && res.Breakdown != nil {
		b := res.Breakdown
		total := b.TotalTaskSeconds()
		fmt.Fprintln(stdout, "\nwaste breakdown (task-seconds):")
		row := func(label string, v float64) {
			fmt.Fprintf(stdout, "  %-22s %14.0f  (%5.2f%%)\n", label, v, 100*v/total)
		}
		row("useful work", b.Work)
		row("checkpoints", b.Checkpoint)
		row("lost to rollbacks", b.Lost)
		row("downtime+recovery", b.DownRec)
		row("redistribution", b.Redist)
		row("expectation inflation", b.Inflation)
		fmt.Fprintf(stdout, "  %-22s %14.0f\n", "total", total)
		fmt.Fprintf(stdout, "platform occupancy: %.1f%% busy (%.3g of %.3g proc-seconds)\n",
			100*b.BusyProcSeconds/(b.BusyProcSeconds+b.IdleProcSeconds),
			b.BusyProcSeconds, b.BusyProcSeconds+b.IdleProcSeconds)
	}

	if *verbose {
		fmt.Fprintln(stdout, "\ntimeline:")
		fmt.Fprint(stdout, log.Timeline())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := log.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace written to %s (%d events)\n", *traceOut, len(log.Events))
	}
	return nil
}
