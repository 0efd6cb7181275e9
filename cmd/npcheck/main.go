// Command npcheck demonstrates Theorem 2 of the paper: the reduction
// from 3-Partition to co-scheduling with redistribution. It generates a
// 3-Partition instance, builds the scheduling instance of the reduction,
// solves the former exhaustively and — when a partition exists —
// constructs and verifies the deadline-tight malleable schedule.
//
// Examples:
//
//	npcheck -m 3 -seed 7    # random yes-instance with 3 triples
//	npcheck -no             # canonical no-instance
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cosched/internal/npc"
	"cosched/internal/rng"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "npcheck: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("npcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m    = fs.Int("m", 2, "number of triples of the 3-Partition instance")
		seed = fs.Uint64("seed", 1, "random seed")
		no   = fs.Bool("no", false, "use the canonical no-instance instead of a random yes-instance")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *m < 1 && !*no {
		return fmt.Errorf("-m must be at least 1, got %d", *m)
	}

	var tp npc.ThreePartition
	if *no {
		tp = npc.KnownNo()
	} else {
		tp = npc.RandomYes(*m, rng.New(*seed))
	}
	fmt.Fprintf(stdout, "3-Partition instance: B = %d, items = %v\n", tp.B, tp.Sorted())

	red, err := npc.Reduce(tp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Theorem-2 reduction:  n = %d tasks, p = %d processors, deadline D = %g\n",
		red.N, red.P, red.Deadline)
	if err := red.CheckMonotone(); err != nil {
		return fmt.Errorf("reduced instance violates the model assumptions: %v", err)
	}
	fmt.Fprintln(stdout, "model assumptions:    t_{i,j} non-increasing, work j·t_{i,j} non-decreasing ✓")

	triples, ok := tp.Solve()
	if !ok {
		fmt.Fprintln(stdout, "exhaustive solver:    NO partition exists")
		fmt.Fprintln(stdout, "conclusion:           no schedule of the Theorem-2 family meets the deadline;")
		fmt.Fprintln(stdout, "                      the scheduling instance is a no-instance as the proof requires")
		return nil
	}
	fmt.Fprintf(stdout, "exhaustive solver:    partition found: %v\n", triples)

	sched, err := npc.FromPartition(red, triples)
	if err != nil {
		return fmt.Errorf("constructing the proof schedule: %v", err)
	}
	if err := sched.Verify(red); err != nil {
		return fmt.Errorf("schedule verification: %v", err)
	}
	fmt.Fprintf(stdout, "proof schedule:       verified; makespan = %g = D (deadline met exactly)\n", sched.Makespan())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "large-task ramp-up (procs over time):")
	for k := 3 * tp.M(); k < red.N; k++ {
		fmt.Fprintf(stdout, "  task %d:", k)
		for _, ph := range sched.Phases[k] {
			fmt.Fprintf(stdout, "  [%g,%g)×%d", ph.Start, ph.End, ph.Procs)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
