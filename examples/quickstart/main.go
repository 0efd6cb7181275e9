// Quickstart: schedule a pack of malleable tasks on a failure-prone
// platform and compare no-redistribution against the paper's best
// heuristic (IteratedGreedy + EndLocal) on the same fault sequence.
package main

import (
	"fmt"
	"log"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/rng"
	"cosched/internal/workload"
)

func main() {
	// A pack of 50 tasks on 400 processors, per-processor MTBF 20 years —
	// the §6.1 synthetic model with everything else at paper defaults.
	spec := workload.Default()
	spec.N = 50
	spec.P = 400
	spec.MTBFYears = 20

	master := rng.New(2016) // the paper's vintage
	tasks, err := spec.Generate(master)
	if err != nil {
		log.Fatal(err)
	}
	in := core.Instance{Tasks: tasks, P: spec.P, Res: spec.Resilience()}

	// The optimal static schedule (Algorithm 1) before anything fails.
	sigma, err := core.InitialSchedule(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial schedule: %d tasks, allocations from %d to %d processors\n",
		len(sigma), minInt(sigma), maxInt(sigma))
	fmt.Printf("expected fault-aware makespan: %.1f days\n\n",
		core.ScheduleMakespan(in, sigma)/86400)

	// Record one fault sequence so both policies face identical failures.
	gen, err := failure.NewRenewal(spec.P, failure.Exponential{Lambda: spec.Lambda()}, master.Split())
	if err != nil {
		log.Fatal(err)
	}
	faults := failure.Collect(gen, 100000, 0)
	replay, err := failure.NewTrace(faults)
	if err != nil {
		log.Fatal(err)
	}

	for _, pol := range []core.Policy{core.NoRedistribution, core.IGEndLocal} {
		replay.Rewind()
		res, err := core.Run(in, pol, replay, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s makespan %.1f days  (%d failures handled, %d redistributions)\n",
			pol, res.Makespan/86400, res.Counters.Failures, res.Counters.Redistributions)
	}
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
