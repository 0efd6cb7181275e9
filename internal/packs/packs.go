// Package packs implements the paper's stated future work (§7):
// partitioning a set of tasks into several consecutive packs, each
// co-scheduled with Algorithm 1 and executed in sequence. It follows the
// approach of Aupy et al. [3] (the paper's fault-free ancestor): order
// the tasks, then split the ordered sequence optimally with dynamic
// programming, where the cost of one pack is its fault-aware expected
// makespan from internal/core.
//
// This is an extension beyond the paper's evaluation; DESIGN.md lists it
// as S15.
package packs

import (
	"fmt"
	"math"
	"sort"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
)

// Partition is an assignment of task indices to consecutive packs.
type Partition struct {
	Packs [][]int // task indices per pack, executed in order
	Cost  float64 // predicted total expected makespan (sum over packs)
}

// Validate checks that the partition covers every task exactly once and
// that each pack fits on the platform.
func (pt Partition) Validate(in core.Instance) error {
	seen := make([]bool, len(in.Tasks))
	for pi, pack := range pt.Packs {
		if len(pack) == 0 {
			return fmt.Errorf("packs: pack %d is empty", pi)
		}
		if 2*len(pack) > in.P {
			return fmt.Errorf("packs: pack %d has %d tasks, platform fits %d", pi, len(pack), in.P/2)
		}
		for _, idx := range pack {
			if idx < 0 || idx >= len(in.Tasks) {
				return fmt.Errorf("packs: pack %d references task %d", pi, idx)
			}
			if seen[idx] {
				return fmt.Errorf("packs: task %d scheduled twice", idx)
			}
			seen[idx] = true
		}
	}
	for idx, ok := range seen {
		if !ok {
			return fmt.Errorf("packs: task %d not scheduled", idx)
		}
	}
	return nil
}

// packCost evaluates one candidate pack: the expected makespan of its
// optimal no-redistribution schedule (Algorithm 1). Infeasible packs
// (more tasks than processor pairs) cost +Inf.
func packCost(in core.Instance, members []int) float64 {
	if 2*len(members) > in.P {
		return math.Inf(1)
	}
	sub := core.Instance{Tasks: subset(in.Tasks, members), P: in.P, Res: in.Res}
	sigma, err := core.InitialSchedule(sub)
	if err != nil {
		return math.Inf(1)
	}
	return core.ScheduleMakespan(sub, sigma)
}

func subset(tasks []model.Task, idx []int) []model.Task {
	out := make([]model.Task, len(idx))
	for k, i := range idx {
		out[k] = tasks[i]
		out[k].ID = k
	}
	return out
}

// OnePack places every task in a single pack (the paper's setting).
func OnePack(in core.Instance) (Partition, error) {
	if err := in.Validate(); err != nil {
		return Partition{}, err
	}
	all := make([]int, len(in.Tasks))
	for i := range all {
		all[i] = i
	}
	cost := packCost(in, all)
	if math.IsInf(cost, 1) {
		return Partition{}, fmt.Errorf("packs: %d tasks do not fit on %d processors in one pack", len(in.Tasks), in.P)
	}
	return Partition{Packs: [][]int{all}, Cost: cost}, nil
}

// SortedDP orders tasks by non-increasing expected pair-time
// t^R_{i,2}(1) and splits the ordered sequence into consecutive packs
// with an O(n²) dynamic program, following Aupy et al.'s observation
// that an optimal pack partition of an ordered sequence uses contiguous
// ranges. Contrary to OnePack it always succeeds, even when n > p/2.
func SortedDP(in core.Instance) (Partition, error) {
	n := len(in.Tasks)
	if n == 0 {
		return Partition{}, fmt.Errorf("packs: empty task set")
	}
	if in.P < 2 || in.P%2 != 0 {
		return Partition{}, fmt.Errorf("packs: invalid processor count %d", in.P)
	}
	if err := in.Res.Validate(); err != nil {
		return Partition{}, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	key := make([]float64, n)
	for i, t := range in.Tasks {
		key[i] = in.Res.ExpectedTime(t, 2, 1)
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] > key[order[b]] })

	maxPack := in.P / 2
	// best[i]: minimal cost of scheduling the first i ordered tasks.
	best := make([]float64, n+1)
	split := make([]int, n+1)
	for i := 1; i <= n; i++ {
		best[i] = math.Inf(1)
		lo := i - maxPack
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			c := packCost(in, order[j:i])
			if v := best[j] + c; v < best[i] {
				best[i] = v
				split[i] = j
			}
		}
	}
	if math.IsInf(best[n], 1) {
		return Partition{}, fmt.Errorf("packs: no feasible partition")
	}
	var packs [][]int
	for i := n; i > 0; i = split[i] {
		j := split[i]
		pack := append([]int(nil), order[j:i]...)
		packs = append(packs, pack)
	}
	// Reverse into execution order (longest tasks first).
	for l, r := 0, len(packs)-1; l < r; l, r = l+1, r-1 {
		packs[l], packs[r] = packs[r], packs[l]
	}
	return Partition{Packs: packs, Cost: best[n]}, nil
}

// Result aggregates a simulated multi-pack execution.
type Result struct {
	Makespan  float64       // total completion time across packs
	PackSpans []float64     // simulated makespan of each pack
	Counters  core.Counters // summed over packs
}

// Simulate executes the packs in sequence under the given policy. Each
// pack gets a fresh fault source from the factory — with the paper's
// memoryless exponential failures this is statistically identical to one
// continuous platform timeline.
func Simulate(in core.Instance, pt Partition, pol core.Policy, newSource func() failure.Source, opt core.Options) (Result, error) {
	if err := pt.Validate(in); err != nil {
		return Result{}, err
	}
	var out Result
	for _, pack := range pt.Packs {
		sub := core.Instance{Tasks: subset(in.Tasks, pack), P: in.P, Res: in.Res}
		var src failure.Source
		if newSource != nil {
			src = newSource()
		}
		res, err := core.Run(sub, pol, src, opt)
		if err != nil {
			return Result{}, err
		}
		out.PackSpans = append(out.PackSpans, res.Makespan)
		out.Makespan += res.Makespan
		addCounters(&out.Counters, res.Counters)
	}
	return out, nil
}

func addCounters(dst *core.Counters, src core.Counters) {
	dst.Failures += src.Failures
	dst.SuppressedFault += src.SuppressedFault
	dst.IdleFault += src.IdleFault
	dst.Redistributions += src.Redistributions
	dst.RedistTime += src.RedistTime
	dst.TaskEnds += src.TaskEnds
	dst.EarlyFinalized += src.EarlyFinalized
	dst.Events += src.Events
	dst.Submits += src.Submits
	dst.Decisions += src.Decisions
	dst.CandidateEvals += src.CandidateEvals
	dst.PrunedScans += src.PrunedScans
}
