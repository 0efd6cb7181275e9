// Package platform models the execution platform: p identical processors
// allocated to tasks at the granularity of buddy pairs, as required by the
// double-checkpointing algorithm (§3.1 of the paper: "the number of
// processors assigned to each task must be even").
//
// Processors are numbered 0..p−1; pair k owns processors 2k and 2k+1, and
// the buddy of processor q is q XOR 1. The allocator keeps the processor →
// task ownership map the failure simulator needs to attribute a strike,
// and enforces conservation and evenness invariants.
//
// The allocator is arena-style: all bookkeeping lives in index-addressed
// slices that retain their capacity across Reset, so a simulator reusing
// one Platform for millions of Monte-Carlo replicates allocates nothing
// in steady state.
package platform

import "fmt"

// Free marks an unowned processor in ownership queries.
const Free = -1

// Platform is a pair-granular processor allocator. It is not safe for
// concurrent use; the simulation engine is single-threaded by design
// (discrete-event), and experiment-level parallelism uses one Platform
// per goroutine.
type Platform struct {
	p      int
	owner  []int   // processor -> task ID, or Free
	free   []int   // stack of free pair indices
	byTask [][]int // task ID -> owned pair indices, allocation order
}

// New creates a platform with p processors. p must be positive and even.
func New(p int) (*Platform, error) {
	pl := &Platform{}
	if err := pl.Reset(p); err != nil {
		return nil, err
	}
	return pl, nil
}

// Reset returns the platform to the fully-free state with p processors,
// reusing every internal buffer. It makes one Platform reusable across
// simulation runs: after warm-up no allocator call allocates memory.
func (pl *Platform) Reset(p int) error {
	if p <= 0 || p%2 != 0 {
		return fmt.Errorf("platform: processor count %d must be positive and even", p)
	}
	pl.p = p
	if cap(pl.owner) < p {
		pl.owner = make([]int, p)
	}
	pl.owner = pl.owner[:p]
	for i := range pl.owner {
		pl.owner[i] = Free
	}
	if cap(pl.free) < p/2 {
		pl.free = make([]int, 0, p/2)
	}
	pl.free = pl.free[:0]
	// Push pairs in reverse so allocation hands out low indices first.
	for k := p/2 - 1; k >= 0; k-- {
		pl.free = append(pl.free, k)
	}
	for i := range pl.byTask {
		pl.byTask[i] = pl.byTask[i][:0]
	}
	return nil
}

// pairs returns the pair list of a task, growing the table on demand.
func (pl *Platform) pairs(task int) []int {
	if task >= len(pl.byTask) {
		return nil
	}
	return pl.byTask[task]
}

// grow makes byTask addressable at task.
func (pl *Platform) grow(task int) {
	for len(pl.byTask) <= task {
		pl.byTask = append(pl.byTask, nil)
	}
}

// P returns the total number of processors.
func (pl *Platform) P() int { return pl.p }

// FreeProcs returns the number of unallocated processors.
func (pl *Platform) FreeProcs() int { return 2 * len(pl.free) }

// Count returns the number of processors currently owned by the task.
func (pl *Platform) Count(task int) int { return 2 * len(pl.pairs(task)) }

// Owner returns the task owning processor q, or Free.
func (pl *Platform) Owner(q int) int {
	if q < 0 || q >= pl.p {
		panic(fmt.Sprintf("platform: processor %d out of range [0,%d)", q, pl.p))
	}
	return pl.owner[q]
}

// Alloc grants count processors (count even, > 0) to the task: free
// pairs move to the task and the ownership map updates. Fault
// attribution goes through Owner, so no processor-ID list is built.
func (pl *Platform) Alloc(task, count int) error {
	if task < 0 {
		return fmt.Errorf("platform: invalid task ID %d", task)
	}
	if count <= 0 || count%2 != 0 {
		return fmt.Errorf("platform: allocation of %d processors must be positive and even", count)
	}
	pairs := count / 2
	if pairs > len(pl.free) {
		return fmt.Errorf("platform: requested %d processors, only %d free", count, pl.FreeProcs())
	}
	pl.grow(task)
	for i := 0; i < pairs; i++ {
		k := pl.free[len(pl.free)-1]
		pl.free = pl.free[:len(pl.free)-1]
		pl.byTask[task] = append(pl.byTask[task], k)
		pl.owner[2*k] = task
		pl.owner[2*k+1] = task
	}
	return nil
}

// Release takes count processors (count even, > 0) away from the task,
// most recently allocated pairs first.
func (pl *Platform) Release(task, count int) error {
	if count <= 0 || count%2 != 0 {
		return fmt.Errorf("platform: release of %d processors must be positive and even", count)
	}
	pairs := count / 2
	owned := pl.pairs(task)
	if pairs > len(owned) {
		return fmt.Errorf("platform: task %d owns %d processors, cannot release %d", task, 2*len(owned), count)
	}
	for i := 0; i < pairs; i++ {
		k := owned[len(owned)-1]
		owned = owned[:len(owned)-1]
		pl.free = append(pl.free, k)
		pl.owner[2*k] = Free
		pl.owner[2*k+1] = Free
	}
	pl.byTask[task] = owned
	return nil
}

// ReleaseAll frees every processor owned by the task.
func (pl *Platform) ReleaseAll(task int) {
	n := pl.Count(task)
	if n == 0 {
		return
	}
	if err := pl.Release(task, n); err != nil {
		// Unreachable: Count(task) processors are owned by construction.
		panic(err)
	}
}

// Resize changes the task's allocation to exactly count processors,
// allocating or releasing as needed.
func (pl *Platform) Resize(task, count int) error {
	if count < 0 || count%2 != 0 {
		return fmt.Errorf("platform: target allocation %d must be non-negative and even", count)
	}
	cur := pl.Count(task)
	switch {
	case count > cur:
		return pl.Alloc(task, count-cur)
	case count < cur:
		return pl.Release(task, cur-count)
	}
	return nil
}

// Validate checks the internal invariants: pair-aligned ownership, buddy
// consistency, and conservation (owned + free == p). It is used by tests
// and can be enabled as a paranoia check inside the engine.
func (pl *Platform) Validate() error {
	owned := 0
	for k := 0; k < pl.p/2; k++ {
		a, b := pl.owner[2*k], pl.owner[2*k+1]
		if a != b {
			return fmt.Errorf("platform: pair %d split between owners %d and %d", k, a, b)
		}
		if a != Free {
			owned += 2
		}
	}
	if owned+2*len(pl.free) != pl.p {
		return fmt.Errorf("platform: conservation broken: %d owned + %d free != %d", owned, 2*len(pl.free), pl.p)
	}
	total := 0
	for task, pairs := range pl.byTask {
		for _, k := range pairs {
			if pl.owner[2*k] != task {
				return fmt.Errorf("platform: task %d claims pair %d owned by %d", task, k, pl.owner[2*k])
			}
		}
		total += 2 * len(pairs)
	}
	if total != owned {
		return fmt.Errorf("platform: byTask total %d != owner map total %d", total, owned)
	}
	return nil
}
