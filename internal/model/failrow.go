package model

import (
	"math"
	"sync"
	"sync/atomic"
)

// Failure rows: the λ-dependent half of a compiled table, filled on
// demand.
//
// A cold schedule and most decision rounds read only a short prefix of
// each task's candidate row (line 9 of Algorithm 1 stops at the first
// improving cell, DESIGN.md §15.4), so a table computes a task's
// Eq. (1)–(4) failure terms only as far as a query needs them. Each row
// is an immutable snapshot published through its own atomic pointer:
// readers load it without a lock, and a query that needs more cells
// grows the row under the table's mutex into a fresh snapshot. A
// snapshot never changes after it is published, so a reader holding one
// sees the same bits whatever fills follow.

// failCell holds the failure terms of one (task, allocation) cell. λ·j
// is one multiply, but recomputing it in the row kernel measured about
// 6% slower than loading it, so the cell keeps it.
type failCell struct {
	tau    float64 // τ_{i,j}, checkpointing period
	work   float64 // τ_{i,j} − C_{i,j}, work per period
	lj     float64 // λ·j, the task's failure rate
	prefac float64 // e^{λj·R}·(1/λj + D), the Eq. (4) prefactor
	expPer float64 // Expm1(λj·(silentSegment(τ−C) + C)), the period term
}

// failRow is one published snapshot of a task's failure row: cells[k] is
// allocation j = 2(k+1).
type failRow struct{ cells []failCell }

// emptyRow is the snapshot of a row nothing has read yet.
var emptyRow failRow

// failTable holds the failure rows of one table and of every view of it.
// Growth takes mu; reads do not.
type failTable struct {
	mu    sync.Mutex
	rows  []atomic.Pointer[failRow]
	cells arena[failCell]
	hdrs  arena[failRow]
}

// fillGrowth is the factor a row's filled length grows by when a query
// reads past it: a fill covers max(need, fillGrowth·filled) cells, so a
// row holds at most fillGrowth times the cells ever read from it and a
// scan that reads one more cell per query grows it O(log) times. Tests
// may set it to 1 to make fills exact.
var fillGrowth = 2

// reset empties every row for n tasks and rewinds the arenas, keeping
// their storage for the fills that follow. Only a new table or a
// TableArena's rebuild may call it: no reader can hold a snapshot
// across it.
func (ft *failTable) reset(n int) {
	if cap(ft.rows) < n {
		ft.rows = make([]atomic.Pointer[failRow], n)
	}
	ft.rows = ft.rows[:n]
	for i := range ft.rows {
		ft.rows[i].Store(&emptyRow)
	}
	ft.cells.rewind()
	ft.hdrs.rewind()
}

// failRow returns task i's failure cells, filled through at least need
// cells (need ≤ maxJ/2). The returned slice is an immutable snapshot.
func (c *Compiled) failRow(i, need int) []failCell {
	s := c.fail.rows[i].Load().cells
	if len(s) < need {
		s = c.fillRow(i, need)
	}
	return s
}

// fillRow publishes a snapshot of row i that covers at least need cells:
// a copy of the current one extended by fillCells.
func (c *Compiled) fillRow(i, need int) []failCell {
	ft := c.fail
	ft.mu.Lock()
	defer ft.mu.Unlock()
	have := ft.rows[i].Load().cells
	if len(have) >= need {
		return have
	}
	cells := ft.cells.take(min(max(need, fillGrowth*len(have)), c.maxJ/2))
	copy(cells, have)
	c.fillCells(i, len(have), cells[len(have):])
	hdr := &ft.hdrs.take(1)[0]
	hdr.cells = cells
	ft.rows[i].Store(hdr)
	return cells
}

// fillCells computes row i's failure cells k0, k0+1, … into dst from the
// profile columns, the seg kind and the resilience parameters. The
// Resilience primitives are inlined per cell (λj = Rate, R = C,
// V_{i,j} = V_i/j, Young or Daly period over µ = 1/λj, silentSegment by
// seg kind) with the same float64 operations in the same order, so every
// cell is bit-identical to the direct path (pinned by
// TestCompiledMatchesDirect).
func (c *Compiled) fillCells(i, k0 int, dst []failCell) {
	res := c.res
	sk := c.seg[i]
	verify := c.tasks[i].Verify
	base := i*c.stride + k0
	ck := c.ck[base : base+len(dst)]
	for d := range dst {
		jf := float64(2 * (k0 + d + 1))
		lj := res.Lambda * jf // Resilience.Rate
		tau := cellPeriod(res.Rule, lj, ck[d])
		work := tau - ck[d]
		dst[d] = failCell{
			tau:  tau,
			work: work,
			lj:   lj,
			// Same combination order as ExpectedTimeRaw: the prefactor is
			// Exp(λjR)·(1/λj + D), and the period term is Expm1 of λj
			// times the (possibly silent-inflated) period.
			prefac: math.Exp(lj*ck[d]) * (1/lj + res.Downtime),
			expPer: cellPeriodTerm(sk, lj, work, ck[d], verify/jf, res.SilentLambda*jf),
		}
	}
}

// cellPeriod is Resilience.Period over a precomputed rate λj and
// checkpoint cost C: µ = MTBF(j) = 1/λj, then Young's τ = sqrt(2µC) + C
// (Eq. 1) or Daly's higher-order estimate — the same operations in the
// same order, so the result is bit-identical.
func cellPeriod(rule PeriodRule, lj, ck float64) float64 {
	mu := 1 / lj
	if rule == PeriodDaly {
		if ck >= 2*mu {
			return mu + ck
		}
		x := ck / (2 * mu)
		return math.Sqrt(2*mu*ck) * (1 + math.Sqrt(x)/3 + x/9)
	}
	return math.Sqrt(2*mu*ck) + ck
}

// cellPeriodTerm is the Eq. (4) period term Expm1(λj·(s + C)), where s is
// silentSegment(τ−C) reproduced over V_{i,j} and λ_s·j with silent.go's
// branch structure.
func cellPeriodTerm(sk segKind, lj, work, ck, v, slj float64) float64 {
	var segw float64
	switch {
	case work <= 0:
		segw = 0
	case sk == segPlain:
		segw = work
	case sk == segVerify:
		segw = work + v
	default:
		segw = math.Exp(slj*work) * (work + v)
	}
	return math.Expm1(lj * (segw + ck))
}

// arena hands out slices carved from reusable chunks, so a table's row
// fills cost one allocation per chunk rather than one per fill. rewind
// makes every chunk available again.
type arena[T any] struct {
	chunks    [][]T
	cur, used int // the chunk being carved and its carved length
}

// arenaMinChunk and arenaMaxChunk bound the chunk sizes, in elements:
// the first chunk is small, so a table whose rows stay short stays small,
// and each further chunk doubles up to the cap.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 1 << 16
)

// take returns n fresh elements whose capacity ends at n. After a rewind
// their contents are stale; callers overwrite them.
func (a *arena[T]) take(n int) []T {
	for ; a.cur < len(a.chunks); a.cur, a.used = a.cur+1, 0 {
		if ch := a.chunks[a.cur]; a.used+n <= len(ch) {
			a.used += n
			return ch[a.used-n : a.used : a.used]
		}
	}
	size := arenaMinChunk
	if k := len(a.chunks); k > 0 {
		size = min(2*len(a.chunks[k-1]), arenaMaxChunk)
	}
	a.chunks = append(a.chunks, make([]T, max(n, size)))
	a.used = n
	return a.chunks[a.cur][:n:n]
}

// rewind makes every chunk available to take again.
func (a *arena[T]) rewind() { a.cur, a.used = 0, 0 }
