package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// segKind selects how a compiled task's silent-error segment inflation is
// evaluated, mirroring the branches of Resilience.silentSegment.
type segKind uint8

const (
	segPlain  segKind = iota // no silent errors, no verification: segment = w
	segVerify                // verification only: segment = w + V_{i,j}
	segSilent                // silent errors: segment = e^{λ_s j w}·(w + V_{i,j})
)

// segOf returns task t's silent-segment mode under res.
func segOf(res Resilience, t Task) segKind {
	switch {
	case res.SilentActive():
		return segSilent
	case t.Verify != 0:
		return segVerify
	default:
		return segPlain
	}
}

// Compiled is the compiled instance model: per-(task, allocation) tables
// of every α-independent quantity the simulator queries in its steady
// state. One Compiled serves one (Tasks, Resilience, CostModel, P)
// instance and is safe to query from many goroutines at once (a Cache
// hands one table to every worker that asks for its instance).
//
// A table has two halves. The profile columns — t_{i,j}, C_{i,j}, m_i,
// the t-row metadata and the seg kinds — are built eagerly, in one pass
// over the instance, by Compile or TableArena.Build. The failure terms of
// Eq. (1)–(4) — τ, τ−C, the prefactor and the period term — are filled
// per task row on demand, only as far as a query reads (failrow.go); a
// fault-free table has none. Filling is the one thing a query writes,
// and it publishes immutable row snapshots, so reads never see a cell
// change. V_{i,j} = V_i/j is one division and is recomputed where it is
// used. Besides its two halves a table keeps the initial schedule of its
// instance once one is stored (Schedule), until the next rebuild.
//
// A table is built in one of three ways: Compile builds a fresh one; a
// Cache builds a near-miss from a resident table over the same pack
// (deltaOf), sharing its profile columns; and a TableArena rebuilds its
// one table in place. Only an arena's table is ever rewritten, and an
// arena's table is never shared, so a column two tables reference is
// never written again.
//
// A view (CacheEntry.View) is a table for a smaller platform that reads
// a larger table's columns and failure rows: its rows keep the larger
// stride, and maxJ ≤ 2·stride bounds what it covers.
//
// Layout: struct-of-arrays. Each profile column is its own slice of
// length NumTasks·stride, indexed i·stride + j/2 − 1, and each failure
// row is contiguous, so the row kernel (rawRange) streams a task's
// candidate row per cache line.
//
// Every query combines exactly the float64 values Resilience's direct
// primitives compute, in the same order, so results are bit-identical
// (pinned by TestCompiledMatchesDirect and the core golden-equivalence
// tests).
type Compiled struct {
	tasks  []Task
	res    Resilience
	rc     CostModel
	p      int
	maxJ   int // largest even allocation covered by the tables
	stride int // entries per task row: maxJ/2, or more in a view (CacheEntry.View)

	// Profile columns, each len NumTasks·stride (see DESIGN.md §9, §12).
	// R_{i,j} = C_{i,j} (the paper), so recovery reads ck; λ·j, λ_s·j and
	// V_{i,j} = V_i/j are one operation each and are recomputed where they
	// are used.
	tj []float64 // t_{i,j}, fault-free execution time
	ck []float64 // C_{i,j}, checkpoint cost

	seg  []segKind  // per-task silent-segment mode
	data []float64  // per-task data volume m_i (redistribution cost)
	trow []timeMeta // per-task shape of the t_{i,j} row (RawFloor)
	// fail holds the on-demand failure rows, shared with every view of
	// the table; nil until the first fault-enabled build.
	fail *failTable
	// sched holds the table's initial schedule once one is stored. Each
	// table has its own, views included: it is emptied by every rebuild.
	sched *schedSlot
}

// Schedule is the initial schedule of a table's instance (Algorithm 1,
// computed by internal/core): σ₀ and each task's expected finish time
// t^R_{i,σ₀(i)}(1) under it. A stored Schedule is read-only.
type Schedule struct {
	Sigma []int
	TU    []float64
}

// schedSlot publishes a table's Schedule once, through an atomic
// pointer, as failure rows are (failrow.go). spare holds the schedule an
// in-place rebuild emptied the slot of, whose arrays the next store
// reuses.
type schedSlot struct{ cur, spare atomic.Pointer[Schedule] }

// Schedule returns the initial schedule stored on the table, or nil.
func (c *Compiled) Schedule() *Schedule { return c.sched.cur.Load() }

// StoreSchedule stores a copy of σ₀ and tU as the table's initial
// schedule unless one is stored already. It is safe from any goroutine:
// every store on one table computes the same values, and the first wins.
func (c *Compiled) StoreSchedule(sigma []int, tU []float64) {
	s := c.sched.spare.Swap(nil)
	if s == nil {
		s = new(Schedule)
	}
	s.Sigma = append(s.Sigma[:0], sigma...)
	s.TU = append(s.TU[:0], tU...)
	c.sched.cur.CompareAndSwap(nil, s)
}

// TableArena owns one table and rebuilds it in place, reusing its
// column arrays, failure-row arenas and schedule arrays when capacities
// allow: a holder that rebuilds for instance after instance of one shape
// stops allocating. Each Build invalidates the table the previous one
// returned, its rows and its stored schedule, so an arena's table must
// never be shared: core.Simulator keeps one for its own table, and the
// cache publishes fresh tables only. The zero value is ready to use.
type TableArena struct{ c Compiled }

// Compile builds a fresh table for one instance; see TableArena.Build.
func Compile(tasks []Task, res Resilience, rc CostModel, p int) (*Compiled, error) {
	return new(TableArena).Build(tasks, res, rc, p)
}

// Build rebuilds the arena's table for one instance and returns it, the
// same *Compiled on every call. p is the platform size: the table covers
// every even allocation in [2, p]. It builds the profile columns only:
// failure rows fill as queries read them. On error the table is
// unchanged.
func (a *TableArena) Build(tasks []Task, res Resilience, rc CostModel, p int) (*Compiled, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("model: compiling an empty pack")
	}
	if p < 2 {
		return nil, fmt.Errorf("model: compiling for platform size %d (want ≥ 2)", p)
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t.Profile == nil {
			return nil, fmt.Errorf("model: task %d has no speedup profile", i)
		}
	}
	c := &a.c
	if c.sched == nil {
		c.sched = new(schedSlot)
	} else if s := c.sched.cur.Swap(nil); s != nil {
		c.sched.spare.Store(s)
	}
	c.tasks = tasks
	c.res = res
	c.rc = rc
	c.p = p
	c.maxJ = p - p%2
	c.stride = c.maxJ / 2
	a.sizeColumns(len(tasks))
	for i, t := range tasks {
		a.compileTask(i, t)
	}
	return c, nil
}

// sizeF resizes a float64 column to n entries, reusing capacity.
func sizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// sizeColumns resizes every profile column and the per-task metadata of
// the arena's table to n tasks of the current stride, reusing capacity,
// and empties the failure rows.
func (a *TableArena) sizeColumns(n int) {
	c := &a.c
	cells := n * c.stride
	c.tj = sizeF(c.tj, cells)
	c.ck = sizeF(c.ck, cells)
	if cap(c.seg) < n {
		c.seg = make([]segKind, n)
	}
	c.seg = c.seg[:n]
	c.data = sizeF(c.data, n)
	if cap(c.trow) < n {
		c.trow = make([]timeMeta, n)
	}
	c.trow = c.trow[:n]
	if c.fail == nil {
		c.fail = new(failTable)
	}
	c.fail.reset(n)
}

// fillTimes computes t_{i,j} for every covered allocation into dst
// (dst[k] is j = 2(k+1)). The Synthetic profile's per-task constants —
// t(m,1) and log2 m are j-independent — are hoisted out of the row loop;
// the per-j expression keeps Synthetic.Time's operation grouping
// exactly ((f·t1 + ((1−f)·t1)/q) + (m/q)·log2 m), so the hoisted values
// are bit-identical to per-j Time calls. The (m/q)·log2 m term must NOT
// be reassociated to (m·log2 m)/q: exactness forces the scalar order
// here. Other profiles take the generic per-j path.
func fillTimes(t Task, dst []float64) {
	s, ok := t.Profile.(Synthetic)
	if !ok {
		if sp, okp := t.Profile.(*Synthetic); okp {
			s, ok = *sp, true
		}
	}
	if !ok {
		for k := range dst {
			dst[k] = t.Time(2 * (k + 1))
		}
		return
	}
	lg := math.Log2(s.M)
	t1 := 2 * s.M * lg
	c1 := s.SeqFraction * t1
	c2 := (1 - s.SeqFraction) * t1
	for k := range dst {
		q := float64(2 * (k + 1))
		dst[k] = c1 + c2/q + s.M/q*lg
	}
}

// timeMeta is the per-task shape of a compiled t_{i,j} row that RawFloor
// bounds Eq. (6) values with. It derives from the profile alone, like
// the tj column it summarizes.
type timeMeta struct {
	nonInc bool    // t_{i,j} is non-negative and non-increasing over the row
	min    float64 // the row minimum; −Inf when the row admits no bound
	times  bool    // timesNumeric of the task's profile (numeric.go)
}

// timeMetaOf summarizes task t's compiled time row. A row holding a
// negative or NaN time admits no bound, and neither does a task with a
// negative checkpoint or verification cost, which would make the Eq. (4)
// prefactor or a segment at risk smaller than RawFloor assumes. Synthetic
// rows with 0 ≤ f ≤ 1 are non-increasing. It also keeps the profile half
// of the NaN-free row proof (timesNumeric), which depends on the pack
// alone: delta builds share it, and evaluators read it from the table.
func timeMetaOf(t Task, tjs []float64) timeMeta {
	times := timesNumeric(t.Profile)
	none := timeMeta{min: math.Inf(-1), times: times}
	if t.Ckpt < 0 || t.Verify < 0 {
		return none
	}
	m := timeMeta{nonInc: true, min: math.Inf(1), times: times}
	for k, v := range tjs {
		if !(v >= 0) {
			return none
		}
		if k > 0 && v > tjs[k-1] {
			m.nonInc = false
		}
		m.min = min(m.min, v)
	}
	return m
}

// compileTask fills task slot i's seg/data/trow metadata and profile row
// of the arena's table from t.
//
// The Resilience primitives are inlined over the row (Time via
// fillTimes; C_{i,j} = C_i/j) — each inline performs the same float64
// operations in the same order as the method it replaces, so the tables
// stay bit-identical to per-j primitive calls (pinned by
// TestCompiledMatchesDirect).
func (a *TableArena) compileTask(i int, t Task) {
	c := &a.c
	c.data[i] = t.Data
	c.seg[i] = segOf(c.res, t)
	lo, hi := i*c.stride, (i+1)*c.stride
	tjs := c.tj[lo:hi]
	fillTimes(t, tjs)
	c.trow[i] = timeMetaOf(t, tjs)
	cks := c.ck[lo:hi]
	for k := range cks {
		cks[k] = t.Ckpt / float64(2*(k+1))
	}
}

// view returns a table over platform size p ≤ c.p that reads c's
// columns and failure rows: same arrays and stride, a narrower covered
// range. Every (task i, allocation j) cell depends on the task and the
// resilience parameters, never on the platform, so a cold compile at p
// holds exactly the first maxJ/2 cells of each of c's rows. Only the
// t-row metadata summarizes a whole row; the view recomputes it over its
// own prefix so RawFloor bounds match the cold compile's.
func (c *Compiled) view(p int) *Compiled {
	v := *c
	v.p = p
	v.maxJ = p - p%2
	v.sched = new(schedSlot)
	v.trow = make([]timeMeta, len(c.tasks))
	for i, t := range c.tasks {
		lo := i * c.stride
		v.trow[i] = timeMetaOf(t, c.tj[lo:lo+v.maxJ/2])
	}
	return &v
}

// Matches reports whether the compiled tables were built for exactly this
// instance. Task identity is the slice header (same backing array), not
// deep content: callers that mutate task contents in place must rebuild
// explicitly. Parameters compare by value.
func (c *Compiled) Matches(tasks []Task, res Resilience, rc CostModel, p int) bool {
	return len(c.tj) > 0 &&
		len(tasks) == len(c.tasks) &&
		len(tasks) > 0 && &tasks[0] == &c.tasks[0] &&
		res == c.res && rc == c.rc && p == c.p
}

// Tasks returns the task slice the tables were built for (read-only).
func (c *Compiled) Tasks() []Task { return c.tasks }

// cell returns the column index of (task i, even allocation j); callers
// guarantee 2 ≤ j ≤ maxJ and j even (the simulator's buddy invariant).
// Every per-allocation query of a table answers only those j.
func (c *Compiled) cell(i, j int) int {
	return i*c.stride + j/2 - 1
}

// rawRange fills dst[k−lo] = t^R_{i,2(k+1)}(α) of Eq. (4) — exactly
// Resilience.ExpectedTimeRaw — for row indices k ∈ [lo, hi) in one pass
// over task i's contiguous profile columns and failure row. The α
// clamps, the λ = 0 test and the task's segment kind are hoisted out of
// the loop (they are element-independent); every per-element operation
// — ffCount's float→int floor, α·t_{i,j} − n·(τ−C), the silentSegment
// branch on τ_last, prefac·(n·expPer + Expm1(λj·τ_last)) — keeps
// ExpectedTimeRaw's scalar combination order exactly, so each dst
// element is bit-identical to the direct call (pinned by
// TestRowKernelsMatchScalar and TestCompiledMatchesDirect). It panics
// when hi passes maxJ/2, the platform's last pair, even where a view's
// stride reaches further.
func (c *Compiled) rawRange(i int, alpha float64, lo, hi int, dst []float64) {
	if hi > c.maxJ/2 {
		panic(fmt.Sprintf("model: reading allocation %d past the table's %d", 2*hi, c.maxJ))
	}
	d := dst[:hi-lo]
	if alpha <= 0 {
		for k := range d {
			d[k] = 0
		}
		return
	}
	if alpha > 1 {
		alpha = 1
	}
	base := i * c.stride
	tj := c.tj[base+lo : base+hi]
	if c.res.Lambda == 0 {
		for k, t := range tj {
			d[k] = alpha * t
		}
		return
	}
	// failRow's fast path, peeked inline: the kernel runs once per
	// candidate scan step, and failRow itself is too large to inline.
	fr := c.fail.rows[i].Load().cells
	if len(fr) < hi {
		fr = c.failRow(i, hi)
	}
	fr = fr[lo:hi]
	switch c.seg[i] {
	case segPlain:
		for k := range d {
			f := &fr[k]
			n := float64(ffCount(alpha, tj[k], f.work))
			tauLast := alpha*tj[k] - n*f.work
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = tauLast
			}
			d[k] = f.prefac * (n*f.expPer + math.Expm1(f.lj*last))
		}
	case segVerify:
		verify := c.tasks[i].Verify
		for k := range d {
			f := &fr[k]
			n := float64(ffCount(alpha, tj[k], f.work))
			tauLast := alpha*tj[k] - n*f.work
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = tauLast + verify/float64(2*(lo+k+1))
			}
			d[k] = f.prefac * (n*f.expPer + math.Expm1(f.lj*last))
		}
	default: // segSilent
		verify := c.tasks[i].Verify
		slam := c.res.SilentLambda
		for k := range d {
			f := &fr[k]
			n := float64(ffCount(alpha, tj[k], f.work))
			tauLast := alpha*tj[k] - n*f.work
			jf := float64(2 * (lo + k + 1))
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = math.Exp(slam*jf*tauLast) * (tauLast + verify/jf)
			}
			d[k] = f.prefac * (n*f.expPer + math.Expm1(f.lj*last))
		}
	}
}

// RawFloor returns a lower bound on the Eq. (6) value MinEval.At(j) of
// task i at work fraction α, valid for every even j in [2, hi], without
// evaluating Eq. (4); hi is a covered allocation. It returns −Inf when it
// has no bound: a row timeMetaOf rejects.
//
// A raw Eq. (4) cell is prefac·(N·Expm1(λj·(s(τ−C) + C)) +
// Expm1(λj·s(τ_last))), where s is the silent segment. Expm1(x) ≥ x,
// s(w) ≥ w and C ≥ 0, so the cell is at least
// prefac·λj·(N·(τ−C) + τ_last) = prefac·λj·α·t_{i,j}. The factor
// prefac·λj = e^{λjR}·(1 + λjD) is at least 1, so the cell is at least
// α·t_{i,j}, which is its exact fault-free value. Every prefix minimum
// through j ≤ hi is therefore at least α·min_{j' ≤ hi} t_{i,j'}: that is
// t_{i,hi} on a non-increasing row, and the row minimum bounds it on any
// other. The argument is exact arithmetic; rounding can leave a computed
// cell a few ulps below the bound, which callers absorb with a relative
// margin.
func (c *Compiled) RawFloor(i, hi int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	alpha = min(alpha, 1)
	if m := c.trow[i]; !m.nonInc {
		return alpha * m.min
	}
	return alpha * c.tj[c.cell(i, hi)]
}

// Time returns t_{i,j} (Task.Time of task i).
func (c *Compiled) Time(i, j int) float64 {
	return c.tj[c.cell(i, j)]
}

// failAt returns the failure cell of (task i, covered even allocation
// j); λ must be non-zero.
func (c *Compiled) failAt(i, j int) *failCell {
	return &c.failRow(i, j/2)[j/2-1]
}

// Period returns τ_{i,j} (Resilience.Period): +Inf in the fault-free
// limit.
func (c *Compiled) Period(i, j int) float64 {
	if c.res.Lambda == 0 {
		return math.Inf(1)
	}
	return c.failAt(i, j).tau
}

// CkptCost returns C_{i,j} (Resilience.CkptCost).
func (c *Compiled) CkptCost(i, j int) float64 {
	return c.ck[c.cell(i, j)]
}

// Recovery returns R_{i,j} (Resilience.Recovery): the paper's R = C.
func (c *Compiled) Recovery(i, j int) float64 { return c.CkptCost(i, j) }

// PostRedistCkpt returns the §3.3.2 post-redistribution checkpoint
// surcharge (Resilience.PostRedistCkpt).
func (c *Compiled) PostRedistCkpt(i, j int) float64 {
	if c.res.Lambda == 0 {
		return 0
	}
	return c.CkptCost(i, j)
}

// PostRedistCkptRow returns task i's post-redistribution checkpoint
// surcharges as a contiguous row indexed j/2 − 1, valid for even j in
// [2, maxJ], or nil when the surcharge is identically zero (fault-free
// instances). The row aliases the compiled tables: an arena's table
// invalidates it at its next TableArena.Build.
func (c *Compiled) PostRedistCkptRow(i int) []float64 {
	if c.res.Lambda == 0 {
		return nil
	}
	lo, hi := i*c.stride, i*c.stride+c.maxJ/2
	return c.ck[lo:hi:hi]
}

// FFCheckpoints returns N^ff_{i,j}(α) (Resilience.FFCheckpoints).
func (c *Compiled) FFCheckpoints(i, j int, alpha float64) int {
	if alpha <= 0 || c.res.Lambda == 0 {
		return 0
	}
	return ffCount(alpha, c.tj[c.cell(i, j)], c.failAt(i, j).work)
}

// FFTime returns the deterministic fault-free completion time including
// checkpoints (Resilience.FFTime).
func (c *Compiled) FFTime(i, j int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha > 1 {
		alpha = 1
	}
	k := c.cell(i, j)
	if c.res.Lambda == 0 {
		return alpha * c.tj[k]
	}
	n := ffCount(alpha, c.tj[k], c.failAt(i, j).work)
	return alpha*c.tj[k] + float64(n)*c.ck[k]
}

// RedistRow evaluates RC_i^{j→k} for one task out of a frozen source
// allocation j, with the m_i/j factor hoisted at construction. A
// decision round freezes the source allocation of every task it
// considers, so its candidate loop pays one division and the round
// count per candidate instead of the full CostModel.Cost prologue.
// Cost(k) is bit-identical to CostModel.Cost(m_i, j, k): the hoisted
// m/j is the same first division of Cost's m/j/k chain, and the
// remaining operations are applied in Cost's exact order.
type RedistRow struct {
	rc CostModel
	mj float64 // m_i / j
	j  int
}

// RedistRowFrom builds the frozen-source cost row of task i at source
// allocation j.
func (c *Compiled) RedistRowFrom(i, j int) RedistRow {
	if j <= 0 {
		panic("model: redistribution cost row with non-positive source")
	}
	return RedistRow{rc: c.rc, mj: c.data[i] / float64(j), j: j}
}

// Cost returns the redistribution time to target allocation k; see
// RedistRow.
func (r RedistRow) Cost(k int) float64 {
	if k <= 0 {
		panic("model: redistribution cost with non-positive target")
	}
	if k == r.j {
		return 0
	}
	ib := r.rc.InvBandwidth
	if ib == 0 {
		ib = 1
	}
	return float64(RedistRounds(r.j, k)) * (r.rc.Latency + r.mj/float64(k)*ib)
}

// minCostSlack is the relative amount MinCost shaves off its minimum so
// the bound also holds against Cost's own float64 rounding (a few ulps).
const minCostSlack = 1e-12

// MinCost returns a lower bound on Cost(k) over every integer k in
// [lo, hi] other than the source j, in O(1): +Inf for an empty range,
// −Inf for a cost model with a negative parameter, which no bound fits.
//
// Cost(k) = rounds·(L + m/(j·k)·ib) with rounds = max(min(j,k), |k−j|).
// For grows (k > j) it has j rounds of a shrinking volume up to k = 2j,
// then k−j rounds costing (k−j)·L + (m/j)·ib·(1 − j/k), which only grows:
// its minimum over the grow range is at 2j clamped into it. For shrinks
// (k < j) it has j−k rounds of a growing volume up to k = j/2, then
// k·L + (m/j)·ib: its minimum is at an integer next to j/2 clamped into
// the shrink range.
func (r RedistRow) MinCost(lo, hi int) float64 {
	ib := r.rc.InvBandwidth
	if ib == 0 {
		ib = 1
	}
	if !(r.rc.Latency >= 0 && ib >= 0 && r.mj >= 0) {
		return math.Inf(-1)
	}
	lo = max(lo, 1)
	best := math.Inf(1)
	if g := max(lo, r.j+1); g <= hi {
		best = r.Cost(min(max(2*r.j, g), hi))
	}
	if s := min(hi, r.j-1); lo <= s {
		a, b := r.j/2, (r.j+1)/2 // the integers around j/2
		best = min(best, r.Cost(min(max(a, lo), s)), r.Cost(min(max(b, lo), s)))
	}
	return best * (1 - minCostSlack)
}
