package model

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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

// Compiled is the compiled instance model: flat per-(task, allocation)
// tables of every α-independent quantity the simulator queries in its
// steady state. One Compiled serves one (Tasks, Resilience, CostModel, P)
// instance; it is immutable after Compile/Recompile and therefore safe to
// share read-only across goroutines (the campaign runner builds one per
// grid point and hands it to every worker).
//
// A frozen Compiled — every table a Cache publishes, and both sides of a
// RecompileDelta — may share column backing arrays with other tables, so
// its in-place rebuild methods (Recompile, RecompileFaultFree,
// RecompileDelta, AppendTask, TruncateExtra) panic instead of writing
// through an alias. Freezing is permanent.
//
// A view (CacheEntry.View) is a frozen Compiled for a smaller platform
// that reads a larger table's columns: its rows keep the larger stride,
// and maxJ ≤ 2·stride bounds what it covers.
//
// Layout: struct-of-arrays. Each cached quantity is its own parallel
// slice of length NumTasks·stride, indexed i·stride + j/2 − 1, so task
// i's candidate row for one quantity is contiguous — the row kernel
// (rawRange, surfaced as RawRow/MinOverRow) streams a whole row per
// cache line instead of striding over 80-byte entries.
//
// RawAt(i, j, α) collapses Resilience.ExpectedTimeRaw to table lookups
// plus the single α-dependent Expm1(λj·τ_last) term — same combination
// order, bit-identical results (pinned by TestCompiledMatchesDirect and
// the core golden-equivalence tests).
type Compiled struct {
	tasks  []Task
	res    Resilience
	rc     CostModel
	p      int
	maxJ   int // largest even allocation covered by the tables
	stride int // entries per task row: maxJ/2, or more in a view (CacheEntry.View)

	// Per-(task, allocation) columns, each len NumTasks·stride. All are
	// derived from the same Resilience primitives the direct path calls,
	// so a compiled query combines exactly the same float64 values in
	// exactly the same order as Resilience.ExpectedTimeRaw — the results
	// are bit-identical, not merely close (see DESIGN.md §9, §12).
	tj     []float64 // t_{i,j}, fault-free execution time
	ck     []float64 // C_{i,j}, checkpoint cost
	rec    []float64 // R_{i,j}, recovery cost (the paper: R = C)
	tau    []float64 // τ_{i,j}, checkpointing period (+Inf fault-free)
	work   []float64 // τ_{i,j} − C_{i,j}, work per period (+Inf fault-free)
	lj     []float64 // λ·j, task failure rate
	expFac []float64 // e^{λj·R}, the recovery exponential of the prefactor
	prefac []float64 // e^{λj·R}·(1/λj + D), the Eq. (4) prefactor
	expPer []float64 // Expm1(λj·(silentSegment(τ−C) + C)), the period term
	slj    []float64 // λ_s·j, silent-error rate
	v      []float64 // V_{i,j} = V_i/j, verification cost

	seg  []segKind  // per-task silent-segment mode
	data []float64  // per-task data volume m_i (redistribution cost)
	trow []timeMeta // per-task shape of the t_{i,j} row (RawFloor)
	// id names the table contents process-wide: every (re)build and
	// extension draws a fresh one from compiledIDs, so caches keyed on it
	// (the engine's initial-schedule memo) can never serve values computed
	// for a previous instance, and never keep the Compiled itself alive.
	id     uint64
	frozen bool // columns may be shared: in-place rebuilds panic
	// extra holds tasks appended after the base compile (online mode:
	// jobs arriving over time get their rows appended, not a rebuild).
	// It is owned by the Compiled — AppendTask copies the task value —
	// so the base identity contract of Matches is untouched.
	extra []Task
}

// compiledIDs hands out table-content IDs, starting at 1.
var compiledIDs atomic.Uint64

// mustMutate panics when c is frozen: its columns may be aliased by other
// tables, so rebuilding it in place would rewrite them too.
func (c *Compiled) mustMutate() {
	if c.frozen {
		panic("model: in-place rebuild of a frozen Compiled (its columns may be shared)")
	}
}

// Compile builds the tables for one instance. p is the platform size: the
// tables cover every even allocation in [2, p].
func Compile(tasks []Task, res Resilience, rc CostModel, p int) (*Compiled, error) {
	c := &Compiled{}
	if err := c.Recompile(tasks, res, rc, p); err != nil {
		return nil, err
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

// sizeColumns resizes every per-(task, allocation) column and the
// per-task metadata to n tasks of the current stride, reusing capacity.
func (c *Compiled) sizeColumns(n int) {
	cells := n * c.stride
	c.tj = sizeF(c.tj, cells)
	c.ck = sizeF(c.ck, cells)
	c.rec = sizeF(c.rec, cells)
	c.tau = sizeF(c.tau, cells)
	c.work = sizeF(c.work, cells)
	c.lj = sizeF(c.lj, cells)
	c.expFac = sizeF(c.expFac, cells)
	c.prefac = sizeF(c.prefac, cells)
	c.expPer = sizeF(c.expPer, cells)
	c.slj = sizeF(c.slj, cells)
	c.v = sizeF(c.v, cells)
	if cap(c.seg) < n {
		c.seg = make([]segKind, n)
	}
	c.seg = c.seg[:n]
	c.data = sizeF(c.data, n)
	if cap(c.trow) < n {
		c.trow = make([]timeMeta, n)
	}
	c.trow = c.trow[:n]
}

// Recompile rebuilds the tables in place for a new instance, reusing the
// backing arrays when capacities allow. A campaign worker that compiles
// per unit therefore stops allocating once its arenas match the grid's
// largest (n, p). It panics on a frozen Compiled.
func (c *Compiled) Recompile(tasks []Task, res Resilience, rc CostModel, p int) error {
	c.mustMutate()
	if len(tasks) == 0 {
		return fmt.Errorf("model: compiling an empty pack")
	}
	if p < 2 {
		return fmt.Errorf("model: compiling for platform size %d (want ≥ 2)", p)
	}
	if err := res.Validate(); err != nil {
		return err
	}
	for i, t := range tasks {
		if t.Profile == nil {
			return fmt.Errorf("model: task %d has no speedup profile", i)
		}
	}
	n := len(tasks)
	c.id = compiledIDs.Add(1)
	c.tasks = tasks
	c.res = res
	c.rc = rc
	c.p = p
	c.maxJ = p - p%2
	c.stride = c.maxJ / 2
	c.sizeColumns(n)

	c.extra = c.extra[:0]
	if c.parallelRows(n) {
		rowsParallel(n, func(i int) { c.compileTask(i, tasks[i]) })
	} else {
		for i, t := range tasks {
			c.compileTask(i, t)
		}
	}
	return nil
}

// parallelCompileCells is the table size (tasks × stride cells) above
// which a compile splits its per-task row loop across GOMAXPROCS
// goroutines. Rows are disjoint — compileTask and failureRow write only
// row i's column slices plus seg[i]/data[i] — and the per-row scalar
// order is untouched, so a parallel compile is bit-identical to a
// sequential one. Small tables stay sequential: spawning goroutines
// would cost more than the compile and would charge allocations to
// otherwise alloc-free steady states. Tests may override it.
var parallelCompileCells = 1 << 15

// parallelRows reports whether n rows of c's stride are worth splitting
// across processors.
func (c *Compiled) parallelRows(n int) bool {
	return n*c.stride >= parallelCompileCells && runtime.GOMAXPROCS(0) > 1
}

// rowsParallel runs row(i) for every i < n over contiguous row chunks,
// one goroutine per processor.
func rowsParallel(n int, row func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				row(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// RecompileFaultFree rebuilds the tables for the fault-free limit of an
// already-compiled base instance: same tasks and platform, a Resilience
// with failures disabled. The profile-derived columns (t_{i,j}, C_{i,j},
// R_{i,j}, V_{i,j}, m_i) do not depend on the resilience parameters, so
// they are copied from base instead of recomputed — this skips the
// Time/division work that dominates compile cost, and a copied column is
// trivially bit-identical to a recomputed one. τ and τ−C become +Inf and
// λ_s·j becomes 0, exactly the values compileTask produces when λ = 0;
// the failure-only columns (λj, prefactor, period term) are left stale,
// the same never-read-when-λ=0 contract Recompile relies on. When the
// base does not match (different tasks, platform, or appended rows) or
// res is not fault-free, it falls back to a full Recompile. It panics on
// a frozen Compiled.
func (c *Compiled) RecompileFaultFree(base *Compiled, tasks []Task, res Resilience, rc CostModel, p int) error {
	c.mustMutate()
	if base == nil || base == c || !res.FaultFree() ||
		len(base.extra) != 0 || base.p != p || len(base.tj) == 0 ||
		len(tasks) != len(base.tasks) || len(tasks) == 0 || &tasks[0] != &base.tasks[0] {
		return c.Recompile(tasks, res, rc, p)
	}
	if err := res.Validate(); err != nil {
		return err
	}
	n := len(tasks)
	c.id = compiledIDs.Add(1)
	c.tasks = tasks
	c.res = res
	c.rc = rc
	c.p = p
	c.maxJ = base.maxJ
	c.stride = base.stride
	c.sizeColumns(n)
	copy(c.tj, base.tj)
	copy(c.ck, base.ck)
	copy(c.rec, base.rec)
	copy(c.v, base.v)
	copy(c.data, base.data)
	copy(c.trow, base.trow)
	inf := math.Inf(1)
	for k := range c.tau {
		c.tau[k] = inf
		c.work[k] = inf
		c.slj[k] = 0 // λ_s must be 0 here (Validate: silent needs λ > 0)
	}
	for i, t := range tasks {
		c.seg[i] = segOf(res, t)
	}
	c.extra = c.extra[:0]
	return nil
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
}

// timeMetaOf summarizes task t's compiled time row. A row holding a
// negative or NaN time admits no bound, and neither does a task with a
// negative checkpoint or verification cost, which would make the Eq. (4)
// prefactor or a segment at risk smaller than RawFloor assumes. Synthetic
// rows with 0 ≤ f ≤ 1 are non-increasing.
func timeMetaOf(t Task, tjs []float64) timeMeta {
	none := timeMeta{min: math.Inf(-1)}
	if t.Ckpt < 0 || t.Verify < 0 {
		return none
	}
	m := timeMeta{nonInc: true, min: math.Inf(1)}
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

// compileTask fills task slot i's seg/data/trow metadata and table row from t.
// It is the single per-task compile path, shared by Recompile and
// AppendTask, so appended rows combine exactly the same float64 values in
// exactly the same order as a full rebuild (bit-identical tables).
//
// The Resilience primitives are inlined over the row (Time via
// fillTimes; C_{i,j} = C_i/j, R = C, V_{i,j} = V_i/j, Young/Daly period
// over µ = 1/λj, silentSegment by seg kind) — each inline performs the
// same float64 operations in the same order as the method it replaces,
// so the tables stay bit-identical to per-j primitive calls (pinned by
// TestCompiledMatchesDirect).
func (c *Compiled) compileTask(i int, t Task) {
	res := c.res
	c.data[i] = t.Data
	c.seg[i] = segOf(res, t)
	lo, hi := i*c.stride, (i+1)*c.stride
	tjs := c.tj[lo:hi]
	fillTimes(t, tjs)
	c.trow[i] = timeMetaOf(t, tjs)
	cks := c.ck[lo:hi]
	recs := c.rec[lo:hi]
	vs := c.v[lo:hi]
	sljs := c.slj[lo:hi]
	for k := range cks {
		jf := float64(2 * (k + 1))
		ck := t.Ckpt / jf
		cks[k] = ck
		recs[k] = ck // Recovery = CkptCost (paper: R = C)
		vs[k] = t.Verify / jf
		sljs[k] = res.SilentLambda * jf
	}
	if res.Lambda != 0 {
		c.failureRow(i)
		return
	}
	// Fault-free limit: only tj matters (tau/work are +Inf, RawAt never
	// reads the failure terms, which stay stale).
	inf := math.Inf(1)
	taus, works := c.tau[lo:hi], c.work[lo:hi]
	for k := range taus {
		taus[k] = inf
		works[k] = inf
	}
}

// failureRow fills row i of every λ-dependent column — λj, τ, τ−C,
// e^{λjR}, the prefactor and the period term — from the row's profile
// columns, seg kind and λ_s·j. It is the failure half of compileTask,
// and RecompileDelta's whole rebuild when λ changes.
func (c *Compiled) failureRow(i int) {
	res := c.res
	sk := c.seg[i]
	lo, hi := i*c.stride, (i+1)*c.stride
	cks := c.ck[lo:hi]
	recs := c.rec[lo:hi]
	vs := c.v[lo:hi]
	sljs := c.slj[lo:hi]
	taus := c.tau[lo:hi]
	works := c.work[lo:hi]
	ljs := c.lj[lo:hi]
	expFacs := c.expFac[lo:hi]
	prefacs := c.prefac[lo:hi]
	expPers := c.expPer[lo:hi]
	for k := range cks {
		lj := res.Lambda * float64(2*(k+1)) // Resilience.Rate
		ljs[k] = lj
		ck := cks[k]
		tau := cellPeriod(res.Rule, lj, ck)
		taus[k] = tau
		work := tau - ck
		works[k] = work
		// Same combination order as ExpectedTimeRaw: the prefactor is
		// Exp(λjR)·(1/λj + D), and the period term is Expm1 of λj
		// times the (possibly silent-inflated) period.
		// The Exp(λjR) factor is stored on its own so a downtime-only
		// delta recompile (RecompileDelta) can rebuild the prefactor
		// without re-evaluating the exponential: the product of the same
		// two float64 values is the same bits either way.
		expFacs[k] = math.Exp(lj * recs[k])
		prefacs[k] = expFacs[k] * (1/lj + res.Downtime)
		expPers[k] = cellPeriodTerm(sk, lj, work, ck, vs[k], sljs[k])
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
// silentSegment(τ−C) reproduced over the precomputed V_{i,j} and λ_s·j
// with silent.go's branch structure.
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

// AppendTask extends the tables with one more task — the online kernel's
// per-arrival path: O(stride) work instead of a full rebuild. The task
// value is copied into Compiled-owned storage, so the base Tasks slice
// (and the Matches identity contract over it) is untouched. It returns
// the appended task's index. It panics on a frozen Compiled.
func (c *Compiled) AppendTask(t Task) (int, error) {
	c.mustMutate()
	if len(c.tj) == 0 {
		return 0, fmt.Errorf("model: AppendTask on an empty Compiled (compile a base instance first)")
	}
	if t.Profile == nil {
		return 0, fmt.Errorf("model: appended task has no speedup profile")
	}
	i := c.NumTasks()
	c.id = compiledIDs.Add(1)
	c.extra = append(c.extra, t)
	// Grow each column without a temporary: compileTask overwrites every
	// field it reads (stale failure terms in reused capacity are never
	// read when λ = 0, the same contract Recompile relies on).
	c.tj = growRow(c.tj, c.stride)
	c.ck = growRow(c.ck, c.stride)
	c.rec = growRow(c.rec, c.stride)
	c.tau = growRow(c.tau, c.stride)
	c.work = growRow(c.work, c.stride)
	c.lj = growRow(c.lj, c.stride)
	c.expFac = growRow(c.expFac, c.stride)
	c.prefac = growRow(c.prefac, c.stride)
	c.expPer = growRow(c.expPer, c.stride)
	c.slj = growRow(c.slj, c.stride)
	c.v = growRow(c.v, c.stride)
	c.seg = append(c.seg, 0)
	c.data = append(c.data, 0)
	c.trow = append(c.trow, timeMeta{})
	c.compileTask(i, t)
	return i, nil
}

// growRow extends a column by one stride's worth of cells, reusing spare
// capacity without zeroing it (compileTask overwrites what it reads).
func growRow(s []float64, stride int) []float64 {
	if need := len(s) + stride; cap(s) >= need {
		return s[:need]
	}
	return append(s, make([]float64, stride)...)
}

// TruncateExtra drops every appended task, restoring the tables to the
// base instance they were compiled for (the rows of appended tasks sit
// strictly after the base rows, so this is a length change, not a
// rebuild). An online simulator calls it between runs so the base tables
// survive the replicate loop without recompiling. It panics on a frozen
// Compiled.
func (c *Compiled) TruncateExtra() {
	c.mustMutate()
	if len(c.extra) == 0 {
		return
	}
	c.id = compiledIDs.Add(1)
	n := len(c.tasks)
	cells := n * c.stride
	c.tj = c.tj[:cells]
	c.ck = c.ck[:cells]
	c.rec = c.rec[:cells]
	c.tau = c.tau[:cells]
	c.work = c.work[:cells]
	c.lj = c.lj[:cells]
	c.expFac = c.expFac[:cells]
	c.prefac = c.prefac[:cells]
	c.expPer = c.expPer[:cells]
	c.slj = c.slj[:cells]
	c.v = c.v[:cells]
	c.seg = c.seg[:n]
	c.data = c.data[:n]
	c.trow = c.trow[:n]
	c.extra = c.extra[:0]
}

// view returns a frozen table over platform size p ≤ c.p that reads c's
// columns: same arrays and stride, a narrower covered range. Every
// (task i, allocation j) cell depends on the task and the resilience
// parameters, never on the platform, so a cold compile at p fills
// exactly the first maxJ/2 cells of each of c's rows. Only the t-row
// metadata summarizes a whole row; the view recomputes it over its own
// prefix so RawFloor bounds match the cold compile's. c must carry no
// appended tasks.
func (c *Compiled) view(p int) *Compiled {
	v := *c
	v.p = p
	v.maxJ = p - p%2
	v.id = compiledIDs.Add(1)
	v.frozen = true
	v.trow = make([]timeMeta, len(c.tasks))
	for i, t := range c.tasks {
		lo := i * c.stride
		v.trow[i] = timeMetaOf(t, c.tj[lo:lo+v.maxJ/2])
	}
	return &v
}

// NumTasks returns the number of tasks covered by the tables, including
// appended ones.
func (c *Compiled) NumTasks() int { return len(c.tasks) + len(c.extra) }

// task returns task i, reading appended tasks from the extension arena.
func (c *Compiled) task(i int) Task {
	if i < len(c.tasks) {
		return c.tasks[i]
	}
	return c.extra[i-len(c.tasks)]
}

// Matches reports whether the compiled tables were built for exactly this
// instance. Task identity is the slice header (same backing array), not
// deep content: callers that mutate task contents in place must recompile
// explicitly. Parameters compare by value. Tables carrying appended tasks
// (AppendTask without a TruncateExtra) never match: they describe a grown
// instance, not the base one.
func (c *Compiled) Matches(tasks []Task, res Resilience, rc CostModel, p int) bool {
	return len(c.tj) > 0 && len(c.extra) == 0 &&
		len(tasks) == len(c.tasks) &&
		len(tasks) > 0 && &tasks[0] == &c.tasks[0] &&
		res == c.res && rc == c.rc && p == c.p
}

// Tasks returns the task slice the tables were built for (read-only).
func (c *Compiled) Tasks() []Task { return c.tasks }

// Res returns the resilience parameters the tables were built for.
func (c *Compiled) Res() Resilience { return c.res }

// P returns the platform size the tables cover.
func (c *Compiled) P() int { return c.p }

// ID returns the table-content identity: a process-unique value drawn
// afresh by every Recompile, RecompileFaultFree, RecompileDelta,
// AppendTask and TruncateExtra, so equal IDs mean the same immutable set
// of tables, whichever Compiled holds them.
func (c *Compiled) ID() uint64 { return c.id }

// cell returns the column index of (task i, even allocation j); callers
// guarantee 2 ≤ j ≤ maxJ and j even (the simulator's buddy invariant).
func (c *Compiled) cell(i, j int) int {
	return i*c.stride + j/2 - 1
}

// covered reports whether allocation j is served by the tables; queries
// outside (odd j, or beyond the platform) fall back to the direct path,
// which computes the same values.
func (c *Compiled) covered(j int) bool {
	return j >= 2 && j <= c.maxJ && j%2 == 0
}

// RawAt returns t^R_{i,j}(α) of Eq. (4) — exactly
// Resilience.ExpectedTimeRaw(task i, j, α), from the tables.
func (c *Compiled) RawAt(i, j int, alpha float64) float64 {
	if !c.covered(j) {
		return c.res.ExpectedTimeRaw(c.task(i), j, alpha)
	}
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
	n := float64(ffCount(alpha, c.tj[k], c.work[k]))
	tauLast := alpha*c.tj[k] - n*c.work[k]
	// Inline of silentSegment(τ_last) over the precomputed V and λ_s·j;
	// the branch structure matches silent.go exactly.
	var last float64
	switch {
	case tauLast <= 0:
		last = 0
	case c.seg[i] == segPlain:
		last = tauLast
	case c.seg[i] == segVerify:
		last = tauLast + c.v[k]
	default:
		last = math.Exp(c.slj[k]*tauLast) * (tauLast + c.v[k])
	}
	return c.prefac[k] * (n*c.expPer[k] + math.Expm1(c.lj[k]*last))
}

// rawRange fills dst[k−lo] = RawAt(i, 2(k+1), α) for row indices
// k ∈ [lo, hi) in one pass over task i's contiguous columns. The α
// clamps, the λ = 0 test and the task's segment kind are hoisted out of
// the loop (they are element-independent); every per-element operation
// — ffCount's float→int floor, α·t_{i,j} − n·(τ−C), the silentSegment
// branch on τ_last, prefac·(n·expPer + Expm1(λj·τ_last)) — keeps the
// scalar combination order of RawAt exactly, so each dst element is
// bit-identical to the corresponding scalar call (pinned by
// TestRawRowMatchesScalar). Row indices at or beyond maxJ/2 (allocations
// past the platform, even when a view's stride reaches further) fall back
// per element to the direct path, exactly as scalar RawAt does for
// uncovered j.
func (c *Compiled) rawRange(i int, alpha float64, lo, hi int, dst []float64) {
	d := dst[:hi-lo]
	kernHi := min(hi, c.maxJ/2)
	for k := kernHi; k < hi; k++ {
		if k < lo {
			continue
		}
		d[k-lo] = c.res.ExpectedTimeRaw(c.task(i), 2*(k+1), alpha)
	}
	if lo >= kernHi {
		return
	}
	d = d[:kernHi-lo]
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
	tj := c.tj[base+lo : base+kernHi]
	if c.res.Lambda == 0 {
		for k, t := range tj {
			d[k] = alpha * t
		}
		return
	}
	work := c.work[base+lo : base+kernHi]
	lj := c.lj[base+lo : base+kernHi]
	prefac := c.prefac[base+lo : base+kernHi]
	expPer := c.expPer[base+lo : base+kernHi]
	switch c.seg[i] {
	case segPlain:
		for k := range d {
			n := float64(ffCount(alpha, tj[k], work[k]))
			tauLast := alpha*tj[k] - n*work[k]
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = tauLast
			}
			d[k] = prefac[k] * (n*expPer[k] + math.Expm1(lj[k]*last))
		}
	case segVerify:
		v := c.v[base+lo : base+kernHi]
		for k := range d {
			n := float64(ffCount(alpha, tj[k], work[k]))
			tauLast := alpha*tj[k] - n*work[k]
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = tauLast + v[k]
			}
			d[k] = prefac[k] * (n*expPer[k] + math.Expm1(lj[k]*last))
		}
	default: // segSilent
		v := c.v[base+lo : base+kernHi]
		slj := c.slj[base+lo : base+kernHi]
		for k := range d {
			n := float64(ffCount(alpha, tj[k], work[k]))
			tauLast := alpha*tj[k] - n*work[k]
			var last float64
			if tauLast <= 0 {
				last = 0
			} else {
				last = math.Exp(slj[k]*tauLast) * (tauLast + v[k])
			}
			d[k] = prefac[k] * (n*expPer[k] + math.Expm1(lj[k]*last))
		}
	}
}

// RawRow evaluates every candidate allocation of task i in one pass over
// the task's contiguous table row: dst[k] = RawAt(i, 2(k+1), α) for
// k < len(dst). Values are bit-identical to per-candidate RawAt calls —
// the batched loop keeps the scalar combination order per element (see
// rawRange). len(dst) may exceed the table stride; the excess falls back
// to the direct path like any uncovered allocation. It returns dst.
func (c *Compiled) RawRow(i int, alpha float64, dst []float64) []float64 {
	c.rawRange(i, alpha, 0, len(dst), dst)
	return dst
}

// MinOverRow fills dst like RawRow and reduces it to the minimum raw
// value and the smallest candidate allocation attaining it (strict <
// keeps the smallest j on ties, matching MinEval.Threshold's scan
// order). The reduction runs over the filled row with no memory traffic
// beyond the row itself, so the compiler keeps the running min in
// registers. An empty dst returns (+Inf, 0).
func (c *Compiled) MinOverRow(i int, alpha float64, dst []float64) (float64, int) {
	if len(dst) == 0 {
		return math.Inf(1), 0
	}
	c.rawRange(i, alpha, 0, len(dst), dst)
	best, arg := dst[0], 0
	for k := 1; k < len(dst); k++ {
		if dst[k] < best {
			best, arg = dst[k], k
		}
	}
	return best, 2 * (arg + 1)
}

// RawFloor returns a lower bound on the Eq. (6) value MinEval.At(j) of
// task i at work fraction α, valid for every even j in [2, hi], without
// evaluating Eq. (4). It returns −Inf when it has no bound: hi beyond
// the tables, or a row timeMetaOf rejects.
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
	if !c.covered(hi) {
		return math.Inf(-1)
	}
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
	if !c.covered(j) {
		return c.task(i).Time(j)
	}
	return c.tj[c.cell(i, j)]
}

// Period returns τ_{i,j} (Resilience.Period).
func (c *Compiled) Period(i, j int) float64 {
	if !c.covered(j) {
		return c.res.Period(c.task(i), j)
	}
	return c.tau[c.cell(i, j)]
}

// CkptCost returns C_{i,j} (Resilience.CkptCost).
func (c *Compiled) CkptCost(i, j int) float64 {
	if !c.covered(j) {
		return c.res.CkptCost(c.task(i), j)
	}
	return c.ck[c.cell(i, j)]
}

// Recovery returns R_{i,j} (Resilience.Recovery).
func (c *Compiled) Recovery(i, j int) float64 {
	if !c.covered(j) {
		return c.res.Recovery(c.task(i), j)
	}
	return c.rec[c.cell(i, j)]
}

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
// [2, 2·len(row)], or nil when the surcharge is identically zero
// (fault-free instances). Targets beyond the row (per-arrival extras
// past the covered range) must go through PostRedistCkpt. The row
// aliases the compiled tables: it is invalidated by the next
// Recompile/AppendTask/TruncateExtra.
func (c *Compiled) PostRedistCkptRow(i int) []float64 {
	if c.res.Lambda == 0 {
		return nil
	}
	lo, hi := i*c.stride, i*c.stride+c.maxJ/2
	return c.ck[lo:hi:hi]
}

// FFCheckpoints returns N^ff_{i,j}(α) (Resilience.FFCheckpoints).
func (c *Compiled) FFCheckpoints(i, j int, alpha float64) int {
	if !c.covered(j) {
		return c.res.FFCheckpoints(c.task(i), j, alpha)
	}
	if alpha <= 0 || c.res.Lambda == 0 {
		return 0
	}
	k := c.cell(i, j)
	return ffCount(alpha, c.tj[k], c.work[k])
}

// FFTime returns the deterministic fault-free completion time including
// checkpoints (Resilience.FFTime).
func (c *Compiled) FFTime(i, j int, alpha float64) float64 {
	if !c.covered(j) {
		return c.res.FFTime(c.task(i), j, alpha)
	}
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
	n := ffCount(alpha, c.tj[k], c.work[k])
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
