package model

import (
	"math"
	"sync/atomic"
)

// ProfilesEqual reports whether two speedup profiles are the same known
// profile with identical parameters. Only the concrete profile types this
// package defines compare — a custom Profile implementation returns
// (false, false) in the second result's sense: ok is false and the
// profiles must be treated as incomparable (a delta recompile or cache
// hit would have to prove value equality it cannot see).
func ProfilesEqual(a, b Profile) (equal, ok bool) {
	av, aok := profileValue(a)
	bv, bok := profileValue(b)
	if !aok || !bok {
		return false, false
	}
	switch pa := av.(type) {
	case Synthetic:
		pb, is := bv.(Synthetic)
		return is && pa == pb, true
	case Table:
		pb, is := bv.(Table)
		if !is || len(pa.Times) != len(pb.Times) {
			return false, true
		}
		for i := range pa.Times {
			if pa.Times[i] != pb.Times[i] {
				return false, true
			}
		}
		return true, true
	}
	return false, false
}

// profileValue normalizes the known profile types (value or pointer
// form) to their value form; ok is false for unknown implementations.
func profileValue(p Profile) (any, bool) {
	switch v := p.(type) {
	case Synthetic:
		return v, true
	case *Synthetic:
		return *v, true
	case Table:
		return v, true
	case *Table:
		return *v, true
	}
	return nil, false
}

// TasksEqual reports whether two tasks have identical compile-relevant
// content; ok is false when a profile is of an unknown type and content
// equality cannot be decided.
func TasksEqual(a, b Task) (equal, ok bool) {
	if a.ID != b.ID || a.Data != b.Data || a.Ckpt != b.Ckpt || a.Verify != b.Verify {
		return false, true
	}
	return ProfilesEqual(a.Profile, b.Profile)
}

// PacksEqual reports whether two task packs are content-identical —
// the precondition for sharing compiled tables across packs that are not
// the same slice. ok is false when any profile is incomparable.
func PacksEqual(a, b []Task) (equal, ok bool) {
	if len(a) != len(b) {
		return false, true
	}
	for i := range a {
		eq, cmp := TasksEqual(a[i], b[i])
		if !cmp {
			return false, false
		}
		if !eq {
			return false, true
		}
	}
	return true, true
}

// deltaCompatible reports whether base's profile-derived columns can seed
// a compile of (tasks, rc, p): same platform and cost model, no appended
// rows, and a content-identical pack.
func deltaCompatible(base *Compiled, tasks []Task, rc CostModel, p int) bool {
	if base == nil || len(base.tj) == 0 || len(base.extra) != 0 ||
		base.p != p || base.rc != rc || len(tasks) == 0 {
		return false
	}
	eq, ok := PacksEqual(tasks, base.tasks)
	return ok && eq
}

// deltaPlan lists the failure columns a delta build must rebuild for a
// target whose parameters differ from the base's; every other column is
// shared with the base. The flags nest: a λ change reaches everything but
// the silent rate, a rule change reaches τ, τ−C and the period term.
type deltaPlan struct {
	lambda bool // λj, e^{λjR}
	rule   bool // τ, τ−C
	silent bool // λ_s·j
	pre    bool // the prefactor
	per    bool // the period term
}

// planDelta returns the rebuild plan from a base built for baseRes to a
// target res. A fault-free target rebuilds nothing (RecompileDelta
// points it at shared constant columns); a fault-free base carries no
// valid failure columns, so a fault-enabled target rebuilds every one.
func planDelta(baseRes, res Resilience) deltaPlan {
	if res.FaultFree() {
		return deltaPlan{}
	}
	baseFF := baseRes.FaultFree()
	var d deltaPlan
	d.lambda = baseFF || res.Lambda != baseRes.Lambda
	d.rule = d.lambda || res.Rule != baseRes.Rule
	d.silent = baseFF || res.SilentLambda != baseRes.SilentLambda
	d.pre = d.lambda || res.Downtime != baseRes.Downtime
	d.per = d.rule || d.silent
	return d
}

// columns counts the float64 columns the plan rebuilds.
func (d deltaPlan) columns() int {
	n := 0
	if d.lambda {
		n += 2
	}
	if d.rule {
		n += 2
	}
	for _, on := range [...]bool{d.silent, d.pre, d.per} {
		if on {
			n++
		}
	}
	return n
}

// The shared constant columns of fault-free tables: τ = τ−C = +Inf and
// λ_s·j = 0 for every cell. Each is replaced by a longer one when a
// larger table needs it and never written after it is published, so
// every table may alias a prefix of whichever one it saw.
var infColumn, zeroColumn atomic.Pointer[[]float64]

// constColumn returns n cells of the constant column held in col,
// growing it by replacement when it is shorter than n. The result's
// capacity is clipped to n, so an append can never reach shared cells.
func constColumn(col *atomic.Pointer[[]float64], n int, v float64) []float64 {
	for {
		old := col.Load()
		if old != nil && len(*old) >= n {
			return (*old)[:n:n]
		}
		s := make([]float64, n)
		for k := range s {
			s[k] = v
		}
		if col.CompareAndSwap(old, &s) {
			return s
		}
	}
}

// RecompileDelta rebuilds c for (tasks, res, rc, p) from base, sharing
// base's columns wherever the parameter change cannot reach them, and
// reports whether the delta path was taken (false means it fell back to
// a full Recompile, which writes c in place). base must not be c itself.
// base's columns are never written; because the two tables now share
// backing arrays, a delta build freezes both c and base.
//
// The column dependence inventory (DESIGN.md §15.3): t_{i,j}, C_{i,j},
// R_{i,j}, V_{i,j}, m_i and the t-row metadata derive from the pack
// alone and are always shared. λ_s·j depends only on the silent rate;
// λj and e^{λjR} only on λ; τ and τ−C on (λ, rule); the prefactor on
// (λ, D); the period term on (λ, rule, λ_s, V); seg on (λ_s, V). Each shared column is base's own
// slice; each rebuilt column gets a fresh backing array filled with
// compileTask's exact scalar expression over the columns it reads, so the
// result is bit-identical to a full Recompile for the new parameters —
// pinned by TestRecompileDeltaByteEqualFull.
//
// A fault-free target allocates nothing per cell: τ and τ−C alias the
// shared +Inf column and λ_s·j the shared zero column, while the
// failure-only columns stay base's (never read when λ = 0, the same
// contract Recompile relies on). A fault-free base can still seed a
// failure-enabled target — its profile columns are valid either way, and
// every failure column is rebuilt.
func (c *Compiled) RecompileDelta(base *Compiled, tasks []Task, res Resilience, rc CostModel, p int) (bool, error) {
	c.mustMutate()
	if base == c || !deltaCompatible(base, tasks, rc, p) {
		return false, c.Recompile(tasks, res, rc, p)
	}
	if err := res.Validate(); err != nil {
		return false, err
	}
	if !base.frozen { // a published base is frozen already: no write, no race with its readers
		base.frozen = true
	}
	*c = Compiled{
		tasks: tasks, res: res, rc: rc, p: p,
		maxJ: base.maxJ, stride: base.stride,
		tj: base.tj, ck: base.ck, rec: base.rec, v: base.v, data: base.data, trow: base.trow,
		tau: base.tau, work: base.work, lj: base.lj, expFac: base.expFac,
		prefac: base.prefac, expPer: base.expPer, slj: base.slj, seg: base.seg,
		id:     compiledIDs.Add(1),
		frozen: true,
	}
	if res.SilentActive() != base.res.SilentActive() {
		// seg depends on (λ_s, V) and the pack is the base's.
		c.seg = make([]segKind, len(tasks))
		for i, t := range tasks {
			c.seg[i] = segOf(res, t)
		}
	}
	cells := len(base.tj)
	if res.FaultFree() {
		c.tau = constColumn(&infColumn, cells, math.Inf(1))
		c.work = c.tau
		c.slj = constColumn(&zeroColumn, cells, 0) // λ_s must be 0 here (Validate: silent needs λ > 0)
		return true, nil
	}

	d := planDelta(base.res, res)
	if d.lambda {
		c.lj = make([]float64, cells)
		c.expFac = make([]float64, cells)
	}
	if d.rule {
		c.tau = make([]float64, cells)
		c.work = make([]float64, cells)
	}
	if d.silent {
		c.slj = make([]float64, cells)
	}
	if d.pre {
		c.prefac = make([]float64, cells)
	}
	if d.per {
		c.expPer = make([]float64, cells)
	}
	// Rebuild column by column, in dependence order. Each pass applies
	// compileTask's scalar expression per cell, reading only columns that
	// are final by then.
	if d.silent {
		for lo := 0; lo < cells; lo += c.stride {
			row := c.slj[lo : lo+c.stride]
			for k := range row {
				row[k] = res.SilentLambda * float64(2*(k+1))
			}
		}
	}
	if d.lambda {
		// λ reaches every failure column but λ_s·j: rebuild them row by
		// row through compileTask's own failure half.
		if n := len(tasks); c.parallelRows(n) {
			rowsParallel(n, c.failureRow)
		} else {
			for i := range tasks {
				c.failureRow(i)
			}
		}
		return true, nil
	}
	if d.rule {
		ck, tau, work := c.ck[:cells], c.tau[:cells], c.work[:cells]
		for k, lj := range c.lj {
			t := cellPeriod(res.Rule, lj, ck[k])
			tau[k] = t
			work[k] = t - ck[k]
		}
	}
	if d.pre {
		expFac, prefac := c.expFac[:cells], c.prefac[:cells]
		for k, lj := range c.lj {
			prefac[k] = expFac[k] * (1/lj + res.Downtime)
		}
	}
	if d.per {
		for i := range tasks {
			sk := c.seg[i]
			lo, hi := i*c.stride, (i+1)*c.stride
			lj, work, ck, v, slj := c.lj[lo:hi], c.work[lo:hi], c.ck[lo:hi], c.v[lo:hi], c.slj[lo:hi]
			expPer := c.expPer[lo:hi]
			for k := range expPer {
				expPer[k] = cellPeriodTerm(sk, lj[k], work[k], ck[k], v[k], slj[k])
			}
		}
	}
	return true, nil
}
