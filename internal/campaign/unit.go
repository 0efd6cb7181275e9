package campaign

import (
	"fmt"
	"slices"

	"cosched/internal/core"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// plan is a validated, expanded campaign: everything a unit needs
// besides a worker arena and the model-sharing state. prepare is the one
// place a spec is checked and expanded, for every entry point (Run,
// NewUnitRunner, NewAssembler and, through them, the dist coordinator
// and its workers).
type plan struct {
	sp        scenario.Spec
	points    []scenario.RunPoint
	policies  []scenario.PolicySpec
	semantics core.Semantics
	// trace carries the pre-loaded arrival-trace entries (nil unless the
	// spec uses the trace process), so the per-unit hot path never
	// touches the filesystem.
	trace []workload.TraceArrival
}

func prepare(sp scenario.Spec) (*plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	points, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	policies, err := sp.PolicySpecs()
	if err != nil {
		return nil, err
	}
	semantics, err := sp.CoreSemantics()
	if err != nil {
		return nil, err
	}
	trace, err := loadArrivalTrace(sp)
	if err != nil {
		return nil, err
	}
	return &plan{sp: sp, points: points, policies: policies, semantics: semantics, trace: trace}, nil
}

// totalUnits is the size of the unit index space: unit point×cap+rep,
// with cap the fixed replicate count or the adaptive replicate cap.
func (p *plan) totalUnits() int { return len(p.points) * p.sp.ReplicateCap() }

// valsPerUnit is the width of one unit's flat value vector.
func (p *plan) valsPerUnit() int { return len(p.policies) * metricsPerPolicy(p.sp) }

// runUnit executes one unit on ws. The returned slice is ws's and is
// overwritten by its next unit.
func (p *plan) runUnit(ws *workerState, um *unitModels, unit int) ([]float64, error) {
	rcap := p.sp.ReplicateCap()
	pi, rep := unit/rcap, unit%rcap
	vals, err := ws.runUnit(p, pi, rep, um)
	if err != nil {
		return nil, fmt.Errorf("campaign: point %d (x=%v) rep %d: %w", pi, p.points[pi].X, rep, err)
	}
	return vals, nil
}

// UnitRunner executes single campaign units outside Run — the execution
// half of the distributed worker process. It owns one worker arena, the
// campaign's model-sharing state (pack memo and compiled-model cache),
// and the pre-loaded arrival trace, so RunUnit computes exactly the
// numbers the in-process runner would: unit values are a pure function
// of (spec, unit index), which is the whole byte-identity argument of
// distributed execution. Fixed and adaptive specs alike: which units an
// adaptive campaign needs is the Assembler's business, not the
// runner's. A UnitRunner is not safe for concurrent use; a process that
// wants parallelism opens one per goroutine — the compiled-model cache
// is process-global and concurrency-safe.
type UnitRunner struct {
	p  *plan
	um *unitModels
	ws *workerState
}

// NewUnitRunner validates and expands sp and builds the shared per-point
// models.
func NewUnitRunner(sp scenario.Spec) (*UnitRunner, error) {
	p, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	return &UnitRunner{p: p, um: newUnitModels(p.points, modelCache(nil)), ws: getWorkerState()}, nil
}

// TotalUnits returns the size of the campaign's unit index space
// (points × replicate cap).
func (u *UnitRunner) TotalUnits() int { return u.p.totalUnits() }

// Policies returns the resolved policy count — the manifest's header
// parameter.
func (u *UnitRunner) Policies() int { return len(u.p.policies) }

// ValsPerUnit returns the width of one unit's flat value vector.
func (u *UnitRunner) ValsPerUnit() int { return u.p.valsPerUnit() }

// RunUnit executes one unit and returns a fresh copy of its value
// vector (ValsPerUnit entries, policy-major).
func (u *UnitRunner) RunUnit(unit int) ([]float64, error) {
	if unit < 0 || unit >= u.TotalUnits() {
		return nil, fmt.Errorf("campaign: unit %d out of range [0, %d)", unit, u.TotalUnits())
	}
	vals, err := u.p.runUnit(u.ws, u.um, unit)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), vals...), nil
}

// Close returns the worker arena to the shared pool. The UnitRunner is
// unusable afterwards.
func (u *UnitRunner) Close() {
	if u.ws != nil {
		putWorkerState(u.ws)
		u.ws = nil
	}
}

// Assembler is the unit source and the folding path of every executor:
// the in-process Run and the distributed coordinator alike. It releases
// the units the campaign needs next and folds each returned value
// vector exactly once, so every executor produces identical bytes by
// construction.
//
// Fold writes every accepted unit by position into the Result's
// replicate columns, the same way in both modes. A fixed campaign
// releases all its units up front. An adaptive campaign releases one
// batch per live point, feeds each point's contiguous replicate prefix
// to its stopping rule, evaluated at batch boundaries, and truncates the
// point's columns to that prefix when it stops (see adaptive.go). Either
// way the Result is a pure function of (spec, seed), no matter how many
// times workers die and units are re-executed, or in which order results
// arrive. Not safe for concurrent use; callers serialize.
type Assembler struct {
	res  *Result
	nm   int // metrics per policy
	rcap int // replicates per point in the unit index space
	// got marks units already accepted by Fold (stored in the columns,
	// whether or not the stopping rule has reached them yet): the
	// exactly-once gate.
	got     []bool
	done    int // units folded into the result (adaptive: the contiguous prefixes)
	planned int // campaign size estimate: adaptive stopping shrinks it
	// released holds units released since the last Released call.
	released []int
	ad       *adaptive // nil for fixed campaigns
}

// NewAssembler validates and expands sp.
func NewAssembler(sp scenario.Spec) (*Assembler, error) {
	p, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	return newAssembler(p, 0), nil
}

// newAssembler builds the empty result over a prepared campaign. width
// is the executor's unit parallelism, which decides adaptive
// speculation (0: none). A fixed campaign's columns are sized to its
// replicate count up front; an adaptive campaign's start empty and grow
// to the highest replicate accepted.
func newAssembler(p *plan, width int) *Assembler {
	sp := p.sp
	a := &Assembler{
		res:  newResult(p),
		nm:   metricsPerPolicy(sp),
		rcap: sp.ReplicateCap(),
		got:  make([]bool, p.totalUnits()),
	}
	a.planned = len(a.got)
	if sp.Precision != nil {
		a.initAdaptive(*sp.Precision, width)
		return a
	}
	a.released = make([]int, len(a.got))
	for u := range a.released {
		a.released[u] = u
	}
	return a
}

// TotalUnits returns the size of the unit index space (points ×
// replicate cap); an adaptive campaign folds only a prefix of each
// point's range.
func (a *Assembler) TotalUnits() int { return len(a.got) }

// Policies returns the resolved policy count.
func (a *Assembler) Policies() int { return len(a.res.Policies) }

// ValsPerUnit returns the expected unit value-vector width.
func (a *Assembler) ValsPerUnit() int { return len(a.res.Policies) * a.nm }

// Progress returns the units folded so far and the current campaign
// size estimate — the pair Options.Progress reports.
func (a *Assembler) Progress() (done, planned int) { return a.done, a.planned }

// Done reports whether the campaign is complete: every unit folded, or
// every adaptive point stopped.
func (a *Assembler) Done() bool {
	if a.ad != nil {
		return a.ad.live == 0
	}
	return a.done == len(a.got)
}

// Released returns the units released since the last call that Fold
// has not accepted yet. Each unit is released at most once. The slice
// is valid until the next Fold.
func (a *Assembler) Released() []int {
	out := a.released[:0]
	for _, u := range a.released {
		if !a.got[u] {
			out = append(out, u)
		}
	}
	a.released = out[:0]
	return out
}

// Fold accepts one unit's value vector (vals is copied, never
// retained). It reports whether the unit was accepted: a duplicate, an
// out-of-range index, a malformed vector, or a unit of an adaptive
// point that already stopped is refused — exactly-once folding is the
// Assembler's contract, not the caller's burden. Folding may release
// further units (see Released).
func (a *Assembler) Fold(unit int, vals []float64) bool {
	if unit < 0 || unit >= len(a.got) || a.got[unit] || len(vals) != a.ValsPerUnit() {
		return false
	}
	pi, rep := unit/a.rcap, unit%a.rcap
	if a.settled(pi) {
		return false
	}
	for qi := range a.res.Policies {
		for k := 0; k < a.nm; k++ {
			col := a.res.column(pi, qi, k)
			if rep >= len(*col) {
				*col = slices.Grow(*col, rep+1-len(*col))[:rep+1]
			}
			(*col)[rep] = vals[qi*a.nm+k]
		}
	}
	a.got[unit] = true
	if a.ad != nil {
		a.advance(pi)
	} else {
		a.done++
	}
	return true
}

// settled reports whether point pi needs no further units: its adaptive
// stopping rule fired. Fixed points settle only with the campaign.
func (a *Assembler) settled(pi int) bool {
	return a.ad != nil && a.ad.points[pi].stopped
}

// Report mirrors the campaign's progress into telemetry: points and
// units planned, units done, stopping-rule firings and the replicates
// they saved. Queue depth is the executor's to report.
func (a *Assembler) Report(m *obs.Campaign) {
	m.PointsPlanned.Set(float64(len(a.res.Points)))
	m.UnitsDone.Set(float64(a.done))
	m.UnitsPlanned.Set(float64(a.planned))
	m.RepsSaved.Set(float64(len(a.got) - a.planned))
	if a.ad != nil && a.ad.stops > a.ad.reported {
		m.PointsStopped.Add(uint64(a.ad.stops - a.ad.reported))
		a.ad.reported = a.ad.stops
	}
}

// Result returns the assembled campaign once it is complete.
func (a *Assembler) Result() (*Result, error) {
	if !a.Done() {
		return nil, fmt.Errorf("campaign: result incomplete: %d of %d units folded", a.done, a.planned)
	}
	return a.res, nil
}
