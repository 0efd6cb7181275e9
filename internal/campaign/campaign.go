// Package campaign executes declarative scenario specs
// (internal/scenario) as sharded Monte-Carlo campaigns. A campaign
// expands the scenario grid into run units — one unit per (grid point,
// replicate) — and executes them on a bounded worker pool. Every unit
// derives its own RNG streams from the campaign seed via rng.SubSeed, so
// results are bit-identical regardless of worker count or completion
// order, and all policies of a unit share one task draw and one fault
// sequence (common random numbers, exactly as the paper's evaluation).
//
// Results land in per-cell replicate columns, one value per replicate in
// replicate order for fixed and adaptive campaigns alike, are folded
// through internal/stats accumulators at query time, and stream out as
// JSONL records or a stats.Table / CSV. A campaign can record a resume
// manifest: an append-only journal of completed units keyed by the
// spec's fingerprint, so an interrupted campaign restarts where it
// stopped instead of recomputing finished units.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// Stream identifiers for rng.SubSeed derivation. Distinct constants keep
// the task-generation, fault and arrival streams of a unit independent.
const (
	streamTasks    = 0x7461736b // "task"
	streamFaults   = 0x66617574 // "faut"
	streamArrivals = 0x61727276 // "arrv"
)

// Metric indices within a unit's per-policy value vector. Offline
// campaigns carry only the makespan; online campaigns (spec with an
// arrivals block) append the per-job aggregates, each stored in its own
// replicate column like the makespan so adaptive precision works on
// stretch exactly as on makespan. The per-job means cover every job of
// the unit — the base pack counts as jobs arriving at t = 0 with zero
// queue wait (cmd/coschedsim's "arrivals" line, by contrast, reports
// the dynamically arriving jobs alone).
const (
	// MetricMakespan is the completion time of the last job.
	MetricMakespan = iota
	// MetricResponse is the mean per-job response time (finish − arrive).
	MetricResponse
	// MetricStretch is the mean per-job bounded slowdown:
	// max(1, response / max(ref, 1 s)) with ref the job's fault-free
	// execution time on the full platform.
	MetricStretch
	// MetricWait is the mean per-job queue wait (start − arrive).
	MetricWait
	// MetricUtilization is busy proc-seconds / (P × makespan).
	MetricUtilization
	numOnlineMetrics
)

// stretchBound is the bounded-slowdown floor on the reference time:
// jobs faster than this are treated as 1-second jobs so the stretch of
// near-zero-work jobs stays finite (Feitelson's bounded slowdown).
const stretchBound = 1.0

// metricsPerPolicy returns the width of a unit's per-policy value
// vector: 1 offline, numOnlineMetrics online.
func metricsPerPolicy(sp scenario.Spec) int {
	if sp.Arrivals != nil {
		return numOnlineMetrics
	}
	return 1
}

// loadArrivalTrace parses a trace-process spec's arrival trace once per
// campaign (see plan.trace). It is nil for offline specs and the
// generated processes.
func loadArrivalTrace(sp scenario.Spec) ([]workload.TraceArrival, error) {
	if sp.Arrivals == nil || sp.Arrivals.Process != workload.ArrivalTrace {
		return nil, nil
	}
	return workload.LoadArrivalTrace(sp.Arrivals.Trace)
}

// Options tunes a campaign execution.
type Options struct {
	// Workers bounds unit parallelism; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after every folded unit with
	// the number of folded units (including manifest-restored ones) and
	// the campaign size estimate (adaptive stopping shrinks it). Calls
	// are serialized.
	Progress func(done, total int)
	// Manifest, when non-nil, makes the campaign resumable: previously
	// recorded units are restored instead of re-run, and every newly
	// completed unit is appended.
	Manifest *Manifest
	// Metrics, when non-nil, receives live telemetry: per-worker unit
	// and simulator counters (sharded, merged only at snapshot time) and
	// the coordinator's progress gauges. Results are byte-identical with
	// or without it — telemetry is a pure side channel.
	Metrics *obs.Campaign
	// Pool, when non-nil, executes the campaign's units on a shared
	// worker pool instead of a private one, interleaved fairly with
	// every other campaign targeting the same pool (Workers is ignored;
	// the pool's width rules). Unit seeds derive from (spec, point,
	// replicate) alone and results fold by unit index, so output is
	// byte-identical to a private-pool run.
	Pool *Pool
	// Client tags the campaign's queue on a shared Pool for per-client
	// fair scheduling. Ignored without Pool; "" is a valid shared key.
	Client string
	// Cancel, when non-nil, aborts the campaign once closed: no new
	// units are scheduled, in-flight ones drain (and are journaled), and
	// Run returns ErrCanceled. With a manifest attached the canceled
	// campaign resumes exactly where it stopped.
	Cancel <-chan struct{}
	// ModelCache, when non-nil, replaces the process-global compiled-
	// model cache for this run (tests and benchmarks isolate cache state
	// this way). Results are byte-identical with any cache, including
	// none (COSCHED_MODEL_CACHE=off) — the cache trades compile time,
	// never values.
	ModelCache *model.Cache
}

// Result is a completed campaign: the expanded grid, the resolved
// policies, and every cell's per-replicate values in replicate order.
// Fixed and adaptive campaigns (spec with a precision block) store the
// same layout — an adaptive point keeps exactly the replicates its
// stopping rule folded — and every aggregate (Cell, OnlineCell,
// Quantile, Table) is computed from it, so replicate r of an adaptive
// run is bit-identical to replicate r of the same spec run fixed.
type Result struct {
	Spec     scenario.Spec
	Points   []scenario.RunPoint
	Policies []scenario.PolicySpec
	// Makespans is indexed [point][policy][replicate]; once the run
	// completes, len(Makespans[pi][qi]) == Reps[pi].
	Makespans [][][]float64
	// Reps is the number of replicates actually executed at each grid
	// point (the fixed count, or whatever the adaptive stopping rule
	// decided).
	Reps []int
	// online holds the per-replicate online metrics, one column per
	// metric: [point][policy][metric-1][replicate], the makespan living
	// in Makespans. Nil for offline campaigns.
	online [][][][]float64
}

// newResult builds a campaign's empty result. Fixed columns are sized
// to the replicate count; adaptive ones start empty and grow as Fold
// stores replicates.
func newResult(p *plan) *Result {
	sp := p.sp
	res := &Result{Spec: sp, Points: p.points, Policies: p.policies, Reps: make([]int, len(p.points))}
	reps, nm := sp.Replicates, metricsPerPolicy(sp)
	if sp.Precision != nil {
		reps = 0
	}
	res.Makespans = make([][][]float64, len(p.points))
	if nm > 1 {
		res.online = make([][][][]float64, len(p.points))
	}
	for pi := range p.points {
		res.Reps[pi] = reps
		res.Makespans[pi] = make([][]float64, len(p.policies))
		if nm > 1 {
			res.online[pi] = make([][][]float64, len(p.policies))
		}
		for qi := range p.policies {
			if nm > 1 {
				res.online[pi][qi] = make([][]float64, nm-1)
			}
			for k := 0; k < nm; k++ {
				*res.column(pi, qi, k) = make([]float64, reps)
			}
		}
	}
	return res
}

// column returns the replicate column of one metric of one cell.
func (r *Result) column(point, policy, metric int) *[]float64 {
	if metric == MetricMakespan {
		return &r.Makespans[point][policy]
	}
	return &r.online[point][policy][metric-1]
}

// truncate cuts every column of a point to its first n replicates.
func (r *Result) truncate(point, n int) {
	for qi := range r.Policies {
		for k := 0; k < metricsPerPolicy(r.Spec); k++ {
			col := r.column(point, qi, k)
			*col = (*col)[:n]
		}
	}
}

// summarize folds a replicate column through an Accumulator in
// replicate order.
func summarize(col []float64) stats.Summary {
	var a stats.Accumulator
	a.AddAll(col)
	return a.Summary()
}

// unitResult is one executed (or skipped) unit on its way back to the
// coordinating goroutine.
type unitResult struct {
	unit int
	vals []float64 // a recycled copy of the unit's value vector
	err  error
	// skip marks a queued unit that was no longer wanted when a worker
	// reached it (campaign failed or canceled, or its point stopped):
	// it never ran and only drains the in-flight count.
	skip bool
}

// Run executes the scenario and blocks until the campaign completed.
//
// Run is the in-process executor over the Assembler: it submits every
// unit the Assembler releases to a Pool — the shared Options.Pool, or a
// private pool of Options.Workers closed on return — and one
// coordinating goroutine folds each result, journals it, reports
// progress, and submits whatever the fold released next. The first
// error or a cancellation stops all scheduling: queued units no longer
// wanted return without running.
func Run(sp scenario.Spec, opt Options) (*Result, error) {
	p, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	pool := opt.Pool
	if pool == nil {
		width := opt.Workers
		if width <= 0 {
			width = runtime.GOMAXPROCS(0)
		}
		if total := p.totalUnits(); width > total {
			width = total
		}
		pool = NewPool(width)
		defer pool.Close()
	}
	width := pool.Workers()
	asm := newAssembler(p, width)
	if opt.Manifest != nil {
		if _, err := opt.Manifest.Restore(sp, len(p.policies), func(unit int, vals []float64) { asm.Fold(unit, vals) }, nil); err != nil {
			return nil, err
		}
	}

	// The campaign's model-sharing state: pack classes, the pack memo
	// and the compiled-model cache. Workers consult it instead of
	// compiling per unit; see models.go.
	um := newUnitModels(p.points, modelCache(opt.ModelCache))
	var cacheStart model.CacheStats
	if opt.Metrics != nil {
		cacheStart = um.cache.Stats()
	}

	// Workers and the coordinator share only these: results flow back on
	// one channel (a slot per pool worker, so a finishing worker rarely
	// waits for the coordinator), value-vector buffers circulate through
	// bufs, and the want flags let a queued unit see that nobody needs it
	// anymore. At most 2×width+1 buffers are ever out (filling, queued in
	// results, being folded), so one slab pre-fills the ring.
	results := make(chan unitResult, width)
	nbuf, vpu := 2*width+1, p.valsPerUnit()
	bufs := make(chan []float64, nbuf)
	slab := make([]float64, nbuf*vpu)
	for i := 0; i < nbuf; i++ {
		bufs <- slab[i*vpu : (i+1)*vpu]
	}
	var aborted atomic.Bool // first error or cancellation
	stopped := make([]atomic.Bool, len(p.points))
	rcap := sp.ReplicateCap()
	exec := func(ws *workerState, w, unit int) {
		if aborted.Load() || stopped[unit/rcap].Load() || canceled(opt.Cancel) {
			results <- unitResult{unit: unit, skip: true}
			return
		}
		ws.bind(opt.Metrics, w)
		vals, err := p.runUnit(ws, um, unit)
		r := unitResult{unit: unit, err: err}
		if err == nil {
			var buf []float64
			select {
			case buf = <-bufs:
			default:
			}
			r.vals = append(buf[:0], vals...)
		}
		results <- r
	}

	inflight := 0
	submit := func() {
		units := asm.Released()
		inflight += len(units)
		pool.submit(opt.Client, exec, units...)
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			aborted.Store(true)
		}
	}
	report := func() {
		if m := opt.Metrics; m != nil {
			asm.Report(m)
			m.QueueDepth.Set(float64(inflight))
			m.SetModelCache(cacheObs(um.cache.Stats().Delta(cacheStart)))
		}
	}

	if done, total := asm.Progress(); opt.Progress != nil && done > 0 {
		opt.Progress(done, total)
	}
	submit()
	report()
	cancelWatch := opt.Cancel
	for inflight > 0 {
		select {
		case r := <-results:
			inflight--
			switch {
			case r.err != nil:
				fail(r.err)
			case r.skip || (firstErr != nil && firstErr != ErrCanceled):
				// Never ran, or arrived after a failure: the failed run's
				// output is discarded anyway, and a resume recomputes it.
			case asm.Fold(r.unit, r.vals):
				if opt.Manifest != nil {
					if err := opt.Manifest.AppendUnit(r.unit, r.vals); err != nil {
						fail(err)
					}
				}
				if pi := r.unit / rcap; asm.settled(pi) {
					stopped[pi].Store(true)
				}
				if opt.Progress != nil {
					opt.Progress(asm.Progress())
				}
				if firstErr == nil {
					submit()
				}
			}
			if r.vals != nil {
				select {
				case bufs <- r.vals:
				default:
				}
			}
			report()
		case <-cancelWatch: // nil without Options.Cancel: never ready
			fail(ErrCanceled)
			cancelWatch = nil
		}
	}
	if canceled(opt.Cancel) {
		fail(ErrCanceled)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return asm.Result()
}

// workerState is the per-goroutine arena of the campaign: a reusable
// simulator (which owns the compiled table of every unit the model
// cache does not serve), a reusable renewal fault generator, reseedable
// RNG streams, and the per-unit makespan buffer. Nothing here is shared
// between workers, and everything is reset in place between units.
type workerState struct {
	simulator *core.Simulator
	renewal   failure.Renewal
	// replay records the fault stream the unit's first fault-enabled
	// policy consumes, so the remaining policies rewind it (common
	// random numbers) instead of re-generating the stream. Valid only
	// within one runUnit call.
	replay   failure.Replay
	taskRNG  *rng.Source
	faultRNG *rng.Source
	arrRNG   *rng.Source
	out      []float64
	// shard, when non-nil, is this worker's telemetry shard; observer is
	// the same shard's SimMetrics behind the core.RunObserver interface,
	// kept separately so a metrics-off worker passes a genuinely nil
	// interface to the simulator (zero-cost-when-off contract).
	shard    *obs.WorkerShard
	observer core.RunObserver
}

func newWorkerState() *workerState {
	return &workerState{
		simulator: core.NewSimulator(),
		taskRNG:   rng.New(0),
		faultRNG:  rng.New(0),
		arrRNG:    rng.New(0),
	}
}

// workerStatePool recycles worker arenas across campaign executions.
// Every arena is reset in place per unit anyway (reseeded RNGs,
// simulator Reset), so a recycled state is indistinguishable from a
// fresh one — but its warmed-up buffers (simulator slabs and its own
// table's columns, the renewal heap) survive, which matters for drivers
// that run many short campaigns back to back (adaptive batches,
// cmd/bench, parameter sweeps).
var workerStatePool = sync.Pool{New: func() any { return newWorkerState() }}

// getWorkerState takes a (possibly recycled) worker arena from the pool.
func getWorkerState() *workerState { return workerStatePool.Get().(*workerState) }

// putWorkerState detaches the arena from its telemetry shard and returns
// it to the pool.
func putWorkerState(ws *workerState) {
	ws.shard = nil
	ws.observer = nil
	workerStatePool.Put(ws)
}

// attach binds this worker to its telemetry shard.
func (ws *workerState) attach(sh *obs.WorkerShard) {
	ws.shard = sh
	ws.observer = &sh.Sim
}

// bind attaches the arena to campaign telemetry m's shard w, or
// detaches it when m is nil. Shared-pool workers serve many campaigns
// with different telemetry roots, so every job rebinds its arena.
func (ws *workerState) bind(m *obs.Campaign, w int) {
	if m == nil {
		ws.shard, ws.observer = nil, nil
		return
	}
	ws.attach(m.Shard(w))
}

// unitTable is one compiled table of a unit as the model cache served
// it: the entry backing it, the view at the unit's P (nil when the cache
// refused), and whether the unit already asked.
type unitTable struct {
	entry *model.CacheEntry
	cm    *model.Compiled
	tried bool
}

// runUnit executes every policy of one (point pi, replicate) cell on the
// worker's persistent arena. The unit derives its streams purely from
// (seed, pack class, replicate) for the task draw and (seed, point
// index, replicate) for faults and arrivals, so any shard computes
// identical numbers, and all policies share the task draw, the
// fault-stream seed and — online — the arrival schedule (common random
// numbers). Each of the unit's two compiled tables (fault-enabled and
// fault-free) is acquired from the campaign's compiled-model cache at
// most once per unit, as a view at the unit's P of the table compiled
// at its pack class's cover, and reused by every policy that needs it.
// Units the cache cannot serve, and online units, pass no table: the
// simulator compiles its own at P and keeps it while the instance is
// unchanged. The returned slice holds metricsPerPolicy values per policy
// (metric-major within a policy) and is reused by the next unit of this
// worker; callers copy what they keep.
func (ws *workerState) runUnit(p *plan, pi, rep int, um *unitModels) ([]float64, error) {
	sp, pt, policies := p.sp, p.points[pi], p.policies
	var unitStart time.Time
	if ws.shard != nil {
		unitStart = time.Now()
	}
	faultSeed := rng.SubSeed(sp.Seed, streamFaults, uint64(pt.Index), uint64(rep))
	genSpec := pt.Spec
	if faultFreeOnly(policies) {
		// Mirror scenario.Validate: a fault-free-only scenario never uses
		// the failure fields, so generation must not reject them either.
		genSpec.MTBFYears, genSpec.SilentMTBFYears = 0, 0
	}
	// Validate per unit even when the pack comes from the memo: a point
	// whose own spec is invalid must fail exactly as it did when every
	// unit generated privately.
	if err := genSpec.Validate(); err != nil {
		return nil, err
	}
	tasks, err := um.packFor(ws, sp.Seed, genSpec, pt.Index, rep)
	if err != nil {
		return nil, err
	}
	online := sp.Arrivals != nil
	var arrivals []core.Arrival
	if online {
		// One arrival schedule per unit, shared by every policy (common
		// random numbers), from its own stream so adding arrivals to a
		// spec does not disturb the task or fault draws.
		ws.arrRNG.Reseed(rng.SubSeed(sp.Seed, streamArrivals, uint64(pt.Index), uint64(rep)))
		var err error
		arrivals, err = sp.Arrivals.GenerateFromTrace(pt.Spec, ws.arrRNG, p.trace)
		if err != nil {
			return nil, err
		}
	}
	nm := metricsPerPolicy(sp)
	if cap(ws.out) < len(policies)*nm {
		ws.out = make([]float64, len(policies)*nm)
	}
	out := ws.out[:len(policies)*nm]
	// The unit's cache-served tables, fault-enabled and fault-free,
	// indexed by PolicySpec.FaultFree and resolved by the first policy
	// that needs each.
	var tabs [2]unitTable
	defer func() {
		tabs[0].entry.Release()
		tabs[1].entry.Release()
	}()
	var unitLaw failure.Law // set by the unit's first fault-enabled policy
	for qi, pol := range policies {
		runSpec := pt.Spec
		var src failure.Source
		if pol.FaultFree {
			runSpec.MTBFYears, runSpec.SilentMTBFYears = 0, 0
		} else if runSpec.Lambda() > 0 {
			// Every policy of the unit replays the same fault stream
			// (common random numbers). The first fault-enabled policy
			// seeds and arms the generator and runs through a recording
			// Replay; later policies rewind the recording instead of
			// reseeding and re-generating the stream — pure slice reads,
			// no heap sifts, no RNG draws — and transparently continue
			// from the still-armed generator if they outlive the recorded
			// prefix. The law and P are identical across the unit's
			// fault-enabled policies (both derive from pt.Spec and
			// sp.Failure alone), so a rewound stream is bit-identical to
			// a fresh Reseed+Reset draw sequence.
			if unitLaw == nil {
				law, err := failure.LawForRate(sp.Failure.Law, runSpec.Lambda(), sp.Failure.Shape)
				if err != nil {
					return nil, err
				}
				ws.faultRNG.Reseed(faultSeed)
				if err := ws.renewal.Reset(runSpec.P, law, ws.faultRNG); err != nil {
					return nil, err
				}
				ws.replay.Reset(&ws.renewal)
				unitLaw = law
			} else {
				ws.replay.Rewind()
			}
			src = &ws.replay
		}
		in := core.Instance{Tasks: tasks, P: runSpec.P, Res: runSpec.Resilience(), Arrivals: arrivals}
		// Online units always run on the simulator's own table (a shared
		// handle is rejected by Reset), as does a unit the cache cannot
		// serve (cache off, incomparable profiles): the simulator compiles
		// the instance at P and keeps it while the instance is unchanged.
		if !online {
			t := &tabs[0]
			if pol.FaultFree {
				t = &tabs[1]
			}
			if !t.tried {
				t.tried = true
				e, err := um.cache.Acquire(in.Tasks, in.Res, in.RC, um.covers[pt.Index])
				if err != nil {
					return nil, err
				}
				if e != nil {
					t.entry, t.cm = e, e.View(in.P)
				}
			}
			if t.cm != nil {
				// A cache hit may carry a content-equal pack from an
				// earlier campaign; adopting its task slice keeps the
				// engine's slice-identity check (Compiled.Matches) exact.
				in.Tasks, in.Compiled = t.cm.Tasks(), t.cm
			}
		}
		if err := ws.simulator.Reset(in, pol.Policy, src, core.Options{Semantics: p.semantics, Observer: ws.observer}); err != nil {
			return nil, err
		}
		r, err := ws.simulator.Run()
		if err != nil {
			return nil, err
		}
		out[qi*nm+MetricMakespan] = r.Makespan
		if online {
			onlineMetrics(out[qi*nm:qi*nm+nm], &r, tasks, arrivals, runSpec.P)
		}
	}
	if ws.shard != nil {
		d := time.Since(unitStart).Seconds()
		ws.shard.Units.Inc()
		ws.shard.BusySeconds.Add(d)
		ws.shard.UnitSeconds.Observe(d)
	}
	return out, nil
}

// onlineMetrics fills one policy's metric vector from a finished run:
// per-job means of response time, bounded slowdown and queue wait, plus
// platform utilization. The stretch reference is the job's fault-free
// execution time on the full (even) platform — the best it could ever
// do — floored at stretchBound seconds.
func onlineMetrics(dst []float64, r *core.Result, tasks []model.Task, arrivals []core.Arrival, p int) {
	evenP := p - p%2
	nj := len(r.Finish)
	var respSum, strSum, waitSum float64
	for i := 0; i < nj; i++ {
		resp := r.Finish[i] - r.Arrive[i]
		wait := r.Start[i] - r.Arrive[i]
		var ref float64
		if i < len(tasks) {
			ref = tasks[i].Time(evenP)
		} else {
			ref = arrivals[i-len(tasks)].Task.Time(evenP)
		}
		if ref < stretchBound {
			ref = stretchBound
		}
		str := resp / ref
		if str < 1 {
			str = 1
		}
		respSum += resp
		strSum += str
		waitSum += wait
	}
	n := float64(nj)
	dst[MetricResponse] = respSum / n
	dst[MetricStretch] = strSum / n
	dst[MetricWait] = waitSum / n
	dst[MetricUtilization] = r.ProcSeconds / (float64(p) * r.Makespan)
}

// faultFreeOnly reports whether no policy ever consumes faults.
func faultFreeOnly(policies []scenario.PolicySpec) bool {
	for _, p := range policies {
		if !p.FaultFree {
			return false
		}
	}
	return true
}

// Cell aggregates one (point, policy) cell of the campaign. Fixed and
// adaptive campaigns fold the same stored replicates through the same
// accumulator in replicate order, so for equal replicate counts the
// summaries are bit-identical.
func (r *Result) Cell(point, policy int) stats.Summary {
	return summarize(r.Makespans[point][policy])
}

// Online reports whether the campaign ran with dynamic job arrivals.
func (r *Result) Online() bool { return r.Spec.Arrivals != nil }

// OnlineCell aggregates one online metric (MetricResponse,
// MetricStretch, MetricWait or MetricUtilization; MetricMakespan is
// Cell) of one cell, folding the per-replicate values in replicate
// order. ok is false for offline campaigns or unknown metrics.
func (r *Result) OnlineCell(point, policy, metric int) (stats.Summary, bool) {
	if !r.Online() || metric < MetricMakespan || metric >= numOnlineMetrics {
		return stats.Summary{}, false
	}
	return summarize(*r.column(point, policy, metric)), true
}

// Quantile returns the exact q-quantile of a cell's stored makespans.
// ok is false when the cell is empty.
func (r *Result) Quantile(point, policy int, q float64) (float64, bool) {
	mk := r.Makespans[point][policy]
	if len(mk) == 0 {
		return 0, false
	}
	return stats.Quantile(mk, q), true
}

// CellRelHalfWidth reports the achieved relative confidence-interval
// half-width of one cell's makespan at the campaign's confidence level
// (the precision block's, or 95% for fixed campaigns): the batch-means
// Student-t interval the stopping rule uses, over the stored replicates,
// for adaptive campaigns; the classic t interval otherwise. ok is false
// while no variance estimate exists.
func (r *Result) CellRelHalfWidth(point, policy int) (float64, bool) {
	mk := r.Makespans[point][policy]
	var hw, mean float64
	if prec := r.Spec.Precision; prec != nil {
		bm := stats.NewBatchMeans(prec.BatchSize())
		for _, x := range mk {
			bm.Add(x)
		}
		w, ok := bm.HalfWidth(prec.ConfidenceLevel())
		if !ok {
			return 0, false
		}
		hw, mean = w, math.Abs(bm.Mean())
	} else {
		var a stats.Accumulator
		a.AddAll(mk)
		if a.N() < 2 {
			return 0, false
		}
		hw, mean = stats.TCrit(a.N()-1, 0.95)*a.StdErr(), math.Abs(a.Mean())
	}
	if mean == 0 {
		if hw == 0 {
			return 0, true
		}
		return math.Inf(1), true
	}
	return hw / mean, true
}

// Adaptive reports whether the campaign ran under a precision block.
func (r *Result) Adaptive() bool { return r.Spec.Precision != nil }

// ReplicateBudget returns the worst-case unit count: grid points times
// the replicate cap. Compare with Units() to see what adaptive stopping
// saved.
func (r *Result) ReplicateBudget() int {
	return len(r.Points) * r.Spec.ReplicateCap()
}

// QuantileTable renders per-cell quantiles as a stats.Table: one series
// per (policy, quantile) pair, named "<label> p50" etc. Every quantile
// is an exact order statistic over the cell's stored replicates.
func (r *Result) QuantileTable(qs ...float64) (*stats.Table, error) {
	t := &stats.Table{
		Title:  r.Spec.Name + " quantiles",
		XLabel: r.Spec.XLabel,
		YLabel: "makespan quantile (s)",
	}
	if t.XLabel == "" {
		t.XLabel = "x"
	}
	for _, pt := range r.Points {
		t.X = append(t.X, pt.X)
	}
	for qi, pol := range r.Policies {
		ys := make([][]float64, len(qs))
		for i := range ys {
			ys[i] = make([]float64, len(r.Points))
		}
		for pi := range r.Points {
			mk := r.Makespans[pi][qi]
			if len(mk) == 0 {
				return nil, fmt.Errorf("campaign: cell (%d, %s) is empty", pi, pol.Name)
			}
			// Sort each cell once for all requested quantiles.
			for i, v := range stats.ExactQuantiles(mk, qs...) {
				ys[i][pi] = v
			}
		}
		for i, q := range qs {
			name := fmt.Sprintf("%s p%g", pol.Label, q*100)
			if err := t.AddSeries(name, ys[i]); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Table folds the campaign into a stats.Table: one series per policy
// (named by label), mean makespan per grid point, normalized by the
// spec's base policy when set. Replicates fold in deterministic order,
// so the table is identical for any worker count.
func (r *Result) Table() (*stats.Table, error) {
	t := &stats.Table{
		Title:  r.Spec.Title,
		XLabel: r.Spec.XLabel,
		YLabel: "mean makespan (s)",
	}
	if t.Title == "" {
		t.Title = r.Spec.Name
	}
	if t.XLabel == "" {
		t.XLabel = "x"
	}
	for _, pt := range r.Points {
		t.X = append(t.X, pt.X)
	}
	for qi, pol := range r.Policies {
		ys := make([]float64, len(r.Points))
		for pi := range r.Points {
			ys[pi] = r.Cell(pi, qi).Mean
		}
		if err := t.AddSeries(pol.Label, ys); err != nil {
			return nil, err
		}
	}
	if r.Spec.Base != "" {
		base := r.Spec.Base
		if t.SeriesByName(base) == nil {
			// Base may name the policy rather than its label.
			for _, pol := range r.Policies {
				if pol.Name == base {
					base = pol.Label
					break
				}
			}
		}
		if err := t.Normalize(base); err != nil {
			return nil, err
		}
		t.YLabel = "normalized makespan"
	}
	return t, nil
}

// OnlineStats carries the per-job aggregates of one online campaign
// cell: replicate-level summaries of mean response time, mean bounded
// slowdown (stretch), mean queue wait and platform utilization.
type OnlineStats struct {
	Response    stats.Summary `json:"response"`
	Stretch     stats.Summary `json:"stretch"`
	Wait        stats.Summary `json:"wait"`
	Utilization stats.Summary `json:"utilization"`
}

// Record is one JSONL result line: the aggregate of one campaign cell.
// Online is present only for campaigns with an arrivals block, so
// offline output stays byte-identical to pre-online versions.
type Record struct {
	Scenario string             `json:"scenario"`
	Point    int                `json:"point"`
	X        float64            `json:"x"`
	Set      map[string]float64 `json:"set,omitempty"`
	Policy   string             `json:"policy"`
	Label    string             `json:"label,omitempty"`
	Stats    stats.Summary      `json:"stats"`
	Online   *OnlineStats       `json:"online,omitempty"`
}

// WriteJSONL streams one Record per campaign cell, ordered by grid point
// then policy. Equal spec and seed produce byte-identical output for any
// worker count (encoding/json sorts the Set map keys).
func (r *Result) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for pi, pt := range r.Points {
		for qi, pol := range r.Policies {
			rec := Record{
				Scenario: r.Spec.Name,
				Point:    pt.Index,
				X:        pt.X,
				Set:      pt.Set,
				Policy:   pol.Name,
				Stats:    r.Cell(pi, qi),
			}
			if pol.Label != pol.Name {
				rec.Label = pol.Label
			}
			if r.Online() {
				resp, _ := r.OnlineCell(pi, qi, MetricResponse)
				str, _ := r.OnlineCell(pi, qi, MetricStretch)
				wait, _ := r.OnlineCell(pi, qi, MetricWait)
				util, _ := r.OnlineCell(pi, qi, MetricUtilization)
				rec.Online = &OnlineStats{Response: resp, Stretch: str, Wait: wait, Utilization: util}
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("campaign: writing JSONL: %w", err)
			}
		}
	}
	return nil
}

// Units returns the number of (point, replicate) units the campaign
// executed: points × replicates for fixed campaigns, whatever the
// stopping rule decided for adaptive ones.
func (r *Result) Units() int {
	total := 0
	for _, n := range r.Reps {
		total += n
	}
	return total
}
