// Package obs is the campaign telemetry subsystem: live metrics for the
// simulator core and the campaign runner, served over HTTP (Prometheus
// text, expvar, pprof, JSON progress) and streamed as a JSONL heartbeat.
//
// The design contract (DESIGN.md §11) is zero cost when off and
// lock-free on the hot path when on:
//
//   - Every instrument is single-writer: each campaign worker owns one
//     WorkerShard and is the only goroutine that ever writes it, so the
//     hot path needs no locks and no CAS loops — plain atomic stores and
//     adds on exclusively-owned cache lines, which concurrent snapshot
//     readers may load at any time (go test -race clean).
//   - The simulator itself never touches an instrument mid-run: it keeps
//     accumulating its ordinary per-run core.Counters and flushes them
//     into the shard exactly once per completed run (core.RunObserver).
//     With no observer attached (the default) the engine performs no
//     telemetry work at all, keeping the 0 allocs/op steady state and
//     bit-identical results.
//   - Aggregation happens only at snapshot time, merging shards in
//     worker-index order — so a snapshot of a quiesced pool is a
//     deterministic function of the work done, regardless of how many
//     workers did it, and tests can pin exact counts against journaled
//     campaign output.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/core"
)

// Counter is a cumulative integer metric with a single writer and any
// number of concurrent readers.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a cumulative float metric with a single writer. The
// single-writer discipline is what makes the unsynchronized
// load-add-store below lossless; concurrent readers only ever Load.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v into the counter.
func (c *FloatCounter) Add(v float64) {
	c.bits.Store(math.Float64bits(math.Float64frombits(c.bits.Load()) + v))
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-value metric with a single writer.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at
// construction. Observation is a linear scan over the (short) bound
// slice plus one uncontended atomic add; cumulative bucket counts are
// produced only at snapshot time.
type Histogram struct {
	bounds []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	sum    FloatCounter
	n      Counter
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (an overflow bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Inc()
}

// ExpBuckets returns n upper bounds starting at start and growing by
// factor: the standard exponential bucket ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// HistSnapshot is a merged, point-in-time view of one histogram family.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // per-bucket (not cumulative); overflow last
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// merge folds h into s (allocating the slices on first use).
func (s *HistSnapshot) merge(h *Histogram) {
	if h == nil {
		return
	}
	if s.Counts == nil {
		s.Bounds = h.bounds
		s.Counts = make([]uint64, len(h.counts))
	}
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Value()
	s.Count += h.n.Value()
}

// SimMetrics is the per-worker simulator instrument bundle. It
// implements core.RunObserver: the simulator accumulates its ordinary
// per-run Counters and ObserveRun folds them in exactly once per
// completed run, so the engine's event loop itself never touches an
// atomic.
type SimMetrics struct {
	Runs             Counter
	Events           Counter
	TaskEnds         Counter
	Submits          Counter
	Failures         Counter
	SuppressedFaults Counter
	IdleFaults       Counter
	EarlyFinalized   Counter
	Decisions        Counter
	CandidateEvals   Counter
	PrunedScans      Counter
	Redistributions  Counter
	RedistSeconds    FloatCounter
	RunEvents        *Histogram // events handled per run
}

// ObserveRun implements core.RunObserver.
func (m *SimMetrics) ObserveRun(c core.Counters) {
	m.Runs.Inc()
	m.Events.Add(uint64(c.Events))
	m.TaskEnds.Add(uint64(c.TaskEnds))
	m.Submits.Add(uint64(c.Submits))
	m.Failures.Add(uint64(c.Failures))
	m.SuppressedFaults.Add(uint64(c.SuppressedFault))
	m.IdleFaults.Add(uint64(c.IdleFault))
	m.EarlyFinalized.Add(uint64(c.EarlyFinalized))
	m.Decisions.Add(uint64(c.Decisions))
	m.CandidateEvals.Add(uint64(c.CandidateEvals))
	m.PrunedScans.Add(uint64(c.PrunedScans))
	m.Redistributions.Add(uint64(c.Redistributions))
	m.RedistSeconds.Add(c.RedistTime)
	if m.RunEvents != nil {
		m.RunEvents.Observe(float64(c.Events))
	}
}

// WorkerShard is the instrument set owned by one campaign worker. Only
// that worker writes it; snapshots read it concurrently.
type WorkerShard struct {
	Units       Counter      // units executed by this worker (restored units excluded)
	BusySeconds FloatCounter // wall-clock spent executing units
	UnitSeconds *Histogram   // wall-clock per unit
	Sim         SimMetrics   // simulator counters flushed per run
}

// Campaign is the root of one campaign's telemetry: per-worker shards
// plus the coordinator-owned progress gauges. The gauges have a single
// writer too (the campaign's coordinating section, already serialized),
// so every write in the package is an uncontended atomic.
type Campaign struct {
	start time.Time

	mu     sync.Mutex
	shards []*WorkerShard

	UnitsDone     Gauge   // completed units, including manifest-restored ones
	UnitsPlanned  Gauge   // current campaign size estimate (adaptive stopping shrinks it)
	QueueDepth    Gauge   // units queued or in flight
	PointsPlanned Gauge   // grid points in the campaign
	PointsStopped Counter // adaptive: points whose stopping rule has fired
	RepsSaved     Gauge   // adaptive: budgeted replicates the stopping rule avoided so far

	// Dist is the distributed coordinator's instrument bundle. Its single
	// writer is the coordinator event loop; an in-process campaign never
	// touches it, so the counters render as zeros there.
	Dist DistMetrics

	// Model-cache mirror gauges, written only by the campaign
	// coordinator (SetModelCache) with the per-run counter deltas of the
	// compiled-model cache. Like every gauge here they are single-writer
	// atomics: with telemetry off nothing is ever written (the
	// zero-cost-when-off contract extends to these counters — the cache
	// itself maintains its own atomics regardless).
	cacheHits        Gauge
	cacheMisses      Gauge
	cacheDeltaBuilds Gauge
	cacheEvictions   Gauge
	cacheBytes       Gauge
	cacheEntries     Gauge
}

// ModelCacheStats is the obs-side view of the compiled-model cache's
// per-run counters (the campaign layer converts from the model
// package's stats type, keeping obs free of model dependencies).
type ModelCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	DeltaBuilds uint64 `json:"delta_builds"`
	Evictions   uint64 `json:"evictions"`
	// ResidentBytes and Entries are process-level occupancy, not per-run
	// deltas: the cache outlives individual campaigns. ResidentBytes is
	// the bytes charged to the resident tables, not their memory.
	ResidentBytes int64 `json:"resident_bytes"`
	Entries       int64 `json:"entries"`
}

// SetModelCache mirrors the compiled-model cache counters into the
// telemetry root. Single writer: the campaign coordinator.
func (c *Campaign) SetModelCache(s ModelCacheStats) {
	c.cacheHits.Set(float64(s.Hits))
	c.cacheMisses.Set(float64(s.Misses))
	c.cacheDeltaBuilds.Set(float64(s.DeltaBuilds))
	c.cacheEvictions.Set(float64(s.Evictions))
	c.cacheBytes.Set(float64(s.ResidentBytes))
	c.cacheEntries.Set(float64(s.Entries))
}

// DistMetrics instruments the distributed coordinator: worker-process
// liveness, lease traffic, and the failure-handling outcomes
// (reassignment, quarantine) the chaos harness asserts on.
type DistMetrics struct {
	WorkersSpawned   Counter // worker processes started, including respawns
	WorkersLost      Counter // worker deaths detected (exit, kill, pipe loss)
	WorkersLive      Gauge   // currently connected workers
	LeasesGranted    Counter // claim records written
	LeasesExpired    Counter // leases voided by death or heartbeat timeout
	Reassignments    Counter // units re-leased after their lease expired
	UnitsQuarantined Counter // units retired after exhausting their retry budget
	Heartbeats       Counter // heartbeats received from workers
}

// NewCampaign returns an empty telemetry root; shards appear as workers
// claim them.
func NewCampaign() *Campaign { return &Campaign{start: time.Now()} }

// Shard returns worker w's shard, creating shards up to w as needed.
// Each shard must be written by exactly one goroutine; claiming is the
// only synchronized step.
func (c *Campaign) Shard(w int) *WorkerShard {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.shards) <= w {
		c.shards = append(c.shards, &WorkerShard{
			UnitSeconds: NewHistogram(ExpBuckets(0.001, 2, 16)...),
			Sim:         SimMetrics{RunEvents: NewHistogram(ExpBuckets(1, 2, 18)...)},
		})
	}
	return c.shards[w]
}

// SimTotals is the cross-worker sum of the simulator counters.
type SimTotals struct {
	Runs             uint64  `json:"runs"`
	Events           uint64  `json:"events"`
	TaskEnds         uint64  `json:"task_ends"`
	Submits          uint64  `json:"submits"`
	Failures         uint64  `json:"failures"`
	SuppressedFaults uint64  `json:"suppressed_faults"`
	IdleFaults       uint64  `json:"idle_faults"`
	EarlyFinalized   uint64  `json:"early_finalized"`
	Decisions        uint64  `json:"decisions"`
	CandidateEvals   uint64  `json:"candidate_evals"`
	PrunedScans      uint64  `json:"pruned_scans"`
	Redistributions  uint64  `json:"redistributions"`
	RedistSeconds    float64 `json:"redist_seconds"`
}

// WorkerStat is one worker's line of a snapshot.
type WorkerStat struct {
	Worker      int     `json:"worker"`
	Units       uint64  `json:"units"`
	BusySeconds float64 `json:"busy_seconds"`
	UnitsPerSec float64 `json:"units_per_s"` // over the worker's own busy time
}

// Snapshot is a point-in-time view of the whole campaign: coordinator
// gauges, per-worker stats in worker-index order, merged simulator
// totals, and merged histograms. Given a quiesced pool every field
// except the wall-clock ones (Elapsed, rates, UnitSeconds) is a
// deterministic function of the work done.
type Snapshot struct {
	ElapsedSeconds float64         `json:"elapsed_s"`
	UnitsDone      int64           `json:"units_done"`
	UnitsPlanned   int64           `json:"units_planned"`
	QueueDepth     int64           `json:"queue_depth"`
	PointsPlanned  int64           `json:"points_planned"`
	PointsStopped  uint64          `json:"points_stopped"`
	RepsSaved      int64           `json:"reps_saved"`
	UnitsExecuted  uint64          `json:"units_executed"` // sum of worker counters; excludes restored
	UnitsPerSec    float64         `json:"units_per_s"`    // executed units over campaign wall-clock
	ETASeconds     float64         `json:"eta_s"`          // -1 while no rate estimate exists
	Workers        []WorkerStat    `json:"workers"`
	Sim            SimTotals       `json:"sim"`
	UnitSeconds    HistSnapshot    `json:"unit_seconds"`
	RunEvents      HistSnapshot    `json:"run_events"`
	Dist           DistStats       `json:"dist"`
	ModelCache     ModelCacheStats `json:"model_cache"`
}

// DistStats is the snapshot view of the distributed coordinator's
// instruments (all zero for in-process campaigns).
type DistStats struct {
	WorkersSpawned   uint64 `json:"workers_spawned"`
	WorkersLost      uint64 `json:"workers_lost"`
	WorkersLive      int64  `json:"workers_live"`
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesExpired    uint64 `json:"leases_expired"`
	Reassignments    uint64 `json:"reassignments"`
	UnitsQuarantined uint64 `json:"units_quarantined"`
	Heartbeats       uint64 `json:"heartbeats"`
}

// Snapshot merges the current state. Safe to call concurrently with
// running workers; the result is exact once the pool has quiesced.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	shards := c.shards[:len(c.shards):len(c.shards)]
	c.mu.Unlock()

	s := Snapshot{
		ElapsedSeconds: time.Since(c.start).Seconds(),
		UnitsDone:      int64(c.UnitsDone.Value()),
		UnitsPlanned:   int64(c.UnitsPlanned.Value()),
		QueueDepth:     int64(c.QueueDepth.Value()),
		PointsPlanned:  int64(c.PointsPlanned.Value()),
		PointsStopped:  c.PointsStopped.Value(),
		RepsSaved:      int64(c.RepsSaved.Value()),
		ETASeconds:     -1,
		Dist: DistStats{
			WorkersSpawned:   c.Dist.WorkersSpawned.Value(),
			WorkersLost:      c.Dist.WorkersLost.Value(),
			WorkersLive:      int64(c.Dist.WorkersLive.Value()),
			LeasesGranted:    c.Dist.LeasesGranted.Value(),
			LeasesExpired:    c.Dist.LeasesExpired.Value(),
			Reassignments:    c.Dist.Reassignments.Value(),
			UnitsQuarantined: c.Dist.UnitsQuarantined.Value(),
			Heartbeats:       c.Dist.Heartbeats.Value(),
		},
		ModelCache: ModelCacheStats{
			Hits:          uint64(c.cacheHits.Value()),
			Misses:        uint64(c.cacheMisses.Value()),
			DeltaBuilds:   uint64(c.cacheDeltaBuilds.Value()),
			Evictions:     uint64(c.cacheEvictions.Value()),
			ResidentBytes: int64(c.cacheBytes.Value()),
			Entries:       int64(c.cacheEntries.Value()),
		},
	}
	for w, sh := range shards {
		units := sh.Units.Value()
		busy := sh.BusySeconds.Value()
		ws := WorkerStat{Worker: w, Units: units, BusySeconds: busy}
		if busy > 0 {
			ws.UnitsPerSec = float64(units) / busy
		}
		s.Workers = append(s.Workers, ws)
		s.UnitsExecuted += units
		s.UnitSeconds.merge(sh.UnitSeconds)
		s.RunEvents.merge(sh.Sim.RunEvents)

		s.Sim.Runs += sh.Sim.Runs.Value()
		s.Sim.Events += sh.Sim.Events.Value()
		s.Sim.TaskEnds += sh.Sim.TaskEnds.Value()
		s.Sim.Submits += sh.Sim.Submits.Value()
		s.Sim.Failures += sh.Sim.Failures.Value()
		s.Sim.SuppressedFaults += sh.Sim.SuppressedFaults.Value()
		s.Sim.IdleFaults += sh.Sim.IdleFaults.Value()
		s.Sim.EarlyFinalized += sh.Sim.EarlyFinalized.Value()
		s.Sim.Decisions += sh.Sim.Decisions.Value()
		s.Sim.CandidateEvals += sh.Sim.CandidateEvals.Value()
		s.Sim.PrunedScans += sh.Sim.PrunedScans.Value()
		s.Sim.Redistributions += sh.Sim.Redistributions.Value()
		s.Sim.RedistSeconds += sh.Sim.RedistSeconds.Value()
	}
	if s.ElapsedSeconds > 0 {
		s.UnitsPerSec = float64(s.UnitsExecuted) / s.ElapsedSeconds
	}
	if remaining := s.UnitsPlanned - s.UnitsDone; remaining >= 0 && s.UnitsPerSec > 0 {
		s.ETASeconds = float64(remaining) / s.UnitsPerSec
	}
	return s
}
