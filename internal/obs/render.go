package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// WritePrometheus renders a snapshot of the campaign in the Prometheus
// text exposition format. Families, workers and buckets appear in a
// fixed order, so a scrape of a quiesced campaign is byte-deterministic
// up to the wall-clock metrics (elapsed, rates, unit_seconds).
func (c *Campaign) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, c.Snapshot())
}

func writePrometheus(w io.Writer, s Snapshot) error {
	var err error
	pr := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	gauge := func(name, help string, v float64) {
		pr("# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fnum(v))
	}
	counter := func(name, help string, v float64) {
		pr("# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fnum(v))
	}

	gauge("cosched_campaign_elapsed_seconds", "Wall-clock since the campaign telemetry started.", s.ElapsedSeconds)
	gauge("cosched_campaign_units_done", "Completed (point, replicate) units, including manifest-restored ones.", float64(s.UnitsDone))
	gauge("cosched_campaign_units_planned", "Current campaign size estimate (adaptive stopping shrinks it).", float64(s.UnitsPlanned))
	gauge("cosched_campaign_queue_depth", "Units queued or in flight.", float64(s.QueueDepth))
	gauge("cosched_campaign_points_planned", "Grid points in the campaign.", float64(s.PointsPlanned))
	counter("cosched_campaign_points_stopped_total", "Adaptive grid points whose stopping rule has fired.", float64(s.PointsStopped))
	gauge("cosched_campaign_reps_saved", "Budgeted replicates the adaptive stopping rule avoided so far.", float64(s.RepsSaved))
	gauge("cosched_campaign_units_per_second", "Executed units over campaign wall-clock.", s.UnitsPerSec)

	pr("# HELP cosched_worker_units_total Units executed per worker.\n# TYPE cosched_worker_units_total counter\n")
	for _, ws := range s.Workers {
		pr("cosched_worker_units_total{worker=%q} %d\n", strconv.Itoa(ws.Worker), ws.Units)
	}
	pr("# HELP cosched_worker_busy_seconds_total Wall-clock spent executing units per worker.\n# TYPE cosched_worker_busy_seconds_total counter\n")
	for _, ws := range s.Workers {
		pr("cosched_worker_busy_seconds_total{worker=%q} %s\n", strconv.Itoa(ws.Worker), fnum(ws.BusySeconds))
	}

	counter("cosched_sim_runs_total", "Completed simulator runs.", float64(s.Sim.Runs))
	counter("cosched_sim_events_total", "Events handled by the simulator (ends, faults, submits).", float64(s.Sim.Events))
	counter("cosched_sim_task_ends_total", "Task-end events processed.", float64(s.Sim.TaskEnds))
	counter("cosched_sim_submits_total", "Job-submit events processed (online mode).", float64(s.Sim.Submits))
	counter("cosched_sim_failures_total", "Failures striking a running, unprotected task.", float64(s.Sim.Failures))
	counter("cosched_sim_suppressed_faults_total", "Failures during downtime/recovery/redistribution (discarded).", float64(s.Sim.SuppressedFaults))
	counter("cosched_sim_idle_faults_total", "Failures on processors not currently allocated.", float64(s.Sim.IdleFaults))
	counter("cosched_sim_early_finalized_total", "Tasks finalized by Algorithm 2 line 28.", float64(s.Sim.EarlyFinalized))
	counter("cosched_sim_decisions_total", "Redistribution-heuristic invocations.", float64(s.Sim.Decisions))
	counter("cosched_sim_candidate_evals_total", "Candidate expected-finish evaluations inside heuristics.", float64(s.Sim.CandidateEvals))
	counter("cosched_sim_pruned_scans_total", "Candidate scans skipped because a lower bound proved them dead.", float64(s.Sim.PrunedScans))
	counter("cosched_sim_redistributions_total", "Tasks whose allocation actually changed.", float64(s.Sim.Redistributions))
	counter("cosched_sim_redist_seconds_total", "Total simulated redistribution cost paid.", s.Sim.RedistSeconds)

	counter("cosched_model_cache_hits_total", "Compiled-model cache hits this campaign.", float64(s.ModelCache.Hits))
	counter("cosched_model_cache_misses_total", "Compiled-model cache misses this campaign (compiles paid).", float64(s.ModelCache.Misses))
	counter("cosched_model_cache_delta_builds_total", "Cache misses served by incremental delta recompiles.", float64(s.ModelCache.DeltaBuilds))
	counter("cosched_model_cache_evictions_total", "Compiled-model cache entries evicted this campaign.", float64(s.ModelCache.Evictions))
	gauge("cosched_model_cache_resident_bytes", "Bytes charged to compiled tables resident in the process cache, in fixed per-cell budget units rather than their memory.", float64(s.ModelCache.ResidentBytes))
	gauge("cosched_model_cache_entries", "Compiled tables resident in the process cache.", float64(s.ModelCache.Entries))

	counter("cosched_dist_workers_spawned_total", "Distributed worker processes started, including respawns.", float64(s.Dist.WorkersSpawned))
	counter("cosched_dist_workers_lost_total", "Distributed worker deaths detected (exit, kill, pipe loss).", float64(s.Dist.WorkersLost))
	gauge("cosched_dist_workers_live", "Currently connected distributed workers.", float64(s.Dist.WorkersLive))
	counter("cosched_dist_leases_granted_total", "Unit-range leases granted to distributed workers.", float64(s.Dist.LeasesGranted))
	counter("cosched_dist_leases_expired_total", "Leases voided by worker death or heartbeat timeout.", float64(s.Dist.LeasesExpired))
	counter("cosched_dist_reassignments_total", "Units re-leased to another worker after their lease expired.", float64(s.Dist.Reassignments))
	counter("cosched_dist_units_quarantined_total", "Units retired after exhausting their retry budget.", float64(s.Dist.UnitsQuarantined))
	counter("cosched_dist_heartbeats_total", "Heartbeats received from distributed workers.", float64(s.Dist.Heartbeats))

	writeHistogram(pr, "cosched_unit_seconds", "Wall-clock per executed unit.", s.UnitSeconds)
	writeHistogram(pr, "cosched_sim_run_events", "Events handled per simulator run.", s.RunEvents)
	return err
}

// writeHistogram renders one merged histogram in cumulative Prometheus
// form (the internal representation is per-bucket).
func writeHistogram(pr func(string, ...interface{}), name, help string, h HistSnapshot) {
	pr("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		pr("%s_bucket{le=%q} %d\n", name, fnum(b), cum)
	}
	if n := len(h.Counts); n > 0 {
		cum += h.Counts[n-1]
	}
	pr("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	pr("%s_sum %s\n", name, fnum(h.Sum))
	pr("%s_count %d\n", name, h.Count)
}

// fnum formats a float the way Prometheus expects: shortest exact
// decimal, no exponent for the usual magnitudes.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Progress is one machine-readable heartbeat record: the JSONL line the
// -heartbeat flag emits and the /progress endpoint serves.
type Progress struct {
	T             string  `json:"t"` // RFC3339 wall-clock timestamp
	ElapsedSec    float64 `json:"elapsed_s"`
	Done          int64   `json:"done"`
	Planned       int64   `json:"planned"`
	Pct           float64 `json:"pct"`
	QueueDepth    int64   `json:"queue_depth"`
	UnitsPerSec   float64 `json:"units_per_s"`
	ETASec        float64 `json:"eta_s"` // -1 while no rate estimate exists
	PointsStopped uint64  `json:"points_stopped,omitempty"`
	RepsSaved     int64   `json:"reps_saved,omitempty"`
	SimRuns       uint64  `json:"sim_runs"`
	SimEvents     uint64  `json:"sim_events"`
	SimRedist     uint64  `json:"sim_redistributions"`
	// Compiled-model cache one-liners; omitted while the cache is off or
	// untouched, so pre-cache heartbeat streams stay byte-identical.
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	CacheEvictions uint64 `json:"cache_evictions,omitempty"`
	CacheBytes     int64  `json:"cache_bytes,omitempty"`
}

// Progress distills a snapshot into its heartbeat record.
func (s Snapshot) Progress(now time.Time) Progress {
	p := Progress{
		T:              now.UTC().Format(time.RFC3339),
		ElapsedSec:     s.ElapsedSeconds,
		Done:           s.UnitsDone,
		Planned:        s.UnitsPlanned,
		QueueDepth:     s.QueueDepth,
		UnitsPerSec:    s.UnitsPerSec,
		ETASec:         s.ETASeconds,
		PointsStopped:  s.PointsStopped,
		RepsSaved:      s.RepsSaved,
		SimRuns:        s.Sim.Runs,
		SimEvents:      s.Sim.Events,
		SimRedist:      s.Sim.Redistributions,
		CacheHits:      s.ModelCache.Hits,
		CacheMisses:    s.ModelCache.Misses,
		CacheEvictions: s.ModelCache.Evictions,
		CacheBytes:     s.ModelCache.ResidentBytes,
	}
	if s.UnitsPlanned > 0 {
		p.Pct = 100 * float64(s.UnitsDone) / float64(s.UnitsPlanned)
	}
	return p
}

// Heartbeat starts a goroutine that appends one Progress JSON line to w
// every interval, plus a final line when stopped — so even a campaign
// shorter than the interval leaves a complete record. The returned stop
// function blocks until the final line is written; w must stay open
// until then. Write errors silently stop the stream (the heartbeat is a
// side channel, never a reason to kill a campaign).
func Heartbeat(w io.Writer, c *Campaign, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		enc := json.NewEncoder(w)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if enc.Encode(c.Snapshot().Progress(time.Now())) != nil {
					return
				}
			case <-done:
				enc.Encode(c.Snapshot().Progress(time.Now()))
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
