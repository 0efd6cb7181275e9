// Package service is the campaign daemon's engine: it accepts scenario
// specs from many clients, admits them through per-client rate limits
// and an execution-slot queue, runs every admitted campaign's units on
// one shared fair-scheduled worker pool (internal/campaign.Pool) or, when
// a worker executable is configured, on a worker-process fleet
// (internal/dist), and
// persists each campaign under a spool directory so a restarted daemon
// resumes every in-flight campaign exactly where it stopped.
//
// The pipeline separates four contracts (DESIGN.md §13):
//
//	intake     POST a spec → validate, fingerprint, dedupe per client
//	admission  token-bucket rate limit per client; bounded slots gate
//	           campaign starts FIFO; retries back off per client
//	execution  units interleave on the shared pool at unit granularity
//	           (per-client FIFO, round-robin across clients), journaled
//	           to an fsync'd manifest before they count as done
//	sink       results.jsonl written atomically once; progress streams
//	           as SSE heartbeats while the campaign runs
package service

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/clock"
	"cosched/internal/dist"
	"cosched/internal/obs"
	"cosched/internal/retry"
	"cosched/internal/scenario"
)

// Config tunes a daemon Server. The zero value is usable: every field
// has a default.
type Config struct {
	// SpoolDir is the root of the campaign spool (required in practice;
	// defaults to "spool" in the working directory).
	SpoolDir string
	// Workers is the shared pool width (0 = GOMAXPROCS).
	Workers int
	// MaxActive bounds concurrently executing campaigns; admitted
	// campaigns past the bound wait in StateQueued, FIFO (0 = 2×Workers).
	MaxActive int
	// MaxAttempts is how many times a failing campaign is retried
	// (backed off per client) before StateFailed (0 = 3).
	MaxAttempts int
	// SubmitRate and SubmitBurst shape the per-client token bucket on
	// POST /v1/campaigns (0 = 5/s, burst 10).
	SubmitRate, SubmitBurst float64
	// BackoffBase and BackoffMax bound the per-client retry backoff
	// (0 = 100ms base, 10s cap).
	BackoffBase, BackoffMax time.Duration
	// HeartbeatEvery is the SSE progress cadence (0 = 1s).
	HeartbeatEvery time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// WorkersExec, when non-empty, switches campaign execution to the
	// distributed backend: the daemon spawns DistWorkers worker processes
	// running this binary (cmd/campaignw) per campaign and coordinates
	// them through the spool manifest as the shared lease log.
	WorkersExec string
	// DistWorkers is the worker-process count per distributed campaign
	// (0 = 3).
	DistWorkers int
	// LeaseUnits and LeaseTTL shape distributed leases (0 = dist defaults).
	LeaseUnits int
	LeaseTTL   time.Duration
	// Clock is the time source for backoff, retry waits, and rate
	// limiting (nil = wall clock). Tests inject a fake to make retry
	// timing deterministic.
	Clock clock.Clock
	// ChaosKillUnit, when > 0, makes the distributed coordinator
	// SIGKILL the worker holding that unit index exactly once, the
	// first time the unit completes — the CI chaos-smoke hook proving
	// reassignment keeps results byte-identical. 0 (the zero value)
	// means off.
	ChaosKillUnit int

	// metaWriteErr, when non-nil, is consulted before every meta.json
	// write — the injectable-fs seam for spool-failure tests (tests are
	// in-package, so the field stays unexported).
	metaWriteErr func(id string) error
	// manifestWriteErr, when non-nil, is installed as every campaign
	// manifest's write-error hook (same seam, journal side).
	manifestWriteErr func(op string) error
}

func (c *Config) fillDefaults() {
	if c.SpoolDir == "" {
		c.SpoolDir = "spool"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 2 * c.Workers
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.SubmitRate <= 0 {
		c.SubmitRate = 5
	}
	if c.SubmitBurst <= 0 {
		c.SubmitBurst = 10
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.DistWorkers <= 0 {
		c.DistWorkers = 3
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// run is the in-memory state of one accepted campaign.
type run struct {
	id     string
	client string
	spec   scenario.Spec

	metrics    *obs.Campaign
	releaseObs func()

	cancel     chan struct{} // closed on client cancel or daemon stop
	cancelOnce sync.Once
	done       chan struct{} // closed when the execution goroutine exits

	mu           sync.Mutex
	meta         Meta
	userCanceled bool // cancel came from the client, not daemon shutdown

	// subMu guards the /stream subscriber set. Subscribers are woken
	// through capacity-1 channels with non-blocking sends, so a slow or
	// dropped client can never block the campaign's progress callback.
	subMu sync.Mutex
	subs  map[chan struct{}]struct{}
}

// notifyProgress is the campaign's Options.Progress callback: it wakes
// every /stream subscriber. Sends coalesce (capacity 1, drop when
// full), so the cost per completed unit is bounded no matter how many
// or how slow the subscribers.
func (r *run) notifyProgress(done, total int) {
	r.subMu.Lock()
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	r.subMu.Unlock()
}

// subscribe registers one /stream client for progress wakeups. The
// returned cancel must be called when the client goes away — it is the
// whole subscriber lifecycle, so a dropped connection leaves nothing
// behind.
func (r *run) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	r.subMu.Lock()
	if r.subs == nil {
		r.subs = map[chan struct{}]struct{}{}
	}
	r.subs[ch] = struct{}{}
	r.subMu.Unlock()
	return ch, func() {
		r.subMu.Lock()
		delete(r.subs, ch)
		r.subMu.Unlock()
	}
}

// subscriberCount reports the live /stream subscriber set size (the
// leak regression tests' observable).
func (r *run) subscriberCount() int {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	return len(r.subs)
}

// Meta returns a copy of the run's current durable state.
func (r *run) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meta
}

// requestCancel closes the run's cancel channel; user marks whether a
// client asked (StateCanceled) or the daemon is stopping (state stays,
// so a restart resumes the campaign).
func (r *run) requestCancel(user bool) {
	r.mu.Lock()
	if user {
		r.userCanceled = true
	}
	r.mu.Unlock()
	r.cancelOnce.Do(func() { close(r.cancel) })
}

// Server is the daemon engine. It owns the shared worker pool, the
// campaign set, and the spool; Handler (http.go) exposes it over HTTP.
type Server struct {
	cfg     Config
	pool    *campaign.Pool
	backoff *retry.Backoff
	slots   chan struct{} // execution-slot semaphore (MaxActive)
	quit    chan struct{}

	mu       sync.Mutex
	runs     map[string]*run
	limiters map[string]*rateLimiter
	stopped  bool
	wg       sync.WaitGroup
}

// New builds a Server over cfg.SpoolDir, rescans the spool, and resumes
// every campaign that was queued or running when the previous process
// stopped. The caller must Stop it.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: spool dir: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		pool:     campaign.NewPool(cfg.Workers),
		backoff:  retry.NewBackoff(cfg.BackoffBase, cfg.BackoffMax, cfg.Clock),
		slots:    make(chan struct{}, cfg.MaxActive),
		quit:     make(chan struct{}),
		runs:     map[string]*run{},
		limiters: map[string]*rateLimiter{},
	}
	if err := s.rescan(); err != nil {
		s.pool.Close()
		return nil, err
	}
	return s, nil
}

// rescan rebuilds the campaign set from the spool: terminal campaigns
// are registered as-is (their results stay servable), non-terminal ones
// are resumed through their manifests.
func (s *Server) rescan() error {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		return fmt.Errorf("service: scanning spool: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		meta, err := loadMeta(s.cfg.SpoolDir, id)
		if err != nil {
			s.cfg.Logf("service: skipping spool entry %s: %v", id, err)
			continue
		}
		f, err := os.Open(specPath(s.cfg.SpoolDir, id))
		if err != nil {
			s.cfg.Logf("service: skipping spool entry %s: %v", id, err)
			continue
		}
		sp, err := scenario.Decode(f)
		f.Close()
		if err != nil {
			s.cfg.Logf("service: skipping spool entry %s: bad spec: %v", id, err)
			continue
		}
		r := s.register(id, meta, sp)
		if terminalState(meta.State) {
			close(r.done)
			continue
		}
		s.cfg.Logf("service: resuming campaign %s (%s, client %s)", id, meta.State, meta.Client)
		s.start(r)
	}
	return nil
}

// register inserts one run into the in-memory set and publishes its
// telemetry namespace.
func (s *Server) register(id string, meta Meta, sp scenario.Spec) *run {
	r := &run{
		id:      id,
		client:  meta.Client,
		spec:    sp,
		metrics: obs.NewCampaign(),
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
		meta:    meta,
	}
	_, r.releaseObs = obs.Publish(id, r.metrics)
	s.mu.Lock()
	s.runs[id] = r
	s.mu.Unlock()
	return r
}

// start launches a run's execution goroutine.
func (s *Server) start(r *run) {
	s.wg.Add(1)
	go s.execute(r)
}

// CampaignID derives the campaign identity from (client, spec): the
// dedup key and the spool directory name. Resubmitting the same spec
// from the same client always lands on the same campaign.
func CampaignID(client string, sp scenario.Spec) (string, error) {
	fp, err := sp.Fingerprint()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write([]byte(client))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%016x", fp)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Submit validates and admits one spec for client. A campaign with the
// same (client, spec) identity already in the system is returned as-is
// (existing == true) — intake is idempotent. New campaigns are spooled
// durably before Submit returns.
func (s *Server) Submit(client string, sp scenario.Spec) (Meta, bool, error) {
	if err := sp.Validate(); err != nil {
		return Meta{}, false, err
	}
	id, err := CampaignID(client, sp)
	if err != nil {
		return Meta{}, false, err
	}
	fp, _ := sp.Fingerprint()

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return Meta{}, false, errors.New("service: server is stopping")
	}
	if r, ok := s.runs[id]; ok {
		s.mu.Unlock()
		return r.Meta(), true, nil
	}
	s.mu.Unlock()

	meta := Meta{
		ID:          id,
		Client:      client,
		Name:        sp.Name,
		Fingerprint: fmt.Sprintf("%016x", fp),
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}
	dir := campaignDir(s.cfg.SpoolDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Meta{}, false, fmt.Errorf("service: spooling campaign: %w", err)
	}
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		return Meta{}, false, err
	}
	if err := writeFileAtomic(specPath(s.cfg.SpoolDir, id), buf.Bytes()); err != nil {
		return Meta{}, false, fmt.Errorf("service: spooling spec: %w", err)
	}
	if err := saveMeta(s.cfg.SpoolDir, meta); err != nil {
		return Meta{}, false, fmt.Errorf("service: spooling meta: %w", err)
	}

	s.mu.Lock()
	if r, ok := s.runs[id]; ok { // lost a submit race: defer to the winner
		s.mu.Unlock()
		return r.Meta(), true, nil
	}
	s.mu.Unlock()
	r := s.register(id, meta, sp)
	s.cfg.Logf("service: accepted campaign %s (client %s, spec %q)", id, client, sp.Name)
	s.start(r)
	return meta, false, nil
}

// Get returns one campaign's run by ID.
func (s *Server) Get(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// List returns every campaign's Meta, newest submission first.
func (s *Server) List() []Meta {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	out := make([]Meta, len(runs))
	for i, r := range runs {
		out[i] = r.Meta()
	}
	for i := 1; i < len(out); i++ { // insertion sort: small n, no extra deps
		for j := i; j > 0 && out[j].SubmittedAt.After(out[j-1].SubmittedAt); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Cancel requests a client cancel of one campaign. In-flight units
// drain and are journaled; the campaign lands in StateCanceled.
func (s *Server) Cancel(id string) bool {
	r, ok := s.Get(id)
	if !ok {
		return false
	}
	r.requestCancel(true)
	return true
}

// saveMeta persists one run's Meta through the injectable-fs seam.
func (s *Server) saveMeta(meta Meta) error {
	if h := s.cfg.metaWriteErr; h != nil {
		if err := h(meta.ID); err != nil {
			return err
		}
	}
	return saveMeta(s.cfg.SpoolDir, meta)
}

// allowSubmit runs the per-client token bucket for one submission.
func (s *Server) allowSubmit(client string) (bool, time.Duration) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	l, ok := s.limiters[client]
	if !ok {
		l = newRateLimiter(s.cfg.SubmitRate, s.cfg.SubmitBurst, now)
		s.limiters[client] = l
	}
	s.mu.Unlock()
	return l.allow(now)
}

// setState durably transitions a run's lifecycle state. A spool write
// failure cannot be swallowed — a daemon whose disk is gone must not
// keep reporting campaigns healthy — so when meta.json cannot be
// written the run is forced to StateFailed in memory with the spool
// error recorded (clients see it immediately even though the disk copy
// is stale). The new state is published only after the write settles,
// so a client never observes a terminal state that then changes.
func (s *Server) setState(r *run, state string, runErr error) {
	r.mu.Lock()
	meta := r.meta
	r.mu.Unlock()
	meta.State = state
	meta.Error = ""
	if runErr != nil {
		meta.Error = runErr.Error()
	}
	if terminalState(state) {
		t := time.Now().UTC()
		meta.FinishedAt = &t
	}
	if err := s.saveMeta(meta); err != nil {
		s.cfg.Logf("service: persisting state of %s: %v", r.id, err)
		meta.State = StateFailed
		meta.Error = fmt.Sprintf("persisting campaign state: %v", err)
		if meta.FinishedAt == nil {
			t := time.Now().UTC()
			meta.FinishedAt = &t
		}
	}
	r.mu.Lock()
	r.meta.State, r.meta.Error, r.meta.FinishedAt = meta.State, meta.Error, meta.FinishedAt
	r.mu.Unlock()
}

// spoolWriteErr reports whether err is a storage failure no retry can
// fix — the disk is full or the spool turned read-only. These fail the
// campaign immediately (with the error recorded) instead of burning the
// retry budget against a dead filesystem.
func spoolWriteErr(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, os.ErrPermission) || errors.Is(err, syscall.EROFS)
}

// execute drives one campaign to a terminal state: wait for an
// execution slot, run on the shared pool, retry failures with per-client
// backoff. A daemon shutdown mid-run leaves the state non-terminal so
// the next process resumes it.
func (s *Server) execute(r *run) {
	defer s.wg.Done()
	defer close(r.done)

	select { // admission: bounded concurrent campaigns, FIFO
	case s.slots <- struct{}{}:
	case <-r.cancel:
		r.mu.Lock()
		user := r.userCanceled
		r.mu.Unlock()
		if user {
			s.setState(r, StateCanceled, campaign.ErrCanceled)
		}
		return
	case <-s.quit:
		return // still StateQueued on disk: resumed on restart
	}
	defer func() { <-s.slots }()

	for attempt := r.Meta().Attempts + 1; ; attempt++ {
		r.mu.Lock()
		r.meta.State = StateRunning
		r.meta.Attempts = attempt
		meta := r.meta
		r.mu.Unlock()
		if err := s.saveMeta(meta); err != nil {
			// The spool is the durability contract; without it the
			// campaign must not pretend to run.
			s.setState(r, StateFailed, fmt.Errorf("persisting campaign state: %w", err))
			s.cfg.Logf("service: campaign %s failed: cannot persist state: %v", r.id, err)
			return
		}

		err := s.runOnce(r)
		switch {
		case err == nil:
			s.backoff.Reset(r.client)
			s.setState(r, StateDone, nil)
			s.cfg.Logf("service: campaign %s done", r.id)
			return
		case errors.Is(err, campaign.ErrCanceled):
			r.mu.Lock()
			user := r.userCanceled
			r.mu.Unlock()
			if user {
				s.setState(r, StateCanceled, err)
				s.cfg.Logf("service: campaign %s canceled by client", r.id)
			} else {
				// Daemon shutdown: leave StateRunning on disk; the next
				// process rescans the spool and resumes from the manifest.
				s.cfg.Logf("service: campaign %s paused for shutdown", r.id)
			}
			return
		case spoolWriteErr(err):
			// The journal (or spool fs) refused a write: retrying would
			// loop against a full or read-only disk. Fail loudly instead.
			s.setState(r, StateFailed, err)
			s.cfg.Logf("service: campaign %s failed: spool write error: %v", r.id, err)
			return
		case attempt >= s.cfg.MaxAttempts:
			s.setState(r, StateFailed, err)
			s.cfg.Logf("service: campaign %s failed after %d attempts: %v", r.id, attempt, err)
			return
		}
		delay := s.backoff.Next(r.client)
		s.cfg.Logf("service: campaign %s attempt %d failed (%v), retrying in %v", r.id, attempt, err, delay)
		select {
		case <-s.cfg.Clock.After(delay):
		case <-r.cancel:
			r.mu.Lock()
			user := r.userCanceled
			r.mu.Unlock()
			if user {
				s.setState(r, StateCanceled, campaign.ErrCanceled)
			}
			return
		case <-s.quit:
			return
		}
	}
}

// runOnce executes the campaign once — on the distributed worker fleet
// when one is configured, on the shared in-process pool otherwise —
// resuming from (and fsync-appending to) its spool manifest, and
// atomically writes results.jsonl on success. Both backends run the
// same unit code and fold through the same campaign Assembler, so which
// one executed a campaign is invisible in its results.
func (s *Server) runOnce(r *run) error {
	man, err := campaign.OpenManifest(manifestPath(s.cfg.SpoolDir, r.id))
	if err != nil {
		return err
	}
	// The daemon's restart contract rests on the journal: always fsync.
	man.SetSync(true)
	man.SetWriteErrHook(s.cfg.manifestWriteErr)
	defer man.Close()

	var res *campaign.Result
	if s.cfg.WorkersExec != "" {
		res, err = dist.Run(r.spec, dist.Options{
			Workers:    s.cfg.DistWorkers,
			LeaseUnits: s.cfg.LeaseUnits,
			LeaseTTL:   s.cfg.LeaseTTL,
			Clock:      s.cfg.Clock,
			Spawner:    &dist.ProcSpawner{Path: s.cfg.WorkersExec},
			Manifest:   man,
			Metrics:    r.metrics,
			Cancel:     r.cancel,
			KillAtUnit: s.cfg.ChaosKillUnit,
			Logf:       s.cfg.Logf,
			Progress:   r.notifyProgress,
		})
	} else {
		res, err = campaign.Run(r.spec, campaign.Options{
			Pool:     s.pool,
			Client:   r.client,
			Manifest: man,
			Metrics:  r.metrics,
			Cancel:   r.cancel,
			Progress: r.notifyProgress,
		})
	}
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteJSONL(&buf); err != nil {
		return err
	}
	return writeFileAtomic(resultsPath(s.cfg.SpoolDir, r.id), buf.Bytes())
}

// Stop shuts the engine down gracefully: running campaigns are canceled
// (their in-flight units drain and are journaled, their states stay
// non-terminal on disk for the next process), the shared pool is closed,
// and every telemetry namespace is released.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()

	close(s.quit)
	for _, r := range runs {
		r.requestCancel(false)
	}
	s.wg.Wait()
	s.pool.Close()
	for _, r := range runs {
		r.releaseObs()
	}
}
