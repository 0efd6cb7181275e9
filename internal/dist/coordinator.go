package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/clock"
	"cosched/internal/obs"
	"cosched/internal/retry"
	"cosched/internal/scenario"
)

// Options tunes a distributed campaign run.
type Options struct {
	// Workers is the worker-process seat count (0 = 3).
	Workers int
	// LeaseUnits caps units per lease grant (0 = 4). Smaller leases
	// bound the work lost to one death; larger ones amortize protocol
	// overhead.
	LeaseUnits int
	// LeaseTTL is how long a lease lives without renewal before the
	// coordinator declares its worker dead (0 = 10s). Heartbeats renew
	// the holder's lease, so the TTL only fires for hung or dead
	// workers.
	LeaseTTL time.Duration
	// HeartbeatEvery is the cadence workers are told to beat at
	// (0 = LeaseTTL/3).
	HeartbeatEvery time.Duration
	// MaxUnitRetries quarantines a unit blamed for this many lease
	// losses (0 = 3): it is reported in the final error, never allowed
	// to kill another worker.
	MaxUnitRetries int
	// MaxSpawnAttempts retires a worker seat after this many consecutive
	// failures to produce a ready worker (0 = 3) — the campaign degrades
	// to fewer workers instead of respawning forever.
	MaxSpawnAttempts int
	// Clock is the time source (nil = wall clock; the chaos harness
	// shares one fake across coordinator and workers).
	Clock clock.Clock
	// Spawner produces workers (required).
	Spawner Spawner
	// Backoff paces per-seat respawns (nil = 100ms base, 5s cap on
	// Clock).
	Backoff *retry.Backoff
	// Manifest, when non-nil, is the coordination log: completed units
	// and lease events are journaled there, and a restart resumes from
	// it. Without it the run is correct but a coordinator crash loses
	// all progress.
	Manifest *campaign.Manifest
	// Metrics, when non-nil, receives coordinator telemetry (including
	// the Dist instrument bundle).
	Metrics *obs.Campaign
	// Progress, when non-nil, is called after every folded unit.
	Progress func(done, total int)
	// Cancel aborts the run when closed; Run returns ErrCanceled.
	Cancel <-chan struct{}
	// KillAtUnit, when > 0, SIGKILLs the worker reporting that unit the
	// first time its result arrives, discarding the result — the
	// deterministic chaos hook behind the CI smoke test. The unit is
	// re-executed elsewhere, so output is unchanged; unit 0 is not
	// addressable (0 means off).
	KillAtUnit int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o *Options) fillDefaults() error {
	if o.Spawner == nil {
		return fmt.Errorf("dist: Options.Spawner is required")
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.LeaseUnits <= 0 {
		o.LeaseUnits = 4
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = o.LeaseTTL / 3
	}
	if o.MaxUnitRetries <= 0 {
		o.MaxUnitRetries = 3
	}
	if o.MaxSpawnAttempts <= 0 {
		o.MaxSpawnAttempts = 3
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.Backoff == nil {
		o.Backoff = retry.NewBackoff(100*time.Millisecond, 5*time.Second, o.Clock)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// event is one item on the coordinator's merged input stream: a decoded
// worker message, or (err != nil) the worker's death — its stdout hit
// EOF or tore mid-record.
type event struct {
	slot int
	msg  workMsg
	err  error
}

// workerConn is the coordinator's view of one worker seat.
type workerConn struct {
	slot    int
	proc    *WorkerProc
	out     *msgWriter
	alive   bool
	ready   bool
	retired bool
	lease   int // live lease ID, or -1
	// fails counts consecutive attempts that never produced a ready
	// worker; reset by ready, it bounds the respawn loop for seats that
	// cannot start (bad binary, exec failure).
	fails int
}

type coordinator struct {
	sp       scenario.Spec
	opt      Options
	specJSON json.RawMessage
	fp       string

	asm *campaign.Assembler
	tr  *Tracker

	workers  []*workerConn
	events   chan event
	respawns chan int
	readers  sync.WaitGroup

	liveCount       int
	pendingRespawns int
	chaosFired      bool
	err             error
}

// Run executes the campaign across worker processes and blocks until
// it is complete (or the run fails). The returned Result is
// byte-identical to campaign.Run on the same spec: unit values are pure
// functions of (spec, unit index), and the campaign Assembler both
// decides which units to lease and folds them, so worker topology and
// fault history cannot leak into the output.
func Run(sp scenario.Spec, opt Options) (*campaign.Result, error) {
	if err := opt.fillDefaults(); err != nil {
		return nil, err
	}
	asm, err := campaign.NewAssembler(sp)
	if err != nil {
		return nil, err
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		return nil, err
	}

	tr := NewTracker(asm.TotalUnits(), opt.MaxUnitRetries)
	if opt.Manifest != nil {
		_, err := opt.Manifest.Restore(sp, asm.Policies(), func(unit int, vals []float64) {
			asm.Fold(unit, vals)
		}, func(rec campaign.LeaseRecord) {
			// Claims, renews and releases of a previous coordinator died
			// with it (its workers are gone); only quarantine marks carry
			// over.
			if rec.Event == campaign.LeaseQuarantine {
				for _, u := range rec.Units {
					tr.RestoreQuarantine(u)
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	tr.Add(asm.Released()...)

	c := &coordinator{
		sp:       sp,
		opt:      opt,
		specJSON: json.RawMessage(buf.Bytes()),
		fp:       fmt.Sprintf("%016x", fp),
		asm:      asm,
		tr:       tr,
		workers:  make([]*workerConn, opt.Workers),
		events:   make(chan event, 1024),
		respawns: make(chan int, opt.Workers),
	}
	for slot := range c.workers {
		c.workers[slot] = &workerConn{slot: slot, lease: -1}
	}
	c.report()
	if done, total := asm.Progress(); opt.Progress != nil && done > 0 {
		opt.Progress(done, total)
	}
	return c.run()
}

// report mirrors the Assembler's progress into telemetry.
func (c *coordinator) report() {
	if m := c.opt.Metrics; m != nil {
		c.asm.Report(m)
		done, planned := c.asm.Progress()
		m.QueueDepth.Set(float64(planned - done))
	}
}

func (c *coordinator) run() (*campaign.Result, error) {
	defer c.teardown()

	if !c.tr.Done() {
		for slot := range c.workers {
			c.spawn(slot)
		}
	}

	for c.err == nil && !c.tr.Done() {
		// Cancellation wins over queued work, deterministically: a
		// cancel raised from inside an event handler (the Progress
		// callback, say) takes effect before the next event, even when
		// the queue already holds everything needed to finish.
		select {
		case <-c.opt.Cancel:
			return nil, campaign.ErrCanceled
		default:
		}
		// Drain queued events before consulting the clock: a renewal or
		// result already in the queue must count even when time raced
		// ahead of delivery (routine under the chaos harness's fake
		// clock, where a whole TTL can elapse between two scheduler
		// ticks). Failure detection never outruns queued bookkeeping.
		select {
		case ev := <-c.events:
			c.handleEvent(ev)
			continue
		default:
		}
		if c.liveCount == 0 && c.pendingRespawns == 0 {
			done, planned := c.asm.Progress()
			return nil, fmt.Errorf("dist: all %d worker seats lost with %d units unfinished", c.opt.Workers, planned-done)
		}
		// Arm the failure-detection wakeup at the earliest lease expiry.
		// A deadline already in the past expires inline — After(0) on a
		// fake clock would otherwise wait for an advance that never
		// needs to happen.
		var expiryCh <-chan time.Time
		if next, ok := c.tr.NextExpiry(); ok {
			d := next.Sub(c.opt.Clock.Now())
			if d <= 0 {
				c.expireDue()
				continue
			}
			expiryCh = c.opt.Clock.After(d)
		}
		select {
		case ev := <-c.events:
			c.handleEvent(ev)
		case slot := <-c.respawns:
			c.pendingRespawns--
			c.spawn(slot)
		case <-expiryCh:
			c.expireDue()
		case <-c.opt.Cancel:
			return nil, campaign.ErrCanceled
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if !c.asm.Done() {
		return nil, fmt.Errorf("dist: campaign incomplete: units %v quarantined after killing %d workers each", c.tr.Quarantined(), c.opt.MaxUnitRetries)
	}
	return c.asm.Result()
}

// fail records the first fatal coordinator error (journal write
// failures land here: without a durable log the run must not continue).
func (c *coordinator) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// spawn fills one worker seat, pacing repeated failures through the
// per-seat backoff and retiring the seat — graceful degradation — once
// MaxSpawnAttempts consecutive attempts produced no ready worker.
func (c *coordinator) spawn(slot int) {
	w := c.workers[slot]
	if w.retired || w.alive || c.err != nil || c.tr.Done() {
		return
	}
	proc, err := c.opt.Spawner.Spawn(slot)
	if err != nil {
		c.opt.Logf("dist: spawning worker %d: %v", slot, err)
		c.seatFailed(w)
		return
	}
	w.proc = proc
	w.out = newMsgWriter(proc.In)
	w.alive, w.ready, w.lease = true, false, -1
	c.liveCount++
	if m := c.opt.Metrics; m != nil {
		m.Dist.WorkersSpawned.Inc()
		m.Dist.WorkersLive.Set(float64(c.liveCount))
	}
	c.opt.Logf("dist: worker %d spawned", slot)
	if err := w.out.send(ctrlMsg{
		Type:        "init",
		Spec:        c.specJSON,
		Fingerprint: c.fp,
		HeartbeatMS: c.opt.HeartbeatEvery.Milliseconds(),
	}); err != nil {
		// The pipe is already broken; the reader's EOF event follows.
		c.opt.Logf("dist: worker %d init write: %v", slot, err)
	}
	c.readers.Add(1)
	go func(slot int, out io.ReadCloser, wait func() error) {
		defer c.readers.Done()
		dec := json.NewDecoder(out)
		for {
			var m workMsg
			if err := dec.Decode(&m); err != nil {
				if wait != nil {
					wait() // reap; out is at EOF (or torn), so Wait cannot block on the pipe
				}
				c.events <- event{slot: slot, err: err}
				return
			}
			c.events <- event{slot: slot, msg: m}
		}
	}(slot, proc.Out, proc.Wait)
}

// seatFailed books one failed attempt to fill a seat and schedules the
// backed-off retry (or retires the seat).
func (c *coordinator) seatFailed(w *workerConn) {
	w.fails++
	if w.fails >= c.opt.MaxSpawnAttempts {
		w.retired = true
		c.opt.Logf("dist: worker seat %d retired after %d failed attempts; continuing with fewer workers", w.slot, w.fails)
		return
	}
	delay := c.opt.Backoff.Next(fmt.Sprintf("seat-%d", w.slot))
	c.pendingRespawns++
	go func(slot int, ch <-chan time.Time) {
		<-ch
		c.respawns <- slot
	}(w.slot, c.opt.Clock.After(delay))
}

func (c *coordinator) handleEvent(ev event) {
	w := c.workers[ev.slot]
	if ev.err != nil {
		c.handleDeath(w)
		return
	}
	if !w.alive {
		return // message raced past a death already handled
	}
	switch ev.msg.Type {
	case "ready":
		if ev.msg.TotalUnits != c.tr.Total() {
			c.opt.Logf("dist: worker %d expanded %d units, want %d — killing it", w.slot, ev.msg.TotalUnits, c.tr.Total())
			w.proc.Kill()
			return
		}
		w.ready = true
		w.fails = 0
		c.opt.Backoff.Reset(fmt.Sprintf("seat-%d", w.slot))
		c.dispatch()
	case "heartbeat":
		if m := c.opt.Metrics; m != nil {
			m.Dist.Heartbeats.Inc()
		}
		if w.lease >= 0 && c.tr.Renew(w.lease, c.opt.Clock.Now(), c.opt.LeaseTTL) {
			c.journalLease(campaign.LeaseRecord{Event: campaign.LeaseRenew, ID: w.lease, Worker: w.slot})
		}
	case "result":
		c.handleResult(w, ev.msg)
	case "release":
		if w.lease < 0 || ev.msg.Lease != w.lease {
			return // stale release from an expired lease: no resurrection
		}
		leftover, ok := c.tr.Release(w.lease)
		if ok {
			c.journalLease(campaign.LeaseRecord{Event: campaign.LeaseRelease, ID: w.lease, Worker: w.slot, Units: leftover})
		}
		w.lease = -1
		c.dispatch()
	case "error":
		c.opt.Logf("dist: worker %d reported: %s", w.slot, ev.msg.Msg)
		w.proc.Kill() // the death event does the bookkeeping
	default:
		c.opt.Logf("dist: worker %d sent unknown message %q", w.slot, ev.msg.Type)
	}
}

// handleResult folds one streamed unit result — after it passes the
// exactly-once gate: the reporting worker must hold the live lease that
// owns the unit, and the unit must not have folded before. Everything
// else (duplicates, results outliving an expired lease, malformed
// vectors) is dropped; recomputation is always safe because unit values
// are deterministic.
func (c *coordinator) handleResult(w *workerConn, m workMsg) {
	if c.opt.KillAtUnit > 0 && m.Unit == c.opt.KillAtUnit && !c.chaosFired {
		// Chaos hook: the worker dies as if the kill landed mid-send;
		// the discarded result is recomputed under a new lease.
		c.chaosFired = true
		c.opt.Logf("dist: chaos: killing worker %d at unit %d", w.slot, m.Unit)
		w.proc.Kill()
		return
	}
	if w.lease < 0 || m.Lease != w.lease {
		return
	}
	if len(m.Vals) != c.asm.ValsPerUnit() {
		c.opt.Logf("dist: worker %d sent malformed result for unit %d (%d values, want %d) — killing it", w.slot, m.Unit, len(m.Vals), c.asm.ValsPerUnit())
		w.proc.Kill()
		return
	}
	if !c.tr.Result(m.Lease, m.Unit) || !c.asm.Fold(m.Unit, m.Vals) {
		return
	}
	if c.opt.Manifest != nil {
		if err := c.opt.Manifest.AppendUnit(m.Unit, m.Vals); err != nil {
			c.fail(err)
			return
		}
	}
	c.report()
	if m := c.opt.Metrics; m != nil {
		m.Shard(w.slot).Units.Inc()
	}
	if c.opt.Progress != nil {
		c.opt.Progress(c.asm.Progress())
	}
	// The fold may have released more units (an adaptive point's next
	// batch): lease them to idle workers.
	if units := c.asm.Released(); len(units) > 0 {
		c.tr.Add(units...)
		c.dispatch()
	}
}

// handleDeath books one worker death: immediate lease expiry (stdout
// EOF is the fast failure-detection path — no need to wait out the
// TTL) and a backed-off respawn while work remains.
func (c *coordinator) handleDeath(w *workerConn) {
	if !w.alive {
		return
	}
	w.alive = false
	w.ready = false
	c.liveCount--
	w.proc.Kill() // no-op for an exited process; ends a half-dead one
	if m := c.opt.Metrics; m != nil {
		m.Dist.WorkersLost.Inc()
		m.Dist.WorkersLive.Set(float64(c.liveCount))
	}
	c.opt.Logf("dist: worker %d died", w.slot)
	if w.lease >= 0 {
		c.expireLease(w.lease, w.slot)
		w.lease = -1
	}
	if c.tr.Done() || c.err != nil {
		return
	}
	c.seatFailed(w)
}

// expireLease voids one lease, journals the outcome, and redistributes
// the returned units.
func (c *coordinator) expireLease(id, slot int) {
	returned, quarantined, ok := c.tr.Expire(id)
	if !ok {
		return
	}
	if m := c.opt.Metrics; m != nil {
		m.Dist.LeasesExpired.Inc()
	}
	c.journalLease(campaign.LeaseRecord{Event: campaign.LeaseExpire, ID: id, Worker: slot, Units: returned})
	for _, u := range quarantined {
		c.opt.Logf("dist: unit %d quarantined after %d lease losses", u, c.opt.MaxUnitRetries)
		c.journalLease(campaign.LeaseRecord{Event: campaign.LeaseQuarantine, ID: id, Worker: slot, Units: []int{u}})
		if m := c.opt.Metrics; m != nil {
			m.Dist.UnitsQuarantined.Inc()
		}
	}
	c.dispatch()
}

// expireDue runs failure detection: every lease whose TTL ran out has a
// hung (or silently dead) worker behind it — kill it and reassign.
func (c *coordinator) expireDue() {
	now := c.opt.Clock.Now()
	for _, id := range c.tr.Due(now) {
		for _, w := range c.workers {
			if w.lease == id {
				c.opt.Logf("dist: lease %d expired — worker %d unresponsive, killing it", id, w.slot)
				w.ready = false // no new grants to a zombie; death event finishes the job
				w.lease = -1
				w.proc.Kill()
				break
			}
		}
		c.expireLease(id, -1)
	}
}

// dispatch grants pending units to every idle ready worker.
func (c *coordinator) dispatch() {
	if c.err != nil {
		return
	}
	for _, w := range c.workers {
		if !w.alive || !w.ready || w.lease >= 0 {
			continue
		}
		l, reassigned := c.tr.Claim(w.slot, c.opt.LeaseUnits, c.opt.Clock.Now(), c.opt.LeaseTTL)
		if l == nil {
			return // nothing pending; expiries may feed idle workers later
		}
		// Write-ahead: the claim is durable before the worker hears of
		// it, so a crashed coordinator never finds results it cannot
		// attribute.
		c.journalLease(campaign.LeaseRecord{Event: campaign.LeaseClaim, ID: l.ID, Worker: w.slot, Units: l.Units})
		if c.err != nil {
			return
		}
		w.lease = l.ID
		if m := c.opt.Metrics; m != nil {
			m.Dist.LeasesGranted.Inc()
			if reassigned > 0 {
				m.Dist.Reassignments.Add(uint64(reassigned))
			}
		}
		if err := w.out.send(ctrlMsg{Type: "grant", Lease: l.ID, Units: l.Units}); err != nil {
			c.opt.Logf("dist: granting lease %d to worker %d: %v", l.ID, w.slot, err)
			// The pipe is broken: the reader's death event will expire
			// the lease and reassign.
		}
	}
}

func (c *coordinator) journalLease(rec campaign.LeaseRecord) {
	if c.opt.Manifest == nil {
		return
	}
	if err := c.opt.Manifest.AppendLease(rec); err != nil {
		c.fail(err)
	}
}

// teardown shuts every worker down (politely, then by force after a
// grace period) and drains reader goroutines so none leaks blocked on
// the event channel.
func (c *coordinator) teardown() {
	for _, w := range c.workers {
		if w.proc == nil {
			continue
		}
		if w.alive {
			w.out.send(ctrlMsg{Type: "shutdown"})
		}
		w.proc.In.Close()
	}
	readersDone := make(chan struct{})
	go func() {
		c.readers.Wait()
		close(readersDone)
	}()
	grace := c.opt.Clock.After(2 * time.Second)
	for {
		select {
		case <-c.events: // discard: the campaign is over
		case <-grace:
			for _, w := range c.workers {
				if w.proc != nil {
					w.proc.Kill()
				}
			}
			grace = nil
		case <-readersDone:
			if m := c.opt.Metrics; m != nil {
				m.Dist.WorkersLive.Set(0)
			}
			return
		}
	}
}
