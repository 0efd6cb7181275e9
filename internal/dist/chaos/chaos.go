// Package chaos is the deterministic fault-injection harness for the
// distributed campaign runner. It provides an in-process dist.Spawner
// whose workers are real dist.WorkerMain instances — the same code path
// the campaignw binary runs — wired to the coordinator over io.Pipe
// pairs, with scripted faults injected at exact protocol phases: abrupt
// death before/during/after a unit, a hung worker whose heartbeats
// stall mid-flight, a worker pausing mid-lease after a result.
//
// Faults are scripted against (spawn ordinal, unit index, phase), all
// logical coordinates, so a schedule means the same thing on every run:
// "the first worker ever spawned dies just before sending unit 5's
// result" does not depend on scheduler interleaving or machine speed.
// Time is a shared clock.Fake driven by AutoAdvance, which only moves
// the clock when real time's passage shows the system has quiesced —
// fake timers (lease TTLs, heartbeats, respawn backoffs) are the only
// thing advanced, never wall time, so a test exercising a 10-second
// lease timeout runs in milliseconds.
//
// The property under test is the byte-identity contract: for ANY
// worker topology and ANY fault schedule, the distributed result is
// byte-identical to the single-process golden run, with no acknowledged
// unit lost and none folded twice. Faults may change how often units
// are retried, which worker computes what, and how long the campaign
// takes — never what it outputs.
package chaos

import (
	"errors"
	"io"
	"sync"
	"time"

	"cosched/internal/clock"
	"cosched/internal/dist"
)

// Phase pins where in one unit's lifecycle a scripted kill lands,
// mirroring the three places a real SIGKILL can fall relative to a
// result: before the unit executes (work lost, no trace), after it
// executes but before the result is on the wire (work lost, result
// lost), and after the result reached the coordinator (work survives,
// only the lease's remainder is lost).
type Phase int

const (
	PhaseBeforeUnit Phase = iota
	PhaseBeforeSend
	PhaseAfterSend
)

// String names the phase for test output.
func (p Phase) String() string {
	switch p {
	case PhaseBeforeUnit:
		return "before-unit"
	case PhaseBeforeSend:
		return "before-send"
	case PhaseAfterSend:
		return "after-send"
	}
	return "unknown-phase"
}

// Any, as a rule's Spawn field, matches every worker: the fault fires
// on whichever worker reaches the rule's unit first. Unit-index
// addressing is what keeps wildcard schedules deterministic — grant
// routing may race, but some worker always reaches the unit.
const Any = -1

// Each rule fires at most once. Without that, a wildcard rule would
// re-fire on the worker retrying the very unit the fault just killed,
// ratcheting the unit straight into quarantine — a different (and
// separately scripted) scenario.

// Kill scripts one abrupt worker death: the Spawn'th worker ever
// spawned (ordinal 0 = the first, counting respawns; Any = whichever
// worker gets there) dies at the given phase of the given unit, leaving
// exactly the wreckage a SIGKILL leaves — severed pipes, no farewell.
type Kill struct {
	Spawn int
	Unit  int
	Phase Phase
}

// Hang scripts a hung worker: reaching the given unit, the worker stops
// making progress and stops heartbeating, but its process stays alive.
// This is the slow failure path — no EOF tells the coordinator anything;
// only the lease TTL expiring can unmask it.
type Hang struct {
	Spawn int
	Unit  int
}

// Pause scripts a worker that stops for Delay of fake time right after
// sending the given unit's result — mid-lease, unless the unit is the
// lease's last. With heartbeats flowing the lease stays renewed and the
// worker resumes it; with StallHeartbeats the lease expires first, and
// the coordinator kills the paused worker and leases the units it still
// owed elsewhere — either way the output must not change.
type Pause struct {
	Spawn           int
	Unit            int // the unit after whose result the pause starts
	Delay           time.Duration
	StallHeartbeats bool
}

// Schedule is one scripted fault scenario. The zero value injects
// nothing — workers behave perfectly.
type Schedule struct {
	Kills  []Kill
	Hangs  []Hang
	Pauses []Pause
}

// errScripted is what a chaos hook returns to kill its worker; the
// error never escapes the harness (WorkerMain's return value is
// discarded exactly as a killed process's exit status would be).
var errScripted = errors.New("chaos: scripted fault")

// Spawner is an in-process dist.Spawner executing the Schedule. Each
// Spawn starts a goroutine running dist.WorkerMain over fresh pipe
// pairs; WorkerProc.Kill severs all four pipe ends, which is how both
// scripted deaths and coordinator-initiated kills (failure detection,
// chaos hook) take effect. Safe for a single coordinator; Spawn calls
// are serialized by the coordinator's event loop.
type Spawner struct {
	Clock    *clock.Fake
	Schedule Schedule

	mu          sync.Mutex
	spawns      int
	hung        map[int]bool // spawn ordinal → heartbeats stalled
	firedKills  map[int]bool // rule index → already fired
	firedHangs  map[int]bool
	firedPauses map[int]bool
	wg          sync.WaitGroup
}

// Spawn implements dist.Spawner.
func (s *Spawner) Spawn(slot int) (*dist.WorkerProc, error) {
	s.mu.Lock()
	ord := s.spawns
	s.spawns++
	if s.hung == nil {
		s.hung = map[int]bool{}
	}
	s.mu.Unlock()

	stdinR, stdinW := io.Pipe()
	stdoutR, stdoutW := io.Pipe()
	killed := make(chan struct{})
	var once sync.Once
	kill := func() {
		once.Do(func() {
			close(killed)
			stdinW.CloseWithError(errScripted)
			stdinR.CloseWithError(errScripted)
			stdoutW.CloseWithError(errScripted)
			stdoutR.CloseWithError(errScripted)
		})
	}

	hooks := dist.WorkerHooks{
		BeforeUnit: func(unit int) error {
			if s.killMatches(ord, unit, PhaseBeforeUnit) {
				kill()
				return errScripted
			}
			if s.hangMatches(ord, unit) {
				// Hung, not dead: pipes stay open, heartbeats stop (set
				// by hangMatches), progress stops. Only the coordinator's
				// TTL-driven kill releases the block.
				<-killed
				return errScripted
			}
			return nil
		},
		BeforeSend: func(unit int) error {
			if s.killMatches(ord, unit, PhaseBeforeSend) {
				kill()
				return errScripted
			}
			return nil
		},
		AfterSend: func(unit int) error {
			if s.killMatches(ord, unit, PhaseAfterSend) {
				kill()
				return errScripted
			}
			if d, stall, ok := s.pauseMatches(ord, unit); ok {
				if stall {
					s.mu.Lock()
					s.hung[ord] = true
					s.mu.Unlock()
				}
				select {
				case <-s.Clock.After(d):
				case <-killed:
					return errScripted
				}
			}
			return nil
		},
		Stall: func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.hung[ord]
		},
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		dist.WorkerMain(stdinR, stdoutW, dist.WorkerConfig{Clock: s.Clock, Hooks: hooks})
		// A clean exit surfaces as EOF on the coordinator's reader; a
		// scripted kill already severed everything (Close is idempotent).
		stdoutW.Close()
		stdinR.Close()
	}()
	return &dist.WorkerProc{In: stdinW, Out: stdoutR, Kill: kill}, nil
}

// Spawned returns how many workers were ever spawned (respawns count).
func (s *Spawner) Spawned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawns
}

// KillsFired returns how many scripted kills have fired. Tests assert
// on this rather than coordinator-side death metrics when the kill
// lands on the campaign's final unit: the death event races campaign
// completion there, but the worker-side fault itself is deterministic.
func (s *Spawner) KillsFired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.firedKills)
}

// Wait blocks until every spawned worker goroutine has exited — the
// harness's goroutine-leak check.
func (s *Spawner) Wait() { s.wg.Wait() }

func spawnMatches(rule, ord int) bool { return rule == Any || rule == ord }

func (s *Spawner) killMatches(ord, unit int, ph Phase) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range s.Schedule.Kills {
		if spawnMatches(k.Spawn, ord) && k.Unit == unit && k.Phase == ph && !s.firedKills[i] {
			if s.firedKills == nil {
				s.firedKills = map[int]bool{}
			}
			s.firedKills[i] = true
			return true
		}
	}
	return false
}

// hangMatches reports whether this worker hangs at this unit, stalling
// its heartbeats as a side effect (the hang and the silence are one
// fault: a live process beating normally but never progressing is
// indistinguishable from a slow one, and detecting it is out of scope).
func (s *Spawner) hangMatches(ord, unit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range s.Schedule.Hangs {
		if spawnMatches(h.Spawn, ord) && h.Unit == unit && !s.firedHangs[i] {
			if s.firedHangs == nil {
				s.firedHangs = map[int]bool{}
			}
			s.firedHangs[i] = true
			s.hung[ord] = true
			return true
		}
	}
	return false
}

func (s *Spawner) pauseMatches(ord, unit int) (d time.Duration, stall, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.Schedule.Pauses {
		if spawnMatches(r.Spawn, ord) && r.Unit == unit && !s.firedPauses[i] {
			if s.firedPauses == nil {
				s.firedPauses = map[int]bool{}
			}
			s.firedPauses[i] = true
			return r.Delay, r.StallHeartbeats, true
		}
	}
	return 0, false, false
}

// AutoAdvance drives a shared clock.Fake so chaos runs need no manual
// time control: a background goroutine polls every couple of real
// milliseconds and, when fake timers are armed, advances the clock to
// the earliest one. Computation and message passing happen in real
// time between polls, so the clock only jumps when the system is
// (momentarily) out of immediate work — which is exactly when a lease
// TTL, heartbeat interval, respawn backoff, or teardown grace period
// is the thing everyone is waiting for. Fault OUTCOMES stay
// deterministic because faults trigger on logical coordinates, not
// time; the clock is advanced only to unstick timers, and the
// byte-identity contract makes any incidental extra expiry invisible
// in the output. Call stop before inspecting results.
func AutoAdvance(clk *clock.Fake) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
				clk.AdvanceToNext()
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}
