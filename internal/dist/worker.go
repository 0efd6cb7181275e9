package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/clock"
	"cosched/internal/scenario"
)

// errChaosKilled is the in-process stand-in for SIGKILL: a chaos hook
// returns it to make WorkerMain abandon its connection mid-protocol —
// no farewell, exactly the wreckage a killed process leaves.
var errChaosKilled = errors.New("dist: worker killed by chaos hook")

// WorkerHooks are the chaos harness's fault-injection points, called at
// the three phases where a real SIGKILL can land relative to one unit:
// before execution, after execution but before the result is sent, and
// after the result is on the wire. A hook returning an error kills the
// worker at that instant. Stall, when it reports true, suppresses
// heartbeat sends (the hung-worker simulation: the process lives, the
// coordinator hears nothing). All nil-safe; production workers carry
// zero hooks.
type WorkerHooks struct {
	BeforeUnit   func(unit int) error
	BeforeSend   func(unit int) error
	AfterSend    func(unit int) error
	Stall        func() bool
	OnHeartbeats func() // called after each heartbeat send attempt (test sync)
}

// WorkerConfig tunes WorkerMain.
type WorkerConfig struct {
	// Clock times the heartbeat loop (nil = wall clock; the chaos
	// harness shares one fake across coordinator and workers).
	Clock clock.Clock
	// Hooks inject faults (zero value = none).
	Hooks WorkerHooks
	// Logf, when non-nil, receives worker-side diagnostics (stderr in
	// the campaignw binary).
	Logf func(format string, args ...any)
}

// WorkerMain is the worker process body, shared verbatim by the
// cmd/campaignw binary and the chaos harness's in-process workers (one
// code path is what makes in-process chaos results representative). It
// speaks the pipe protocol on in/out until shutdown or EOF: receive the
// spec, validate it against the coordinator's fingerprint, then serve
// grants, executing each granted unit in ascending order and streaming
// its result. It sends nothing to end a lease: the coordinator ends it
// when the last owed result folds. A heartbeat goroutine proves liveness
// between results (a single long unit would otherwise look like a
// hang). The worker sends only ready, result, heartbeat and error.
func WorkerMain(in io.Reader, out io.Writer, cfg WorkerConfig) error {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w := newMsgWriter(out)
	dec := json.NewDecoder(in)

	var init ctrlMsg
	if err := dec.Decode(&init); err != nil {
		return fmt.Errorf("dist: worker reading init: %w", err)
	}
	if init.Type != "init" {
		return fmt.Errorf("dist: worker expected init, got %q", init.Type)
	}
	sp, err := scenario.Decode(bytes.NewReader(init.Spec))
	if err != nil {
		return fmt.Errorf("dist: worker decoding spec: %w", err)
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%016x", fp); got != init.Fingerprint {
		return fmt.Errorf("dist: worker/coordinator spec disagreement: fingerprint %s, coordinator sent %s", got, init.Fingerprint)
	}
	runner, err := campaign.NewUnitRunner(sp)
	if err != nil {
		w.send(workMsg{Type: "error", Msg: err.Error()})
		return err
	}
	defer runner.Close()
	if err := w.send(workMsg{Type: "ready", TotalUnits: runner.TotalUnits()}); err != nil {
		return fmt.Errorf("dist: worker sending ready: %w", err)
	}

	// Heartbeat loop: one After re-armed per beat, so a fake clock can
	// fire it deterministically. Send failures mean the coordinator is
	// gone; the main loop will see EOF soon enough, so they only stop
	// the beats.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := time.Duration(init.HeartbeatMS) * time.Millisecond
		if every <= 0 {
			every = time.Second
		}
		for {
			select {
			case <-clk.After(every):
				if cfg.Hooks.Stall == nil || !cfg.Hooks.Stall() {
					if w.send(workMsg{Type: "heartbeat"}) != nil {
						return
					}
				}
				if cfg.Hooks.OnHeartbeats != nil {
					cfg.Hooks.OnHeartbeats()
				}
			case <-hbStop:
				return
			}
		}
	}()
	defer func() {
		close(hbStop)
		<-hbDone
	}()

	for {
		var msg ctrlMsg
		if err := dec.Decode(&msg); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // coordinator closed the pipe: clean shutdown
			}
			return fmt.Errorf("dist: worker reading control: %w", err)
		}
		switch msg.Type {
		case "shutdown":
			return nil
		case "grant":
			for _, unit := range msg.Units {
				if h := cfg.Hooks.BeforeUnit; h != nil {
					if err := h(unit); err != nil {
						return err
					}
				}
				vals, err := runner.RunUnit(unit)
				if err != nil {
					w.send(workMsg{Type: "error", Msg: err.Error()})
					return err
				}
				if h := cfg.Hooks.BeforeSend; h != nil {
					if err := h(unit); err != nil {
						return err
					}
				}
				if err := w.send(workMsg{Type: "result", Lease: msg.Lease, Unit: unit, Vals: vals}); err != nil {
					return fmt.Errorf("dist: worker sending result: %w", err)
				}
				if h := cfg.Hooks.AfterSend; h != nil {
					if err := h(unit); err != nil {
						return err
					}
				}
			}
		default:
			logf("dist: worker ignoring unknown control %q", msg.Type)
		}
	}
}
