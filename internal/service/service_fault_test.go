package service

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cosched/internal/clock"
	"cosched/internal/dist/chaos"
)

// TestStreamSubscriberLifecycle is the SSE leak regression: clients
// that connect to /stream and drop mid-campaign must leave no
// subscriber registration and no goroutine behind, and dead
// subscribers must never block campaign progress. The campaign is
// frozen mid-run through the journal hook so the connect/drop cycles
// deterministically happen while it is live.
func TestStreamSubscriberLifecycle(t *testing.T) {
	gate := make(chan struct{})
	released := atomic.Bool{}
	s, ts := startDaemon(t, Config{
		SpoolDir: t.TempDir(),
		Workers:  2,
		manifestWriteErr: func(op string) error {
			if op == "unit" && !released.Load() {
				<-gate // freeze the campaign mid-run
			}
			return nil
		},
	})
	defer ts.Close()
	defer s.Stop()

	code, st := submit(t, ts, "alice", smallSpec("stream-leak", 13, 3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, st.ID, StateRunning)
	r, ok := s.Get(st.ID)
	if !ok {
		t.Fatal("run vanished")
	}
	base := runtime.NumGoroutine()

	// Connect, read the first event, drop. Three rounds to catch a leak
	// that a single connect/disconnect would hide in the noise.
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/campaigns/"+st.ID+"/stream", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "event: progress") {
			t.Fatalf("round %d: first stream line %q, err %v", round, line, err)
		}
		if got := r.subscriberCount(); got != 1 {
			t.Fatalf("round %d: %d subscribers registered mid-stream, want 1", round, got)
		}
		cancel() // drop the client mid-stream
		resp.Body.Close()
		deadline := time.Now().Add(5 * time.Second)
		for r.subscriberCount() != 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if got := r.subscriberCount(); got != 0 {
			t.Fatalf("round %d: dropped client left %d subscribers registered", round, got)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines grew from %d to %d across connect/drop cycles", base, got)
	}

	// Unfreeze: the campaign must finish even though every subscriber
	// that ever existed is gone — a blocking progress send would hang
	// here and fail the test by timeout.
	released.Store(true)
	close(gate)
	waitState(t, ts, st.ID, StateDone)
	if code, _ := fetchResults(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("results after dropped streams: %d", code)
	}
}

// TestSpoolMetaWriteErrorFailsCampaign injects ENOSPC into the meta
// write that marks the campaign running: the campaign must land in
// StateFailed with the error recorded — visible in memory even though
// the failed state itself cannot be persisted.
func TestSpoolMetaWriteErrorFailsCampaign(t *testing.T) {
	var calls atomic.Int32
	s, ts := startDaemon(t, Config{
		SpoolDir: t.TempDir(),
		Workers:  1,
		metaWriteErr: func(id string) error {
			if calls.Add(1) > 1 { // first write: the queued meta at submit
				return fmt.Errorf("writing meta.json: %w", syscall.ENOSPC)
			}
			return nil
		},
	})
	defer ts.Close()
	defer s.Stop()

	code, st := submit(t, ts, "alice", smallSpec("enospc-meta", 17, 2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(final.Error, "no space left") {
		t.Fatalf("failed campaign records error %q, want the ENOSPC cause", final.Error)
	}
	if final.Attempts > 1 {
		t.Fatalf("spool failure burned %d attempts, want immediate failure", final.Attempts)
	}
}

// TestSpoolJournalWriteErrorFailsCampaign injects ENOSPC into journal
// appends: the campaign must fail immediately with the error recorded,
// not retry against a full disk.
func TestSpoolJournalWriteErrorFailsCampaign(t *testing.T) {
	s, ts := startDaemon(t, Config{
		SpoolDir:    t.TempDir(),
		Workers:     1,
		MaxAttempts: 5,
		manifestWriteErr: func(op string) error {
			if op == "unit" {
				return fmt.Errorf("appending journal: %w", syscall.ENOSPC)
			}
			return nil
		},
	})
	defer ts.Close()
	defer s.Stop()

	code, st := submit(t, ts, "alice", smallSpec("enospc-journal", 19, 2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(final.Error, "no space left") {
		t.Fatalf("failed campaign records error %q, want the ENOSPC cause", final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("unretryable spool failure took %d attempts, want 1", final.Attempts)
	}
}

// TestRetryBackoffDeterministic replaces wall-clock retry sleeps with
// the shared fake clock: a campaign whose journal hiccups twice must
// retry exactly twice, spaced by the exact backoff schedule — the
// elapsed fake time IS the assertion, something a wall clock could
// never pin down.
func TestRetryBackoffDeterministic(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	start := clk.Now()
	stop := chaos.AutoAdvance(clk)
	defer stop()

	// The spec is 2 points x 2 replicates = 4 units on a 1-worker pool.
	// A failed append fails the attempt on the spot — nothing further is
	// scheduled or journaled — so each hiccup costs exactly one attempt:
	// two hiccups buy exactly two failed attempts, and attempt 3
	// finishes.
	var hiccups atomic.Int32
	hiccups.Store(2)
	s, ts := startDaemon(t, Config{
		SpoolDir:    t.TempDir(),
		Workers:     1,
		MaxAttempts: 5,
		BackoffBase: 250 * time.Millisecond,
		BackoffMax:  time.Second,
		Clock:       clk,
		manifestWriteErr: func(op string) error {
			if op == "unit" && hiccups.Load() > 0 {
				hiccups.Add(-1)
				return fmt.Errorf("transient journal hiccup")
			}
			return nil
		},
	})
	defer ts.Close()
	defer s.Stop()

	code, st := submit(t, ts, "alice", smallSpec("retry-backoff", 23, 2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.Attempts != 3 {
		t.Fatalf("campaign took %d attempts, want 3 (two journal hiccups)", final.Attempts)
	}
	// The retry waits are the only timers on the fake clock, so elapsed
	// fake time must be exactly base + 2*base.
	if got, want := clk.Now().Sub(start), 750*time.Millisecond; got != want {
		t.Fatalf("retries consumed %v of fake time, want exactly %v", got, want)
	}
}
