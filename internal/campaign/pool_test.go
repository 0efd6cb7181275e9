package campaign

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cosched/internal/obs"
	"cosched/internal/scenario"
)

// TestPoolByteIdentical is the shared-pool golden contract: a campaign
// whose units run interleaved on a shared fair-scheduled Pool produces
// JSONL byte-identical to a private sequential run — for fixed,
// adaptive, and speculative adaptive campaigns (a pool wider than
// adaptiveSpec's 2 points × batch 4), at any pool width. Unit seeds derive from (spec, point, replicate) and results
// fold by unit index, so the pool can only change wall-clock, never
// output.
func TestPoolByteIdentical(t *testing.T) {
	cases := []struct {
		name     string
		widths   []int
		adaptive bool
	}{
		{"fixed", []int{1, 4}, false},
		{"adaptive", []int{1, 4}, true},
		{"adaptive-parallel", []int{9, 16}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			if tc.adaptive {
				sp = adaptiveSpec()
			}
			seq, err := Run(sp, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := jsonl(t, seq)
			for _, width := range tc.widths {
				pool := NewPool(width)
				res, err := Run(sp, Options{Pool: pool, Client: "c"})
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonl(t, res); got != want {
					t.Fatalf("width-%d pool output differs from sequential", width)
				}
			}
		})
	}
}

// TestPoolConcurrentCampaignsIsolated runs two different campaigns
// concurrently on one shared pool and checks each is byte-identical to
// its solo run: fair interleaving at unit granularity must not leak
// state between clients (worker arenas are reset per unit, telemetry
// shards rebind per job).
func TestPoolConcurrentCampaignsIsolated(t *testing.T) {
	spA := testSpec()
	spB := testSpec()
	spB.Seed = 99
	spB.Policies = []string{"norc", "stf-el"}
	soloA, err := Run(spA, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := Run(spB, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := jsonl(t, soloA), jsonl(t, soloB)

	pool := NewPool(4)
	defer pool.Close()
	var wg sync.WaitGroup
	var gotA, gotB string
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		mA := obs.NewCampaign()
		res, err := Run(spA, Options{Pool: pool, Client: "alice", Metrics: mA})
		if err != nil {
			errA = err
			return
		}
		gotA = jsonl(t, res)
		if n := mA.Snapshot().UnitsExecuted; n != 12 {
			t.Errorf("campaign A telemetry counted %d executed units, want 12", n)
		}
	}()
	go func() {
		defer wg.Done()
		res, err := Run(spB, Options{Pool: pool, Client: "bob"})
		if err != nil {
			errB = err
			return
		}
		gotB = jsonl(t, res)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if gotA != wantA {
		t.Fatal("campaign A diverged when sharing the pool")
	}
	if gotB != wantB {
		t.Fatal("campaign B diverged when sharing the pool")
	}
}

// TestPoolRoundRobinFairness white-boxes the scheduling order: with one
// worker held busy, jobs queued by two clients execute round-robin
// across the clients (per-client FIFO within), so a large backlog from
// one client cannot starve another.
func TestPoolRoundRobinFairness(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	order := make(chan string, 8)
	pool.submit("z", func(*workerState, int, int) { close(started); <-gate }, 0)
	<-started // the lone worker is now held; submissions below only queue

	mark := func(client, tag string) {
		pool.submit(client, func(*workerState, int, int) { order <- tag }, 0)
	}
	mark("a", "a1")
	mark("a", "a2")
	mark("a", "a3")
	mark("b", "b1")
	close(gate)

	want := []string{"a1", "b1", "a2", "a3"} // round-robin a, b, then a's backlog
	for i, w := range want {
		if got := <-order; got != w {
			t.Fatalf("execution %d: got %s, want %s (full order %v)", i, got, w, want)
		}
	}
}

// TestCancelThenResume checks the cancellation contract end to end:
// closing Options.Cancel mid-campaign returns ErrCanceled with every
// finished unit journaled, and a resumed run (same manifest) completes
// to output byte-identical to an uninterrupted campaign — for both
// execution modes, fixed and adaptive.
func TestCancelThenResume(t *testing.T) {
	cases := []struct {
		name     string
		adaptive bool
		pooled   bool
	}{
		{"fixed-private", false, false},
		{"fixed-pooled", false, true},
		{"adaptive-private", true, false},
		{"adaptive-pooled", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			if tc.adaptive {
				sp = adaptiveSpec()
			}
			ref, err := Run(sp, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := jsonl(t, ref)

			path := filepath.Join(t.TempDir(), "cancel.manifest")
			man, err := OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			cancel := make(chan struct{})
			var once sync.Once
			opt := Options{
				Workers:  2,
				Manifest: man,
				Cancel:   cancel,
				Progress: func(done, total int) {
					if done >= 3 {
						once.Do(func() { close(cancel) })
					}
				},
			}
			var pool *Pool
			if tc.pooled {
				pool = NewPool(2)
				opt.Pool, opt.Client = pool, "c"
			}
			_, err = Run(sp, opt)
			if pool != nil {
				pool.Close()
			}
			man.Close()
			if err != ErrCanceled {
				t.Fatalf("canceled run returned %v, want ErrCanceled", err)
			}

			// Resume from the journal: completes and matches the
			// uninterrupted output, restoring at least the units that
			// were journaled before the cancel.
			man2, err := OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewCampaign()
			res, err := Run(sp, Options{Manifest: man2, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			man2.Close()
			if got := jsonl(t, res); got != want {
				t.Fatal("resumed-after-cancel output diverges from uninterrupted run")
			}
			executed := int(m.Snapshot().UnitsExecuted)
			if executed >= res.Units() {
				t.Fatalf("resume re-ran everything (%d executed of %d): nothing was journaled before cancel", executed, res.Units())
			}
		})
	}
}

// TestErrorStopsScheduling pins the failure contract shared by every
// execution mode: after the first error (here a journal that refuses
// every unit append) Run returns that error and schedules nothing more.
// Queued units return without running, so the appends attempted stay
// within the executor width plus one adaptive batch instead of running
// out the campaign's 160 units.
func TestErrorStopsScheduling(t *testing.T) {
	const width, batch = 2, 4
	fixed := testSpec()
	fixed.Replicates = 40
	adaptive := testSpec()
	adaptive.Replicates = 0
	adaptive.Precision = &scenario.PrecisionSpec{RelHalfWidth: 1e-6, MinReplicates: 40, MaxReplicates: 40, Batch: batch}
	errJournal := errors.New("journal refuses appends")
	for _, tc := range []struct {
		name   string
		sp     scenario.Spec
		pooled bool
	}{
		{"fixed-private", fixed, false},
		{"fixed-pooled", fixed, true},
		{"adaptive-private", adaptive, false},
		{"adaptive-pooled", adaptive, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			man, err := OpenManifest(filepath.Join(t.TempDir(), "m.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer man.Close()
			var attempts atomic.Int32
			man.SetWriteErrHook(func(op string) error {
				if op != "unit" {
					return nil
				}
				attempts.Add(1)
				return errJournal
			})
			opt := Options{Workers: width, Manifest: man}
			if tc.pooled {
				pool := NewPool(width)
				defer pool.Close()
				opt.Pool, opt.Client = pool, "c"
			}
			if _, err := Run(tc.sp, opt); !errors.Is(err, errJournal) {
				t.Fatalf("Run returned %v, want the journal error", err)
			}
			if n := attempts.Load(); n > width+batch {
				t.Fatalf("%d unit appends attempted after the journal failed, want at most %d", n, width+batch)
			}
		})
	}
}
