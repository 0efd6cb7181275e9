package chaos_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/clock"
	"cosched/internal/dist"
	"cosched/internal/dist/chaos"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// pinnedFP is the golden fingerprint of pinnedSpec, shared with the
// campaign package's tests: if it changes, the semantics of the
// simulation changed and every golden in the repo is suspect.
const pinnedFP = "704aed1d37ca26a0"

// pinnedSpec mirrors the campaign package's testSpec: 4 grid points x
// 3 replicates = 12 units, 3 policies.
func pinnedSpec() scenario.Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 2
	return scenario.Spec{
		Name:       "campaign-test",
		XLabel:     "#procs",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 3,
		Seed:       11,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{8, 12}},
			{Param: scenario.ParamMTBF, Values: []float64{2, 4}},
		},
	}
}

func jsonl(t *testing.T, r *campaign.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// adaptiveSpec is a two-point adaptive campaign over the unit space
// 2 points x cap 16: the near-reliable point's stopping rule fires at
// 8 replicates, the failure-hammered one runs to the cap.
func adaptiveSpec() scenario.Spec {
	sp := pinnedSpec()
	sp.Name = "adaptive-chaos"
	sp.XLabel = "mtbf"
	sp.Policies = []string{"norc", "ig-el"}
	sp.Base = ""
	sp.Replicates = 0
	sp.Axes = []scenario.Axis{{Param: scenario.ParamMTBF, Values: []float64{100, 0.05}}}
	sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.2, MinReplicates: 4, MaxReplicates: 16, Batch: 2}
	return sp
}

// golden runs the pinned campaign single-process and returns its JSONL
// bytes — the value every distributed run must reproduce exactly.
func golden(t *testing.T) string {
	t.Helper()
	return jsonl(t, goldenRun(t, pinnedSpec()))
}

func goldenRun(t *testing.T, sp scenario.Spec) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(sp, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// chaosOpts parameterizes one harness run.
type chaosOpts struct {
	sp          scenario.Spec // zero value: pinnedSpec
	workers     int
	sched       chaos.Schedule
	manifest    string // coordination-log path; "" = no journal
	leaseUnits  int
	cancelAfter int                               // close Cancel once this many units folded (0 = never)
	wrap        func(*chaos.Spawner) dist.Spawner // wraps the chaos spawner (nil = none)
}

// chaosRun executes the campaign (pinned by default) under the fault schedule on a
// fake clock and waits out every worker goroutine before returning (a
// leak fails the test by hanging it).
func chaosRun(t *testing.T, o chaosOpts) (*campaign.Result, *obs.Campaign, *chaos.Spawner, error) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	spn := &chaos.Spawner{Clock: clk, Schedule: o.sched}
	stop := chaos.AutoAdvance(clk)
	defer stop()

	metrics := obs.NewCampaign()
	opt := dist.Options{
		Workers:    o.workers,
		LeaseUnits: o.leaseUnits,
		Clock:      clk,
		Spawner:    spn,
		Metrics:    metrics,
	}
	if o.wrap != nil {
		opt.Spawner = o.wrap(spn)
	}
	var man *campaign.Manifest
	if o.manifest != "" {
		var err error
		man, err = campaign.OpenManifest(o.manifest)
		if err != nil {
			t.Fatal(err)
		}
		man.SetSync(false)
		defer man.Close()
		opt.Manifest = man
	}
	if o.cancelAfter > 0 {
		cancel := make(chan struct{})
		var once sync.Once
		opt.Cancel = cancel
		opt.Progress = func(done, total int) {
			if done >= o.cancelAfter {
				once.Do(func() { close(cancel) })
			}
		}
	}
	sp := o.sp
	if sp.Name == "" {
		sp = pinnedSpec()
	}
	res, err := dist.Run(sp, opt)
	spn.Wait()
	return res, metrics, spn, err
}

// journalLines is a parsed journal: how often each unit record appears,
// the quarantined units in journal order, and the event names of every
// other lease line (only journals written by earlier versions hold any).
type journalLines struct {
	units       map[int]int
	quarantined []int
	stale       []string
}

// readJournal parses a journal line by line; a line that is neither
// header, unit record nor lease line fails the test.
func readJournal(t testing.TB, path string) journalLines {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j := journalLines{units: map[int]int{}}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var rec struct {
			Unit        *int            `json:"unit"`
			Lease       string          `json:"lease"`
			Units       json.RawMessage `json:"units"` // the header's is a count
			Fingerprint string          `json:"fingerprint"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch {
		case rec.Fingerprint != "":
		case rec.Lease == "quarantine":
			var units []int
			if err := json.Unmarshal(rec.Units, &units); err != nil {
				t.Fatalf("quarantine line %q: %v", line, err)
			}
			j.quarantined = append(j.quarantined, units...)
		case rec.Lease != "":
			j.stale = append(j.stale, rec.Lease)
		case rec.Unit == nil:
			t.Fatalf("journal line %q: neither header, lease, nor unit", line)
		default:
			j.units[*rec.Unit]++
		}
	}
	return j
}

func assertExactlyOnce(t *testing.T, path string, total int) {
	t.Helper()
	units := make([]int, total)
	for u := range units {
		units[u] = u
	}
	assertJournaledOnce(t, path, units)
}

// assertJournaledOnce checks that the journal holds exactly the given
// units, each exactly once, and no lease line but quarantine marks.
func assertJournaledOnce(t *testing.T, path string, units []int) {
	t.Helper()
	j := readJournal(t, path)
	if len(j.stale) > 0 {
		t.Errorf("journal holds lease lines %v; only quarantine marks belong there", j.stale)
	}
	counts := j.units
	for _, u := range units {
		if counts[u] != 1 {
			t.Errorf("unit %d journaled %d times, want exactly once", u, counts[u])
		}
	}
	if len(counts) != len(units) {
		t.Errorf("journal holds %d distinct units, want %d", len(counts), len(units))
	}
}

// foldedUnits lists the unit indices an adaptive result folded: the
// first Reps[p] replicates of every point p.
func foldedUnits(res *campaign.Result) []int {
	var units []int
	for pi, n := range res.Reps {
		for rep := 0; rep < n; rep++ {
			units = append(units, pi*res.Spec.ReplicateCap()+rep)
		}
	}
	return units
}

func TestPinnedFingerprint(t *testing.T) {
	fp, err := pinnedSpec().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", fp); got != pinnedFP {
		t.Fatalf("pinned spec fingerprint changed: %s, want %s", got, pinnedFP)
	}
}

// TestByteIdentityNoFaults is the topology half of the contract: with
// no faults at all, 1-, 2-, and 4-worker runs all reproduce the
// single-process golden byte for byte.
func TestByteIdentityNoFaults(t *testing.T) {
	want := golden(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			res, _, _, err := chaosRun(t, chaosOpts{workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonl(t, res); got != want {
				t.Fatal("distributed output differs from single-process golden")
			}
		})
	}
}

// TestByteIdentityModelCacheToggle pins the compiled-model cache across
// the distributed path: the same campaign run with the cache disabled
// (COSCHED_MODEL_CACHE=off, every unit compiles privately) and enabled
// (the default; workers share content-addressed tables) must emit the
// same bytes — including under a scripted worker kill, where a respawned
// worker's fresh cache re-fills from scratch mid-campaign.
func TestByteIdentityModelCacheToggle(t *testing.T) {
	t.Setenv("COSCHED_MODEL_CACHE", "off")
	want := golden(t)
	sched := chaos.Schedule{Kills: []chaos.Kill{
		{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeSend},
	}}
	for _, env := range []string{"off", ""} {
		name := "cache-on"
		if env != "" {
			name = "cache-" + env
		}
		t.Run(name, func(t *testing.T) {
			t.Setenv("COSCHED_MODEL_CACHE", env)
			res, _, spn, err := chaosRun(t, chaosOpts{workers: 2, sched: sched})
			if err != nil {
				t.Fatal(err)
			}
			if spn.KillsFired() != 1 {
				t.Error("scripted kill never fired")
			}
			if got := jsonl(t, res); got != want {
				t.Fatal("distributed output depends on the model-cache toggle")
			}
		})
	}
}

// TestByteIdentityKillEveryPhase kills a worker at every phase of a
// unit's lifecycle — before execution, after execution but before the
// result is sent, and after the result is on the wire — at the first,
// a middle, and the last unit of the campaign. Every schedule must
// leave the output untouched and the journal exactly-once.
func TestByteIdentityKillEveryPhase(t *testing.T) {
	want := golden(t)
	total := 12
	for _, ph := range []chaos.Phase{chaos.PhaseBeforeUnit, chaos.PhaseBeforeSend, chaos.PhaseAfterSend} {
		for _, unit := range []int{0, 5, 11} {
			t.Run(fmt.Sprintf("%v-unit-%d", ph, unit), func(t *testing.T) {
				manifest := filepath.Join(t.TempDir(), "units.jsonl")
				res, m, spn, err := chaosRun(t, chaosOpts{
					workers:  2,
					manifest: manifest,
					sched: chaos.Schedule{Kills: []chaos.Kill{
						{Spawn: chaos.Any, Unit: unit, Phase: ph},
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonl(t, res); got != want {
					t.Fatal("output diverged from golden under worker kill")
				}
				if spn.KillsFired() != 1 {
					t.Error("scripted kill never fired")
				}
				if ph != chaos.PhaseAfterSend && m.Dist.Reassignments.Value() < 1 {
					t.Errorf("killed unit %d was never reassigned", unit)
				}
				assertExactlyOnce(t, manifest, total)
			})
		}
	}
}

// TestByteIdentityHeartbeatStall hangs a worker mid-flight (alive,
// silent, no progress): the slow failure path, detectable only by the
// lease TTL. The coordinator must expire the lease, kill the zombie,
// reassign its units — and change nothing in the output.
func TestByteIdentityHeartbeatStall(t *testing.T) {
	want := golden(t)
	manifest := filepath.Join(t.TempDir(), "units.jsonl")
	res, m, _, err := chaosRun(t, chaosOpts{
		workers:  2,
		manifest: manifest,
		sched:    chaos.Schedule{Hangs: []chaos.Hang{{Spawn: chaos.Any, Unit: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := jsonl(t, res); got != want {
		t.Fatal("output diverged from golden under heartbeat stall")
	}
	if m.Dist.LeasesExpired.Value() < 1 {
		t.Error("hung worker's lease never expired")
	}
	if m.Dist.Reassignments.Value() < 1 {
		t.Error("hung worker's units were never reassigned")
	}
	assertExactlyOnce(t, manifest, 12)
}

// TestByteIdentityPausedWorker pauses a worker after unit 1's result —
// mid-lease at the default four-unit leases — long past several
// heartbeat intervals. With heartbeats flowing the lease must survive
// on renewals until the work resumes; with heartbeats stalled the lease
// must expire and the remaining units move elsewhere. Either way:
// golden bytes.
func TestByteIdentityPausedWorker(t *testing.T) {
	want := golden(t)
	t.Run("heartbeats-flowing", func(t *testing.T) {
		res, m, _, err := chaosRun(t, chaosOpts{
			workers: 2,
			sched: chaos.Schedule{Pauses: []chaos.Pause{
				{Spawn: chaos.Any, Unit: 1, Delay: 30 * time.Second},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonl(t, res); got != want {
			t.Fatal("output diverged from golden under a paused worker")
		}
		if m.Dist.Heartbeats.Value() < 3 {
			t.Errorf("expected several heartbeats across the 30s pause, saw %d", m.Dist.Heartbeats.Value())
		}
	})
	t.Run("heartbeats-stalled", func(t *testing.T) {
		manifest := filepath.Join(t.TempDir(), "units.jsonl")
		res, m, _, err := chaosRun(t, chaosOpts{
			workers:  2,
			manifest: manifest,
			sched: chaos.Schedule{Pauses: []chaos.Pause{
				{Spawn: chaos.Any, Unit: 1, Delay: 5 * time.Minute, StallHeartbeats: true},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonl(t, res); got != want {
			t.Fatal("output diverged from golden under a silently paused worker")
		}
		if m.Dist.LeasesExpired.Value() < 1 {
			t.Error("silently stalled lease never expired")
		}
		assertExactlyOnce(t, manifest, 12)
	})
}

// TestTornLeaseRecordResume simulates a coordinator crash mid-write:
// the run is cancelled mid-campaign, a torn record (no trailing
// newline, truncated JSON) is appended to the journal, and a fresh
// coordinator resumes from it. Restore must repair the tail, replay
// only folded units, and the combined runs must journal every unit
// exactly once and reproduce the golden bytes. The torn claim and renew
// are lines only earlier versions wrote; a journal of theirs can end in
// one.
func TestTornLeaseRecordResume(t *testing.T) {
	want := golden(t)
	for _, tc := range []struct {
		name string
		torn string
	}{
		{"torn-claim", `{"lease":"claim","id":7,"wo`},
		{"torn-renew", `{"lease":"renew","id`},
		{"torn-quarantine", `{"lease":"quarantine","id":3,"units":[`},
		{"torn-unit", `{"unit":9,"makespans":[1.2,3`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manifest := filepath.Join(t.TempDir(), "units.jsonl")

			_, _, _, err := chaosRun(t, chaosOpts{workers: 2, manifest: manifest, cancelAfter: 4})
			if err != campaign.ErrCanceled {
				t.Fatalf("first run: got %v, want ErrCanceled", err)
			}
			f, err := os.OpenFile(manifest, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			res, _, _, err := chaosRun(t, chaosOpts{workers: 2, manifest: manifest})
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonl(t, res); got != want {
				t.Fatal("resumed output diverged from golden after torn record")
			}
			assertExactlyOnce(t, manifest, 12)
		})
	}
}

// TestQuarantineAfterRepeatedKills scripts the poison-unit scenario: a
// unit that kills its worker every time it is attempted. After three
// lease losses (dist's retry cap) the unit must be quarantined —
// reported in the final error, never allowed to kill another worker —
// and the quarantine must survive a coordinator restart via the
// journal.
func TestQuarantineAfterRepeatedKills(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "units.jsonl")
	sched := chaos.Schedule{Kills: []chaos.Kill{
		{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeSend},
		{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeSend},
		{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeSend},
	}}
	res, m, _, err := chaosRun(t, chaosOpts{workers: 1, manifest: manifest, sched: sched})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("got (%v, %v), want quarantine error", res, err)
	}
	if m.Dist.UnitsQuarantined.Value() != 1 {
		t.Errorf("quarantined %d units, want 1", m.Dist.UnitsQuarantined.Value())
	}
	if m.Dist.WorkersLost.Value() < 3 {
		t.Errorf("lost %d workers, want the 3 scripted kills", m.Dist.WorkersLost.Value())
	}

	// A fresh coordinator with no faults must still refuse: the journal
	// remembers the poison, and the unit is never re-attempted.
	spawned := 0
	res, _, spn, err := chaosRun(t, chaosOpts{workers: 1, manifest: manifest})
	spawned = spn.Spawned()
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("restart: got (%v, %v), want quarantine error replayed from journal", res, err)
	}
	if spawned != 0 {
		t.Errorf("restart spawned %d workers for a journal-complete campaign, want 0", spawned)
	}
}

// TestJournalHoldsOnlyUnitsAndQuarantines runs a campaign through
// worker kills, a lease TTL expiry and a quarantine, then reads its
// journal back: the header, one line per folded unit and the one
// quarantine mark — the only lines a restart reads. Claims, renewals
// and expiries leave no trace there.
func TestJournalHoldsOnlyUnitsAndQuarantines(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "units.jsonl")
	kill := chaos.Kill{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeSend}
	_, m, spn, err := chaosRun(t, chaosOpts{
		workers:  2,
		manifest: manifest,
		sched: chaos.Schedule{
			Kills: []chaos.Kill{kill, kill, kill},
			Hangs: []chaos.Hang{{Spawn: chaos.Any, Unit: 9}},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("got %v, want quarantine error", err)
	}
	if spn.KillsFired() != 3 {
		t.Errorf("%d scripted kills fired, want 3", spn.KillsFired())
	}
	if got := m.Dist.LeasesExpired.Value(); got < 4 {
		t.Errorf("%d leases expired, want the 3 kills' and the hung worker's", got)
	}
	j := readJournal(t, manifest)
	if fmt.Sprint(j.quarantined) != "[5]" {
		t.Errorf("journal quarantines %v, want [5]", j.quarantined)
	}
	units := []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	assertJournaledOnce(t, manifest, units)
}

// TestOldFormatJournalResumes restores a journal as earlier versions
// wrote it: unit lines interleaved with claim, renew, release and expire
// lines, and a quarantine mark that carries id and worker. Its units
// fold and the other lease lines are skipped; a fresh coordinator
// honours the quarantine — unit 5 is never leased again — and fails the
// run as quarantined.
func TestOldFormatJournalResumes(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	man, err := campaign.OpenManifest(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(pinnedSpec(), campaign.Options{Workers: 1, Manifest: man}); err != nil {
		t.Fatal(err)
	}
	man.Close()
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	unitLine := map[int]string{}
	for _, line := range lines[1:] {
		var rec struct{ Unit int }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		unitLine[rec.Unit] = line
	}
	old := strings.Join([]string{
		lines[0],
		`{"lease":"claim","id":0,"worker":0,"units":[0,1,2,3]}`,
		`{"lease":"claim","id":1,"worker":1,"units":[4,5,6,7]}`,
		unitLine[0],
		`{"lease":"renew","id":0,"worker":0}`,
		unitLine[1],
		unitLine[4],
		unitLine[2],
		unitLine[3],
		`{"lease":"release","id":0,"worker":0,"units":[]}`,
		`{"lease":"expire","id":1,"worker":1,"units":[5,6,7]}`,
		`{"lease":"quarantine","id":1,"worker":1,"units":[5]}`,
	}, "\n") + "\n"
	manifest := filepath.Join(dir, "units.jsonl")
	if err := os.WriteFile(manifest, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	man, err = campaign.OpenManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var folded, quarantined []int
	n, err := man.Restore(pinnedSpec(), 3, func(unit int, _ []float64) {
		folded = append(folded, unit)
	}, func(unit int) {
		quarantined = append(quarantined, unit)
	})
	man.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || fmt.Sprint(folded) != "[0 1 4 2 3]" || fmt.Sprint(quarantined) != "[5]" {
		t.Fatalf("restored %d units %v and quarantined %v, want 5 units [0 1 4 2 3] and [5]", n, folded, quarantined)
	}

	// A tripwire on unit 5: it fires if any worker ever starts the unit.
	_, _, spn, err := chaosRun(t, chaosOpts{
		workers:  2,
		manifest: manifest,
		sched: chaos.Schedule{Kills: []chaos.Kill{
			{Spawn: chaos.Any, Unit: 5, Phase: chaos.PhaseBeforeUnit},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("got %v, want the journal's quarantine to fail the run", err)
	}
	if spn.KillsFired() != 0 {
		t.Error("the quarantined unit was leased again")
	}
	j := readJournal(t, manifest)
	if fmt.Sprint(j.stale) != "[claim claim renew release expire]" || fmt.Sprint(j.quarantined) != "[5]" {
		t.Errorf("journal lease lines %v and quarantines %v changed on resume", j.stale, j.quarantined)
	}
	for u := 0; u < 12; u++ {
		want := 1
		if u == 5 {
			want = 0
		}
		if j.units[u] != want {
			t.Errorf("unit %d journaled %d times, want %d", u, j.units[u], want)
		}
	}
}

// flakySpawner fails every Spawn for scripted seats, delegating the
// rest — the exec-failure path behind graceful degradation.
type flakySpawner struct {
	inner     dist.Spawner
	failSlots map[int]bool
}

func (f *flakySpawner) Spawn(slot int) (*dist.WorkerProc, error) {
	if f.failSlots[slot] {
		return nil, fmt.Errorf("spawn slot %d: exec format error", slot)
	}
	return f.inner.Spawn(slot)
}

// TestGracefulDegradation wires a seat that can never spawn: the
// coordinator must retire it after three backed-off tries
// and finish the campaign on the remaining workers, golden bytes
// intact.
func TestGracefulDegradation(t *testing.T) {
	want := golden(t)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	spn := &chaos.Spawner{Clock: clk}
	stop := chaos.AutoAdvance(clk)
	defer stop()
	m := obs.NewCampaign()
	res, err := dist.Run(pinnedSpec(), dist.Options{
		Workers: 3,
		Clock:   clk,
		Spawner: &flakySpawner{inner: spn, failSlots: map[int]bool{1: true}},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	spn.Wait()
	if got := jsonl(t, res); got != want {
		t.Fatal("output diverged from golden under seat degradation")
	}
	if got := m.Dist.WorkersSpawned.Value(); got != 2 {
		t.Errorf("spawned %d workers, want 2 (seat 1 retired)", got)
	}
}

// TestAllSeatsLost starves every seat: with no worker ever reaching
// ready and work pending, the run must fail loudly instead of waiting
// forever.
func TestAllSeatsLost(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	stop := chaos.AutoAdvance(clk)
	defer stop()
	_, err := dist.Run(pinnedSpec(), dist.Options{
		Workers: 2,
		Clock:   clk,
		Spawner: &flakySpawner{failSlots: map[int]bool{0: true, 1: true}},
	})
	if err == nil || !strings.Contains(err.Error(), "worker seats lost") {
		t.Fatalf("got %v, want all-seats-lost error", err)
	}
}

// TestAdaptiveByteIdentityKillEveryPhase runs an adaptive campaign on
// the fleet under the kill-every-phase matrix. The coordinator leases
// only what the Assembler releases — one batch per live point, the
// next once it folded — so a worker death can delay a stopping
// decision but never change it: output byte-identical to the
// in-process run, every folded unit journaled exactly once, nothing
// past a stopped point ever leased.
func TestAdaptiveByteIdentityKillEveryPhase(t *testing.T) {
	sp := adaptiveSpec()
	ref := goldenRun(t, sp)
	if fmt.Sprint(ref.Reps) != "[8 16]" {
		t.Fatalf("premise: reps %v, want one early stop and one capped point [8 16]", ref.Reps)
	}
	want, units := jsonl(t, ref), foldedUnits(ref)
	for _, ph := range []chaos.Phase{chaos.PhaseBeforeUnit, chaos.PhaseBeforeSend, chaos.PhaseAfterSend} {
		for _, unit := range []int{0, 20, 31} { // first, middle, and last of the capped point
			t.Run(fmt.Sprintf("%v-unit-%d", ph, unit), func(t *testing.T) {
				manifest := filepath.Join(t.TempDir(), "units.jsonl")
				res, m, spn, err := chaosRun(t, chaosOpts{
					sp:       sp,
					workers:  2,
					manifest: manifest,
					sched: chaos.Schedule{Kills: []chaos.Kill{
						{Spawn: chaos.Any, Unit: unit, Phase: ph},
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := jsonl(t, res); got != want {
					t.Fatal("adaptive output diverged from the in-process run under worker kill")
				}
				if spn.KillsFired() != 1 {
					t.Error("scripted kill never fired")
				}
				if ph != chaos.PhaseAfterSend && m.Dist.Reassignments.Value() < 1 {
					t.Errorf("killed unit %d was never reassigned", unit)
				}
				if s := m.Snapshot(); s.PointsStopped != 2 || s.UnitsDone != int64(len(units)) {
					t.Errorf("telemetry: %d points stopped, %d units done; want 2, %d", s.PointsStopped, s.UnitsDone, len(units))
				}
				assertJournaledOnce(t, manifest, units)
			})
		}
	}
}

// TestAdaptiveResumeAfterCoordinatorKill stops an adaptive fleet run
// halfway (the coordinator dies with leases outstanding) and resumes it
// from its journal: the resumed coordinator replays the folded
// prefix through the stopping rule, leases only what is still missing,
// and reproduces the uninterrupted output with every unit journaled
// exactly once across both lives.
func TestAdaptiveResumeAfterCoordinatorKill(t *testing.T) {
	sp := adaptiveSpec()
	ref := goldenRun(t, sp)
	units := foldedUnits(ref)
	manifest := filepath.Join(t.TempDir(), "units.jsonl")

	_, _, _, err := chaosRun(t, chaosOpts{sp: sp, workers: 2, manifest: manifest, cancelAfter: len(units) / 2})
	if err != campaign.ErrCanceled {
		t.Fatalf("first run: got %v, want ErrCanceled", err)
	}
	if n := len(readJournal(t, manifest).units); n < len(units)/2 || n >= len(units) {
		t.Fatalf("first run journaled %d of %d units, want about half", n, len(units))
	}
	res, _, _, err := chaosRun(t, chaosOpts{sp: sp, workers: 2, manifest: manifest})
	if err != nil {
		t.Fatal(err)
	}
	if jsonl(t, res) != jsonl(t, ref) {
		t.Fatal("resumed adaptive output diverged from the uninterrupted run")
	}
	assertJournaledOnce(t, manifest, units)
}
