package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/dist"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// TestMain doubles the test binary as the campaign worker executable
// (as internal/dist's tests do): with the marker variable set the
// process serves the worker protocol instead of running tests, so a
// daemon configured with WorkersExec = os.Executable() spawns real
// worker processes.
func TestMain(m *testing.M) {
	if os.Getenv("COSCHED_DIST_WORKER") == "1" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout, dist.WorkerConfig{}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smallSpec is a fast fixed campaign: 2 points × reps replicates ×
// 3 policies.
func smallSpec(name string, seed uint64, reps int) scenario.Spec {
	w := workload.Default()
	w.N = 2
	w.P = 8
	w.MTBFYears = 2
	return scenario.Spec{
		Name:       name,
		XLabel:     "#procs",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: reps,
		Seed:       seed,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{8, 12}},
		},
	}
}

// resumeSpec is smallSpec's heavier sibling for the kill/restart test:
// its units carry real event-loop cost (20 tasks, 100–150 processors,
// one-year MTBF → fault-dense runs), so with the compiled-model cache
// warm — where smallSpec's microsecond units would finish the whole
// campaign inside the status-poll granularity — the window between
// "both campaigns journaled five units" and "first campaign done"
// stays tens of milliseconds wide.
func resumeSpec(name string, seed uint64) scenario.Spec {
	w := workload.Default()
	w.N = 20
	w.MTBFYears = 1
	return scenario.Spec{
		Name:       name,
		XLabel:     "#procs",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 60,
		Seed:       seed,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{100, 150}},
		},
	}
}

// directJSONL is the reference output: the same spec run directly,
// single worker, no daemon.
func directJSONL(t *testing.T, sp scenario.Spec) string {
	t.Helper()
	res, err := campaign.Run(sp, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func startDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 5 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// submit POSTs a spec for client and returns the HTTP status and the
// decoded status payload.
func submit(t *testing.T, ts *httptest.Server, client string, sp scenario.Spec) (int, statusPayload) {
	t.Helper()
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/campaigns", &buf)
	req.Header.Set("X-Cosched-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusPayload
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit response: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusPayload {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a campaign until it reaches state (or times out).
func waitState(t *testing.T, ts *httptest.Server, id, state string) statusPayload {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == state {
			return st
		}
		if terminalState(st.State) || time.Now().After(deadline) {
			t.Fatalf("campaign %s is %q (error %q), want %q", id, st.State, st.Error, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetchResults(t *testing.T, ts *httptest.Server, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestSubmitValidateDedup(t *testing.T) {
	s, ts := startDaemon(t, Config{SpoolDir: t.TempDir(), Workers: 2, Logf: t.Logf})
	defer ts.Close()
	defer s.Stop()

	// Malformed JSON is refused at intake.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: %d, want 400", resp.StatusCode)
	}
	// A structurally valid but semantically broken spec is refused too.
	bad := smallSpec("bad", 1, 2)
	bad.Policies = nil
	if code, _ := submit(t, ts, "alice", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", code)
	}

	sp := smallSpec("dedup", 7, 2)
	code, st := submit(t, ts, "alice", sp)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("first submit: %d %+v", code, st)
	}
	// The same (client, spec) resubmitted is deduplicated onto the
	// existing campaign: 200, same ID.
	code2, st2 := submit(t, ts, "alice", sp)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("duplicate submit: %d id %s, want 200 id %s", code2, st2.ID, st.ID)
	}
	// A different client running the same spec is a separate campaign.
	code3, st3 := submit(t, ts, "bob", sp)
	if code3 != http.StatusAccepted || st3.ID == st.ID {
		t.Fatalf("other client's submit: %d id %s (collides: %v)", code3, st3.ID, st3.ID == st.ID)
	}
	if _, err := os.Stat(specPath(s.cfg.SpoolDir, st.ID)); err != nil {
		t.Fatalf("accepted campaign not spooled: %v", err)
	}

	waitState(t, ts, st.ID, StateDone)
	waitState(t, ts, st3.ID, StateDone)
}

func TestResultsMatchDirectRun(t *testing.T) {
	s, ts := startDaemon(t, Config{SpoolDir: t.TempDir(), Workers: 3, Logf: t.Logf})
	defer ts.Close()
	defer s.Stop()

	sp := smallSpec("golden", 21, 3)
	want := directJSONL(t, sp)
	code, st := submit(t, ts, "alice", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	rcode, body := fetchResults(t, ts, st.ID) // blocks until done
	if rcode != http.StatusOK {
		t.Fatalf("results: %d\n%s", rcode, body)
	}
	if body != want {
		t.Fatal("daemon results differ from a direct single-worker run")
	}

	// Per-campaign metric namespace: the campaign's own Prometheus
	// endpoint reports its units, and /debug/vars carries the namespaced
	// registry.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mbody), "cosched_campaign_units_done 6") {
		t.Fatalf("campaign metrics missing units_done:\n%s", mbody)
	}
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(vbody), "cosched_campaigns") || !strings.Contains(string(vbody), st.ID) {
		t.Fatal("campaign not namespaced under cosched_campaigns in /debug/vars")
	}
}

func TestStreamHeartbeats(t *testing.T) {
	s, ts := startDaemon(t, Config{SpoolDir: t.TempDir(), Workers: 2, Logf: t.Logf})
	defer ts.Close()
	defer s.Stop()

	_, st := submit(t, ts, "alice", smallSpec("stream", 31, 3))
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
			lastData = "" // the event's own data line follows
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
			if events[len(events)-1] == "done" {
				break
			}
		}
	}
	if len(events) == 0 || events[0] != "progress" {
		t.Fatalf("stream events %v: want a leading progress heartbeat", events)
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("stream events %v: want a final done event", events)
	}
	var final statusPayload
	if err := json.Unmarshal([]byte(lastData), &final); err != nil || final.State != StateDone {
		t.Fatalf("final stream payload: %v %s", err, lastData)
	}
}

func TestCancel(t *testing.T) {
	// One worker, one active slot: the second campaign is provably
	// queued while the first (big) one runs, so both cancel paths —
	// queued and running — are exercised deterministically.
	s, ts := startDaemon(t, Config{SpoolDir: t.TempDir(), Workers: 1, MaxActive: 1, Logf: t.Logf})
	defer ts.Close()
	defer s.Stop()

	_, blocker := submit(t, ts, "alice", smallSpec("blocker", 41, 400))
	waitState(t, ts, blocker.ID, StateRunning)
	_, queued := submit(t, ts, "alice", smallSpec("queued", 42, 2))
	if st := getStatus(t, ts, queued.ID); st.State != StateQueued {
		t.Fatalf("second campaign is %q, want queued behind MaxActive=1", st.State)
	}

	del := func(id string) int {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(queued.ID); code != http.StatusAccepted {
		t.Fatalf("cancel queued: %d", code)
	}
	waitState(t, ts, queued.ID, StateCanceled)
	if code := del(blocker.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running: %d", code)
	}
	st := waitState(t, ts, blocker.ID, StateCanceled)
	if st.Progress.Done >= 800 {
		t.Fatalf("canceled campaign claims %d done units: cancel did not interrupt", st.Progress.Done)
	}
	// Results of a canceled campaign answer 409 with the status.
	if code, _ := fetchResults(t, ts, blocker.ID); code != http.StatusConflict {
		t.Fatalf("results of canceled campaign: %d, want 409", code)
	}
}

func TestSubmitRateLimit(t *testing.T) {
	s, ts := startDaemon(t, Config{
		SpoolDir: t.TempDir(), Workers: 1,
		SubmitRate: 0.0001, SubmitBurst: 1, Logf: t.Logf,
	})
	defer ts.Close()
	defer s.Stop()

	if code, _ := submit(t, ts, "alice", smallSpec("rl-1", 51, 2)); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	var buf bytes.Buffer
	smallSpec("rl-2", 52, 2).Encode(&buf)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/campaigns", &buf)
	req.Header.Set("X-Cosched-Client", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another client has its own bucket.
	if code, _ := submit(t, ts, "bob", smallSpec("rl-3", 53, 2)); code != http.StatusAccepted {
		t.Fatalf("other client's submit: %d, want 202", code)
	}
}

// TestRestartResumeGolden is the PR's acceptance test: a daemon killed
// mid-campaign and restarted over the same spool produces byte-identical
// JSONL to an uninterrupted run, for two concurrent client campaigns —
// without losing a journaled unit or double-running one.
func TestRestartResumeGolden(t *testing.T) {
	spool := t.TempDir()
	spA := resumeSpec("resume-a", 61) // 120 units each
	spB := resumeSpec("resume-b", 62)
	wantA, wantB := directJSONL(t, spA), directJSONL(t, spB)

	s1, ts1 := startDaemon(t, Config{SpoolDir: spool, Workers: 2, Logf: t.Logf})
	_, stA := submit(t, ts1, "alice", spA)
	_, stB := submit(t, ts1, "bob", spB)

	// Stream one heartbeat from a live campaign before the kill.
	resp, err := http.Get(ts1.URL + "/v1/campaigns/" + stA.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: progress") {
			sawProgress = true
			break
		}
	}
	resp.Body.Close()
	if !sawProgress {
		t.Fatal("no progress heartbeat before kill")
	}

	// Kill once both campaigns have journaled some units but neither can
	// have finished (poll granularity is far finer than 60 units' worth
	// of execution).
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, b := getStatus(t, ts1, stA.ID), getStatus(t, ts1, stB.ID)
		if a.Progress.Done >= 5 && b.Progress.Done >= 5 {
			break
		}
		if terminalState(a.State) || terminalState(b.State) {
			t.Fatalf("campaign finished before the kill (a=%s b=%s): spec too small", a.State, b.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaigns made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Stop() // graceful kill: in-flight units drain and are journaled
	ts1.Close()

	// The spool must still say "running": the shutdown is not a cancel.
	for _, id := range []string{stA.ID, stB.ID} {
		meta, err := loadMeta(spool, id)
		if err != nil {
			t.Fatal(err)
		}
		if terminalState(meta.State) {
			t.Fatalf("campaign %s is %q on disk after shutdown, want resumable", id, meta.State)
		}
	}

	// Restart over the same spool: both campaigns resume automatically.
	s2, ts2 := startDaemon(t, Config{SpoolDir: spool, Workers: 2, Logf: t.Logf})
	defer ts2.Close()
	defer s2.Stop()
	codeA, gotA := fetchResults(t, ts2, stA.ID)
	codeB, gotB := fetchResults(t, ts2, stB.ID)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("results after restart: %d %d", codeA, codeB)
	}
	if gotA != wantA {
		t.Fatal("campaign A: restarted daemon's JSONL differs from an uninterrupted run")
	}
	if gotB != wantB {
		t.Fatal("campaign B: restarted daemon's JSONL differs from an uninterrupted run")
	}

	// The journals acknowledge every unit exactly once: nothing lost
	// across the kill, nothing double-run after it.
	for _, id := range []string{stA.ID, stB.ID} {
		assertJournalComplete(t, manifestPath(spool, id), 120)
	}
}

// assertJournalComplete checks a finished campaign's manifest holds
// exactly one record per unit.
func assertJournalComplete(t *testing.T, path string, units int) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	seen := map[int]bool{}
	for _, line := range lines[1:] { // line 0 is the header
		var u struct {
			Unit int `json:"unit"`
		}
		if err := json.Unmarshal([]byte(line), &u); err != nil {
			t.Fatalf("%s: corrupt journal line: %v", path, err)
		}
		if seen[u.Unit] {
			t.Fatalf("%s: unit %d journaled twice (double-run)", path, u.Unit)
		}
		seen[u.Unit] = true
	}
	if len(seen) != units {
		t.Fatalf("%s: journal acknowledges %d units, want %d", path, len(seen), units)
	}
}

// TestRescanSkipsGarbage pins that a spool entry without a readable
// meta/spec is skipped, not fatal: one bad directory must not take the
// daemon down with it.
func TestRescanSkipsGarbage(t *testing.T) {
	spool := t.TempDir()
	if err := os.MkdirAll(spool+"/not-a-campaign", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool+"/stray-file", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startDaemon(t, Config{SpoolDir: spool, Workers: 1, Logf: t.Logf})
	defer ts.Close()
	defer s.Stop()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status    string `json:"status"`
		Campaigns int    `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" || h.Campaigns != 0 {
		t.Fatalf("healthz payload: %+v (%v)", h, err)
	}
}

// TestAdaptiveOnWorkerFleet submits an adaptive campaign to a daemon
// with a worker fleet configured: it runs on spawned worker processes —
// no in-process fallback — survives a chaos kill of the worker holding
// unit 1, and serves results byte-identical to a direct run.
func TestAdaptiveOnWorkerFleet(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("COSCHED_DIST_WORKER", "1") // inherited by the spawned workers only
	sp := smallSpec("adaptive-fleet", 29, 0)
	sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.2, MinReplicates: 4, MaxReplicates: 16, Batch: 2}
	want := directJSONL(t, sp)

	s, ts := startDaemon(t, Config{SpoolDir: t.TempDir(), WorkersExec: exe, DistWorkers: 2, ChaosKillUnit: 1})
	defer ts.Close()
	defer s.Stop()
	code, st := submit(t, ts, "alice", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, st.ID, StateDone)
	if code, got := fetchResults(t, ts, st.ID); code != http.StatusOK || got != want {
		t.Fatalf("fleet results (HTTP %d) differ from the direct run", code)
	}
	r, _ := s.Get(st.ID)
	if r.metrics.Dist.LeasesGranted.Value() == 0 || r.metrics.Dist.WorkersLost.Value() != 1 {
		t.Fatalf("leases granted %d, workers lost %d: want the fleet used and one chaos kill",
			r.metrics.Dist.LeasesGranted.Value(), r.metrics.Dist.WorkersLost.Value())
	}
}
