package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosched/internal/scenario"
	"cosched/internal/service"
	"cosched/internal/workload"
)

// The daemon-mixed load: an open loop at one fixed arrival rate,
// round-robin over daemonClients client IDs. Each cycle of ten
// submissions, in the order of daemonCycle, holds six small fixed
// campaigns (F), two adaptive ones (A) and two resubmits of earlier
// specs (R), interleaved so that the heavy ones do not arrive in bursts.
// sloLimit is the latency limit a due campaign must finish within.
const (
	daemonRate    = 19.0 // campaigns per second
	daemonClients = 8
	daemonCycle   = "FAFRFFAFRF"
	sloLimit      = 100 * time.Millisecond
	pollEvery     = 20 * time.Millisecond
	drainTimeout  = 60 * time.Second
	daemonSetups  = 20
	// setupGap spreads the sub-millisecond daemon starts over about half a
	// second, so their median does not hang on one moment's host speed.
	setupGap = 25 * time.Millisecond
)

// submission is one scheduled POST and what became of it.
type submission struct {
	due      time.Duration // offset from the window start
	client   string
	spec     int // index into the distinct specs
	resubmit bool

	answered time.Time
	code     int
	id       string
}

// daemonLoad builds the window's schedule and its distinct specs.
func daemonLoad(seed uint64, seconds float64, tiny bool) ([]submission, []scenario.Spec) {
	n := int(daemonRate * seconds)
	if tiny {
		n = 10
	}
	var subs []submission
	var specs []scenario.Spec
	clientOf := map[int]string{}
	for i := 0; i < n; i++ {
		s := submission{due: time.Duration(float64(i) / daemonRate * float64(time.Second))}
		switch kind := daemonCycle[i%len(daemonCycle)]; {
		case kind == 'R' && len(specs) > 0: // resubmit an earlier spec from its client
			s.spec = int(mix(seed, 3000+uint64(i)) % uint64(len(specs)))
			s.client, s.resubmit = clientOf[s.spec], true
		default:
			s.spec = len(specs)
			s.client = fmt.Sprintf("client-%d", i%daemonClients)
			clientOf[s.spec] = s.client
			specs = append(specs, daemonSpec(mix(seed, 1000+uint64(i)), kind == 'A', tiny))
		}
		subs = append(subs, s)
	}
	return subs, specs
}

// daemonSpec is one small campaign: a fixed 2-point × 8-replicate MTBF
// grid on an n=60, P=600 pack, or an adaptive single point (5% relative
// half-width, at most 64 replicates) on an n=20, P=200 pack. The fixed
// campaigns carry most of the work, so the latency tail is set by how
// they queue rather than by how long adaptive stopping happens to take.
func daemonSpec(seed uint64, adaptive, tiny bool) scenario.Spec {
	w := workload.Default()
	w.N, w.P, w.MTBFYears = 60, 600, 20
	sp := scenario.Spec{
		Name:       fmt.Sprintf("mixed-%x", seed&0xffffff),
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "stf-el"},
		Base:       "norc",
		Replicates: 8,
		Seed:       seed,
		Axes:       []scenario.Axis{{Param: scenario.ParamMTBF, Values: []float64{10, 40}}},
	}
	if adaptive {
		sp.Workload.N, sp.Workload.P = 20, 200
		sp.Replicates = 0
		sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.05, MaxReplicates: 64}
		sp.Axes[0].Values = []float64{20}
	}
	if tiny {
		sp.Workload.N, sp.Workload.P = 4, 16
		if adaptive {
			sp.Precision.MaxReplicates = 16
		}
	}
	return sp
}

// daemon is one running service.Server behind a loopback listener.
type daemon struct {
	srv   *service.Server
	http  *http.Server
	url   string
	spool string
	done  chan struct{}
}

// startDaemon opens a fresh spool, starts the server and returns once
// /healthz answers.
func startDaemon(spool string) (*daemon, error) {
	srv, err := service.New(service.Config{SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), spool: spool, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	d.http.Close()
	<-d.done
	d.srv.Stop()
}

// oneConn returns an HTTP client that keeps at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// window is the outcome of one open-loop run against a daemon.
type window struct {
	subs       []submission
	finished   map[string]service.Meta
	lag        []float64
	backlogMax int
	start      time.Time
	cpu        time.Duration
	rss        []float64 // resident-set high-water mark of each second of the window, MB
}

// openLoop sends every submission at its due time over one connection
// while one poller reads GET /v1/campaigns over another, until every
// accepted campaign is terminal or drainTimeout passes.
func openLoop(d *daemon, tr *tracer, subs []submission, raws [][]byte) (window, error) {
	w := window{subs: subs, finished: map[string]service.Meta{}}
	submitter, poller := oneConn(), oneConn()
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()
	var mu sync.Mutex // guards subs[*] results and sentAll
	sentAll := false
	errc := make(chan error, 1)
	stop := make(chan struct{}) // closed when polling fails, to end the generator early
	cpu0 := cpuTime()
	w.start = time.Now().Add(20 * time.Millisecond)
	stopRSS, rssDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rssDone)
		resetPeakRSS()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.rss = append(w.rss, peakRSSMB(false))
				resetPeakRSS()
			case <-stopRSS:
				w.rss = append(w.rss, peakRSSMB(false)) // the last, partial second
				return
			}
		}
	}()
	go func() {
		errc <- func() error {
			for i := range subs {
				due := w.start.Add(subs[i].due)
				select {
				case <-time.After(time.Until(due)):
				case <-stop:
					return errors.New("generator stopped")
				}
				sent := time.Now()
				id := tr.begin("service.submit", 0, tr.newRun())
				req, err := http.NewRequest(http.MethodPost, d.url+"/v1/campaigns", bytes.NewReader(raws[subs[i].spec]))
				if err != nil {
					return err
				}
				req.Header.Set("X-Cosched-Client", subs[i].client)
				resp, err := submitter.Do(req)
				if err != nil {
					return err
				}
				var meta service.Meta
				if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
					err = json.NewDecoder(resp.Body).Decode(&meta)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tr.end(id)
				if err != nil {
					return err
				}
				mu.Lock()
				subs[i].answered, subs[i].code, subs[i].id = time.Now(), resp.StatusCode, meta.ID
				w.lag = append(w.lag, sent.Sub(due).Seconds())
				mu.Unlock()
			}
			mu.Lock()
			sentAll = true
			mu.Unlock()
			return nil
		}()
	}()
	var genErr, pollErr error
	genDone := false
	deadline := w.start.Add(subs[len(subs)-1].due + drainTimeout)
	for pollErr == nil && time.Now().Before(deadline) {
		time.Sleep(pollEvery)
		if !genDone {
			select {
			case genErr = <-errc:
				genDone = true
			default:
			}
		}
		id := tr.begin("service.poll", 0, 0)
		metas, err := listCampaigns(poller, d.url)
		tr.end(id)
		if err != nil {
			pollErr = err
			close(stop)
			break
		}
		backlog := 0
		for _, m := range metas {
			switch m.State {
			case service.StateQueued, service.StateRunning:
				backlog++
			default:
				if _, ok := w.finished[m.ID]; !ok && m.FinishedAt != nil {
					w.finished[m.ID] = m
				}
			}
		}
		w.backlogMax = max(w.backlogMax, backlog)
		mu.Lock()
		settled := sentAll && backlog == 0
		mu.Unlock()
		if genDone && (settled || genErr != nil) {
			break
		}
	}
	if !genDone {
		genErr = <-errc // the generator's last send is due before deadline, or it was stopped
	}
	w.cpu = cpuTime() - cpu0
	close(stopRSS)
	<-rssDone
	if pollErr != nil {
		return w, pollErr
	}
	return w, genErr
}

func listCampaigns(c *http.Client, url string) ([]service.Meta, error) {
	resp, err := c.Get(url + "/v1/campaigns")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var metas []service.Meta
	if err := json.NewDecoder(resp.Body).Decode(&metas); err != nil {
		return nil, fmt.Errorf("listing campaigns: %w", err)
	}
	return metas, nil
}

// latencies returns each due campaign's time from its due time to its
// result being available (the later of the server's FinishedAt and the
// submit answer, which matters for dedup hits), and counts the
// submissions that were refused, failed or never finished.
func (w window) latencies() (done []float64, failed, refused, dedup int) {
	for _, s := range w.subs {
		due := w.start.Add(s.due)
		switch s.code {
		case http.StatusAccepted, http.StatusOK:
			if s.code == http.StatusOK {
				dedup++
			}
			m, ok := w.finished[s.id]
			if !ok || m.State != service.StateDone {
				failed++
				continue
			}
			fin := *m.FinishedAt
			if s.answered.After(fin) {
				fin = s.answered
			}
			done = append(done, fin.Sub(due).Seconds())
		case http.StatusTooManyRequests:
			refused++
			failed++
		default:
			failed++
		}
	}
	return done, failed, refused, dedup
}

// lastFinish is when the last campaign of the window finished.
func (w window) lastFinish() time.Time {
	last := w.start
	for _, m := range w.finished {
		if m.FinishedAt.After(last) {
			last = *m.FinishedAt
		}
	}
	return last
}

// campaignIDs returns each distinct spec's campaign ID, in spec order.
func (w window) campaignIDs(nspecs int) []string {
	ids := make([]string, nspecs)
	for _, s := range w.subs {
		if !s.resubmit && s.id != "" {
			ids[s.spec] = s.id
		}
	}
	return ids
}

// daemonStarts starts the daemon n times on fresh spools, setupGap
// apart, appending each start time to samples, and keeps the last one
// running when keep is set.
func daemonStarts(cfg config, n int, keep bool, samples *[]float64) (*daemon, error) {
	var d *daemon
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
			time.Sleep(setupGap)
		}
		t := time.Now()
		var err error
		d, err = startDaemon(filepath.Join(cfg.dir, fmt.Sprintf("spool-%d", len(*samples))))
		if err != nil {
			return nil, err
		}
		*samples = append(*samples, time.Since(t).Seconds())
	}
	if !keep {
		d.stop()
		d = nil
	}
	return d, nil
}

// checkDaemon fetches every distinct campaign's results and compares
// them byte for byte with an in-process campaign.Run of the same spec.
// It returns the first mismatch (or ""), the total units the campaigns
// folded and the per-fetch latencies.
func checkDaemon(d *daemon, specs []scenario.Spec, ids []string, local func(i int) ([]byte, int, error)) (string, int, []float64, error) {
	client := oneConn()
	defer client.CloseIdleConnections()
	units := 0
	var fetch []float64
	for i, id := range ids {
		if id == "" {
			continue
		}
		t := time.Now()
		resp, err := client.Get(d.url + "/v1/campaigns/" + id + "/results")
		if err != nil {
			return "", 0, nil, err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		fetch = append(fetch, time.Since(t).Seconds())
		if err != nil {
			return "", 0, nil, err
		}
		want, n, err := local(i)
		if err != nil {
			return "", 0, nil, err
		}
		units += n
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			return fmt.Sprintf("campaign %s (%s): daemon results differ from in-process campaign.Run (HTTP %d)", id, specs[i].Name, resp.StatusCode), units, fetch, nil
		}
	}
	return "", units, fetch, nil
}

func daemonInputs(cfg config) ([]submission, []scenario.Spec, [][]byte, error) {
	subs, specs := daemonLoad(cfg.seed, cfg.seconds, cfg.tiny)
	raws, err := encodeSpecs(specs)
	return subs, specs, raws, err
}

func runDaemon(cfg config, _ *tracer) (outcome, error) {
	subs, specs, raws, err := daemonInputs(cfg)
	if err != nil {
		return outcome{}, err
	}
	// Start the daemon daemonSetups times before the window and as many
	// after it, so the median start time spans the whole run.
	var setups []float64
	d, err := daemonStarts(cfg, daemonSetups, true, &setups)
	if err != nil {
		return outcome{}, err
	}
	w, err := openLoop(d, nil, subs, raws)
	if err != nil {
		d.stop()
		return outcome{}, err
	}
	done, failed, _, _ := w.latencies()
	out := outcome{correct: true, attempted: len(subs), failed: failed}
	msg, units, _, err := checkDaemon(d, specs, w.campaignIDs(len(specs)), func(i int) ([]byte, int, error) {
		return inProcessJSONL(specs[i], runtime.NumCPU())
	})
	d.stop()
	if err != nil {
		return outcome{}, err
	}
	if msg != "" {
		out.correct, out.detail = false, msg
	}
	if len(done) == 0 {
		return outcome{}, fmt.Errorf("no campaign finished")
	}
	if _, err := daemonStarts(cfg, daemonSetups, false, &setups); err != nil {
		return outcome{}, err
	}
	wall := w.lastFinish().Sub(w.start).Seconds()
	out.values = map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      wall,
		"units_per_s": float64(units) / wall,
		"peak_rss_mb": median(w.rss),
		"cpu_s":       w.cpu.Seconds(),
	}
	return out, nil
}

func tracedDaemon(cfg config, tr *tracer) (outcome, error) {
	subs, specs, raws, err := daemonInputs(cfg)
	if err != nil {
		return outcome{}, err
	}
	v := map[string]float64{}
	for _, raw := range raws {
		if _, err := prepare(tr, raw); err != nil {
			return outcome{}, err
		}
	}
	v["scenario.prepare_ms"] = ms(median(seconds(tr.durations("scenario.prepare"))))
	d, err := daemonStarts(cfg, 1, true, new([]float64))
	if err != nil {
		return outcome{}, err
	}
	defer d.stop()
	w, err := openLoop(d, tr, subs, raws)
	if err != nil {
		return outcome{}, err
	}
	done, failed, refused, dedup := w.latencies()
	out := outcome{correct: true, attempted: len(subs), failed: failed, values: v}
	miss := len(subs) - len(done)
	for _, s := range done {
		if s > sloLimit.Seconds() {
			miss++
		}
	}
	submit := seconds(tr.durations("service.submit"))
	v["service.submit_ms_p50"] = ms(quantile(submit, 0.5))
	v["service.submit_ms_p99"] = ms(quantile(submit, 0.99))
	v["service.refused"] = float64(refused)
	v["service.dedup_hits"] = float64(dedup)
	v["service.backlog_max"] = float64(w.backlogMax)
	v["service.slo_miss_frac"] = float64(miss) / float64(len(subs))
	v["load.gen_lag_ms"] = ms(quantile(w.lag, 1))
	v["load.done_p50_s"] = quantile(done, 0.5)
	v["load.done_p95_s"] = quantile(done, 0.95)
	v["load.done_samples"] = float64(len(done))

	ids := w.campaignIDs(len(specs))
	wall := w.lastFinish().Sub(w.start).Seconds()
	if err := scrapeDaemon(d, ids, wall, v); err != nil {
		return outcome{}, err
	}
	journalStats(d.spool, ids, v)

	// Re-run every distinct campaign in process: one worker with
	// telemetry for the exact counters, then traced and plain passes at
	// nproc workers for the tracing overhead.
	ref, err := runPass(cfg, nil, specs, 1, true)
	if err != nil {
		return outcome{}, err
	}
	fillReference(v, ref.results, ref.snaps, ref.caches)
	workers := runtime.NumCPU()
	traced, err := runPass(cfg, tr, specs, workers, true)
	if err != nil {
		return outcome{}, err
	}
	plain, err := runPass(cfg, nil, specs, workers, false)
	if err != nil {
		return outcome{}, err
	}
	v["campaign.parallel_eff"] = ref.wall.Seconds() / (float64(workers) * traced.wall.Seconds())
	v["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1

	msg, _, fetch, err := checkDaemon(d, specs, ids, func(i int) ([]byte, int, error) {
		return ref.outputs[i], ref.results[i].Units(), nil
	})
	if err != nil {
		return outcome{}, err
	}
	if msg != "" {
		out.correct, out.detail = false, msg
	}
	v["service.results_ms"] = ms(median(fetch))

	// Replay a sample of the fixed campaigns' units layer by layer.
	var lt layerTimes
	appends, size := v["journal.appends"], v["journal.bytes"]
	replayed := 0
	for i, sp := range specs {
		if sp.Precision != nil || replayed == 4 {
			continue
		}
		sample := seededSample(mix(cfg.seed, 100+uint64(i)), ref.results[i].Units(), 6)
		if err := replayUnits(tr, sp, sample, filepath.Join(cfg.dir, fmt.Sprintf("journal-%d.jsonl", i)), &lt); err != nil {
			return outcome{}, err
		}
		replayed++
	}
	lt.fill(v)
	v["journal.appends"], v["journal.bytes"] = appends, size // the spool's journals, not the replay's
	v["trace.unattributed_frac"] = tr.unattributed()
	return out, nil
}

// scrapeDaemon reads every campaign's Prometheus metrics from the daemon
// and reports the pool's busy share over the window, the unit time
// quantiles and the share of executed units the campaigns folded.
func scrapeDaemon(d *daemon, ids []string, wall float64, v map[string]float64) error {
	client := oneConn()
	defer client.CloseIdleConnections()
	var busy, executed, folded float64
	var bounds []float64
	var cum []uint64
	for _, id := range ids {
		if id == "" {
			continue
		}
		resp, err := client.Get(d.url + "/v1/campaigns/" + id + "/metrics")
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var le []float64
		var counts []uint64
		for _, line := range strings.Split(string(b), "\n") {
			name, val, ok := promSample(line)
			if !ok {
				continue
			}
			switch {
			case strings.HasPrefix(name, "cosched_worker_busy_seconds_total"):
				busy += val
			case strings.HasPrefix(name, "cosched_worker_units_total"):
				executed += val
			case name == "cosched_campaign_units_done":
				folded += val
			case strings.HasPrefix(name, `cosched_unit_seconds_bucket{le="`):
				bound := strings.TrimSuffix(strings.TrimPrefix(name, `cosched_unit_seconds_bucket{le="`), `"}`)
				f, err := strconv.ParseFloat(bound, 64)
				if err != nil && bound != "+Inf" {
					continue
				}
				if bound != "+Inf" {
					le = append(le, f)
				}
				counts = append(counts, uint64(val))
			}
		}
		bounds = le
		if cum == nil {
			cum = make([]uint64, len(counts))
		}
		for i := range counts {
			cum[i] += counts[i]
		}
	}
	// Prometheus buckets are cumulative; histQuantile wants per bucket.
	per := make([]uint64, len(cum))
	for i := range cum {
		per[i] = cum[i]
		if i > 0 {
			per[i] -= cum[i-1]
		}
	}
	v["campaign.unit_ms_p50"] = 1e3 * histQuantile(bounds, per, 0.5)
	v["campaign.unit_ms_p99"] = 1e3 * histQuantile(bounds, per, 0.99)
	v["campaign.busy_frac"] = busy / (float64(runtime.NumCPU()) * wall)
	if executed > 0 {
		v["campaign.useful_frac"] = folded / executed
	}
	return nil
}

// promSample splits one Prometheus text sample line into its name (with
// labels) and value.
func promSample(line string) (string, float64, bool) {
	if line == "" || line[0] == '#' {
		return "", 0, false
	}
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	return line[:i], v, err == nil
}

// journalStats counts the unit records and bytes of the campaigns'
// fsync'd spool manifests.
func journalStats(spool string, ids []string, v map[string]float64) {
	var lines, size float64
	for _, id := range ids {
		if id == "" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(spool, id, "manifest.jsonl"))
		if err != nil {
			continue
		}
		lines += float64(bytes.Count(b, []byte("\n")) - 1) // minus the header
		size += float64(len(b))
	}
	v["journal.appends"], v["journal.bytes"] = lines, size
}
