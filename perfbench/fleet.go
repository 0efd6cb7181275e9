package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/dist"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/retry"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// fleetSpec is a fixed grid of small units (n=32, P=256, about 1.4 ms
// of CPU each), so that the per-unit cost of the dist protocol is a
// visible share of the wall time. Much smaller units would make a pass a
// stream of cross-process wake-ups, each of which leaves a processor
// idle; on a shared virtual machine how long an idle processor takes to
// come back follows the host's load, not the program.
func fleetSpec(seed uint64, tiny bool) scenario.Spec {
	w := workload.Default()
	w.N, w.P, w.MTBFYears = 32, 256, 20
	sp := scenario.Spec{
		Name:       "fleet",
		Workload:   w,
		Policies:   []string{"norc", "ig-el"},
		Base:       "norc",
		Replicates: 128,
		Seed:       mix(seed, 21),
		Axes:       []scenario.Axis{{Param: scenario.ParamMTBF, Values: []float64{10, 20, 40, 80, 160, 320}}},
	}
	if tiny {
		sp.Replicates = 4
		sp.Axes[0].Values = []float64{10, 40}
	}
	return sp
}

// timedSpawner wraps the real process spawner: it times every Spawn and
// notes when each worker's first message — its "ready" line, sent once
// it holds the spec — arrives.
type timedSpawner struct {
	inner dist.Spawner
	tr    *tracer
	run   int

	mu     sync.Mutex
	spawns []time.Duration
	ready  []time.Time
}

func (s *timedSpawner) Spawn(slot int) (*dist.WorkerProc, error) {
	id := s.tr.begin("dist.spawn", 0, s.run)
	t := time.Now()
	wp, err := s.inner.Spawn(slot)
	d := time.Since(t)
	s.tr.end(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.spawns = append(s.spawns, d)
	s.ready = append(s.ready, time.Time{})
	i := len(s.ready) - 1
	s.mu.Unlock()
	wp.Out = &firstRead{ReadCloser: wp.Out, on: func() {
		s.mu.Lock()
		s.ready[i] = time.Now()
		s.mu.Unlock()
	}}
	return wp, nil
}

// firstReady returns when the first worker became ready.
func (s *timedSpawner) firstReady() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first time.Time
	for _, t := range s.ready {
		if !t.IsZero() && (first.IsZero() || t.Before(first)) {
			first = t
		}
	}
	return first, !first.IsZero()
}

// firstRead calls on once, when the first bytes arrive.
type firstRead struct {
	io.ReadCloser
	once sync.Once
	on   func()
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 {
		f.once.Do(f.on)
	}
	return n, err
}

// fleetRun is one distributed execution of the fleet spec.
type fleetRun struct {
	setup, wall, cpu time.Duration
	rss              float64 // coordinator's high-water mark plus the largest worker's, MB
	units            int
	output           []byte
	spawns           []time.Duration
	snap             obs.Snapshot
	logLines         int
	logBytes         int64
}

// respawnDelay is the first respawn backoff after a worker death.
const respawnDelay = 5 * time.Millisecond

// fleetPass prepares the spec and runs it with dist.Run on real
// campaignw processes, with a fresh manifest as the coordination log (in
// its default, unsynced mode, as cmd/campaign opens it), dist's default
// four-unit leases and one deterministic worker kill. The dead seat is
// respawned after respawnDelay rather than the default 100 ms backoff,
// so the pass times the respawn itself instead of an idle timer.
func fleetPass(cfg config, tr *tracer, raw []byte, n, kill int, telemetry bool) (fleetRun, error) {
	settle()
	var fr fleetRun
	cpu0 := cpuTime()
	t0 := time.Now()
	sp, err := prepare(tr, raw)
	if err != nil {
		return fr, err
	}
	logPath := filepath.Join(cfg.dir, fmt.Sprintf("fleet-%d.log", n))
	man, err := campaign.OpenManifest(logPath)
	if err != nil {
		return fr, err
	}
	defer man.Close()
	spawner := &timedSpawner{inner: &dist.ProcSpawner{Path: cfg.campaignw, Stderr: io.Discard}, tr: tr, run: tr.newRun()}
	opt := dist.Options{
		Workers:    runtime.NumCPU(),
		Spawner:    spawner,
		Manifest:   man,
		KillAtUnit: kill,
		Backoff:    retry.NewBackoff(respawnDelay, 5*time.Second, nil),
	}
	if telemetry {
		opt.Metrics = obs.NewCampaign()
	}
	s := tr.begin("dist.run", 0, spawner.run)
	res, err := dist.Run(sp, opt)
	tr.end(s)
	if err != nil {
		return fr, fmt.Errorf("dist.Run: %w", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSONL(&buf); err != nil {
		return fr, err
	}
	if err := os.WriteFile(filepath.Join(cfg.dir, "fleet.jsonl"), buf.Bytes(), 0o644); err != nil {
		return fr, err
	}
	end := time.Now()
	ready, ok := spawner.firstReady()
	if !ok {
		return fr, fmt.Errorf("no worker ever became ready")
	}
	fr.setup, fr.wall = ready.Sub(t0), end.Sub(ready)
	fr.cpu = cpuTime() - cpu0
	fr.rss = peakRSSMB(true)
	fr.units = res.Units()
	fr.output = buf.Bytes()
	fr.spawns = spawner.spawns
	if telemetry {
		fr.snap = opt.Metrics.Snapshot()
	}
	if err := man.Close(); err != nil {
		return fr, err
	}
	if b, err := os.ReadFile(logPath); err == nil {
		fr.logLines = strings.Count(string(b), "\n")
		fr.logBytes = int64(len(b))
	}
	return fr, os.Remove(logPath)
}

// inProcessJSONL runs the spec through campaign.Run with nproc workers
// on a fresh cache: the single-process output a distributed or daemon
// run of the same spec must match byte for byte.
func inProcessJSONL(sp scenario.Spec, workers int) ([]byte, int, error) {
	res, err := campaign.Run(sp, campaign.Options{Workers: workers, ModelCache: model.NewCache(model.DefaultCacheBytes)})
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSONL(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), res.Units(), nil
}

func fleetInputs(cfg config) (scenario.Spec, []byte, int, error) {
	if cfg.campaignw == "" {
		return scenario.Spec{}, nil, 0, fmt.Errorf("the fleet workload needs --campaignw")
	}
	sp := fleetSpec(cfg.seed, cfg.tiny)
	raws, err := encodeSpecs([]scenario.Spec{sp})
	if err != nil {
		return sp, nil, 0, err
	}
	// Kill mid-campaign, so that every seed pays one death detection,
	// respawn and reassignment with about half the units still to run.
	units := len(sp.Axes[0].Values) * sp.Replicates
	kill := units/2 + int(mix(cfg.seed, 22)%uint64(units/8+1))
	return sp, raws[0], kill, nil
}

func runFleet(cfg config, _ *tracer) (outcome, error) {
	sp, raw, kill, err := fleetInputs(cfg)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{correct: true}
	deadline := cfg.deadline(time.Now())
	var first fleetRun
	var setups, walls, cpus, rss []float64
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		fr, err := fleetPass(cfg, nil, raw, i, kill, false)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += fr.units
		if i == 0 {
			first = fr
		} else if !bytes.Equal(fr.output, first.output) && out.correct {
			out.correct, out.detail = false, "fleet JSONL differs between two runs of the same spec"
		}
		setups = append(setups, fr.setup.Seconds())
		walls = append(walls, fr.wall.Seconds())
		cpus = append(cpus, fr.cpu.Seconds())
		rss = append(rss, fr.rss)
	}
	want, _, err := inProcessJSONL(sp, runtime.NumCPU())
	if err != nil {
		return outcome{}, err
	}
	if !bytes.Equal(first.output, want) && out.correct {
		out.correct, out.detail = false, "fleet JSONL differs from the in-process campaign.Run output"
	}
	wall := median(walls)
	out.values = map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      wall,
		"units_per_s": float64(first.units) / wall,
		"peak_rss_mb": median(rss),
		"cpu_s":       median(cpus),
	}
	return out, nil
}

func tracedFleet(cfg config, tr *tracer) (outcome, error) {
	sp, raw, kill, err := fleetInputs(cfg)
	if err != nil {
		return outcome{}, err
	}
	v := map[string]float64{}
	out := outcome{correct: true, values: v}
	workers := runtime.NumCPU()

	// In process: the exact counters (one worker), then the nproc-worker
	// wall the fleet's protocol overhead is measured against.
	ref, err := runPass(cfg, nil, []scenario.Spec{sp}, 1, true)
	if err != nil {
		return outcome{}, err
	}
	out.attempted += ref.units
	fillReference(v, ref.results, ref.snaps, ref.caches)
	var local []float64
	for i := 0; i < 3; i++ {
		p, err := runPass(cfg, nil, []scenario.Spec{sp}, workers, i == 0)
		if err != nil {
			return outcome{}, err
		}
		if i == 0 {
			fillCampaign(v, p.snaps, p.done, workers)
			v["campaign.parallel_eff"] = ref.wall.Seconds() / (float64(workers) * p.wall.Seconds())
		}
		local = append(local, p.wall.Seconds())
	}

	// A pass without the kill: its lease count depends on the unit count
	// and lease size alone, so it repeats exactly. (With a kill, how many
	// units the dead worker's lease still held depends on timing.)
	calm, err := fleetPass(cfg, nil, raw, -1, 0, true)
	if err != nil {
		return outcome{}, err
	}
	out.attempted += calm.units
	if !bytes.Equal(calm.output, ref.outputs[0]) {
		out.correct, out.detail = false, "fleet JSONL differs from the in-process campaign.Run output"
	}

	deadline := cfg.deadline(time.Now())
	var traced, plain []float64
	var last fleetRun
	var spawns []float64
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		on := i%2 == 0
		run := tr
		if !on {
			run = nil
		}
		fr, err := fleetPass(cfg, run, raw, i, kill, on)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += fr.units
		if !bytes.Equal(fr.output, ref.outputs[0]) && out.correct {
			out.correct, out.detail = false, "fleet JSONL differs from the in-process campaign.Run output"
		}
		if on {
			traced = append(traced, fr.wall.Seconds())
			last = fr
			spawns = append(spawns, seconds(fr.spawns)...)
		} else {
			plain = append(plain, fr.wall.Seconds())
		}
	}
	d := last.snap.Dist
	units := float64(last.units)
	v["dist.spawn_ms"] = ms(median(spawns))
	v["dist.leases"] = float64(calm.snap.Dist.LeasesGranted)
	v["dist.heartbeats"] = float64(d.Heartbeats)
	v["dist.reassignments"] = float64(d.Reassignments)
	v["dist.useful_frac"] = units / (units + float64(d.Reassignments))
	v["dist.overhead_us_per_unit"] = 1e6 * (median(plain) - median(local)) / units
	v["trace.overhead_frac"] = median(traced)/median(plain) - 1
	v["scenario.prepare_ms"] = ms(median(seconds(tr.durations("scenario.prepare"))))

	var lt layerTimes
	sample := seededSample(mix(cfg.seed, 100), int(units), 24)
	if err := replayUnits(tr, sp, sample, filepath.Join(cfg.dir, "journal.jsonl"), &lt); err != nil {
		return outcome{}, err
	}
	lt.fill(v)
	// The coordination log is the fleet's real journal: one header line,
	// then unit and lease records.
	v["journal.appends"] = float64(last.logLines - 1)
	v["journal.bytes"] = float64(last.logBytes)
	v["trace.unattributed_frac"] = tr.unattributed()
	return out, nil
}
