package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/experiments"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// batchDef is an in-process workload: a fixed set of campaigns run one
// after the other through campaign.Run, each on a fresh model cache.
type batchDef struct {
	specs func(seed uint64, tiny bool) ([]scenario.Spec, error)
	// checkUnits is how many units of each campaign the output oracle
	// re-runs through campaign.UnitRunner; replayUnits how many the traced
	// run replays layer by layer.
	checkUnits, replayUnits int
}

// paperFigs: the paper's Figures 8, 10, 12, 13a and 14 at paper scale
// (shrink 1) with all six policies, fixed replicates.
var paperFigs = batchDef{
	specs: func(seed uint64, tiny bool) ([]scenario.Spec, error) {
		figs, pr := []string{"8", "10", "12", "13a", "14"}, experiments.Params{Reps: 3, Shrink: 1}
		if tiny {
			figs, pr = []string{"8", "10"}, experiments.Params{Reps: 1, Shrink: 0.05}
		}
		var out []scenario.Spec
		for i, id := range figs {
			pr.Seed = mix(seed, uint64(i)) | 1 // experiments treats seed 0 as "default"
			sp, err := experiments.FigureScenario(id, pr)
			if err != nil {
				return nil, err
			}
			out = append(out, sp)
		}
		return out, nil
	},
	checkUnits:  3,
	replayUnits: 6,
}

// heteroSweep: one heterogeneous pack class (n=50, P=600, mild failures)
// over an MTBF × downtime grid with the two cheapest policies, so that
// compiled-model recompiles, not simulation, dominate.
var heteroSweep = batchDef{
	specs: func(seed uint64, tiny bool) ([]scenario.Spec, error) {
		w := workload.Heterogeneous()
		w.N, w.P, w.MTBFYears = 50, 600, 100
		sp := scenario.Spec{
			Name:       "hetero-sweep",
			Workload:   w,
			Policies:   []string{"norc", "ff-norc"},
			Base:       "norc",
			Replicates: 32,
			Seed:       mix(seed, 11),
			Axes: []scenario.Axis{
				{Param: scenario.ParamMTBF, Values: []float64{50, 70, 100, 140, 200, 280}},
				{Param: scenario.ParamDowntime, Values: []float64{30, 60, 90, 120, 180, 240}},
			},
		}
		if tiny {
			sp.Workload.N, sp.Workload.P, sp.Replicates = 8, 80, 2
			sp.Axes[0].Values, sp.Axes[1].Values = []float64{50, 100}, []float64{30, 60}
		}
		return []scenario.Spec{sp}, nil
	},
	checkUnits:  8,
	replayUnits: 24,
}

// inputVariants is how many input sets an untraced batch run derives
// from its seed; its passes cycle through them. A campaign's memory
// high-water mark hangs on where the garbage collector's last cycle falls
// in the campaign's allocations, which shifts from one input to the next
// by up to a third, so a run's median spans several inputs.
const inputVariants = 4

// variantSeed is the seed of a run's input set v. Traced runs use set 0.
func variantSeed(seed uint64, v int) uint64 { return mix(seed, 0x5eed+uint64(v)) }

// load renders input set v of the run's seed as spec files.
func (d batchDef) load(cfg config, v int) ([][]byte, error) {
	specs, err := d.specs(variantSeed(cfg.seed, v), cfg.tiny)
	if err != nil {
		return nil, err
	}
	return encodeSpecs(specs)
}

// encodeSpecs renders specs as the JSON files a user would submit.
func encodeSpecs(specs []scenario.Spec) ([][]byte, error) {
	raws := make([][]byte, len(specs))
	for i, sp := range specs {
		var b bytes.Buffer
		if err := sp.Encode(&b); err != nil {
			return nil, err
		}
		raws[i] = b.Bytes()
	}
	return raws, nil
}

// prepare decodes, validates and expands one spec file: what a user
// pays before campaign.Run schedules the first unit.
func prepare(tr *tracer, raw []byte) (scenario.Spec, error) {
	s := tr.begin("scenario.prepare", 0, tr.newRun())
	defer tr.end(s)
	sp, err := scenario.Decode(bytes.NewReader(raw))
	if err != nil {
		return sp, err
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	_, err = sp.Expand()
	return sp, err
}

// measureSetup prepares every spec n times, appending the time of each
// full preparation to samples, and returns the specs. It starts on a
// settled heap, as a user's fresh process would, so that no collection of
// the previous pass's garbage runs while it is timed.
func measureSetup(tr *tracer, raws [][]byte, n int, samples *[]float64) ([]scenario.Spec, error) {
	settle()
	specs := make([]scenario.Spec, len(raws))
	for k := 0; k < n; k++ {
		t := time.Now()
		for i, raw := range raws {
			sp, err := prepare(tr, raw)
			if err != nil {
				return nil, err
			}
			specs[i] = sp
		}
		*samples = append(*samples, time.Since(t).Seconds())
	}
	return specs, nil
}

// setupsPerPass is how many times a batch run times its set-up before
// each pass.
const setupsPerPass = 10

// pass is one execution of a batch workload's campaigns.
type pass struct {
	wall, cpu time.Duration
	rss       float64         // resident-set high-water mark of the pass, MB
	done      []time.Duration // per campaign: Run called → JSONL written
	units     int
	outputs   [][]byte
	results   []*campaign.Result
	snaps     []obs.Snapshot // with telemetry on
	caches    []model.CacheStats
}

// runPass runs every spec through campaign.Run on a fresh model cache
// and writes each result's JSONL into the run directory. Each campaign
// starts on a settled heap and is timed on its own, so that neither its
// time nor its memory high-water mark depends on where the garbage
// collector stood when the previous campaign ended.
func runPass(cfg config, tr *tracer, specs []scenario.Spec, workers int, telemetry bool) (pass, error) {
	var p pass
	for i, sp := range specs {
		settle()
		cpu0 := cpuTime()
		c0 := time.Now()
		opt := campaign.Options{Workers: workers, ModelCache: model.NewCache(model.DefaultCacheBytes)}
		if telemetry {
			opt.Metrics = obs.NewCampaign()
		}
		s := tr.begin("campaign.run", 0, tr.newRun())
		res, err := campaign.Run(sp, opt)
		tr.end(s)
		if err != nil {
			return p, fmt.Errorf("campaign %s: %w", sp.Name, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSONL(&buf); err != nil {
			return p, err
		}
		if err := os.WriteFile(filepath.Join(cfg.dir, fmt.Sprintf("result-%d.jsonl", i)), buf.Bytes(), 0o644); err != nil {
			return p, err
		}
		done := time.Since(c0)
		p.done = append(p.done, done)
		p.wall += done
		p.cpu += cpuTime() - cpu0
		p.rss = max(p.rss, peakRSSMB(false))
		p.units += res.Units()
		p.outputs = append(p.outputs, buf.Bytes())
		p.results = append(p.results, res)
		if telemetry {
			p.snaps = append(p.snaps, opt.Metrics.Snapshot())
		}
		p.caches = append(p.caches, opt.ModelCache.Stats())
	}
	return p, nil
}

// sameOutputs reports the first campaign whose JSONL differs between
// two passes of the same specs, or "".
func sameOutputs(a, b pass) string {
	for i := range a.outputs {
		if !bytes.Equal(a.outputs[i], b.outputs[i]) {
			return fmt.Sprintf("campaign %d: JSONL differs between two runs of the same spec", i)
		}
	}
	return ""
}

// checkBatch re-runs a sample of every campaign's units through
// campaign.UnitRunner against the pass's results.
func checkBatch(cfg config, def batchDef, specs []scenario.Spec, p pass) (string, error) {
	for i, sp := range specs {
		msg, err := checkUnits(sp, p.results[i], mix(cfg.seed, 7+uint64(i)), def.checkUnits)
		if err != nil || msg != "" {
			return msg, err
		}
	}
	return "", nil
}

func runBatch(def batchDef) runner {
	return func(cfg config, _ *tracer) (outcome, error) {
		raws := make([][][]byte, inputVariants)
		specs := make([][]scenario.Spec, inputVariants)
		var setups []float64
		for v := range raws {
			var err error
			if raws[v], err = def.load(cfg, v); err != nil {
				return outcome{}, err
			}
			if specs[v], err = measureSetup(nil, raws[v], setupsPerPass, &setups); err != nil {
				return outcome{}, err
			}
		}
		out := outcome{correct: true}
		workers := runtime.NumCPU()
		deadline := cfg.deadline(time.Now())
		first := make([]pass, inputVariants)
		var walls, rates, cpus, rss []float64
		for i := 0; i < inputVariants || time.Now().Before(deadline); i++ {
			v := i % inputVariants
			// Set-up is sampled between passes, so its median spans the run.
			if _, err := measureSetup(nil, raws[v], setupsPerPass, &setups); err != nil {
				return outcome{}, err
			}
			p, err := runPass(cfg, nil, specs[v], workers, false)
			if err != nil {
				return outcome{}, err
			}
			out.attempted += p.units
			if i < inputVariants {
				first[v] = p
			} else if msg := sameOutputs(first[v], p); msg != "" && out.correct {
				out.correct, out.detail = false, msg
			}
			walls = append(walls, p.wall.Seconds())
			rates = append(rates, float64(p.units)/p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			rss = append(rss, p.rss)
		}
		for v := range first {
			msg, err := checkBatch(cfg, def, specs[v], first[v])
			if err != nil {
				return outcome{}, err
			}
			if msg != "" && out.correct {
				out.correct, out.detail = false, msg
			}
		}
		out.values = map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      median(walls),
			"units_per_s": median(rates),
			"peak_rss_mb": median(rss),
			"cpu_s":       median(cpus),
		}
		return out, nil
	}
}

func tracedBatch(def batchDef) runner {
	return func(cfg config, tr *tracer) (outcome, error) {
		raws, err := def.load(cfg, 0)
		if err != nil {
			return outcome{}, err
		}
		specs, err := measureSetup(tr, raws, setupsPerPass, new([]float64))
		if err != nil {
			return outcome{}, err
		}
		v := map[string]float64{}
		v["scenario.prepare_ms"] = ms(median(seconds(tr.durations("scenario.prepare"))))
		out := outcome{correct: true, values: v}

		// One worker with telemetry on: the exact counters, and the
		// single-worker wall that parallel efficiency divides by.
		ref, err := runPass(cfg, nil, specs, 1, true)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += ref.units
		fillReference(v, ref.results, ref.snaps, ref.caches)

		// Traced (telemetry and spans on) and plain passes alternate.
		workers := runtime.NumCPU()
		deadline := cfg.deadline(time.Now())
		var traced, plain []float64
		var last pass
		for i := 0; i < 2 || time.Now().Before(deadline); i++ {
			on := i%2 == 0
			run := tr
			if !on {
				run = nil
			}
			p, err := runPass(cfg, run, specs, workers, on)
			if err != nil {
				return outcome{}, err
			}
			out.attempted += p.units
			if msg := sameOutputs(ref, p); msg != "" && out.correct {
				out.correct, out.detail = false, msg
			}
			if on {
				traced = append(traced, p.wall.Seconds())
				last = p
			} else {
				plain = append(plain, p.wall.Seconds())
			}
		}
		fillCampaign(v, last.snaps, last.done, workers)
		v["campaign.parallel_eff"] = ref.wall.Seconds() / (float64(workers) * median(traced))
		v["trace.overhead_frac"] = median(traced)/median(plain) - 1

		var lt layerTimes
		for i, sp := range specs {
			sample := seededSample(mix(cfg.seed, 100+uint64(i)), len(ref.results[i].Points)*sp.Replicates, def.replayUnits)
			if err := replayUnits(tr, sp, sample, filepath.Join(cfg.dir, fmt.Sprintf("journal-%d.jsonl", i)), &lt); err != nil {
				return outcome{}, err
			}
		}
		lt.fill(v)
		v["trace.unattributed_frac"] = tr.unattributed()

		msg, err := checkBatch(cfg, def, specs, ref)
		if err != nil {
			return outcome{}, err
		}
		if msg != "" && out.correct {
			out.correct, out.detail = false, msg
		}
		return out, nil
	}
}

// fillReference reports the exact counters of a single-worker pass:
// simulator totals from the obs snapshots, cache counters from each
// campaign's private model cache, and the packs the campaigns drew.
func fillReference(v map[string]float64, results []*campaign.Result, snaps []obs.Snapshot, caches []model.CacheStats) {
	var sim obs.SimTotals
	var cs model.CacheStats
	packs := 0
	for i, res := range results {
		s := snaps[i].Sim
		sim.Events += s.Events
		sim.Decisions += s.Decisions
		sim.CandidateEvals += s.CandidateEvals
		sim.Redistributions += s.Redistributions
		sim.Failures += s.Failures
		c := caches[i]
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.DeltaBuilds += c.DeltaBuilds
		cs.Evictions += c.Evictions
		cs.ResidentBytes = max(cs.ResidentBytes, c.ResidentBytes)
		packs += packCount(res)
	}
	v["workload.packs"] = float64(packs)
	v["core.events"] = float64(sim.Events)
	v["core.decisions"] = float64(sim.Decisions)
	v["core.candidate_evals"] = float64(sim.CandidateEvals)
	v["core.redistributions"] = float64(sim.Redistributions)
	v["core.failures"] = float64(sim.Failures)
	if sim.Decisions > 0 {
		v["core.evals_per_decision"] = float64(sim.CandidateEvals) / float64(sim.Decisions)
	}
	v["model.hits"] = float64(cs.Hits)
	v["model.misses"] = float64(cs.Misses)
	v["model.delta_builds"] = float64(cs.DeltaBuilds)
	v["model.evictions"] = float64(cs.Evictions)
	if n := cs.Hits + cs.Misses; n > 0 {
		v["model.hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	v["model.resident_mb"] = float64(cs.ResidentBytes) / (1 << 20)
}

// fillCampaign reports the campaign runner's own telemetry from a pass
// run with telemetry on: unit time quantiles, how busy the workers were
// over the campaigns' wall time, and the share of executed units folded.
func fillCampaign(v map[string]float64, snaps []obs.Snapshot, done []time.Duration, workers int) {
	var busy, wall float64
	var executed, folded uint64
	var bounds []float64
	var counts []uint64
	for i, s := range snaps {
		for _, w := range s.Workers {
			busy += w.BusySeconds
		}
		wall += done[i].Seconds()
		executed += s.UnitsExecuted
		folded += uint64(s.UnitsDone)
		bounds = s.UnitSeconds.Bounds
		if counts == nil {
			counts = make([]uint64, len(s.UnitSeconds.Counts))
		}
		for j, c := range s.UnitSeconds.Counts {
			counts[j] += c
		}
	}
	v["campaign.unit_ms_p50"] = 1e3 * histQuantile(bounds, counts, 0.5)
	v["campaign.unit_ms_p99"] = 1e3 * histQuantile(bounds, counts, 0.99)
	if wall > 0 {
		v["campaign.busy_frac"] = busy / (float64(workers) * wall)
	}
	if executed > 0 {
		v["campaign.useful_frac"] = float64(folded) / float64(executed)
	}
}

// fill reports the replayed layer timings.
func (lt *layerTimes) fill(v map[string]float64) {
	v["workload.generate_ms"] = ms(median(seconds(lt.generate)))
	v["model.acquire_miss_ms_p50"] = ms(quantile(seconds(lt.acquireMiss), 0.5))
	v["model.acquire_miss_ms_p99"] = ms(quantile(seconds(lt.acquireMiss), 0.99))
	v["model.acquire_delta_ms_p50"] = ms(quantile(seconds(lt.acquireDelta), 0.5))
	v["model.acquire_delta_ms_p99"] = ms(quantile(seconds(lt.acquireDelta), 0.99))
	v["core.sim_us_p50"] = 1e6 * quantile(seconds(lt.simulate), 0.5)
	v["core.sim_us_p99"] = 1e6 * quantile(seconds(lt.simulate), 0.99)
	v["campaign.fold_us"] = 1e6 * median(seconds(lt.fold))
	v["journal.append_us_p50"] = 1e6 * quantile(seconds(lt.appendUnit), 0.5)
	v["journal.append_us_p99"] = 1e6 * quantile(seconds(lt.appendUnit), 0.99)
	v["journal.appends"] += float64(len(lt.appendUnit))
	v["journal.bytes"] += float64(lt.journalBytes)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(s float64) float64 { return 1e3 * s }
