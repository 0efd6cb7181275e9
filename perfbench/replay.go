package main

import (
	"fmt"
	"math"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// Stream identifiers of the campaign runner's per-unit seed derivation
// (rng.SubSeed(seed, stream, class or point, replicate)). The replay uses
// the same ones so that it draws the packs and faults the measured units
// drew, and so does the same work.
const (
	streamTasks  = 0x7461736b // "task"
	streamFaults = 0x66617574 // "faut"
)

// layerTimes collects the per-call timings of replayed units.
type layerTimes struct {
	generate, acquireMiss, acquireDelta, simulate, fold, appendUnit []time.Duration
	journalBytes                                                    int64
}

// replayUnits re-executes a sample of a fixed, offline spec's units one
// layer call at a time, each call in its own span under one
// campaign.unit span:
//
//	workload.Spec.Generate → model.Cache.Acquire → core.Simulator.Reset/Run
//	→ campaign.Assembler.Fold → campaign.Manifest.AppendUnit (fsync on)
//
// campaign.Run makes these calls internally, where the benchmark cannot
// time them; the replay times them from outside on a fresh cache and a
// fresh journal at journalPath.
func replayUnits(tr *tracer, sp scenario.Spec, sample []int, journalPath string, lt *layerTimes) error {
	if sp.Arrivals != nil || sp.Precision != nil {
		return fmt.Errorf("replay covers fixed offline specs only")
	}
	points, err := sp.Expand()
	if err != nil {
		return err
	}
	policies, err := sp.PolicySpecs()
	if err != nil {
		return err
	}
	semantics, err := sp.CoreSemantics()
	if err != nil {
		return err
	}
	asm, err := campaign.NewAssembler(sp)
	if err != nil {
		return err
	}
	journal, err := campaign.OpenManifest(journalPath)
	if err != nil {
		return err
	}
	defer journal.Close()
	journal.SetSync(true)
	if _, err := journal.Restore(sp, len(policies), func(int, []float64) {}, nil); err != nil {
		return err
	}
	cache := model.NewCache(model.DefaultCacheBytes)
	classes := packClasses(points)
	faultFree := true
	for _, pol := range policies {
		faultFree = faultFree && pol.FaultFree
	}
	sim := core.NewSimulator()
	run := tr.newRun()
	for _, unit := range sample {
		pi, rep := unit/sp.Replicates, unit%sp.Replicates
		pt := points[pi]
		us := tr.begin("campaign.unit", 0, run)
		genSpec := pt.Spec
		if faultFree {
			genSpec.MTBFYears, genSpec.SilentMTBFYears = 0, 0
		}
		g := tr.begin("workload.generate", us, run)
		tasks, err := genSpec.Generate(rng.New(rng.SubSeed(sp.Seed, streamTasks, uint64(classes[pi]), uint64(rep))))
		lt.generate = append(lt.generate, tr.end(g))
		if err != nil {
			return err
		}
		vals := make([]float64, len(policies))
		var cm, cmFF *model.Compiled
		var held []*model.CacheEntry
		for qi, pol := range policies {
			runSpec := pt.Spec
			var src failure.Source
			if pol.FaultFree {
				runSpec.MTBFYears, runSpec.SilentMTBFYears = 0, 0
			} else if runSpec.Lambda() > 0 {
				law, err := failure.LawForRate(sp.Failure.Law, runSpec.Lambda(), sp.Failure.Shape)
				if err != nil {
					return err
				}
				src, err = failure.NewRenewal(runSpec.P, law, rng.New(rng.SubSeed(sp.Seed, streamFaults, uint64(pt.Index), uint64(rep))))
				if err != nil {
					return err
				}
			}
			in := core.Instance{Tasks: tasks, P: runSpec.P, Res: runSpec.Resilience()}
			slot := &cm
			if pol.FaultFree {
				slot = &cmFF
			}
			if *slot == nil {
				before := cache.Stats()
				a := tr.begin("model.acquire", us, run)
				e, err := cache.Acquire(in.Tasks, in.Res, in.RC, in.P)
				if err == nil && e == nil { // profiles the cache cannot compare: compile privately
					*slot, err = model.Compile(in.Tasks, in.Res, in.RC, in.P)
				}
				d := tr.end(a)
				if err != nil {
					return err
				}
				if e != nil {
					held = append(held, e)
					*slot = e.Compiled()
				}
				after := cache.Stats()
				switch {
				case after.DeltaBuilds > before.DeltaBuilds:
					lt.acquireDelta = append(lt.acquireDelta, d)
				case after.Misses > before.Misses:
					lt.acquireMiss = append(lt.acquireMiss, d)
				}
			}
			in.Tasks = (*slot).Tasks()
			in.Compiled = *slot
			s := tr.begin("core.simulate", us, run)
			err := sim.Reset(in, pol.Policy, src, core.Options{Semantics: semantics})
			var r core.Result
			if err == nil {
				r, err = sim.Run()
			}
			lt.simulate = append(lt.simulate, tr.end(s))
			if err != nil {
				return err
			}
			vals[qi] = r.Makespan
		}
		for _, e := range held {
			e.Release()
		}
		f := tr.begin("campaign.fold", us, run)
		folded := asm.Fold(unit, vals)
		lt.fold = append(lt.fold, tr.end(f))
		if !folded {
			return fmt.Errorf("replay: unit %d refused by the assembler", unit)
		}
		j := tr.begin("journal.append", us, run)
		err = journal.AppendUnit(unit, vals)
		lt.appendUnit = append(lt.appendUnit, tr.end(j))
		if err != nil {
			return err
		}
		tr.end(us)
	}
	if err := journal.Close(); err != nil {
		return err
	}
	lt.journalBytes += fileSize(journalPath)
	return nil
}

// packClasses maps each grid point to the lowest point index whose
// workload draws the same pack: the campaign runner's pack-class rule
// (points agreeing on every field workload.Spec.Generate reads share one
// task stream per replicate).
func packClasses(points []scenario.RunPoint) []int {
	type sig struct {
		n                                         int
		mInf, mSup, seqFrac, ckptUnit, verifyUnit float64
	}
	sigOf := func(w workload.Spec) sig {
		return sig{w.N, w.MInf, w.MSup, w.SeqFraction, w.CkptUnit, w.VerifyUnit}
	}
	seen := make(map[sig]int)
	classes := make([]int, len(points))
	for i, pt := range points {
		s := sigOf(pt.Spec)
		if c, ok := seen[s]; ok {
			classes[i] = c
		} else {
			seen[s] = i
			classes[i] = i
		}
	}
	return classes
}

// packCount is how many packs a finished campaign drew: one per pack
// class and replicate, up to the most replicates any point of the class
// ran.
func packCount(res *campaign.Result) int {
	classes := packClasses(res.Points)
	reps := make(map[int]int)
	for pi, c := range classes {
		reps[c] = max(reps[c], res.Reps[pi])
	}
	n := 0
	for _, r := range reps {
		n += r
	}
	return n
}

// checkUnits re-runs a seeded sample of a fixed campaign's units through
// campaign.UnitRunner and compares every policy's makespan with the
// campaign's Result bit for bit. It returns a description of the first
// mismatch, or "".
func checkUnits(sp scenario.Spec, res *campaign.Result, seed uint64, k int) (string, error) {
	ur, err := campaign.NewUnitRunner(sp)
	if err != nil {
		return "", err
	}
	defer ur.Close()
	nm := ur.ValsPerUnit() / ur.Policies()
	for _, unit := range seededSample(seed, ur.TotalUnits(), k) {
		vals, err := ur.RunUnit(unit)
		if err != nil {
			return "", err
		}
		pi, rep := unit/sp.Replicates, unit%sp.Replicates
		for qi := 0; qi < ur.Policies(); qi++ {
			got, want := vals[qi*nm+campaign.MetricMakespan], res.Makespans[pi][qi][rep]
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("%s unit %d policy %d: UnitRunner makespan %v, campaign result %v", sp.Name, unit, qi, got, want), nil
			}
		}
	}
	return "", nil
}
