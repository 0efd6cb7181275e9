// Compiled-model sharing across campaign units: pack classes, the
// per-campaign pack memo, and the process-global content-addressed
// cache of compiled instance models (model.Cache). Compiled tables are
// shared across every point, replicate and campaign that provably needs
// the same tables — with bit-identical results by construction (see
// DESIGN.md §15).
package campaign

import (
	"os"
	"sync"

	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// defaultModelCache is the process-global compiled-model cache. Like
// workerStatePool it deliberately outlives individual Runs: drivers that
// execute many campaigns over the same workloads (adaptive batches,
// cmd/bench, parameter sweeps, policy-search rollouts) hit warm tables
// across Run boundaries. Each insert evicts FIFO down to
// DefaultCacheBytes among tables no unit holds, so a long-lived daemon
// keeps at most its budget plus the tables held at each shard's last
// insert.
var defaultModelCache = model.NewCache(model.DefaultCacheBytes)

// ModelCacheStats returns the process-global cache's counters — the
// hook cmd/campaign's summary line and tests use. Callers wanting
// per-run numbers snapshot before and after and Delta the two.
func ModelCacheStats() model.CacheStats { return defaultModelCache.Stats() }

// modelCache resolves the cache a run uses: the COSCHED_MODEL_CACHE
// environment gate ("off"/"0"/"false" disables, checked per run so tests
// and CI smokes can toggle it — it is the one switch that also reaches
// worker processes), then an injected cache, then the process default.
func modelCache(injected *model.Cache) *model.Cache {
	switch os.Getenv("COSCHED_MODEL_CACHE") {
	case "off", "0", "false":
		return nil
	}
	if injected != nil {
		return injected
	}
	return defaultModelCache
}

// cacheObs converts model-cache counters to their obs mirror type.
func cacheObs(s model.CacheStats) obs.ModelCacheStats {
	return obs.ModelCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		DeltaBuilds:   s.DeltaBuilds,
		Evictions:     s.Evictions,
		ResidentBytes: s.ResidentBytes,
		Entries:       s.Entries,
	}
}

// genSignature is exactly the set of workload.Spec fields that determine
// the task pack Generate draws — the pack-class key. Grid points whose
// specs agree on these fields draw identical packs from identical
// streams; everything else (MTBF, downtime, rule, silent rate, P) shapes
// the resilience parameters, not the draw.
type genSignature struct {
	n           int
	mInf, mSup  float64
	seqFraction float64
	ckptUnit    float64
	verifyUnit  float64
}

func genSigOf(sp workload.Spec) genSignature {
	return genSignature{
		n:           sp.N,
		mInf:        sp.MInf,
		mSup:        sp.MSup,
		seqFraction: sp.SeqFraction,
		ckptUnit:    sp.CkptUnit,
		verifyUnit:  sp.VerifyUnit,
	}
}

// packClasses maps every grid point to its pack class: the lowest point
// index with the same generation signature. Replicate r of every point
// in a class draws its pack from the class's task stream, so an α-, D-,
// rule- or MTBF-only sweep provably reuses one pack per replicate
// across the whole axis (common random numbers across points, not just
// across policies).
func packClasses(points []scenario.RunPoint) []int {
	classes := make([]int, len(points))
	seen := make(map[genSignature]int, len(points))
	for i, pt := range points {
		sig := genSigOf(pt.Spec)
		if c, ok := seen[sig]; ok {
			classes[i] = c
		} else {
			seen[sig] = i
			classes[i] = i
		}
	}
	return classes
}

// classCovers maps every grid point to its pack class's cover: the
// largest platform size among the class's points. A compiled cell
// depends on the task and the resilience parameters, never on P, so a
// table compiled at the cover serves every smaller size of the class as
// a view (model.CacheEntry.View): a platform axis compiles each pack
// once, and a grid with one platform size has cover == P.
func classCovers(points []scenario.RunPoint, classes []int) []int {
	byClass := make(map[int]int, len(points))
	for i, pt := range points {
		byClass[classes[i]] = max(byClass[classes[i]], pt.Spec.P)
	}
	covers := make([]int, len(points))
	for i := range points {
		covers[i] = byClass[classes[i]]
	}
	return covers
}

// unitModels is the campaign-scoped model-sharing state handed to every
// worker: the pack-class and cover tables, a memo of generated packs
// keyed by (class, replicate), and the compiled-model cache (nil when
// disabled). Every unit of a (class, replicate) holds the memo's one
// []model.Task, so its cache probes take the same-slice fast path and
// the simulator's own table survives from unit to unit.
type unitModels struct {
	cache   *model.Cache
	classes []int
	covers  []int

	mu    sync.Mutex
	packs map[packKey][]model.Task
}

type packKey struct{ class, rep int }

func newUnitModels(points []scenario.RunPoint, cache *model.Cache) *unitModels {
	classes := packClasses(points)
	return &unitModels{
		cache:   cache,
		classes: classes,
		covers:  classCovers(points, classes),
		packs:   make(map[packKey][]model.Task),
	}
}

// packFor returns the memoised task pack of (point pi, replicate rep),
// generating it on first use from the point's class stream. genSpec is
// the caller's already-validated generation spec (the point's workload
// with the fault fields zeroed for fault-free-only scenarios); points
// of one class agree on every field Generate reads, so whichever point
// generates first, the bytes are the same. ws provides the reseedable
// RNG arena.
func (um *unitModels) packFor(ws *workerState, seed uint64, genSpec workload.Spec, pi, rep int) ([]model.Task, error) {
	class := um.classes[pi]
	key := packKey{class: class, rep: rep}
	um.mu.Lock()
	if tasks, ok := um.packs[key]; ok {
		um.mu.Unlock()
		return tasks, nil
	}
	um.mu.Unlock()

	// Generate outside the lock (two workers may race; the memo re-check
	// below keeps exactly one canonical pack).
	ws.taskRNG.Reseed(rng.SubSeed(seed, streamTasks, uint64(class), uint64(rep)))
	tasks, err := genSpec.Generate(ws.taskRNG)
	if err != nil {
		return nil, err
	}

	um.mu.Lock()
	defer um.mu.Unlock()
	if cached, ok := um.packs[key]; ok {
		return cached, nil
	}
	um.packs[key] = tasks
	return tasks, nil
}
