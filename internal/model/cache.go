package model

import (
	"math"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes is the default resident-byte budget of a Cache:
// enough for hundreds of paper-scale tables (n = 100, p = 1000 is
// ~450 KB) without threatening a laptop.
const DefaultCacheBytes = 1 << 28 // 256 MiB

// cacheShardCount spreads the cache over independently locked shards.
// Sharding is by base key (pack, cost model, platform), so every
// resilience variant of one pack lands in one shard and a miss can scan
// its shard for a delta base without a second lock.
const cacheShardCount = 16

// Cache is a content-addressed, ref-counted cache of compiled instance
// models, shared by every campaign worker in the process. The key is
// (task-pack content, Resilience, CostModel, P): a cheap structural hash
// buckets candidates, and every hit is confirmed by an exact content
// compare — hash collisions cost a compare, never a wrong table.
//
// Entries are frozen at publish: Acquire hands out read-only *Compiled
// handles whose in-place rebuild methods panic. A near-miss — same pack,
// platform and cost model, different resilience parameters — is built by
// Compiled.RecompileDelta from the resident base entry that needs the
// fewest rebuilt columns: the new table shares every column the
// parameter change cannot reach and owns only the rebuilt ones, and is
// bit-identical to a cold Compile (the cache's whole contract; see
// DESIGN.md §15). Because columns are shared, tables are never recycled:
// an evicted entry's arrays stay alive, through the garbage collector,
// for as long as any live table aliases them. Packs containing profile
// types this package cannot compare by content are refused (Acquire
// returns nil) and the caller compiles privately.
//
// A nil *Cache is valid and never caches.
type Cache struct {
	shardBudget int64
	shards      [cacheShardCount]cacheShard

	hits        atomic.Uint64
	misses      atomic.Uint64
	deltaBuilds atomic.Uint64
	fullBuilds  atomic.Uint64
	evictions   atomic.Uint64
	bytes       atomic.Int64
	entries     atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	// full buckets entries by the full key (pack, rc, p, res); base
	// buckets the same entries by the base key (pack, rc, p) for
	// delta-base lookups. Buckets are small slices: collisions are rare
	// and every candidate is verified by content anyway.
	full  map[uint64][]*CacheEntry
	base  map[uint64][]*CacheEntry
	order []*CacheEntry // insertion order, the FIFO eviction scan
	bytes int64
	// building holds one channel per base key with a build in flight,
	// closed on publish: a concurrent miss over the same pack waits for
	// it, then finds either its own key (a hit, not a duplicate compile)
	// or a delta base (a column rewrite, not a cold compile). Builds
	// over one pack therefore serialize, and the hit/miss/delta counts
	// are a function of the keys requested, not of thread timing.
	building map[uint64]chan struct{}
}

// CacheEntry is one published compiled model plus its refcount. The
// tables behind Compiled() are frozen: Recompile, RecompileFaultFree,
// RecompileDelta, AppendTask and TruncateExtra on them panic.
type CacheEntry struct {
	cache   *Cache
	shard   *cacheShard
	c       *Compiled
	fullKey uint64
	baseKey uint64
	bytes   int64
	// refs is guarded by shard.mu: 1 for cache residency plus 1 per
	// outstanding Acquire. Eviction drops the residency ref only when no
	// user holds the entry.
	refs int
}

// Compiled returns the entry's immutable compiled model.
func (e *CacheEntry) Compiled() *Compiled { return e.c }

// CacheStats is a point-in-time counter snapshot. The counters are
// cumulative over the cache's lifetime; ResidentBytes and Entries are
// levels.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	DeltaBuilds   uint64 // misses served by RecompileDelta's column reuse
	FullBuilds    uint64 // misses that paid a cold compile
	Evictions     uint64
	ResidentBytes int64
	Entries       int64
}

// Delta returns the counter difference s − prev, keeping the level
// fields (ResidentBytes, Entries) at their current values — the shape a
// per-campaign report wants from a process-lifetime cache.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:          s.Hits - prev.Hits,
		Misses:        s.Misses - prev.Misses,
		DeltaBuilds:   s.DeltaBuilds - prev.DeltaBuilds,
		FullBuilds:    s.FullBuilds - prev.FullBuilds,
		Evictions:     s.Evictions - prev.Evictions,
		ResidentBytes: s.ResidentBytes,
		Entries:       s.Entries,
	}
}

// NewCache returns a cache bounded by maxBytes resident table bytes
// (DefaultCacheBytes when maxBytes ≤ 0). The bound is enforced per
// shard, FIFO among entries no caller currently holds.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	ch := &Cache{shardBudget: maxBytes / cacheShardCount}
	for i := range ch.shards {
		ch.shards[i].full = make(map[uint64][]*CacheEntry)
		ch.shards[i].base = make(map[uint64][]*CacheEntry)
		ch.shards[i].building = make(map[uint64]chan struct{})
	}
	return ch
}

// Stats returns the cache's counters. All counters are maintained
// atomically, so Stats is cheap enough for per-unit telemetry.
func (ch *Cache) Stats() CacheStats {
	if ch == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          ch.hits.Load(),
		Misses:        ch.misses.Load(),
		DeltaBuilds:   ch.deltaBuilds.Load(),
		FullBuilds:    ch.fullBuilds.Load(),
		Evictions:     ch.evictions.Load(),
		ResidentBytes: ch.bytes.Load(),
		Entries:       ch.entries.Load(),
	}
}

// Acquire returns a published entry for (tasks, res, rc, p), compiling
// and publishing one on a miss. The caller must Release the entry when
// its unit of work completes. A nil entry with a nil error means the
// pack is uncacheable (unknown profile type) and the caller should
// compile privately. On a hit the returned tables are byte-identical to
// a fresh Compile of the same arguments.
func (ch *Cache) Acquire(tasks []Task, res Resilience, rc CostModel, p int) (*CacheEntry, error) {
	if ch == nil {
		return nil, nil
	}
	bk, ok := packBaseKey(tasks, rc, p)
	if !ok {
		return nil, nil
	}
	fk := resFullKey(bk, res)
	sh := &ch.shards[bk%cacheShardCount]

	sh.mu.Lock()
	for {
		if e := sh.lookupLocked(fk, tasks, res, rc, p); e != nil {
			e.refs++
			sh.mu.Unlock()
			ch.hits.Add(1)
			return e, nil
		}
		wait, busy := sh.building[bk]
		if !busy {
			break
		}
		sh.mu.Unlock()
		<-wait
		sh.mu.Lock()
	}
	built := make(chan struct{})
	sh.building[bk] = built
	defer close(built)
	// Miss. Pin the delta base while the build reads it: eviction skips
	// pinned entries.
	baseE := sh.deltaBaseLocked(bk, tasks, res, rc, p)
	if baseE != nil {
		baseE.refs++
	}
	sh.mu.Unlock()
	ch.misses.Add(1)

	build := &Compiled{}
	var baseC *Compiled
	if baseE != nil {
		baseC = baseE.c
	}
	delta, err := build.RecompileDelta(baseC, tasks, res, rc, p)
	baseE.Release()
	if err != nil {
		sh.mu.Lock()
		delete(sh.building, bk)
		sh.mu.Unlock()
		return nil, err
	}
	if delta {
		ch.deltaBuilds.Add(1)
	} else {
		ch.fullBuilds.Add(1)
	}

	// No other build of this key can have published meanwhile: builds
	// over one base key serialize through sh.building. The freeze happens
	// before the entry is visible to any other goroutine.
	build.frozen = true
	sh.mu.Lock()
	delete(sh.building, bk)
	e := &CacheEntry{
		cache:   ch,
		shard:   sh,
		c:       build,
		fullKey: fk,
		baseKey: bk,
		bytes:   compiledBytes(build),
		refs:    2, // residency + the caller
	}
	sh.full[fk] = append(sh.full[fk], e)
	sh.base[bk] = append(sh.base[bk], e)
	sh.order = append(sh.order, e)
	sh.bytes += e.bytes
	ch.bytes.Add(e.bytes)
	ch.entries.Add(1)
	sh.evictLocked(ch)
	sh.mu.Unlock()
	return e, nil
}

// Release returns one Acquire's reference. Safe on a nil entry.
func (e *CacheEntry) Release() {
	if e == nil {
		return
	}
	sh := e.shard
	sh.mu.Lock()
	e.refs--
	sh.mu.Unlock()
}

// lookupLocked finds a published entry with exactly this content.
// Candidates from the hash bucket are verified field-by-field — the
// pack compare takes the pointer fast path when the caller interned its
// packs (same slice), and falls back to a full content compare.
func (sh *cacheShard) lookupLocked(fk uint64, tasks []Task, res Resilience, rc CostModel, p int) *CacheEntry {
	for _, e := range sh.full[fk] {
		c := e.c
		if c.res == res && c.rc == rc && c.p == p && samePack(tasks, c.tasks) {
			return e
		}
	}
	return nil
}

// deltaBaseLocked picks the resident entry over the same pack, cost
// model and platform from which a build of res rebuilds the fewest
// columns (same λ, rule and λ_s first: a downtime-only delta rewrites
// one column); ties go to the oldest resident entry. nil means there is
// none and the miss pays a cold compile.
func (sh *cacheShard) deltaBaseLocked(bk uint64, tasks []Task, res Resilience, rc CostModel, p int) *CacheEntry {
	var best *CacheEntry
	bestCols := 0
	for _, e := range sh.base[bk] {
		c := e.c
		if c.rc != rc || c.p != p {
			continue
		}
		cols := planDelta(c.res, res).columns()
		if best != nil && cols >= bestCols {
			continue
		}
		if samePack(tasks, c.tasks) {
			best, bestCols = e, cols
		}
	}
	return best
}

// samePack is PacksEqual with the same-slice fast path.
func samePack(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	eq, ok := PacksEqual(a, b)
	return ok && eq
}

// evictLocked enforces the shard's byte budget: oldest-first among
// entries no caller holds (refs == 1). In-use entries are skipped and
// reconsidered on the next insert; a shard wholly pinned by active
// users may transiently exceed its budget rather than stall compiles.
func (sh *cacheShard) evictLocked(ch *Cache) {
	for sh.bytes > ch.shardBudget {
		victim := -1
		for i, e := range sh.order {
			if e.refs == 1 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		e := sh.order[victim]
		sh.order = append(sh.order[:victim], sh.order[victim+1:]...)
		sh.full[e.fullKey] = removeEntry(sh.full[e.fullKey], e)
		if len(sh.full[e.fullKey]) == 0 {
			delete(sh.full, e.fullKey)
		}
		sh.base[e.baseKey] = removeEntry(sh.base[e.baseKey], e)
		if len(sh.base[e.baseKey]) == 0 {
			delete(sh.base, e.baseKey)
		}
		sh.bytes -= e.bytes
		ch.bytes.Add(-e.bytes)
		ch.entries.Add(-1)
		ch.evictions.Add(1)
		e.refs = 0
		e.c = nil
	}
}

func removeEntry(s []*CacheEntry, e *CacheEntry) []*CacheEntry {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// compiledBytes estimates an entry's resident footprint for the byte
// budget: 11 float64 columns plus seg/data/trow and the task headers.
// Every column the entry references is charged to it, shared or not, so
// the budget over-counts bytes shared between entries and never
// under-counts them — and the hit/miss/delta/eviction counts stay a pure
// function of the requested keys, whichever bases the delta builds
// happened to pick.
func compiledBytes(c *Compiled) int64 {
	cells := int64(len(c.tj))
	n := int64(len(c.tasks))
	return cells*11*8 + n*(8+1+16+64)
}

// packBaseKey hashes the resilience-independent half of the cache key:
// pack content, cost model and platform size. ok is false when the pack
// holds a profile type the cache cannot compare by content.
func packBaseKey(tasks []Task, rc CostModel, p int) (key uint64, ok bool) {
	h := fnvOffset
	h = mix64(h, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		h = mix64(h, uint64(int64(t.ID)))
		h = mix64(h, math.Float64bits(t.Data))
		h = mix64(h, math.Float64bits(t.Ckpt))
		h = mix64(h, math.Float64bits(t.Verify))
		pv, pok := profileValue(t.Profile)
		if !pok {
			return 0, false
		}
		switch pr := pv.(type) {
		case Synthetic:
			h = mix64(h, 1)
			h = mix64(h, math.Float64bits(pr.M))
			h = mix64(h, math.Float64bits(pr.SeqFraction))
		case Table:
			h = mix64(h, 2)
			h = mix64(h, uint64(len(pr.Times)))
			for _, v := range pr.Times {
				h = mix64(h, math.Float64bits(v))
			}
		default:
			return 0, false
		}
	}
	h = mix64(h, math.Float64bits(rc.Latency))
	h = mix64(h, math.Float64bits(rc.InvBandwidth))
	h = mix64(h, uint64(int64(p)))
	return h, true
}

// PackFingerprint returns a content hash of a task pack alone — the
// intern key campaign-level pack canonicalization uses. ok is false for
// packs with profile types the model package cannot compare.
func PackFingerprint(tasks []Task) (uint64, bool) {
	return packBaseKey(tasks, CostModel{}, 0)
}

// resFullKey extends a base key with the resilience parameters.
func resFullKey(bk uint64, res Resilience) uint64 {
	h := bk
	h = mix64(h, math.Float64bits(res.Lambda))
	h = mix64(h, math.Float64bits(res.Downtime))
	h = mix64(h, uint64(int64(res.Rule)))
	h = mix64(h, math.Float64bits(res.SilentLambda))
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix64 folds one 64-bit word into an FNV-1a running hash, byte by byte
// (little-endian), matching the reference FNV-1a stream over the word's
// bytes.
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
