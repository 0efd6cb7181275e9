package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes is the default byte budget of a Cache. compiledBytes
// charges a paper-scale table (n = 100, p = 1000) about 4.4 MB, its
// fully-filled size, so the budget holds about 60 of them, and each
// 16 MiB shard three. Failure rows fill on demand, so a table is usually
// far smaller than its charge and the budget over-counts residency. The
// budget is checked at insert only (see evictLocked): it bounds what a
// shard keeps after an insert, not what stays resident between inserts.
const DefaultCacheBytes = 1 << 28 // 256 MiB

// cacheShardCount spreads the cache over independently locked shards.
// Sharding is by base key (pack, cost model, platform), so every
// resilience variant of one pack lands in one shard and a miss can scan
// its shard for a delta base without a second lock.
const cacheShardCount = 16

// Cache is a content-addressed, ref-counted cache of compiled instance
// models, shared by every campaign worker in the process. The key is
// (task-pack content, Resilience, CostModel, P). A cheap structural hash
// of the pack, cost model and platform picks a bucket, which holds every
// resilience variant of that pack; a hit is the bucket entry with this
// exact Resilience, cost model, platform and pack content, so a hash
// collision costs a compare, never a wrong table.
//
// Every published table is built fresh, by Compile or deltaOf, and never
// rebuilt: a holder can only query it, and queries fill failure rows,
// which is safe from any goroutine. A near-miss — same pack, platform
// and cost model, different resilience parameters — is built by deltaOf
// from the oldest resident entry over the pack: the new table shares
// its profile columns and starts with empty failure rows of its own,
// and answers bit-identically to a cold Compile (the cache's whole
// contract; see DESIGN.md §15). Because columns are shared, tables are
// never recycled: an evicted entry's arrays stay alive, through the
// garbage collector, for as long as any live table aliases them. Packs
// containing profile types this package cannot compare by content are
// refused (Acquire returns nil); the caller then runs without a shared
// table, and core.Simulator builds its own.
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
	// buckets holds the entries by base key (pack, rc, p), each bucket
	// in insertion order: every resilience variant of a pack, scanned
	// for a hit and for a delta base. Collisions are rare and every
	// candidate is verified by content anyway.
	buckets map[uint64][]*CacheEntry
	order   []*CacheEntry // insertion order, the FIFO eviction scan
	bytes   int64
	// building holds one channel per base key with a build in flight,
	// closed on publish: a concurrent miss over the same pack waits for
	// it, then finds either its own key (a hit, not a duplicate compile)
	// or a delta base (shared profile columns, not a cold compile). Builds
	// over one pack therefore serialize, and the hit/miss/delta counts
	// are a function of the keys requested, not of thread timing.
	building map[uint64]chan struct{}
}

// CacheEntry is one published compiled model plus its refcount.
type CacheEntry struct {
	cache   *Cache
	shard   *cacheShard
	c       *Compiled
	baseKey uint64
	bytes   int64
	// refs is guarded by shard.mu: 1 for cache residency plus 1 per
	// outstanding Acquire. Eviction drops the residency ref only when no
	// user holds the entry.
	refs int

	viewMu sync.Mutex
	views  map[int]*Compiled // View memo by platform size
}

// Compiled returns the entry's compiled model.
func (e *CacheEntry) Compiled() *Compiled { return e.c }

// View returns the entry's table narrowed to platform size p: a
// Compiled over the same column arrays and failure rows that covers even
// allocations in [2, p] and answers every query bit-identically to a
// Compile at p. p equal to the entry's P returns Compiled() itself; p
// above it, or below 2, panics. Views are memoized per entry, so every
// caller at one size shares one view and the initial schedule stored on
// it. A view is not charged to the byte budget: it owns only its
// per-task row metadata and its schedule slot.
func (e *CacheEntry) View(p int) *Compiled {
	c := e.c
	if p == c.p {
		return c
	}
	if p < 2 || p > c.p {
		panic(fmt.Sprintf("model: view at platform size %d of a table compiled for %d", p, c.p))
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v, ok := e.views[p]
	if !ok {
		if e.views == nil {
			e.views = make(map[int]*Compiled)
		}
		v = c.view(p)
		e.views[p] = v
	}
	return v
}

// CacheStats is a point-in-time counter snapshot. The counters are
// cumulative over the cache's lifetime; ResidentBytes and Entries are
// levels.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	DeltaBuilds   uint64 // misses served by a delta build's profile-column reuse
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

// NewCache returns a cache with a budget of maxBytes table bytes
// (DefaultCacheBytes when maxBytes ≤ 0), split evenly over its shards
// and enforced at insert, FIFO among entries no caller currently holds
// (see evictLocked).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	ch := &Cache{shardBudget: maxBytes / cacheShardCount}
	for i := range ch.shards {
		ch.shards[i].buckets = make(map[uint64][]*CacheEntry)
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
// cache is nil or the pack is uncacheable (unknown profile type), and
// the caller goes without a shared table. On a hit the returned tables are byte-identical to
// a fresh Compile of the same arguments.
func (ch *Cache) Acquire(tasks []Task, res Resilience, rc CostModel, p int) (*CacheEntry, error) {
	if ch == nil {
		return nil, nil
	}
	bk, ok := packBaseKey(tasks, rc, p)
	if !ok {
		return nil, nil
	}
	sh := &ch.shards[bk%cacheShardCount]

	sh.mu.Lock()
	for {
		if e := sh.lookupLocked(bk, tasks, res, rc, p); e != nil {
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
	baseE := sh.deltaBaseLocked(bk, tasks, rc, p)
	if baseE != nil {
		baseE.refs++
	}
	sh.mu.Unlock()
	ch.misses.Add(1)

	var build *Compiled
	var err error
	if baseE != nil {
		build, err = deltaOf(baseE.c, tasks, res)
		baseE.Release()
	} else {
		build, err = Compile(tasks, res, rc, p)
	}
	if err != nil {
		sh.mu.Lock()
		delete(sh.building, bk)
		sh.mu.Unlock()
		return nil, err
	}
	if baseE != nil {
		ch.deltaBuilds.Add(1)
	} else {
		ch.fullBuilds.Add(1)
	}

	// No other build of this key can have published meanwhile: builds
	// over one base key serialize through sh.building.
	sh.mu.Lock()
	delete(sh.building, bk)
	e := &CacheEntry{
		cache:   ch,
		shard:   sh,
		c:       build,
		baseKey: bk,
		bytes:   compiledBytes(build),
		refs:    2, // residency + the caller
	}
	sh.buckets[bk] = append(sh.buckets[bk], e)
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
// Candidates from the base key's bucket are verified field by field: the
// pack compare takes the pointer fast path when the caller passes the
// entry's own slice, and falls back to a full content compare.
func (sh *cacheShard) lookupLocked(bk uint64, tasks []Task, res Resilience, rc CostModel, p int) *CacheEntry {
	for _, e := range sh.buckets[bk] {
		c := e.c
		if c.res == res && c.rc == rc && c.p == p && samePack(tasks, c.tasks) {
			return e
		}
	}
	return nil
}

// deltaBaseLocked picks the oldest resident entry over the same pack,
// cost model and platform: a delta build shares only its profile
// columns, which every such entry holds. nil means there is none and the
// miss pays a cold compile.
func (sh *cacheShard) deltaBaseLocked(bk uint64, tasks []Task, rc CostModel, p int) *CacheEntry {
	for _, e := range sh.buckets[bk] {
		if c := e.c; c.rc == rc && c.p == p && samePack(tasks, c.tasks) {
			return e
		}
	}
	return nil
}

// evictLocked evicts oldest-first among entries no caller holds
// (refs == 1) until the shard is within its byte budget. It runs only
// at insert, when the new entry is still held by its caller, so it
// never evicts that entry: each shard keeps its newest entry whatever
// its size, plus every entry held at the last insert, until its next
// insert. The budget therefore does not bound residency; a shard can
// sit above it for as long as no further miss lands in it.
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
		sh.buckets[e.baseKey] = removeEntry(sh.buckets[e.baseKey], e)
		if len(sh.buckets[e.baseKey]) == 0 {
			delete(sh.buckets, e.baseKey)
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

// compiledBytes is an entry's charge against the byte budget: a fixed
// fully-filled size of 11 float64 per cell plus seg/data/trow and the
// task headers, the charge of the eleven-column layout that computed
// every cell at build time. A table now holds two profile floats per
// cell plus the five-float failure cells its queries filled, which
// usually covers a few percent of its rows. Every column the entry
// references is charged to it, shared or not, and the charge does not
// depend on how far rows were filled, so the hit/miss/delta/eviction
// counts stay a pure function of the requested keys, whatever the
// queries and whichever bases the delta builds happened to pick.
func compiledBytes(c *Compiled) int64 {
	cells := int64(len(c.tj))
	n := int64(len(c.tasks))
	return cells*11*8 + n*(8+1+16+64)
}

// packBaseKey hashes the resilience-independent part of the cache key,
// the bucket index: pack content, cost model and platform size. ok is
// false when the pack holds a profile type the cache cannot compare by
// content.
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
