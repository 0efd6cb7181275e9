package model

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// columnsEqual fills every failure row of a and b, then compares every
// per-task record field and every failure cell bit-for-bit and returns a
// description of the first difference, or "" when the tables are
// byte-identical. Fault-free tables hold no failure rows; their t_{i,j}
// values are compared instead.
func columnsEqual(a, b *Compiled) string {
	if a.p != b.p || a.maxJ != b.maxJ {
		return fmt.Sprintf("shape: (p=%d maxJ=%d) vs (p=%d maxJ=%d)", a.p, a.maxJ, b.p, b.maxJ)
	}
	if a.res != b.res || a.rc != b.rc {
		return fmt.Sprintf("params: (%+v %+v) vs (%+v %+v)", a.res, a.rc, b.res, b.rc)
	}
	ca, cb := allColumns(a), allColumns(b)
	for _, name := range columnNames {
		x, y := ca[name], cb[name]
		if len(x) != len(y) {
			return fmt.Sprintf("%s: len %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %x vs %x (%v vs %v)",
					name, i, math.Float64bits(x[i]), math.Float64bits(y[i]), x[i], y[i])
			}
		}
	}
	return ""
}

// columnNames lists allColumns' keys in comparison order.
var columnNames = []string{"trow", "t", "tau", "work", "lj", "prefac", "expPer"}

// allColumns fills every failure row of c and snapshots every column —
// every field of the per-task records, and each failure term (t_{i,j}
// included) over all rows, each row through its covered range; t_{i,j}
// from Time on a fault-free table — so a later compare catches any write
// through an alias.
func allColumns(c *Compiled) map[string][]float64 {
	fillAll(c)
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	cols := map[string][]float64{}
	for _, m := range c.trow {
		cols["trow"] = append(cols["trow"], m.c1, m.c2, m.m, m.lg, m.min, flag(m.synth), flag(m.nonInc), flag(m.times))
	}
	if c.res.FaultFree() {
		for i := range c.tasks {
			for j := 2; j <= c.maxJ; j += 2 {
				cols["t"] = append(cols["t"], c.Time(i, j))
			}
		}
		return cols
	}
	for i := 0; i < len(c.tasks); i++ {
		for _, f := range c.failRow(i, c.maxJ/2)[:c.maxJ/2] {
			cols["t"] = append(cols["t"], f.t)
			cols["tau"] = append(cols["tau"], f.tau)
			cols["work"] = append(cols["work"], f.work)
			cols["lj"] = append(cols["lj"], f.lj)
			cols["prefac"] = append(cols["prefac"], f.prefac)
			cols["expPer"] = append(cols["expPer"], f.expPer)
		}
	}
	return cols
}

// cacheable reports whether the cache can key a pack: every profile is
// of a type this package compares by content.
func cacheable(tasks []Task) bool {
	_, ok := packBaseKey(tasks, CostModel{}, 2)
	return ok
}

// TestCacheHitByteEqualCompile is the cache's core contract: for every
// model configuration and several platform sizes, the table an Acquire
// hands out — first as a cold miss, then as a hit — is bit-identical to
// a fresh private Compile of the same arguments. A pack the cache cannot
// key is refused.
func TestCacheHitByteEqualCompile(t *testing.T) {
	for _, p := range []int{8, 64} {
		ch := NewCache(0)
		for _, tc := range compiledCases() {
			t.Run(fmt.Sprintf("%s-p%d", tc.name, p), func(t *testing.T) {
				want, err := Compile(tc.tasks, tc.res, CostModel{}, p)
				if err != nil {
					t.Fatal(err)
				}
				miss, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if !cacheable(tc.tasks) {
					if miss != nil {
						t.Fatal("uncacheable pack cached")
					}
					return
				}
				if miss == nil {
					t.Fatal("cacheable pack refused")
				}
				if d := columnsEqual(want, miss.Compiled()); d != "" {
					t.Fatalf("miss build differs from fresh Compile: %s", d)
				}
				// Content-equal but distinct pack slice: must hit, and the
				// served table is still the same bytes.
				packCopy := append([]Task(nil), tc.tasks...)
				before := ch.Stats().Hits
				hit, err := ch.Acquire(packCopy, tc.res, CostModel{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if hit == nil || hit.Compiled() != miss.Compiled() {
					t.Fatal("content-equal re-acquire did not share the entry")
				}
				if ch.Stats().Hits != before+1 {
					t.Fatal("hit not counted")
				}
				if d := columnsEqual(want, hit.Compiled()); d != "" {
					t.Fatalf("cache hit differs from fresh Compile: %s", d)
				}
				hit.Release()
				miss.Release()
			})
		}
	}
}

// TestRecompileDeltaByteEqualFull drives every delta class the cache can
// request — downtime-only, rule-only, λ, silent-λ, the fault-free target
// and the fault-free base — and pins the delta-built table against a
// Compile of the target parameters, bit for bit.
func TestRecompileDeltaByteEqualFull(t *testing.T) {
	const year = 365.25 * 24 * 3600
	for _, tc := range compiledCases() {
		if tc.res == (Resilience{}) {
			continue // fault-free base is exercised explicitly below
		}
		for _, p := range []int{8, 64} {
			base, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name string
				res  Resilience
			}{
				{"downtime", Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime * 3, Rule: tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"rule", Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime, Rule: 1 - tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"lambda", Resilience{Lambda: 1 / (3 * year), Downtime: tc.res.Downtime, Rule: tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"silent", Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime, Rule: tc.res.Rule, SilentLambda: 1 / (2 * year)}},
				{"fault-free", Resilience{}},
				{"everything", Resilience{Lambda: 1 / (7 * year), Downtime: 17, Rule: 1 - tc.res.Rule, SilentLambda: 1 / (9 * year)}},
			}
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s-p%d-%s", tc.name, p, v.name), func(t *testing.T) {
					want, err := Compile(tc.tasks, v.res, CostModel{}, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := deltaOf(base, tc.tasks, v.res)
					if err != nil {
						t.Fatal(err)
					}
					if d := columnsEqual(want, got); d != "" {
						t.Fatalf("delta build differs from Compile: %s", d)
					}
				})
			}
			// Fault-free base seeding a fault-enabled target: the λ-dependent
			// cells are filled from scratch, the per-task records shared.
			ffBase, err := Compile(tc.tasks, Resilience{}, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := deltaOf(ffBase, tc.tasks, tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if d := columnsEqual(want, got); d != "" {
				t.Fatalf("%s p=%d: fault-free-base delta differs from Compile: %s", tc.name, p, d)
			}
		}
	}
}

// TestCacheUncacheablePack: packs with profile types the model package
// cannot compare by content are refused, not mis-shared.
func TestCacheUncacheablePack(t *testing.T) {
	ch := NewCache(0)
	tasks := []Task{{Data: 1e6, Ckpt: 1e5, Profile: opaqueProfile{}}}
	e, err := ch.Acquire(tasks, Resilience{Lambda: 1e-9, Downtime: 60}, CostModel{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Fatal("uncacheable pack cached")
	}
	if s := ch.Stats(); s.Misses != 0 && s.Entries != 0 {
		t.Fatalf("uncacheable pack touched the cache: %+v", s)
	}
}

type opaqueProfile struct{}

func (opaqueProfile) Time(j int) float64 { return 1e6 / float64(j) }

// TestCacheEviction bounds residency under churn: a cache with a tiny
// budget keeps evicting released entries, never entries still held, and
// a held delta entry stays byte-equal to a cold Compile after the base
// whose columns it shares has been evicted.
func TestCacheEviction(t *testing.T) {
	tc := compiledCases()[0]
	one, err := Compile(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	budget := compiledBytes(one) * cacheShardCount * 2 // ~2 entries per shard
	ch := NewCache(budget)
	// The one cold build: every later build is a delta that shares its
	// per-task records, directly or through an intermediate base.
	first, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil || first == nil {
		t.Fatalf("acquire: %v", err)
	}
	firstRecords := first.Compiled().trow
	first.Release()
	type heldEntry struct {
		e   *CacheEntry
		res Resilience
	}
	var held []heldEntry
	for i := 1; i < 64; i++ {
		res := tc.res
		res.Downtime = float64(60 + i)
		if i%3 == 0 {
			res.Lambda = tc.res.Lambda * float64(1+i%5) // rebuild the λ columns too
		}
		e, err := ch.Acquire(tc.tasks, res, CostModel{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			t.Fatal("cacheable pack refused")
		}
		want, err := Compile(tc.tasks, res, CostModel{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if d := columnsEqual(want, e.Compiled()); d != "" {
			t.Fatalf("iteration %d: delta build served wrong bytes: %s", i, d)
		}
		if i%8 == 1 {
			held = append(held, heldEntry{e, res})
		} else {
			e.Release()
		}
	}
	s := ch.Stats()
	if s.Evictions == 0 || s.DeltaBuilds != 63 {
		t.Fatalf("63 delta-built keys under a ~%d-entry budget: %+v", 2*cacheShardCount, s)
	}
	if s.ResidentBytes > budget+compiledBytes(one)*cacheShardCount {
		t.Fatalf("resident bytes %d far above budget %d", s.ResidentBytes, budget)
	}
	if first.Compiled() != nil {
		t.Fatal("the released cold entry was never evicted")
	}
	for _, h := range held {
		c := h.e.Compiled()
		if c == nil {
			t.Fatal("held entry was evicted")
		}
		if !sameArray(c.trow, firstRecords) {
			t.Fatal("held delta entry does not share the evicted cold entry's per-task records")
		}
		want, err := Compile(tc.tasks, h.res, CostModel{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if d := columnsEqual(want, c); d != "" {
			t.Fatalf("held entry (D=%v) changed after its base was evicted: %s", h.res.Downtime, d)
		}
		h.e.Release()
	}
}

// sameArray reports whether two non-empty columns start at the same
// backing array element, i.e. one table shares the other's column.
func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestRecompileDeltaLeavesBaseUntouched: a delta build shares the base's
// per-task records and fills only its own failure rows, so every base
// record and failure cell keeps its exact bytes, for every delta class of
// TestRecompileDeltaByteEqualFull and for a fault-free base.
func TestRecompileDeltaLeavesBaseUntouched(t *testing.T) {
	const year = 365.25 * 24 * 3600
	for _, tc := range compiledCases() {
		if tc.res == (Resilience{}) {
			continue
		}
		for _, p := range []int{8, 64} {
			builds := []struct {
				name         string
				base, target Resilience
			}{
				{"downtime", tc.res, Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime * 3, Rule: tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"rule", tc.res, Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime, Rule: 1 - tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"lambda", tc.res, Resilience{Lambda: 1 / (3 * year), Downtime: tc.res.Downtime, Rule: tc.res.Rule, SilentLambda: tc.res.SilentLambda}},
				{"silent", tc.res, Resilience{Lambda: tc.res.Lambda, Downtime: tc.res.Downtime, Rule: tc.res.Rule, SilentLambda: 1 / (2 * year)}},
				{"fault-free", tc.res, Resilience{}},
				{"everything", tc.res, Resilience{Lambda: 1 / (7 * year), Downtime: 17, Rule: 1 - tc.res.Rule, SilentLambda: 1 / (9 * year)}},
				{"fault-free-base", Resilience{}, tc.res},
			}
			for _, b := range builds {
				base, err := Compile(tc.tasks, b.base, CostModel{}, p)
				if err != nil {
					t.Fatal(err)
				}
				before := allColumns(base)
				if _, err := deltaOf(base, tc.tasks, b.target); err != nil {
					t.Fatalf("%s p=%d %s: %v", tc.name, p, b.name, err)
				}
				after := allColumns(base)
				for col, want := range before {
					for k := range want {
						if math.Float64bits(want[k]) != math.Float64bits(after[col][k]) {
							t.Fatalf("%s p=%d %s: base column %s[%d] rewritten: %v -> %v",
								tc.name, p, b.name, col, k, want[k], after[col][k])
						}
					}
				}
			}
		}
	}
}

// TestCacheDeltaBaseChoice: a near-miss is built from the oldest
// resident entry over the same pack. With (λ1, D1) and (λ2, D1)
// resident, (λ2, D2) shares the per-task records of (λ1, D1), owns its
// failure rows, and still answers like a cold Compile.
func TestCacheDeltaBaseChoice(t *testing.T) {
	const year = 365.25 * 24 * 3600
	tc := compiledCases()[0]
	ch := NewCache(0)
	acquire := func(res Resilience) *CacheEntry {
		t.Helper()
		e, err := ch.Acquire(tc.tasks, res, CostModel{}, 64)
		if err != nil || e == nil {
			t.Fatalf("acquire: %v", err)
		}
		return e
	}
	r1 := Resilience{Lambda: 1 / (20 * year), Downtime: 60}
	r2 := Resilience{Lambda: 1 / (5 * year), Downtime: 60}
	r3 := Resilience{Lambda: r2.Lambda, Downtime: 600}
	e1, e2 := acquire(r1), acquire(r2)
	defer e1.Release()
	defer e2.Release()
	e3 := acquire(r3)
	defer e3.Release()
	if s := ch.Stats(); s.FullBuilds != 1 || s.DeltaBuilds != 2 {
		t.Fatalf("stats %+v: want one cold build and two delta builds", s)
	}
	c1, c2, c3 := e1.Compiled(), e2.Compiled(), e3.Compiled()
	if !sameArray(c3.trow, c1.trow) || !sameArray(c2.trow, c1.trow) {
		t.Error("a delta build copied per-task records it could share with the oldest base")
	}
	if c3.fail == c1.fail || c3.fail == c2.fail || c2.fail == c1.fail {
		t.Error("delta builds share failure rows across resilience settings")
	}
	want, err := Compile(tc.tasks, r3, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d := columnsEqual(want, c3); d != "" {
		t.Fatalf("delta from the chosen base differs from a cold Compile: %s", d)
	}
}

// TestRecompileDeltaFaultFreeShares: a fault-free target shares every
// per-task record with its base and holds no failure rows at all.
func TestRecompileDeltaFaultFreeShares(t *testing.T) {
	tc := compiledCases()[0]
	base, err := Compile(tc.tasks, tc.res, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := deltaOf(base, tc.tasks, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameArray(got.trow, base.trow) {
		t.Fatal("fault-free target copied per-task records it could share")
	}
	if got.fail != nil {
		t.Fatal("fault-free target allocated failure rows")
	}
	want, err := Compile(tc.tasks, Resilience{}, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "fault-free delta", want, got, 64)
}

// TestCacheConcurrentSharing hammers one cache from many goroutines over
// a small key set (run under -race): every handle must carry the exact
// bytes of its key's fresh compile, through hits, races to publish, and
// eviction churn.
func TestCacheConcurrentSharing(t *testing.T) {
	all := compiledCases()
	cases := all[:0]
	for _, tc := range all {
		if cacheable(tc.tasks) {
			cases = append(cases, tc)
		}
	}
	one, err := Compile(cases[0].tasks, cases[0].res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewCache(compiledBytes(one) * cacheShardCount * 2) // small: forces eviction churn
	wants := make([]*Compiled, len(cases))
	for i, tc := range cases {
		if wants[i], err = Compile(tc.tasks, tc.res, CostModel{}, 16); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				tc := cases[(g+it)%len(cases)]
				e, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 16)
				if err != nil || e == nil {
					errs <- fmt.Errorf("goroutine %d it %d: acquire: %v", g, it, err)
					return
				}
				if d := columnsEqual(wants[(g+it)%len(cases)], e.Compiled()); d != "" {
					errs <- fmt.Errorf("goroutine %d it %d: %s", g, it, d)
					e.Release()
					return
				}
				e.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheConcurrentMissesSerialize pins the single-flight contract:
// many goroutines missing on tables over one pack at once pay exactly
// one cold compile; every other distinct key is a delta build and every
// repeat is a hit, whatever the thread timing.
func TestCacheConcurrentMissesSerialize(t *testing.T) {
	tc := compiledCases()[0]
	keys := []Resilience{tc.res, {}, {Lambda: tc.res.Lambda, Downtime: 3 * tc.res.Downtime}}
	ch := NewCache(0)
	const perKey = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < perKey*len(keys); g++ {
		wg.Add(1)
		go func(res Resilience) {
			defer wg.Done()
			<-start
			e, err := ch.Acquire(tc.tasks, res, CostModel{}, 16)
			if err != nil || e == nil {
				t.Errorf("acquire: %v", err)
				return
			}
			e.Release()
		}(keys[g%len(keys)])
	}
	close(start)
	wg.Wait()
	s := ch.Stats()
	want := CacheStats{Hits: uint64(len(keys) * (perKey - 1)), Misses: uint64(len(keys)), DeltaBuilds: uint64(len(keys) - 1), FullBuilds: 1}
	if s.Hits != want.Hits || s.Misses != want.Misses || s.DeltaBuilds != want.DeltaBuilds || s.FullBuilds != want.FullBuilds {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}

// TestCacheStatsUnderEvictionPressure pins Stats() over a fixed request
// sequence: several packs, each with resilience variants that differ
// only in Rule, only in SilentLambda or only in Downtime (fault-free
// variants that differ only in D included), acquired in rounds under a
// budget of four fault-enabled entries per shard (a fault-free entry is
// charged its per-task records only), so several shards evict while
// some entries are held. The counters are a function of the requested
// keys alone, and every Acquire serves the requested resilience with the
// bytes of a cold Compile.
func TestCacheStatsUnderEvictionPressure(t *testing.T) {
	const p = 16
	const year = 365.25 * 24 * 3600
	packs := make([][]Task, 4)
	for k := range packs {
		for i := 0; i < 3; i++ {
			packs[k] = append(packs[k], Task{ID: i, Data: 1e6 + float64(k*10+i)*1e4, Ckpt: 3e5, Verify: 5e3,
				Profile: Synthetic{M: 1e6 + float64(k*10+i)*1e4, SeqFraction: 0.08}})
		}
	}
	base := Resilience{Lambda: 1 / (20 * year), Downtime: 60}
	variants := []Resilience{
		base,
		{Lambda: base.Lambda, Downtime: 60, Rule: PeriodDaly},       // Rule only
		{Lambda: base.Lambda, Downtime: 60, SilentLambda: 1 / year}, // SilentLambda only
		{Lambda: base.Lambda, Downtime: 600},                        // Downtime only
		{},                                                          // fault-free
		{Downtime: 60},                                              // fault-free, D only
		{Downtime: 600},                                             // fault-free, D only
		{Lambda: 1 / (5 * year), Downtime: 60},
	}
	one, err := Compile(packs[0], base, CostModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ffOne, err := Compile(packs[0], Resilience{}, CostModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewCache(compiledBytes(one) * cacheShardCount * 4)
	wants := map[[2]int]*Compiled{}
	var seen []*CacheEntry
	for round := 0; round < 3; round++ {
		var held []*CacheEntry
		for v, res := range variants {
			if round == 1 && v%2 == 1 {
				continue // a partial round: the later variants' misses evict other keys
			}
			for k, pack := range packs {
				e, err := ch.Acquire(pack, res, CostModel{}, p)
				if err != nil || e == nil {
					t.Fatalf("round %d pack %d variant %d: acquire: %v", round, k, v, err)
				}
				c := e.Compiled()
				if c.res != res {
					t.Fatalf("round %d pack %d: asked for %+v, served %+v", round, k, res, c.res)
				}
				want := wants[[2]int{k, v}]
				if want == nil {
					if want, err = Compile(pack, res, CostModel{}, p); err != nil {
						t.Fatal(err)
					}
					wants[[2]int{k, v}] = want
				}
				if d := columnsEqual(want, c); d != "" {
					t.Fatalf("round %d pack %d variant %d: %s", round, k, v, d)
				}
				seen = append(seen, e)
				if (k+v)%5 == 0 {
					held = append(held, e)
				} else {
					e.Release()
				}
			}
		}
		for _, e := range held {
			e.Release()
		}
	}
	evictedIn := map[*cacheShard]bool{}
	for _, e := range seen {
		if e.Compiled() == nil {
			evictedIn[e.shard] = true
		}
	}
	if len(evictedIn) < 2 {
		t.Fatalf("evictions in %d shards, want several", len(evictedIn))
	}
	s := ch.Stats()
	want := CacheStats{Hits: 10, Misses: 70, DeltaBuilds: 66, FullBuilds: 4, Evictions: 54,
		ResidentBytes: 9*compiledBytes(one) + 7*compiledBytes(ffOne), Entries: 16}
	if s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}
