package model

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// columnsEqual compares every defined compiled table of a and b
// bit-for-bit and returns a description of the first difference, or ""
// when the tables are byte-identical. Fault-free tables exclude the
// failure-only columns (λj, e^{λjR}, prefactor, period term): Recompile
// leaves them stale when λ = 0 — they are never read — so their bytes
// depend on the arena's history, not the instance.
func columnsEqual(a, b *Compiled) string {
	if a.p != b.p || a.maxJ != b.maxJ || a.stride != b.stride {
		return fmt.Sprintf("shape: (p=%d maxJ=%d stride=%d) vs (p=%d maxJ=%d stride=%d)",
			a.p, a.maxJ, a.stride, b.p, b.maxJ, b.stride)
	}
	if a.res != b.res || a.rc != b.rc {
		return fmt.Sprintf("params: (%+v %+v) vs (%+v %+v)", a.res, a.rc, b.res, b.rc)
	}
	cols := []struct {
		name string
		a, b []float64
	}{
		{"tj", a.tj, b.tj}, {"ck", a.ck, b.ck}, {"rec", a.rec, b.rec},
		{"tau", a.tau, b.tau}, {"work", a.work, b.work},
		{"slj", a.slj, b.slj}, {"v", a.v, b.v}, {"data", a.data, b.data},
	}
	if !a.res.FaultFree() {
		cols = append(cols, []struct {
			name string
			a, b []float64
		}{
			{"lj", a.lj, b.lj}, {"expFac", a.expFac, b.expFac},
			{"prefac", a.prefac, b.prefac}, {"expPer", a.expPer, b.expPer},
		}...)
	}
	for _, col := range cols {
		if len(col.a) != len(col.b) {
			return fmt.Sprintf("%s: len %d vs %d", col.name, len(col.a), len(col.b))
		}
		for i := range col.a {
			if math.Float64bits(col.a[i]) != math.Float64bits(col.b[i]) {
				return fmt.Sprintf("%s[%d]: %x vs %x (%v vs %v)",
					col.name, i, math.Float64bits(col.a[i]), math.Float64bits(col.b[i]), col.a[i], col.b[i])
			}
		}
	}
	if len(a.seg) != len(b.seg) {
		return fmt.Sprintf("seg: len %d vs %d", len(a.seg), len(b.seg))
	}
	for i := range a.seg {
		if a.seg[i] != b.seg[i] {
			return fmt.Sprintf("seg[%d]: %d vs %d", i, a.seg[i], b.seg[i])
		}
	}
	return ""
}

// TestCacheHitByteEqualCompile is the cache's core contract: for every
// model configuration and several platform sizes, the table an Acquire
// hands out — first as a cold miss, then as a hit — is bit-identical to
// a fresh private Compile of the same arguments.
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
// and the fault-free base — and pins the rewritten table against a full
// Recompile of the target parameters, bit for bit.
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
					var got Compiled
					delta, err := got.RecompileDelta(base, tc.tasks, v.res, CostModel{}, p)
					if err != nil {
						t.Fatal(err)
					}
					if !delta {
						t.Fatal("compatible base not used for a delta build")
					}
					if d := columnsEqual(want, &got); d != "" {
						t.Fatalf("delta rebuild differs from full Recompile: %s", d)
					}
				})
			}
			// Fault-free base seeding a fault-enabled target: the λ-dependent
			// columns are rebuilt from scratch, the profile columns copied.
			ffBase, err := Compile(tc.tasks, Resilience{}, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			var got Compiled
			delta, err := got.RecompileDelta(ffBase, tc.tasks, tc.res, CostModel{}, p)
			if err != nil {
				t.Fatal(err)
			}
			if !delta {
				t.Fatal("fault-free base not used for a delta build")
			}
			if d := columnsEqual(want, &got); d != "" {
				t.Fatalf("%s p=%d: fault-free-base delta differs from full Recompile: %s", tc.name, p, d)
			}
		}
	}
}

// TestRecompileDeltaFallsBack pins the fallback contract: an
// incompatible base (different pack, platform or cost model, or the
// arena itself) must degrade to a plain full Recompile, never a wrong
// table.
func TestRecompileDeltaFallsBack(t *testing.T) {
	tc := compiledCases()[0]
	base, err := Compile(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(tc.tasks, tc.res, CostModel{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	var got Compiled
	for _, bc := range []struct {
		name string
		base *Compiled
	}{
		{"nil", nil},
		{"different-p", base},
		{"self", &got},
	} {
		delta, err := got.RecompileDelta(bc.base, tc.tasks, tc.res, CostModel{}, 32)
		if err != nil {
			t.Fatal(err)
		}
		if delta {
			t.Fatalf("%s: incompatible base accepted for a delta", bc.name)
		}
		if d := columnsEqual(want, &got); d != "" {
			t.Fatalf("%s: fallback differs from full Recompile: %s", bc.name, d)
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

// TestCacheEviction bounds residency: a cache with a tiny budget keeps
// evicting released entries, never entries still held, and recycled
// arenas keep the (pointer, Gen) identity monotone.
func TestCacheEviction(t *testing.T) {
	tc := compiledCases()[0]
	one, err := Compile(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	budget := compiledBytes(one) * cacheShardCount * 2 // ~2 entries per shard
	ch := NewCache(budget)
	const year = 365.25 * 24 * 3600
	held, heldGen := (*CacheEntry)(nil), uint64(0)
	for i := 0; i < 64; i++ {
		res := tc.res
		res.Downtime = float64(60 + i)
		e, err := ch.Acquire(tc.tasks, res, CostModel{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			t.Fatal("cacheable pack refused")
		}
		if i == 0 {
			held, heldGen = e, e.Compiled().Gen() // hold the first entry across all evictions
			continue
		}
		want, err := Compile(tc.tasks, res, CostModel{}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if d := columnsEqual(want, e.Compiled()); d != "" {
			t.Fatalf("iteration %d: recycled arena served wrong bytes: %s", i, d)
		}
		e.Release()
	}
	s := ch.Stats()
	if s.Evictions == 0 {
		t.Fatalf("64 distinct keys under a ~%d-entry budget never evicted: %+v", 2*cacheShardCount, s)
	}
	if s.ResidentBytes > budget+compiledBytes(one)*cacheShardCount {
		t.Fatalf("resident bytes %d far above budget %d", s.ResidentBytes, budget)
	}
	// The held entry survived every eviction round untouched.
	if held.Compiled() == nil || held.Compiled().Gen() != heldGen {
		t.Fatal("held entry was evicted or its arena recycled")
	}
	wantHeld, err := Compile(tc.tasks, Resilience{Lambda: tc.res.Lambda, Downtime: 60, Rule: tc.res.Rule, SilentLambda: tc.res.SilentLambda}, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d := columnsEqual(wantHeld, held.Compiled()); d != "" {
		t.Fatalf("held entry mutated under eviction pressure: %s", d)
	}
	held.Release()
	_ = year
}

// TestCacheConcurrentSharing hammers one cache from many goroutines over
// a small key set (run under -race): every handle must carry the exact
// bytes of its key's fresh compile, through hits, races to publish, and
// eviction churn.
func TestCacheConcurrentSharing(t *testing.T) {
	cases := compiledCases()
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

// TestParallelCompileEquivalence pins the parallel row compile: forcing
// the threshold to split even the smallest pack across workers must not
// change a single bit relative to the sequential row loop.
func TestParallelCompileEquivalence(t *testing.T) {
	defer func(old int) { parallelCompileCells = old }(parallelCompileCells)
	for _, tc := range compiledCases() {
		parallelCompileCells = 1 << 62 // sequential
		seq, err := Compile(tc.tasks, tc.res, CostModel{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		parallelCompileCells = 0 // always parallel
		par, err := Compile(tc.tasks, tc.res, CostModel{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if d := columnsEqual(seq, par); d != "" {
			t.Fatalf("%s: parallel row compile changes bytes: %s", tc.name, d)
		}
	}
}
