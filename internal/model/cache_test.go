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
	if len(a.trow) != len(b.trow) {
		return fmt.Sprintf("trow: len %d vs %d", len(a.trow), len(b.trow))
	}
	for i := range a.trow {
		if a.trow[i] != b.trow[i] {
			return fmt.Sprintf("trow[%d]: %+v vs %+v", i, a.trow[i], b.trow[i])
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
	// profile columns, directly or through an intermediate base.
	first, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil || first == nil {
		t.Fatalf("acquire: %v", err)
	}
	firstTj := first.Compiled().tj
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
		if !sameArray(c.tj, firstTj) {
			t.Fatal("held delta entry does not share the evicted cold entry's profile columns")
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
func sameArray(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// allColumns snapshots every column of c — the failure-only ones
// included — so a later compare catches any write through an alias.
func allColumns(c *Compiled) map[string][]float64 {
	cols := map[string][]float64{}
	for name, col := range map[string][]float64{
		"tj": c.tj, "ck": c.ck, "rec": c.rec, "tau": c.tau, "work": c.work,
		"lj": c.lj, "expFac": c.expFac, "prefac": c.prefac, "expPer": c.expPer,
		"slj": c.slj, "v": c.v, "data": c.data,
	} {
		cols[name] = append([]float64(nil), col...)
	}
	seg := make([]float64, len(c.seg))
	for i, k := range c.seg {
		seg[i] = float64(k)
	}
	cols["seg"] = seg
	trow := make([]float64, 0, 2*len(c.trow))
	for _, m := range c.trow {
		nonInc := 0.0
		if m.nonInc {
			nonInc = 1
		}
		trow = append(trow, nonInc, m.min)
	}
	cols["trow"] = trow
	return cols
}

// TestRecompileDeltaLeavesBaseUntouched: a delta build shares the base's
// columns and writes only fresh ones, so every base column — failure-only
// ones included — keeps its exact bytes, for every delta class of
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
				var got Compiled
				if delta, err := got.RecompileDelta(base, tc.tasks, b.target, CostModel{}, p); err != nil || !delta {
					t.Fatalf("%s p=%d %s: delta=%v err=%v", tc.name, p, b.name, delta, err)
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
				if !base.frozen || !got.frozen {
					t.Fatalf("%s p=%d %s: a delta build must freeze both tables", tc.name, p, b.name)
				}
			}
		}
	}
}

// TestFrozenRebuildPanics: every in-place rebuild method refuses a
// frozen table, so nothing can write through a shared column.
func TestFrozenRebuildPanics(t *testing.T) {
	tc := compiledCases()[0]
	ch := NewCache(0)
	e, err := ch.Acquire(tc.tasks, tc.res, CostModel{}, 16)
	if err != nil || e == nil {
		t.Fatalf("acquire: %v", err)
	}
	defer e.Release()
	c := e.Compiled()
	other, err := Compile(tc.tasks, Resilience{}, CostModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	before := allColumns(c)
	for name, rebuild := range map[string]func(){
		"Recompile":          func() { _ = c.Recompile(tc.tasks, tc.res, CostModel{}, 16) },
		"RecompileFaultFree": func() { _ = c.RecompileFaultFree(other, tc.tasks, Resilience{}, CostModel{}, 16) },
		"RecompileDelta":     func() { _, _ = c.RecompileDelta(other, tc.tasks, Resilience{Lambda: 1e-9}, CostModel{}, 16) },
		"AppendTask":         func() { _, _ = c.AppendTask(tc.tasks[0]) },
		"TruncateExtra":      func() { c.TruncateExtra() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen table did not panic", name)
				}
			}()
			rebuild()
		}()
	}
	for col, want := range before {
		got := allColumns(c)[col]
		for k := range want {
			if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
				t.Fatalf("column %s[%d] changed by a refused rebuild", col, k)
			}
		}
	}
}

// TestCacheDeltaBaseChoice: a near-miss is built from the resident base
// that needs the fewest rebuilt columns, not from the oldest one. With
// (λ1, D1) and (λ2, D1) resident, (λ2, D2) rebuilds only the prefactor
// and shares every other column with (λ2, D1).
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
	c2, c3 := e2.Compiled(), e3.Compiled()
	for _, col := range []struct {
		name string
		a, b []float64
	}{
		{"lj", c3.lj, c2.lj}, {"expFac", c3.expFac, c2.expFac}, {"tau", c3.tau, c2.tau},
		{"work", c3.work, c2.work}, {"expPer", c3.expPer, c2.expPer}, {"slj", c3.slj, c2.slj},
		{"tj", c3.tj, e1.Compiled().tj},
	} {
		if !sameArray(col.a, col.b) {
			t.Errorf("column %s rebuilt, want it shared with the same-λ base", col.name)
		}
	}
	if sameArray(c3.prefac, c2.prefac) || sameArray(c3.prefac, e1.Compiled().prefac) {
		t.Error("prefactor shared, want it rebuilt for the new downtime")
	}
	want, err := Compile(tc.tasks, r3, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d := columnsEqual(want, c3); d != "" {
		t.Fatalf("delta from the chosen base differs from a cold Compile: %s", d)
	}
}

// TestRecompileDeltaFaultFreeShares: a fault-free target allocates no
// per-cell column: its periods alias the shared +Inf column, its silent
// rates the shared zero column, and everything else its base.
func TestRecompileDeltaFaultFreeShares(t *testing.T) {
	tc := compiledCases()[0]
	base, err := Compile(tc.tasks, tc.res, CostModel{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var got Compiled
	if delta, err := got.RecompileDelta(base, tc.tasks, Resilience{}, CostModel{}, 64); err != nil || !delta {
		t.Fatalf("delta=%v err=%v", delta, err)
	}
	inf, zero := *infColumn.Load(), *zeroColumn.Load()
	if !sameArray(got.tau, inf) || !sameArray(got.work, inf) || !sameArray(got.slj, zero) {
		t.Fatal("fault-free periods and silent rates do not alias the shared constant columns")
	}
	if cap(got.tau) != len(got.tau) || cap(got.slj) != len(got.slj) {
		t.Fatal("shared constant columns handed out with spare capacity")
	}
	for _, col := range [][2][]float64{{got.tj, base.tj}, {got.lj, base.lj}, {got.prefac, base.prefac}, {got.expPer, base.expPer}} {
		if !sameArray(col[0], col[1]) {
			t.Fatal("fault-free target copied a column it could share")
		}
	}
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
		if tc.res.FaultFree() {
			continue
		}
		// A λ-delta rebuilds its rows through the same split.
		base, err := Compile(tc.tasks, Resilience{Lambda: 3 * tc.res.Lambda}, CostModel{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		var delta Compiled
		if ok, err := delta.RecompileDelta(base, tc.tasks, tc.res, CostModel{}, 64); err != nil || !ok {
			t.Fatalf("%s: delta=%v err=%v", tc.name, ok, err)
		}
		if d := columnsEqual(seq, &delta); d != "" {
			t.Fatalf("%s: parallel λ-delta changes bytes: %s", tc.name, d)
		}
	}
}
