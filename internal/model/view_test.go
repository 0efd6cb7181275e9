package model

import (
	"math"
	"testing"

	"cosched/internal/rng"
)

// randViewCase draws a random pack and resilience setting covering both
// profile families (Synthetic and non-monotone or short Tables), tasks
// with and without verification, and the fault-free, fail-stop and
// silent-error regimes.
func randViewCase(src *rng.Source, bigP int) ([]Task, Resilience) {
	const year = 365.25 * 24 * 3600
	tasks := make([]Task, 2+src.Intn(3))
	for i := range tasks {
		m := src.Uniform(1e4, 2.5e6)
		tk := Task{ID: i, Data: m, Ckpt: m * src.Uniform(0.001, 1)}
		switch src.Intn(3) {
		case 0:
			tk.Profile = Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)}
		case 1: // non-monotone table over the whole cover
			times := make([]float64, bigP)
			for j := range times {
				times[j] = src.Uniform(1e4, 1e7)
			}
			tk.Profile = Table{Times: times}
		default: // non-monotone table shorter than the cover
			times := make([]float64, 1+src.Intn(bigP))
			for j := range times {
				times[j] = src.Uniform(1e4, 1e7)
			}
			tk.Profile = Table{Times: times}
		}
		if src.Intn(2) == 0 {
			tk.Verify = m * src.Uniform(0, 0.05)
		}
		tasks[i] = tk
	}
	res := Resilience{Downtime: src.Uniform(0, 600), Rule: PeriodRule(src.Intn(2))}
	switch src.Intn(3) {
	case 0: // fault-free
		res.Downtime = 0
	case 1:
		res.Lambda = 1 / (src.Uniform(0.5, 40) * year)
	default:
		res.Lambda = 1 / (src.Uniform(0.5, 40) * year)
		res.SilentLambda = 1 / (src.Uniform(0.5, 40) * year)
	}
	return tasks, res
}

// poisonTails fills every failure row of c, then overwrites every
// failure cell past allocation p of every row, t_{i,j} included, with
// NaN, so a view at p that reads outside its covered range answers
// differently from a cold compile at p. A fault-free table stores no
// cells: its views compute every value from the task.
func poisonTails(c *Compiled, p int) {
	if c.res.FaultFree() {
		return
	}
	w := (p - p%2) / 2
	nan := math.NaN()
	for i := 0; i < len(c.tasks); i++ {
		row := c.failRow(i, c.maxJ/2)
		for k := w; k < len(row); k++ {
			row[k] = failCell{t: nan, tau: nan, work: nan, lj: nan, prefac: nan, expPer: nan}
		}
	}
}

// sameAnswers asserts that got answers every per-(task, allocation)
// query bit-identically to want, a cold compile at platform size p:
// scalar accessors over every covered j and every α of compiledAlphas,
// the row kernels over the covered range and RawFloor.
func sameAnswers(t *testing.T, name string, want, got *Compiled, p int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	width := p / 2
	wRow, gRow := make([]float64, width), make([]float64, width)
	for i := 0; i < len(want.tasks); i++ {
		for j := 2; j <= 2*width; j += 2 {
			for q, pr := range [][2]float64{
				{want.Time(i, j), got.Time(i, j)},
				{want.Period(i, j), got.Period(i, j)},
				{want.CkptCost(i, j), got.CkptCost(i, j)},
				{want.Recovery(i, j), got.Recovery(i, j)},
				{want.PostRedistCkpt(i, j), got.PostRedistCkpt(i, j)},
			} {
				if !same(pr[0], pr[1]) {
					t.Fatalf("%s task %d j %d accessor %d: got %v, want %v", name, i, j, q, pr[1], pr[0])
				}
			}
			for _, alpha := range compiledAlphas {
				if w, g := want.RawAt(i, j, alpha), got.RawAt(i, j, alpha); !same(w, g) {
					t.Fatalf("%s task %d j %d α %v: RawAt got %v, want %v", name, i, j, alpha, g, w)
				}
				if w, g := want.RawFloor(i, j, alpha), got.RawFloor(i, j, alpha); !same(w, g) {
					t.Fatalf("%s task %d j %d α %v: RawFloor got %v, want %v", name, i, j, alpha, g, w)
				}
				if w, g := want.FFCheckpoints(i, j, alpha), got.FFCheckpoints(i, j, alpha); w != g {
					t.Fatalf("%s task %d j %d α %v: FFCheckpoints got %d, want %d", name, i, j, alpha, g, w)
				}
				if w, g := want.FFTime(i, j, alpha), got.FFTime(i, j, alpha); !same(w, g) {
					t.Fatalf("%s task %d j %d α %v: FFTime got %v, want %v", name, i, j, alpha, g, w)
				}
			}
		}
		for _, alpha := range compiledAlphas {
			want.RawRow(i, alpha, wRow)
			got.RawRow(i, alpha, gRow)
			for k := range wRow {
				if !same(wRow[k], gRow[k]) {
					t.Fatalf("%s task %d α %v: RawRow[%d] got %v, want %v", name, i, alpha, k, gRow[k], wRow[k])
				}
			}
			wm, wj := want.MinOverRow(i, alpha, wRow)
			gm, gj := got.MinOverRow(i, alpha, gRow)
			if !same(wm, gm) || wj != gj {
				t.Fatalf("%s task %d α %v: MinOverRow got (%v, %d), want (%v, %d)", name, i, alpha, gm, gj, wm, wj)
			}
		}
	}
}

// TestViewMatchesCompile is the view contract: narrowing a table
// compiled at P to any odd or even p ≤ P answers every query exactly as
// a cold compile at p. The covered cells of the larger table are
// poisoned past p, so a view that reads outside its range fails, and
// the non-monotone rows make a t-row summary taken over the whole row
// disagree with the cold compile's RawFloor.
func TestViewMatchesCompile(t *testing.T) {
	src := rng.New(20)
	for trial := 0; trial < 40; trial++ {
		bigP := 2 + src.Intn(31)
		tasks, res := randViewCase(src, bigP)
		var rc CostModel
		if src.Intn(2) == 0 {
			rc = CostModel{Latency: src.Uniform(0, 5), InvBandwidth: src.Uniform(0.1, 3)}
		}
		for p := 2; p <= bigP; p++ {
			big, err := Compile(tasks, res, rc, bigP)
			if err != nil {
				t.Fatal(err)
			}
			poisonTails(big, p)
			want, err := Compile(tasks, res, rc, p)
			if err != nil {
				t.Fatal(err)
			}
			v := big.view(p)
			if !v.Matches(tasks, res, rc, p) || v.p != p {
				t.Fatalf("trial %d: view at %d of P=%d does not match its instance", trial, p, bigP)
			}
			sameAnswers(t, "trial", want, v, p)
		}
	}
}

// TestCacheEntryView pins View's memo and identity rules: the entry's
// own size returns its table, each smaller size one memoized view, a table of its own with its own schedule slot, and a larger size
// panics.
func TestCacheEntryView(t *testing.T) {
	src := rng.New(7)
	const bigP = 40
	tasks, _ := randViewCase(src, bigP)
	res := Resilience{Lambda: 1e-8, Downtime: 60}
	ch := NewCache(0)
	e, err := ch.Acquire(tasks, res, CostModel{}, bigP)
	if err != nil || e == nil {
		t.Fatalf("acquire: %v", err)
	}
	defer e.Release()
	if e.View(bigP) != e.Compiled() {
		t.Fatal("View at the entry's own P is not the entry's table")
	}
	sizes := map[*Compiled]int{e.Compiled(): bigP}
	for _, p := range []int{2, 7, 18, 39} {
		v := e.View(p)
		if e.View(p) != v {
			t.Fatalf("View(%d) is not memoized", p)
		}
		if q, dup := sizes[v]; dup {
			t.Fatalf("View(%d) is the table of size %d", p, q)
		}
		sizes[v] = p
		if v.Schedule() != nil {
			t.Fatalf("View(%d) starts with a stored schedule", p)
		}
		v.StoreSchedule([]int{p}, []float64{float64(p)})
		want, err := Compile(tasks, res, CostModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, "entry view", want, v, p)
	}
	if e.Compiled().Schedule() != nil {
		t.Fatal("a schedule stored on a view reached the entry's table")
	}
	for v, p := range sizes {
		if s := v.Schedule(); v != e.Compiled() && (s == nil || s.Sigma[0] != p) {
			t.Fatalf("View(%d) holds schedule %+v, want its own", p, s)
		}
	}
	if st := ch.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("views touched the cache: %+v", st)
	}
	for _, p := range []int{bigP + 1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d) of a P=%d entry did not panic", p, bigP)
				}
			}()
			e.View(p)
		}()
	}
}
