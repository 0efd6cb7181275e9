package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cosched/internal/model"
	"cosched/internal/rng"
)

// fullRowGrow is the greedy growth of Algorithm 1 — and of online
// admission, over the admitted set — with line 9 as the paper writes it:
// At(σ) > At(pmax), which fills the task's prefix-min row out to pmax. It
// is the test oracle for canGrow and shares everything else with the
// engine, the heap and its tie-break included. ev[i] must be bound at
// α = 1; sigma holds the members' start allocations and grows in place.
// It returns how many line-9 answers a first-improving-cell scan that
// ignored NaN cells would have got wrong, and how many grants it made
// before its first that did not lower the task's key (the leading simple
// grants the level rounds may take).
func fullRowGrow(ev []model.MinEval, members []int, sigma []int, avail int) (naiveWrong, simple int) {
	key := make([]float64, len(ev))
	for _, i := range members {
		key[i] = ev[i].At(sigma[i])
	}
	var h taskHeap
	h.rebind(key)
	h.build(members)
	grants := 0
	for avail >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		pmax := sigma[i] + avail
		grow := ev[i].At(sigma[i]) > ev[i].At(pmax)
		naive := false
		for j := sigma[i] + 2; j <= pmax && !naive; j += 2 {
			naive = ev[i].At(j) < ev[i].At(sigma[i])
		}
		if naive != grow {
			naiveWrong++
		}
		if !grow {
			break
		}
		sigma[i] += 2
		prev := key[i]
		key[i] = ev[i].At(sigma[i])
		if simple == grants && key[i] < prev {
			simple++
		}
		grants++
		h.fixTop()
		avail -= 2
	}
	return naiveWrong, simple
}

// oracleSchedule is Algorithm 1 through fullRowGrow over c: σ₀, each
// task's t^R_{i,σ₀(i)}(1), the naive-scan disagreements, the cells the
// oracle evaluated and its leading simple grants.
func oracleSchedule(in Instance, c *model.Compiled) (sigma []int, tU []float64, naiveWrong, cells, simple int) {
	n := len(in.Tasks)
	ev := make([]model.MinEval, n)
	members := make([]int, n)
	sigma = make([]int, n)
	for i := range ev {
		ev[i].ResetCompiled(c, i, 1)
		members[i] = i
		sigma[i] = 2
	}
	naiveWrong, simple = fullRowGrow(ev, members, sigma, in.P-2*n)
	tU = make([]float64, n)
	for i := range tU {
		tU[i] = ev[i].At(sigma[i])
		cells += ev[i].Cached()
	}
	return sigma, tU, naiveWrong, cells, simple
}

// lineNineInstance draws from the pruned-scan corpus (Synthetic and
// non-monotone Table profiles; fault-free, Young/Daly, verification and
// silent errors) and, one time in three, pushes it to extremes: failure
// rates of one per seconds to an hour against huge checkpoints, so cells
// overflow to +Inf and 0·Inf turns some into NaN, or tables with NaN and
// +Inf times. extreme reports the latter kind.
func lineNineInstance(src *rng.Source) (in Instance, extreme bool) {
	in = prunedCorpusInstance(src)
	if src.Intn(3) != 0 {
		return in, false
	}
	if src.Intn(2) == 0 {
		in.Res.Lambda = 1 / src.Uniform(1, 3600)
		if in.Res.SilentLambda > 0 {
			in.Res.SilentLambda = in.Res.Lambda
		}
		for i := range in.Tasks {
			in.Tasks[i].Ckpt = in.Tasks[i].Data * src.Uniform(1, 1e6)
		}
		return in, true
	}
	for i := range in.Tasks {
		if src.Intn(2) == 0 {
			continue
		}
		times := make([]float64, in.P)
		for j := range times {
			times[j] = 1e7 / float64(j+1) * src.Uniform(0.7, 1.3)
		}
		for k := 1 + src.Intn(3); k > 0; k-- {
			times[src.Intn(in.P)] = []float64{math.NaN(), math.Inf(1)}[src.Intn(2)]
		}
		in.Tasks[i].Profile = model.Table{Times: times}
	}
	return in, true
}

// lineNineTables returns the tables Algorithm 1 can run on for in, by
// name: a cold compile, a view of a table compiled for a larger
// platform, and a cache's delta build from a table with other failure
// parameters. Instance.Compiled-style identity holds for each: same task
// slice, resilience and platform size.
func lineNineTables(t *testing.T, src *rng.Source, in Instance) map[string]*model.Compiled {
	t.Helper()
	cold, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
	if err != nil {
		t.Fatal(err)
	}
	cache := model.NewCache(0)
	entry, err := cache.Acquire(in.Tasks, in.Res, in.RC, in.P+2*(1+src.Intn(in.P)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(entry.Release)
	baseRes := prunedCorpusInstance(src).Res
	base, err := cache.Acquire(in.Tasks, baseRes, in.RC, in.P)
	if err != nil {
		t.Fatal(err)
	}
	base.Release()
	delta, err := cache.Acquire(in.Tasks, in.Res, in.RC, in.P)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(delta.Release)
	if baseRes != in.Res && cache.Stats().DeltaBuilds != 1 {
		t.Fatalf("the second table over the pack was no delta build: %+v", cache.Stats())
	}
	return map[string]*model.Compiled{"cold": cold, "view": entry.View(in.P), "delta": delta.Compiled()}
}

// TestLineNineMatchesFullRowOracle checks that Algorithm 1 with the
// first-improving-cell line 9 yields the same σ₀ and the same t^R bits as
// the full-row oracle on every kind of table, over random and extreme
// instances; that Paranoia's cross-check agrees on each; and that the
// corpus holds rows where ignoring NaN cells would have answered line 9
// wrongly, so the NaN fallback is exercised.
func TestLineNineMatchesFullRowOracle(t *testing.T) {
	src := rng.New(2112)
	naiveWrong, grown := 0, 0
	for trial := 0; trial < 150; trial++ {
		in, _ := lineNineInstance(src)
		for name, c := range lineNineTables(t, src, in) {
			want, wantTU, wrong, _, _ := oracleSchedule(in, c)
			naiveWrong += wrong
			got, gotTU, _, err := ColdInitialSchedule(in, c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] || math.Float64bits(gotTU[i]) != math.Float64bits(wantTU[i]) {
					t.Fatalf("trial %d %s table, task %d (res %+v): σ₀ %d, t^R %v; oracle %d, %v",
						trial, name, i, in.Res, got[i], gotTU[i], want[i], wantTU[i])
				}
				if got[i] > 2 {
					grown++
				}
			}
			// Reset schedules end events, which must be finite.
			if !allFinite(wantTU) {
				continue
			}
			pin := in
			pin.Compiled = c
			e := NewSimulator()
			if err := e.Reset(pin, NoRedistribution, nil, Options{Paranoia: true}); err != nil {
				t.Fatal(err)
			}
			if e.paranoidErr != nil {
				t.Fatalf("trial %d %s table: %v", trial, name, e.paranoidErr)
			}
		}
	}
	t.Logf("%d grown tasks, %d line-9 answers a NaN-blind scan would get wrong", grown, naiveWrong)
	if grown == 0 || naiveWrong == 0 {
		t.Fatal("the corpus is vacuous")
	}
}

// TestAdmissionMatchesFullRowOracle checks online admission against the
// full-row oracle: a base task that never grows leaves P−2 processors
// free, every corpus task arrives at once, and the admitted set must grow
// to the oracle's σ with the same expected finish bits, on the arrivals'
// table rows, with Paranoia's cross-check silent.
func TestAdmissionMatchesFullRowOracle(t *testing.T) {
	src := rng.New(2113)
	checked, grown := 0, 0
	for trial := 0; trial < 150; trial++ {
		corpus, _ := lineNineInstance(src)
		const at = 1.0
		arrivals := make([]Arrival, len(corpus.Tasks))
		for k, tk := range corpus.Tasks {
			arrivals[k] = Arrival{Time: at, Task: tk}
		}
		flat := model.Task{Data: 1, Ckpt: 1, Profile: model.Table{Times: []float64{1e6}}}
		in := Instance{Tasks: []model.Task{flat}, P: corpus.P + 2, Res: corpus.Res, RC: corpus.RC, Arrivals: arrivals}
		e := NewSimulator()
		if err := e.Reset(in, NoRedistribution, nil, Options{Paranoia: true}); err != nil {
			t.Fatal(err)
		}
		if e.d.sigmaNew[0] != 2 {
			t.Fatalf("trial %d: the flat base task grew to %d", trial, e.d.sigmaNew[0])
		}
		for range arrivals {
			e.pendQ = append(e.pendQ, e.addTask(at))
		}
		// FIFO admission takes the first free/2 arrivals.
		free := e.plat.FreeProcs()
		admitted := e.pendQ[:min(len(e.pendQ), free/2)]
		ev := make([]model.MinEval, len(e.st))
		sigma := make([]int, len(e.st))
		tU := make([]float64, 0, len(admitted))
		for _, i := range admitted {
			ev[i].ResetCompiled(e.cm, i, 1)
			sigma[i] = 2
		}
		fullRowGrow(ev, admitted, sigma, free-2*len(admitted))
		for _, i := range admitted {
			tU = append(tU, at+ev[i].At(sigma[i]))
		}
		if !allFinite(tU) {
			continue // admission schedules end events, which must be finite
		}
		admitted = append([]int(nil), admitted...)
		if got := e.admit(at); !reflect.DeepEqual(got, admitted) {
			t.Fatalf("trial %d: admitted %v, want %v", trial, got, admitted)
		}
		if e.paranoidErr != nil {
			t.Fatalf("trial %d: %v", trial, e.paranoidErr)
		}
		for _, i := range admitted {
			if s := e.st[i]; s.sigma != sigma[i] || math.Float64bits(s.tU) != math.Float64bits(at+ev[i].At(sigma[i])) {
				t.Fatalf("trial %d task %d (res %+v): admitted at σ %d, tU %v; oracle %d, %v",
					trial, i, in.Res, s.sigma, s.tU, sigma[i], at+ev[i].At(sigma[i]))
			}
			if sigma[i] > 2 {
				grown++
			}
		}
		checked++
	}
	t.Logf("%d admission rounds checked, %d admitted tasks grown", checked, grown)
	if checked < 100 || grown == 0 {
		t.Fatal("the corpus is vacuous")
	}
}

// TestInitialScheduleLaziness guards the point of the early exit: after a
// cold Algorithm 1 on rows proven free of NaN, the evaluators hold at most
// Σσ₀/2 + n + P/2 cells (each task's row to its final allocation plus one
// probe, and one row out to pmax for the task that ends the loop), not
// the n·P/2 a full-row line 9 fills, on the realistic corpus and at
// paper scale.
func TestInitialScheduleLaziness(t *testing.T) {
	src := rng.New(2114)
	ins := []Instance{paperScaleInstance(t)}
	for len(ins) < 100 {
		if in, extreme := lineNineInstance(src); !extreme {
			ins = append(ins, in)
		}
	}
	for k, in := range ins {
		c, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
		if err != nil {
			t.Fatal(err)
		}
		sigma, _, cells, err := ColdInitialSchedule(in, c)
		if err != nil {
			t.Fatal(err)
		}
		bound := len(sigma) + in.P/2
		for _, s := range sigma {
			bound += s / 2
		}
		if k == 0 {
			_, _, _, full, _ := oracleSchedule(in, c)
			t.Logf("paper scale: %d cells (bound %d); a full-row line 9 reads %d", cells, bound, full)
		}
		if cells > bound {
			t.Fatalf("instance %d (n=%d, P=%d, res %+v): %d cells, bound %d", k, len(sigma), in.P, in.Res, cells, bound)
		}
	}
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestParanoiaCatchesLineNineMismatch forges a fault-free row whose proof
// says NaN-free but whose t_{0,6} is NaN: At = 100, 50, NaN, 200 over
// j = 2…8, so the full row says At(2) = 100 is not above At(8) = 200 and
// Algorithm 1 keeps σ₀ = 2, while the early exit sees 50 < 100 and grows.
// With Paranoia the disagreement fails Run; without it nothing notices.
//
// The row is forged behind the proof's back: the table is compiled over
// a NaN-free profile, whose t_{0,6} is then overwritten in place. Sound
// tables never hold a cell their proof excludes; this is the only way to
// build one, so that Paranoia has something to catch.
func TestParanoiaCatchesLineNineMismatch(t *testing.T) {
	for _, paranoia := range []bool{false, true} {
		times := []float64{100, 100, 100, 50, 60, 70, 80, 200}
		tasks := []model.Task{{Data: 1, Profile: model.Table{Times: times}}}
		c, err := model.Compile(tasks, model.Resilience{}, model.CostModel{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		times[6-1] = math.NaN()
		in := Instance{Tasks: tasks, P: 8, Compiled: c}
		e := NewSimulator()
		if err := e.Reset(in, NoRedistribution, nil, Options{Paranoia: paranoia}); err != nil {
			t.Fatal(err)
		}
		if e.d.sigmaNew[0] != 4 {
			t.Fatalf("the early exit kept σ₀ = %d, want the forged growth to 4", e.d.sigmaNew[0])
		}
		_, err = e.Run()
		if !paranoia {
			if err != nil {
				t.Fatalf("without Paranoia: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "line 9") {
			t.Fatalf("Run after a forged early exit: err = %v, want the line-9 report", err)
		}
	}
}
