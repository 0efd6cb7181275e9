package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
)

// levelCoverage counts the Algorithm 5 decisions levelCheck compared, by
// the case each exercises, and keeps the first difference found.
type levelCoverage struct {
	stops      map[levelStop]int
	sigmaInit  int // non-simple cuts at a task's source allocation
	lowAvail   int // post-reset free pools of one pair (k = 1), n ≥ 2
	single     int // single eligible task
	ties       int // post-reset keys tied across tasks
	arrivals   int // ArrivalGreedy decisions the level rounds took steps in
	smallLater int // small-pool stops after some rounds
	levelSteps int // grow steps the level rounds took
	err        error
}

// levelCheck returns a rule that plays one Algorithm 5 decision twice
// from the same primed state: first through oracleRegrowth, the plain
// pair-by-pair heap loop, then through iteratedGreedy's parts, and
// commits the second. The two must agree bit for bit on every
// allocation, key and the free pool, and the level rounds must take
// exactly the heap loop's leading simple steps: all of them with two or
// more eligible tasks, none with one, and no more than that when they
// stop at a small pool.
func (c *levelCoverage) levelCheck(name string) func(*Decision) {
	return func(d *Decision) {
		if len(d.elig) == 0 {
			return
		}
		avail := d.avail
		simple := oracleRegrowth(d)
		wantAvail := d.avail
		wantSigma := make([]int, len(d.elig))
		wantTU := make([]float64, len(d.elig))
		for k, i := range d.elig {
			wantSigma[k], wantTU[k] = d.sigmaNew[i], d.tUc[i]
			d.sigmaNew[i], d.tUc[i] = d.sigmaInit[i], d.oldTU[i]
			d.bound[i] = 0
		}
		d.avail = avail

		resetToPairs(d)
		postReset := d.avail
		tied := false
		seen := map[float64]bool{}
		for _, i := range d.elig {
			tied = tied || seen[d.tUc[i]]
			seen[d.tUc[i]] = true
		}
		steps, stop := d.levelRounds(algorithm5)
		left := d.avail
		if stop == stopNonSimple {
			// The heap loop's next step is the non-simple one.
			top := d.elig[0]
			for _, i := range d.elig {
				if keyedBefore(d.tUc[i], i, d.tUc[top], top) {
					top = i
				}
			}
			if d.uncountedCandidate(top, d.sigmaNew[top]+2) < d.tUc[top] {
				c.fail(fmt.Errorf("%s at t=%v: rounds stopped at a non-simple cut, but task %d's next step improves (avail %d, steps %d)", name, d.t, top, d.avail, steps))
			}
			if d.sigmaNew[top] == d.sigmaInit[top] {
				c.sigmaInit++
			}
		}
		growLongest(d)

		c.stops[stop]++
		c.levelSteps += steps
		if tied {
			c.ties++
		}
		if len(d.elig) == 1 {
			c.single++
		} else if postReset >= 2 && postReset < 4 {
			c.lowAvail++
		}
		switch {
		case stop == stopSmallPool:
			// The rounds stop before the first round whose pool funds
			// fewer than two steps per task, short of the simple steps.
			if left/2 >= 2*len(d.elig) || steps > simple {
				c.fail(fmt.Errorf("%s at t=%v (%d tasks, %d free after the reset, %d after the rounds): small-pool stop after %d steps, the heap loop %d simple ones first",
					name, d.t, len(d.elig), postReset, left, steps, simple))
			}
			if steps > 0 {
				c.smallLater++
			}
		case steps != simple && len(d.elig) > 1, steps != 0 && len(d.elig) == 1:
			c.fail(fmt.Errorf("%s at t=%v (%d tasks, %d free after the reset): level rounds took %d steps (%v), the heap loop %d simple ones first",
				name, d.t, len(d.elig), postReset, steps, stop, simple))
		}
		if d.avail != wantAvail {
			c.fail(fmt.Errorf("%s at t=%v: avail %d, heap loop %d", name, d.t, d.avail, wantAvail))
		}
		for k, i := range d.elig {
			if d.sigmaNew[i] != wantSigma[k] || math.Float64bits(d.tUc[i]) != math.Float64bits(wantTU[k]) {
				c.fail(fmt.Errorf("%s at t=%v task %d: σ %d tU %v, heap loop σ %d tU %v",
					name, d.t, i, d.sigmaNew[i], d.tUc[i], wantSigma[k], wantTU[k]))
				return
			}
		}
	}
}

// fail records err unless an earlier difference was recorded.
func (c *levelCoverage) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// identicalPack is n copies of one task, so that every key Algorithm 5
// computes ties across tasks and the heap order falls to the index.
func identicalPack(n int, src *rng.Source) []model.Task {
	m := src.Uniform(1e4, 2.5e6)
	tk := model.Task{Data: m, Ckpt: m * src.Uniform(0.001, 1), Profile: model.Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)}}
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = tk
		tasks[i].ID = i
	}
	return tasks
}

// TestLevelRoundsMatchHeapLoop plays every Algorithm 5 decision of random
// runs — EndGreedy at task ends, IteratedGreedy at failures and
// ArrivalGreedy at admissions, over the pruned-scan corpus, packs of
// identical tasks on platforms of up to twelve pairs per task, and
// platforms with one spare pair — plus single-task and whole-pack
// decisions at t = 0, both through the plain heap loop and through the
// level rounds, and requires bit-equal decisions and
// level rounds that take exactly the heap loop's leading simple steps —
// all of them, unless one task is eligible, when they take none, or the
// pool left funds fewer than two steps per task, when they stop short.
// The
// corpus must reach every way the rounds end: a cut at a non-simple step
// at a task's source allocation, a cut where the free pool runs out, the
// pool spent by rounds cut only at their threshold, an empty round and a
// pool too small for rounds.
func TestLevelRoundsMatchHeapLoop(t *testing.T) {
	src := rng.New(2906)
	c := levelCoverage{stops: map[levelStop]int{}}
	pol := Policy{OnEnd: EndGreedy, OnFailure: FailIteratedGreedy}
	e := NewSimulator()
	for trial := 0; trial < 600; trial++ {
		in := prunedCorpusInstance(src)
		switch trial % 3 {
		case 1: // up to twelve pairs per task
			in.Tasks = identicalPack(len(in.Tasks), src)
			in.P = 2 * len(in.Tasks) * (1 + src.Intn(12))
		case 2: // one pair spare after the reset
			in.P = 2*len(in.Tasks) + 2
		}
		if trial%4 == 3 {
			in = withArrivals(in, src)
		}
		p := pol
		if in.Arrivals != nil {
			p.OnArrival = ArrivalGreedy
		}
		name := fmt.Sprintf("trial %d", trial)

		// Decisions at t = 0 over the whole pack and over its first task.
		for _, n := range []int{len(in.Tasks), 1} {
			if err := e.Reset(in, p, nil, Options{}); err != nil {
				t.Fatal(err)
			}
			elig := e.eligible(0)[:n]
			e.beginDecision(0, elig, -1)
			c.levelCheck(name)(&e.d)
		}

		var fsrc failure.Source
		if in.Res.Lambda > 0 {
			var err error
			fsrc, err = failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(src.Uint64()))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Reset(in, p, fsrc, Options{}); err != nil {
			t.Fatal(err)
		}
		e.end = c.levelCheck(name + " EndGreedy")
		e.fail = c.levelCheck(name + " IteratedGreedy")
		if e.arrive != nil {
			arrive := c.levelCheck(name + " ArrivalGreedy")
			e.arrive = func(d *Decision) {
				before := c.levelSteps
				arrive(d)
				if c.levelSteps > before {
					c.arrivals++
				}
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.err != nil {
			t.Fatal(c.err)
		}
	}
	t.Logf("stops: spent %d, empty %d, non-simple %d (%d at σ_init), budget %d, small pool %d (%d after some rounds); %d low-pool, %d single-task, %d tied, %d arrival decisions; %d level steps",
		c.stops[stopSpent], c.stops[stopEmpty], c.stops[stopNonSimple], c.sigmaInit, c.stops[stopBudget], c.stops[stopSmallPool], c.smallLater,
		c.lowAvail, c.single, c.ties, c.arrivals, c.levelSteps)
	for what, n := range map[string]int{
		"pool spent":          c.stops[stopSpent],
		"empty round":         c.stops[stopEmpty],
		"non-simple cut":      c.stops[stopNonSimple],
		"non-simple at σinit": c.sigmaInit,
		"budget cut":          c.stops[stopBudget],
		"small pool":          c.stops[stopSmallPool],
		"small pool later":    c.smallLater,
		"one spare pair":      c.lowAvail,
		"single task":         c.single,
		"tied keys":           c.ties,
		"ArrivalGreedy":       c.arrivals,
	} {
		if n == 0 {
			t.Errorf("no decision reached the %s case: the property is vacuous for it", what)
		}
	}
}

// TestSelectKth checks the budget cut's selection against a full sort in
// heap order, over distinct elements with tied keys.
func TestSelectKth(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		s := make([]levelElem, 1+src.Intn(40))
		for k := range s {
			s[k] = levelElem{float64(src.Intn(6)), k}
		}
		want := append([]levelElem(nil), s...)
		sort.Slice(want, func(a, b int) bool { return want[a].before(want[b]) })
		k := src.Intn(len(s))
		if got := selectKth(s, k); got != want[k] {
			t.Fatalf("trial %d: rank %d is %v, want %v", trial, k, got, want[k])
		}
	}
}

// TestParanoiaReplaysLevelRounds checks Options.Paranoia's replay of
// Algorithm 5: it accepts the decision the level rounds and the heap
// loop made, and reports a one-ulp change to a key.
func TestParanoiaReplaysLevelRounds(t *testing.T) {
	for _, forge := range []bool{false, true} {
		in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
		e := NewSimulator()
		if err := e.Reset(in, IGEndGreedy, nil, Options{Paranoia: true}); err != nil {
			t.Fatal(err)
		}
		elig := e.eligible(0)
		e.beginDecision(0, elig, -1)
		d := &e.d
		resetToPairs(d)
		d.saveReset()
		if steps, _ := d.levelRounds(algorithm5); steps == 0 {
			t.Fatal("the level rounds took no step")
		}
		growLongest(d)
		if forge {
			d.tUc[elig[3]] = math.Nextafter(d.tUc[elig[3]], math.Inf(1))
		}
		d.replayHeapLoop()
		switch err := e.paranoidErr; {
		case !forge && err != nil:
			t.Fatalf("replay of an untouched decision: %v", err)
		case forge && (err == nil || !strings.Contains(err.Error(), "heap loop")):
			t.Fatalf("replay of a forged key: err = %v, want the heap-loop report", err)
		}
	}
}

// TestParanoiaReplaysSchedule checks Options.Paranoia's replay of
// Algorithm 1: it accepts the schedule the level rounds and the heap
// loop made, and reports a one-ulp change to a key.
func TestParanoiaReplaysSchedule(t *testing.T) {
	for _, forge := range []bool{false, true} {
		in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
		c, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
		if err != nil {
			t.Fatal(err)
		}
		e := NewSimulator()
		e.in, e.cm, e.opt = in, c, Options{Paranoia: true}
		e.resize(len(in.Tasks))
		if steps, _, _ := e.scheduleRounds(); steps == 0 {
			t.Fatal("the level rounds took no grant")
		}
		d := &e.d
		d.avail = e.scheduleHeapLoop(&e.heap, d.sigmaNew, d.tUc, d.avail)
		if forge {
			d.tUc[3] = math.Nextafter(d.tUc[3], math.Inf(1))
		}
		e.replaySchedule()
		switch err := e.paranoidErr; {
		case !forge && err != nil:
			t.Fatalf("replay of an untouched schedule: %v", err)
		case forge && (err == nil || !strings.Contains(err.Error(), "heap loop")):
			t.Fatalf("replay of a forged key: err = %v, want the heap-loop report", err)
		}
	}
}

// TestLevelRoundsLeaveNaNKeys checks that a NaN key, under which the
// heap order is not total, leaves every grow step to the heap loop.
func TestLevelRoundsLeaveNaNKeys(t *testing.T) {
	in := Instance{Tasks: synthPack(10, rng.New(5)), P: 100, Res: paperRes(5)}
	e := NewSimulator()
	if err := e.Reset(in, IGEndGreedy, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	elig := e.eligible(0)
	e.beginDecision(0, elig, -1)
	d := &e.d
	resetToPairs(d)
	d.tUc[elig[len(elig)-1]] = math.NaN()
	avail := d.avail
	if steps, stop := d.levelRounds(algorithm5); steps != 0 || stop != stopEmpty || d.avail != avail {
		t.Fatalf("level rounds over a NaN key took %d steps (%v), free pool %d → %d", steps, stop, avail, d.avail)
	}
	for _, i := range elig {
		if d.stepHead[i] >= 0 {
			t.Fatalf("task %d keeps queued steps", i)
		}
	}
}

// TestScheduleRoundsMatchHeapLoop checks Algorithm 1's level rounds
// against fullRowGrow, a plain copy of its heap loop with line 9 read
// over the full row: σ₀ and every tU must agree bit for bit, and the
// rounds must take exactly the heap loop's leading simple grants, unless
// they stop at a small pool or at a single task that is its own
// threshold (then no more than those). The corpus is
// linenine_test.go's (NaN-prone rows included) plus packs of identical
// tasks, single tasks, pools of two to twelve pairs per task, P = 2n and
// P = 2n + 2, fault-free variants, and identical tasks whose times are
// negative, where rounds fall back to the threshold cut as they do for
// infinite keys. It must reach
// every way the rounds end.
func TestScheduleRoundsMatchHeapLoop(t *testing.T) {
	src := rng.New(3001)
	stops := map[levelStop]int{}
	var ties, single, tight, faultFree, faulty, unproven, fallback, naiveWrong, taken int
	for trial := 0; trial < 1500; trial++ {
		in, _ := lineNineInstance(src)
		n := len(in.Tasks)
		switch trial % 8 {
		case 1: // tied keys
			in.Tasks = identicalPack(n, src)
			in.P = 2 * n * (1 + src.Intn(12))
		case 2:
			in.P = 2 * n
		case 3:
			in.P = 2*n + 2
		case 4: // one task
			in.Tasks, n = in.Tasks[:1], 1
			in.P = 2 + 2*src.Intn(60)
		case 5: // a pool of two to twelve pairs per task
			in.P = 2*n + 2*n*(2+src.Intn(11))
		case 6: // fault-free
			in.Res.Lambda, in.Res.SilentLambda = 0, 0
			in.P = 2*n + 2*n*(1+src.Intn(12))
		case 7: // negative times: no positive key to predict a level from
			if trial%16 == 15 {
				in.Tasks, n = in.Tasks[:1], 1
			}
			in.Res = model.Resilience{}
			times := make([]float64, 2*n*(3+src.Intn(6)))
			for j := range times {
				times[j] = -float64(j+1) * src.Uniform(1, 2)
			}
			for i := range in.Tasks {
				in.Tasks[i].Profile = model.Table{Times: times}
			}
			in.P = len(times)
		}
		c, err := model.Compile(in.Tasks, in.Res, in.RC, in.P)
		if err != nil {
			t.Fatal(err)
		}
		want, wantTU, wrong, _, simple := oracleSchedule(in, c)
		naiveWrong += wrong

		e := NewSimulator()
		e.in, e.cm = in, c
		e.resize(n)
		steps, stop, ran := e.scheduleRounds()
		d := &e.d
		d.avail = e.scheduleHeapLoop(&e.heap, d.sigmaNew, d.tUc, d.avail)
		for i := range want {
			if d.sigmaNew[i] != want[i] || math.Float64bits(d.tUc[i]) != math.Float64bits(wantTU[i]) {
				t.Fatalf("trial %d task %d (n=%d, P=%d, res %+v): σ₀ %d, tU %v; heap loop %d, %v",
					trial, i, n, in.P, in.Res, d.sigmaNew[i], d.tUc[i], want[i], wantTU[i])
			}
		}
		if !ran {
			switch {
			case in.P-2*n < 4*n:
				tight++
			default:
				unproven++
			}
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		seen := map[float64]bool{}
		tied := false
		for i := range in.Tasks {
			k := e.d.evals[i].At(2)
			tied = tied || seen[k]
			seen[k] = true
			lo, hi = min(lo, k), max(hi, k)
		}
		threshold := !(lo > 0 && hi < math.Inf(1)) // no predicted level
		switch {
		case stop == stopSmallPool, stop == stopEmpty && n == 1:
			if steps > simple {
				t.Fatalf("trial %d (n=%d, P=%d): the rounds took %d grants before stopping (%v), the heap loop %d simple ones first",
					trial, n, in.P, steps, stop, simple)
			}
		case steps != simple:
			t.Fatalf("trial %d (n=%d, P=%d, res %+v): the rounds took %d grants (%v), the heap loop %d simple ones first",
				trial, n, in.P, in.Res, steps, stop, simple)
		}
		stops[stop]++
		taken += steps
		if tied {
			ties++
		}
		if n == 1 {
			single++
		}
		if in.Res.Lambda == 0 {
			faultFree++
		} else {
			faulty++
		}
		if threshold {
			fallback++
		}
	}
	t.Logf("stops: spent %d, empty %d, non-simple %d, budget %d, small pool %d; %d grants in rounds; %d tied, %d single-task, %d fault-free, %d faulty, %d threshold-cut packs; %d without rounds for a small pool, %d for an unproven row; %d NaN-blind line-9 errors",
		stops[stopSpent], stops[stopEmpty], stops[stopNonSimple], stops[stopBudget], stops[stopSmallPool], taken, ties, single, faultFree, faulty, fallback, tight, unproven, naiveWrong)
	for what, n := range map[string]int{
		"pool spent":       stops[stopSpent],
		"empty round":      stops[stopEmpty],
		"non-simple cut":   stops[stopNonSimple],
		"budget cut":       stops[stopBudget],
		"small pool":       stops[stopSmallPool],
		"tied keys":        ties,
		"single task":      single,
		"fault-free":       faultFree,
		"faulty":           faulty,
		"threshold cut":    fallback,
		"pool under 2n":    tight,
		"unproven row":     unproven,
		"NaN-blind line 9": naiveWrong,
	} {
		if n == 0 {
			t.Errorf("no schedule reached the %s case: the property is vacuous for it", what)
		}
	}
}
