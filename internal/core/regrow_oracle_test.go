package core

import (
	"fmt"
	"math"
	"testing"

	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/rng"
)

// The loops below are test-only copies of the decision rules in their
// plain form: every grow or shrink re-evaluates its candidate through
// SetSigma, and each task's prefix-min row is read lazily, one cell per
// query. TestDecisionLoopsMatchOracle runs them next to the production
// rules, which commit the candidate values they already computed and
// read Algorithm 5's rows in one pass, and requires bit-equal rounds.

// oracleEndLocal is Algorithm 3 (endLocal).
func oracleEndLocal(d *Decision) {
	k := d.avail
	if k < 2 || len(d.elig) == 0 {
		return
	}
	h := &d.e.heap
	h.build(d.elig)
	for k >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		improvable := false
		if !d.skipDead(i, d.sigmaNew[i]+2, d.sigmaNew[i]+k) {
			for q := 2; q <= k; q += 2 {
				if d.Candidate(i, d.sigmaNew[i]+q) < d.tUc[i] {
					improvable = true
					break
				}
			}
		}
		if improvable {
			d.SetSigma(i, d.sigmaNew[i]+2)
			h.fixTop()
			k -= 2
		} else {
			h.popMax()
		}
	}
}

// oracleIteratedGreedy is Algorithm 5 (iteratedGreedy).
func oracleIteratedGreedy(d *Decision) {
	if len(d.elig) == 0 {
		return
	}
	for _, i := range d.elig {
		d.SetSigma(i, 2)
	}
	h := &d.e.heap
	h.build(d.elig)
	for d.avail >= 2 {
		i, ok := h.top()
		if !ok {
			break
		}
		pmax := d.sigmaNew[i] + d.avail
		first := d.sigmaNew[i] + 2
		improvable := d.Candidate(i, first) < d.tUc[i]
		if !improvable && first < pmax && !d.skipDead(i, first+2, pmax) {
			for cand := first + 2; cand <= pmax; cand += 2 {
				if d.Candidate(i, cand) < d.tUc[i] {
					improvable = true
					break
				}
			}
		}
		if !improvable {
			break
		}
		d.SetSigma(i, d.sigmaNew[i]+2)
		h.fixTop()
	}
}

// oracleShortestTasksFirst is Algorithm 4 (shortestTasksFirst).
func oracleShortestTasksFirst(d *Decision) {
	if !d.IsEligible(d.faulty) {
		return
	}
	oracleAbsorbAndSteal(d, d.faulty)
}

// oracleArrivalSteal is the ArrivalSteal rule (arrivalSteal).
func oracleArrivalSteal(d *Decision) {
	for _, a := range d.arrived {
		if !d.IsEligible(a) {
			continue
		}
		oracleAbsorbAndSteal(d, a)
	}
}

// oracleAbsorbAndSteal is the body of Algorithm 4 (absorbAndSteal).
func oracleAbsorbAndSteal(d *Decision, f int) {
	k := d.avail
	for k >= 2 {
		granted := 0
		for q := 2; q <= k; q += 2 {
			if tE := d.Candidate(f, d.sigmaNew[f]+q); tE < d.tUc[f] {
				granted = q
				d.SetSigma(f, d.sigmaNew[f]+q)
				break
			}
		}
		if granted == 0 {
			break
		}
		k -= granted
	}
	for {
		s := shortestDonor(d, f)
		if s < 0 {
			break
		}
		improvable := false
		for q := 2; q <= d.sigmaNew[s]-2; q += 2 {
			tEf := d.Candidate(f, d.sigmaNew[f]+q)
			tEs := d.Candidate(s, d.sigmaNew[s]-q)
			if tEf < d.tUc[f] && tEs < d.tUc[f] {
				improvable = true
				break
			}
		}
		if !improvable {
			break
		}
		d.SetSigma(s, d.sigmaNew[s]-2)
		d.SetSigma(f, d.sigmaNew[f]+2)
		if d.tUc[s] > d.tUc[f] {
			break
		}
	}
}

// oracleEndProportional is the EndProportional rule (endProportional).
func oracleEndProportional(d *Decision) {
	elig := d.Eligible()
	if d.Avail() < 2 || len(elig) == 0 {
		return
	}
	for d.Avail() >= 2 {
		best := -1
		var bestQ float64
		for _, i := range elig {
			w := d.TU(i) - d.Now()
			if w < 0 {
				w = 0
			}
			granted := d.Sigma(i) - d.InitialSigma(i)
			q := w / float64(granted+1)
			if d.Candidate(i, d.Sigma(i)+2) >= d.TU(i) {
				continue
			}
			if best < 0 || q > bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return
		}
		d.SetSigma(best, d.Sigma(best)+2)
	}
}

// The oracle of each rule in the policy tables, by table and id.
var (
	oracleEnd = map[EndRule]func(*Decision){
		EndLocal: oracleEndLocal, EndGreedy: oracleIteratedGreedy, EndProportional: oracleEndProportional,
	}
	oracleFail = map[FailRule]func(*Decision){
		FailShortestTasksFirst: oracleShortestTasksFirst, FailIteratedGreedy: oracleIteratedGreedy,
	}
	oracleArrival = map[ArrivalRule]func(*Decision){
		ArrivalGreedy: oracleIteratedGreedy, ArrivalSteal: oracleArrivalSteal,
	}
)

// roundDiff counts, per rule, the rounds a differential run compared
// and how many of them changed an allocation, and keeps the first
// difference found.
type roundDiff struct {
	rounds, changed map[string]int
	err             error
}

// twin returns a rule that plays one decision round twice: first the
// oracle, on fresh evaluator bindings, then, from the same primed state
// and again on fresh bindings, the production rule, whose result the
// round commits. Any difference in a candidate allocation, a candidate
// finish time (compared bit for bit) or the free pool is recorded as
// the first error.
func twin(name, rule string, prod, oracle func(*Decision), rd *roundDiff) func(*Decision) {
	return func(d *Decision) {
		avail := d.avail
		oracle(d)
		wantAvail := d.avail
		wantSigma := make([]int, len(d.elig))
		wantTU := make([]float64, len(d.elig))
		for k, i := range d.elig {
			wantSigma[k], wantTU[k] = d.sigmaNew[i], d.tUc[i]
			d.sigmaNew[i], d.tUc[i] = d.sigmaInit[i], d.oldTU[i]
			d.bound[i] = 0 // rebind: the production rule starts from empty rows
		}
		d.avail = avail
		prod(d)
		rd.rounds[rule]++
		for k, i := range d.elig {
			if wantSigma[k] != d.sigmaInit[i] {
				rd.changed[rule]++
				break
			}
		}
		if rd.err != nil {
			return
		}
		if d.avail != wantAvail {
			rd.err = fmt.Errorf("%s at t=%v: avail %d, oracle %d", name, d.t, d.avail, wantAvail)
			return
		}
		for k, i := range d.elig {
			if d.sigmaNew[i] != wantSigma[k] || math.Float64bits(d.tUc[i]) != math.Float64bits(wantTU[k]) {
				rd.err = fmt.Errorf("%s at t=%v task %d: σ %d tU %v, oracle σ %d tU %v",
					name, d.t, i, d.sigmaNew[i], d.tUc[i], wantSigma[k], wantTU[k])
				return
			}
		}
	}
}

// withArrivals appends a few Synthetic jobs, submitted at sorted random
// times, to in.
func withArrivals(in Instance, src *rng.Source) Instance {
	n := 1 + src.Intn(4)
	at := 0.0
	arr := make([]Arrival, n)
	for k := range arr {
		at += src.Uniform(0, 1e5)
		m := src.Uniform(1e4, 2.5e6)
		arr[k] = Arrival{Time: at, Task: model.Task{
			ID: len(in.Tasks) + k, Data: m, Ckpt: m * src.Uniform(0.001, 1),
			Profile: model.Synthetic{M: m, SeqFraction: src.Uniform(0, 0.4)},
		}}
	}
	in.Arrivals = arr
	return in
}

// TestDecisionLoopsMatchOracle drives every round of every redistributing
// rule — EndGreedy, EndLocal and EndProportional at task ends,
// IteratedGreedy and ShortestTasksFirst at failures, ArrivalGreedy and
// ArrivalSteal at admissions — through both the production loops and
// their plain copies above, over the pruned-scan corpus (Synthetic and
// non-monotone Table packs, fault-free and faulty, verification and
// silent rows) under both semantics, and requires bit-equal rounds.
func TestDecisionLoopsMatchOracle(t *testing.T) {
	src := rng.New(2504)
	policies := []Policy{
		IGEndGreedy, IGEndLocal, STFEndGreedy, STFEndLocal,
		{OnEnd: EndProportional, OnFailure: FailIteratedGreedy},
		{OnEnd: EndProportional, OnFailure: FailShortestTasksFirst},
	}
	rd := roundDiff{rounds: map[string]int{}, changed: map[string]int{}}
	e := NewSimulator()
	for trial := 0; trial < 300; trial++ {
		in := prunedCorpusInstance(src)
		sem := Semantics(src.Intn(2))
		if trial%4 == 3 {
			in = withArrivals(in, src)
		}
		seed := src.Uint64()
		for _, pol := range policies {
			if in.Arrivals != nil {
				pol.OnArrival = []ArrivalRule{ArrivalGreedy, ArrivalSteal}[trial/4%2]
			}
			var fsrc failure.Source
			if in.Res.Lambda > 0 {
				var err error
				fsrc, err = failure.NewRenewal(in.P, failure.Exponential{Lambda: in.Res.Lambda}, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Reset(in, pol, fsrc, Options{Semantics: sem}); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("trial %d %v %v", trial, pol, sem)
			e.end = twin(name, pol.OnEnd.String(), e.end, oracleEnd[pol.OnEnd], &rd)
			e.fail = twin(name, pol.OnFailure.String(), e.fail, oracleFail[pol.OnFailure], &rd)
			if e.arrive != nil {
				e.arrive = twin(name, pol.OnArrival.String(), e.arrive, oracleArrival[pol.OnArrival], &rd)
			}
			if _, err := e.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rd.err != nil {
				t.Fatal(rd.err)
			}
		}
	}
	for _, rule := range []fmt.Stringer{EndGreedy, EndLocal, EndProportional, FailIteratedGreedy, FailShortestTasksFirst, ArrivalGreedy, ArrivalSteal} {
		name := rule.String()
		if rd.changed[name] == 0 {
			t.Errorf("%s: %d rounds compared, none redistributed: the property is vacuous for it", name, rd.rounds[name])
		}
		t.Logf("%s: %d rounds compared bit for bit, %d of them redistributed", name, rd.rounds[name], rd.changed[name])
	}
}
