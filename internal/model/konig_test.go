package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// This file is the achievability oracle for Eq. (9)'s round count: it
// builds the explicit König transfer plan of §3.3 — every sender sends
// m/(j·k) data units to every receiver of the complete bipartite graph,
// one transfer per processor per round — and checks that RedistRounds
// rounds suffice and are used. It is also the starting point for
// data-volume-aware redistribution costs.

// transfer is one point-to-point data movement within a plan.
type transfer struct {
	from, to int // processor IDs
	round    int // communication round, 0-based
	volume   float64
}

// plan is a full redistribution: all transfers, grouped into rounds.
type plan struct {
	rounds    int
	transfers []transfer
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// growPlan expands a task from the j processors in keep to keep plus
// added (k = j+q): every original processor sends to every newcomer.
func growPlan(keep, added []int, m float64) plan {
	j, k := len(keep), len(keep)+len(added)
	return bipartite(keep, added, m/float64(j*k))
}

// shrinkPlan contracts a task to the k processors in keep: every leaving
// processor sends its share to every keeper (j = k+q).
func shrinkPlan(keep, leaving []int, m float64) plan {
	j, k := len(keep)+len(leaving), len(keep)
	return bipartite(leaving, keep, m/float64(j*k))
}

// bipartite colors the complete bipartite graph senders × receivers with
// max(len(senders), len(receivers)) colors: edge (u,v) gets color
// (u+v) mod M. Two edges sharing a sender differ in v (< M), two sharing
// a receiver differ in u (< M), so the coloring is proper.
func bipartite(senders, receivers []int, perEdge float64) plan {
	a, b := len(senders), len(receivers)
	rounds := max(a, b)
	ts := make([]transfer, 0, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			ts = append(ts, transfer{from: senders[u], to: receivers[v], round: (u + v) % rounds, volume: perEdge})
		}
	}
	return plan{rounds: rounds, transfers: ts}
}

// validate checks that the plan is a proper round schedule: within a
// round no processor appears in two transfers, no sender–receiver pair
// appears twice, and the round indices are within bounds.
func (p plan) validate() error {
	type edge struct{ f, t int }
	type slot struct{ proc, round int }
	seen := make(map[edge]bool, len(p.transfers))
	busy := make(map[slot]bool, 2*len(p.transfers))
	for _, tr := range p.transfers {
		if tr.round < 0 || tr.round >= p.rounds {
			return fmt.Errorf("round %d out of [0,%d)", tr.round, p.rounds)
		}
		e := edge{tr.from, tr.to}
		if seen[e] {
			return fmt.Errorf("duplicate transfer %d→%d", tr.from, tr.to)
		}
		seen[e] = true
		sf, st := slot{tr.from, tr.round}, slot{tr.to, tr.round}
		if busy[sf] || busy[st] {
			return fmt.Errorf("processor reused in round %d (%d→%d)", tr.round, tr.from, tr.to)
		}
		busy[sf], busy[st] = true, true
	}
	return nil
}

// planFor builds the j → k plan on processors 0..max(j,k)−1.
func planFor(j, k int, m float64) plan {
	if k > j {
		return growPlan(seq(0, j), seq(j, k-j), m)
	}
	return shrinkPlan(seq(0, k), seq(k, j-k), m)
}

// duration is the plan's wall time under network model cm: rounds run
// one after another, each pays the startup latency and then lasts as long
// as its largest transfer at cm's bandwidth.
func (p plan) duration(cm CostModel) float64 {
	ib := cm.InvBandwidth
	if ib == 0 {
		ib = 1
	}
	longest := make([]float64, p.rounds)
	for _, tr := range p.transfers {
		longest[tr.round] = max(longest[tr.round], tr.volume*ib)
	}
	var d float64
	for _, l := range longest {
		d += cm.Latency + l
	}
	return d
}

// TestKonigPlansAchieveRedistRounds is the oracle: for every j ≠ k up to
// 64 the König plan is a proper schedule of the whole complete bipartite
// graph and takes exactly RedistRounds(j, k) rounds.
func TestKonigPlansAchieveRedistRounds(t *testing.T) {
	for j := 1; j <= 64; j++ {
		for k := 1; k <= 64; k++ {
			if j == k {
				if RedistRounds(j, k) != 0 {
					t.Fatalf("RedistRounds(%d,%d) = %d, want 0", j, k, RedistRounds(j, k))
				}
				continue
			}
			p := planFor(j, k, 7200)
			if err := p.validate(); err != nil {
				t.Fatalf("%d→%d: %v", j, k, err)
			}
			if p.rounds != RedistRounds(j, k) {
				t.Fatalf("%d→%d: plan takes %d rounds, RedistRounds says %d", j, k, p.rounds, RedistRounds(j, k))
			}
			if want := min(j, k) * (max(j, k) - min(j, k)); len(p.transfers) != want {
				t.Fatalf("%d→%d: %d transfers, want the %d edges of the bipartite graph", j, k, len(p.transfers), want)
			}
		}
	}
}

// TestTotalVolume checks what a plan moves: every edge carries m/(j·k)
// for every j ≠ k up to 64, so on a grow the newcomers receive their
// share q·m/k in total.
func TestTotalVolume(t *testing.T) {
	const m = 7200.0
	for j := 1; j <= 64; j++ {
		for k := 1; k <= 64; k++ {
			if j == k {
				continue
			}
			perEdge := m / float64(j*k)
			for _, tr := range planFor(j, k, m).transfers {
				if tr.volume != perEdge {
					t.Fatalf("%d→%d: edge volume %v, want m/(j·k) = %v", j, k, tr.volume, perEdge)
				}
			}
		}
	}
	// j=3 → k=6: each of the 9 edges carries 90/18 = 5, a total of
	// q·m/k = 3·15 = 45.
	var total float64
	for _, tr := range planFor(3, 6, 90).transfers {
		total += tr.volume
	}
	if math.Abs(total-45) > 1e-12 {
		t.Fatalf("total volume %v, want 45", total)
	}
}

// TestPlanDurationMatchesCost ties the plan to the paper's model: for
// every j ≠ k up to 64, rounds × per-edge volume at unit bandwidth is
// the zero-value CostModel's Eq. (9) cost.
func TestPlanDurationMatchesCost(t *testing.T) {
	const m = 7200.0
	for j := 1; j <= 64; j++ {
		for k := 1; k <= 64; k++ {
			if j == k {
				continue
			}
			got, want := planFor(j, k, m).duration(CostModel{}), (CostModel{}).Cost(m, j, k)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%d→%d: plan duration %v != Eq. 9 cost %v", j, k, got, want)
			}
		}
	}
}

// TestCostMatchesModel extends the plan check to the network model: a
// plan whose rounds each pay Latency and move their transfers at
// InvBandwidth lasts exactly CostModel.Cost, for random sizes, data
// volumes and network parameters.
func TestCostMatchesModel(t *testing.T) {
	err := quick.Check(func(jRaw, kRaw uint8, mRaw uint16, latRaw, ibRaw uint8) bool {
		j := int(jRaw%40)*2 + 2
		k := int(kRaw%40)*2 + 2
		m := float64(mRaw) + 1
		cm := CostModel{Latency: float64(latRaw) / 8, InvBandwidth: float64(ibRaw) / 64}
		want := cm.Cost(m, j, k)
		if j == k {
			return want == 0
		}
		return math.Abs(planFor(j, k, m).duration(cm)-want) <= 1e-12*want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistRoundsPaperExample(t *testing.T) {
	// Figure 3 of the paper: j=4 → k=6 requires χ'(G) = ∆(G) = 4 rounds.
	if got := RedistRounds(4, 6); got != 4 {
		t.Fatalf("RedistRounds(4,6) = %d, want 4", got)
	}
}

func TestRedistRoundsCases(t *testing.T) {
	cases := []struct{ j, k, want int }{
		{2, 4, 2},
		{2, 10, 8},
		{10, 12, 10},
		{6, 2, 4},  // shrink: max(min(6,2), 4)
		{12, 4, 8}, // shrink: max(4, 8)
		{4, 4, 0},
	}
	for _, c := range cases {
		if got := RedistRounds(c.j, c.k); got != c.want {
			t.Fatalf("RedistRounds(%d,%d) = %d, want %d", c.j, c.k, got, c.want)
		}
	}
}

// TestRedistCostPanics: RedistRounds leaves argument checks to its
// callers, so both cost routes must refuse a non-positive allocation.
func TestRedistCostPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"CostModel.Cost source": func() { CostModel{}.Cost(1, 0, 2) },
		"CostModel.Cost target": func() { CostModel{}.Cost(1, 2, -2) },
		"RedistRow.Cost target": func() { RedistRow{j: 2}.Cost(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-positive allocation", name)
				}
			}()
			f()
		}()
	}
}

func TestGrowPlanStructure(t *testing.T) {
	added := seq(10, 2)
	p := growPlan(seq(0, 4), added, 48)
	if p.rounds != 4 {
		t.Fatalf("rounds = %d, want 4", p.rounds)
	}
	if len(p.transfers) != 8 { // complete bipartite K_{4,2}
		t.Fatalf("transfers = %d, want 8", len(p.transfers))
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// Each edge carries m/(j·k) = 48/(4·6) = 2, so every newcomer
	// receives j·m/(j·k) = m/k.
	recv := map[int]float64{}
	for _, tr := range p.transfers {
		recv[tr.to] += tr.volume
	}
	for _, q := range added {
		if recv[q] != 48.0/6.0 {
			t.Fatalf("newcomer %d received %v, want %v", q, recv[q], 48.0/6.0)
		}
	}
}

func TestShrinkPlanStructure(t *testing.T) {
	leaving := seq(2, 4)
	p := shrinkPlan(seq(0, 2), leaving, 36)
	// j = 6 → k = 2: rounds = max(min(6,2), 4) = 4.
	if p.rounds != 4 {
		t.Fatalf("rounds = %d, want 4", p.rounds)
	}
	if len(p.transfers) != 8 { // K_{4,2}
		t.Fatalf("transfers = %d, want 8", len(p.transfers))
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// Every leaver drains its share: k edges of m/(j·k), total m/j.
	sent := map[int]float64{}
	for _, tr := range p.transfers {
		sent[tr.from] += tr.volume
	}
	for _, q := range leaving {
		if sent[q] != 36.0/6.0 {
			t.Fatalf("leaver %d sent %v, want %v", q, sent[q], 36.0/6.0)
		}
	}
}

// TestValidateCatchesBrokenPlans keeps the oracle honest: a validator
// that accepted everything would make the round-count check vacuous.
func TestValidateCatchesBrokenPlans(t *testing.T) {
	p := growPlan(seq(0, 2), seq(10, 2), 8)
	bad := plan{rounds: p.rounds, transfers: append([]transfer(nil), p.transfers...)}
	bad.transfers[0].round = 99
	if bad.validate() == nil {
		t.Fatal("out-of-range round not caught")
	}
	bad.transfers[0] = p.transfers[1] // duplicate edge
	if bad.validate() == nil {
		t.Fatal("duplicate edge not caught")
	}
	conflict := plan{rounds: p.rounds, transfers: append([]transfer(nil), p.transfers...)}
	// Force two transfers with a shared endpoint into the same round.
	conflict.transfers[1].round = conflict.transfers[0].round
	conflict.transfers[1].from = conflict.transfers[0].from
	conflict.transfers[1].to = 77
	if conflict.validate() == nil {
		t.Fatal("round conflict not caught")
	}
}
