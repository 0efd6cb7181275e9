// Package model implements the execution-time and resilience model of
// Benoit, Pottier and Robert, "Resilient application co-scheduling with
// processor redistribution" (RR-8795 / ICPP'16): speedup profiles
// (Eq. 10), Young's checkpointing period (Eq. 1), the expected completion
// time of a work fraction under fail-stop errors (Eq. 2–4), the
// processor-count threshold monotonization (Eq. 6), and the
// redistribution cost (Eq. 7/9).
package model

import (
	"fmt"
	"math"
)

// Profile yields the fault-free execution time of one task as a function
// of its processor count: Time(j) is t_{i,j} for j >= 1.
//
// The paper assumes t_{i,j} is non-increasing in j and the total work
// j*t_{i,j} is non-decreasing in j; both hold for the profiles below and
// are verified by property tests.
type Profile interface {
	Time(j int) float64
}

// Synthetic is the paper's synthetic application model (§6.1, Eq. 10):
//
//	t(m,1) = 2·m·log2(m)
//	t(m,q) = f·t(m,1) + (1−f)·t(m,1)/q + (m/q)·log2(m)   for q ≥ 2
//
// where m is the problem size and f the sequential fraction (0.08 in the
// paper). The (m/q)·log2(m) term models communication/synchronization
// overhead.
type Synthetic struct {
	M           float64 // problem size m_i (number of data)
	SeqFraction float64 // f, sequential fraction of time
}

// Time implements Profile.
func (s Synthetic) Time(j int) float64 {
	if j < 1 {
		panic(fmt.Sprintf("model: Synthetic.Time with j=%d", j))
	}
	t1 := 2 * s.M * math.Log2(s.M)
	if j == 1 {
		return t1
	}
	q := float64(j)
	return s.SeqFraction*t1 + (1-s.SeqFraction)*t1/q + s.M/q*math.Log2(s.M)
}

// Table is an explicit execution-time profile: Times[j-1] = t_{i,j}.
// Queries beyond the table clamp to the last entry, which encodes the
// common "no further speedup" convention used by the NP-hardness
// instances of Theorem 2.
type Table struct {
	Times []float64
}

// Time implements Profile.
func (t Table) Time(j int) float64 {
	if j < 1 {
		panic(fmt.Sprintf("model: Table.Time with j=%d", j))
	}
	if len(t.Times) == 0 {
		panic("model: empty Table profile")
	}
	if j > len(t.Times) {
		j = len(t.Times)
	}
	return t.Times[j-1]
}

// Task couples a speedup profile with the per-task resilience data used
// throughout the paper: the data volume m_i (driving redistribution cost)
// and the sequential checkpoint time C_i (with C_{i,j} = C_i/j).
type Task struct {
	ID      int
	Data    float64 // m_i, total data volume of the task
	Ckpt    float64 // C_i, sequential time to checkpoint the task's data
	Verify  float64 // V_i, sequential verification time (silent-error extension; 0 in the paper)
	Profile Profile
}

// Time returns the fault-free execution time t_{i,j} of the task on j
// processors.
func (t Task) Time(j int) float64 { return t.Profile.Time(j) }

// RedistRounds is the round count of Eq. (9): moving a task from j to k
// processors sends m/(j·k) data units along every edge of the complete
// bipartite sender × receiver graph, one transfer per processor per
// round, and König's theorem makes the optimal number of rounds the
// maximum degree max(min(j,k), |k−j|). Moving to the same count needs
// no rounds.
func RedistRounds(j, k int) int {
	if j == k {
		return 0
	}
	lo, hi := min(j, k), max(j, k)
	return max(lo, hi-lo)
}

// CostModel generalizes the redistribution cost of Eq. (9) with network
// parameters: each of the max(min(j,k),|k−j|) communication rounds pays
// a fixed startup Latency plus the per-edge volume m/(j·k) divided by
// the bandwidth. The zero value is the paper's model (zero latency, unit
// bandwidth), so Eq. (9) is the special case
//
//	RC = rounds · (0 + m/(j·k) · 1).
//
// This is an extension used by the network-sensitivity ablation bench;
// the paper's experiments all run with the zero value.
type CostModel struct {
	// Latency is the per-round startup cost in seconds (α in LogP-style
	// models). Zero in the paper.
	Latency float64
	// InvBandwidth is the seconds per data unit transferred; the zero
	// value means the paper's unit bandwidth (1).
	InvBandwidth float64
}

// Cost returns the redistribution time for data volume m moving from j
// to k processors. Moving to the same count is free.
func (c CostModel) Cost(m float64, j, k int) float64 {
	if j <= 0 || k <= 0 {
		panic(fmt.Sprintf("model: redistribution cost with j=%d k=%d", j, k))
	}
	if j == k {
		return 0
	}
	ib := c.InvBandwidth
	if ib == 0 {
		ib = 1
	}
	perRound := m / float64(j) / float64(k) * ib
	return float64(RedistRounds(j, k)) * (c.Latency + perRound)
}
