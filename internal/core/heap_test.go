package core

import (
	"math"
	"math/rand"
	"testing"
)

// linearArgmax is the reference pool discipline: a linear scan for the
// largest key, ties to the smaller task index.
func linearArgmax(pool []int, key []float64) int {
	best := 0
	for p := 1; p < len(pool); p++ {
		a, b := pool[p], pool[best]
		if key[a] > key[b] || (key[a] == key[b] && a < b) {
			best = p
		}
	}
	return best
}

// TestTaskHeapMatchesLinearScan pins the heap's take order against a
// linear-scan reference over random keys drawn from a small set (so ties
// are frequent, +Inf included), through the grow-loop operations: take the
// top, then lower, keep or raise its key and fixTop, or pop it.
func TestTaskHeapMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	levels := []float64{1, 2, 2.5, 3, 7, math.Inf(1)}
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		key := make([]float64, n)
		for i := range key {
			key[i] = levels[r.Intn(len(levels))]
		}
		var members []int
		for i := 0; i < n; i++ {
			if r.Intn(4) != 0 {
				members = append(members, i)
			}
		}
		var h taskHeap
		h.rebind(key)
		h.build(members)
		ref := append([]int(nil), members...)
		for step := 0; ; step++ {
			got, ok := h.top()
			if !ok {
				if len(ref) != 0 {
					t.Fatalf("trial %d step %d: heap empty, reference holds %v", trial, step, ref)
				}
				break
			}
			best := linearArgmax(ref, key)
			if want := ref[best]; got != want {
				t.Fatalf("trial %d step %d: top %d (key %v), linear scan %d (key %v)",
					trial, step, got, key[got], want, key[want])
			}
			switch r.Intn(4) {
			case 0:
				popped, _ := h.popMax()
				if popped != got {
					t.Fatalf("trial %d step %d: popMax %d after top %d", trial, step, popped, got)
				}
				ref = append(ref[:best], ref[best+1:]...)
			case 1:
				key[got] = levels[r.Intn(len(levels))] // any change, raises included
				h.fixTop()
			default:
				key[got] -= float64(r.Intn(3)) // the grow loops' decrease (0 keeps it)
				h.fixTop()
			}
		}
	}
}
