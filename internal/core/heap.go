package core

// taskHeap is a max-priority pool of task indices keyed by a
// caller-maintained value (the expected finish time tU). The heuristics
// repeatedly take the longest task, possibly lower its key, and keep it
// in the pool — exactly the list discipline of Algorithms 1, 3 and 5.
// Ties break on the smaller task index so runs are deterministic.
//
// The comparator (key descending, index ascending; keyedBefore) is a
// total order, so the maximum is unique no matter how the pool is
// stored. It is a sifted binary heap: pools hold every live task of a
// pack (up to n = 1000 in Figure 7), and a grow loop that takes the top,
// lowers its key and sifts it down (top, fixTop) pays O(log n) per step
// instead of a linear scan. The pop order is identical to a linear
// argmax scan (TestTaskHeapMatchesLinearScan) and pinned by the golden
// tests. Algorithms 1 and 3 grow through the heap step by step;
// Algorithm 5 takes its leading simple steps in level rounds, which
// need only the order (levelround.go), and builds the heap for the
// rest.
type taskHeap struct {
	idx []int     // heap-ordered task indices
	key []float64 // key per task index (shared with the engine)
}

// rebind points the pool at a (possibly re-grown) key slice and clears it.
func (h *taskHeap) rebind(key []float64) {
	h.key = key
	h.idx = h.idx[:0]
}

// before reports whether task a orders before task b: larger key first,
// ties to the smaller index.
func (h *taskHeap) before(a, b int) bool {
	return keyedBefore(h.key[a], a, h.key[b], b)
}

// keyedBefore is the pool's total order on (key, task index) pairs:
// task a with key ka orders before task b with key kb when ka is larger,
// or the keys tie and a is the smaller index.
func keyedBefore(ka float64, a int, kb float64, b int) bool {
	return ka > kb || (ka == kb && a < b)
}

// down sifts heap slot p towards the leaves.
func (h *taskHeap) down(p int) {
	n := len(h.idx)
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(h.idx[r], h.idx[c]) {
			c = r
		}
		if !h.before(h.idx[c], h.idx[p]) {
			return
		}
		h.idx[p], h.idx[c] = h.idx[c], h.idx[p]
		p = c
	}
}

// top returns the task with the largest key (ties to the smaller index)
// without removing it; ok is false when empty.
func (h *taskHeap) top() (int, bool) {
	if len(h.idx) == 0 {
		return 0, false
	}
	return h.idx[0], true
}

// fixTop restores the heap order after the top task's key changed: a
// lower key sifts down, a higher one leaves the task on top.
func (h *taskHeap) fixTop() {
	h.down(0)
}

// popMax removes and returns the task with the largest key (ties to the
// smaller index); ok is false when empty.
func (h *taskHeap) popMax() (int, bool) {
	n := len(h.idx)
	if n == 0 {
		return 0, false
	}
	i := h.idx[0]
	h.idx[0] = h.idx[n-1]
	h.idx = h.idx[:n-1]
	h.down(0)
	return i, true
}

// build loads the given indices, reusing the backing array.
func (h *taskHeap) build(indices []int) {
	h.idx = append(h.idx[:0], indices...)
	for p := len(h.idx)/2 - 1; p >= 0; p-- {
		h.down(p)
	}
}
