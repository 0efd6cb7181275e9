// Package sim provides the discrete-event simulation core: a binary-heap
// event queue with deterministic tie-breaking and versioned (cancellable)
// events. The co-scheduling engine (internal/core) drives its main loop
// from this queue; failures, task terminations and job submissions are
// all events.
//
// Tie-break contract: events are ordered by (Time, seq), where seq is
// the Push insertion order. Events scheduled at the same timestamp
// therefore pop in FIFO order regardless of kind — a Submit pushed
// before an End at the same instant is processed first, and vice versa.
// This ordering is part of the engine's determinism contract and is
// pinned by TestQueueEqualTimestampInterleave.
package sim

import (
	"fmt"
	"math"
)

// Kind discriminates event types.
type Kind int

const (
	// KindFailure is a processor failure drawn from the fault generator.
	KindFailure Kind = iota
	// KindTaskEnd is the (predicted) termination of a task.
	KindTaskEnd
	// KindSubmit is the arrival of a new job (online co-scheduling). For
	// submit events Task carries the arrival index, not a task index.
	KindSubmit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFailure:
		return "failure"
	case KindTaskEnd:
		return "task-end"
	case KindSubmit:
		return "submit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is a timestamped simulation event. A task's end event is
// re-scheduled in place (Queue.UpdateTask) and cancelled by removal
// (Queue.RemoveTask), so the heap never holds a stale one.
type Event struct {
	Time float64
	Kind Kind
	Task int    // task index (KindTaskEnd, KindFailure)
	Proc int    // processor hit (KindFailure only)
	seq  uint64 // insertion order, breaks time ties deterministically
}

// Queue is a min-heap of events ordered by (Time, seq). The zero value is
// ready to use. It is not safe for concurrent use.
//
// The heap is hand-rolled rather than built on container/heap: the
// interface-based API boxes every Event on Push, which costs one heap
// allocation per scheduled event. The manual version keeps the hot loop
// of the engine allocation-free once the backing array has grown to the
// run's high-water mark.
type Queue struct {
	h   []Event
	seq uint64
	pos []int // task -> heap index of its tracked KindTaskEnd event, -1 when absent
}

// track records the heap position of a tracked task-end event. Only
// tasks registered via UpdateTask have an entry in pos; everything else
// (submit events, plain-Push task ends in tests) is a two-branch no-op.
func (q *Queue) track(i int) {
	if ev := &q.h[i]; ev.Kind == KindTaskEnd && ev.Task < len(q.pos) {
		q.pos[ev.Task] = i
	}
}

// less orders the heap by (Time, seq).
func (q *Queue) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

// up restores the heap property from leaf i towards the root and
// returns the element's final position.
func (q *Queue) up(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		q.track(i)
		i = parent
	}
	q.track(i)
	return i
}

// down restores the heap property from node i towards the leaves and
// returns the element's final position.
func (q *Queue) down(i int) int {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		q.track(i)
		i = child
	}
	if i < n {
		q.track(i)
	}
	return i
}

// Push schedules an event. Non-finite or NaN times are rejected with a
// panic: they indicate a bug upstream and would corrupt the heap order.
func (q *Queue) Push(e Event) {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		panic(fmt.Sprintf("sim: event with non-finite time %v", e.Time))
	}
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest event. The boolean is false when
// the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	e := q.h[0]
	if e.Kind == KindTaskEnd && e.Task < len(q.pos) && q.pos[e.Task] == 0 {
		q.pos[e.Task] = -1
	}
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return e, true
}

// UpdateTask schedules (or re-schedules) the single live end event of a
// task: if the task already has a tracked event in the queue, it is
// replaced in place and re-sifted; otherwise the event is inserted. The
// replacement receives a fresh sequence number, so the surfaced order is
// identical to cancelling the old event and pushing a new one — but the
// stale entry never exists, the heap stays at one event per task, and
// the engine's pop loop never has to discard. Tasks managed through
// UpdateTask must not also receive plain Push end events, or the index
// would track only one of them.
func (q *Queue) UpdateTask(e Event) {
	if e.Kind != KindTaskEnd {
		panic(fmt.Sprintf("sim: UpdateTask with kind %v", e.Kind))
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		panic(fmt.Sprintf("sim: event with non-finite time %v", e.Time))
	}
	for e.Task >= len(q.pos) {
		q.pos = append(q.pos, -1)
	}
	e.seq = q.seq
	q.seq++
	if p := q.pos[e.Task]; p >= 0 {
		q.h[p] = e
		q.down(q.up(p))
		return
	}
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// RemoveTask drops the tracked end event of a task, if any. It is the
// queue half of early finalization: a task can be finalized while its
// end event is still pending, and removal here keeps the single-live-
// event invariant (and the pop loop free of staleness checks).
func (q *Queue) RemoveTask(task int) {
	if task >= len(q.pos) {
		return
	}
	p := q.pos[task]
	if p < 0 {
		return
	}
	q.pos[task] = -1
	n := len(q.h) - 1
	if p != n {
		q.h[p] = q.h[n]
		q.h = q.h[:n]
		q.down(q.up(p))
		return
	}
	q.h = q.h[:n]
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Reset discards all pending events but keeps the backing array and the
// sequence counter, so event ordering remains deterministic across phases
// and re-use never re-grows a warmed-up queue.
func (q *Queue) Reset() {
	q.h = q.h[:0]
	for i := range q.pos {
		q.pos[i] = -1
	}
}
