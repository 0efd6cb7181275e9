package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cosched/internal/rng"
)

func TestPopOrdersByTime(t *testing.T) {
	var q Queue
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		q.Push(Event{Time: tm})
	}
	prev := math.Inf(-1)
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		if e.Time < prev {
			t.Fatalf("heap order violated: %v after %v", e.Time, prev)
		}
		prev = e.Time
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Event{Time: 7, Task: i})
	}
	for i := 0; i < 10; i++ {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if e.Task != i {
			t.Fatalf("tie-break not FIFO: got task %d at position %d", e.Task, i)
		}
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1, Task: 42})
	e1, _ := q.Peek()
	e2, _ := q.Peek()
	if e1.Task != 42 || e2.Task != 42 || q.Len() != 1 {
		t.Fatal("Peek must not consume the event")
	}
}

func TestPushPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time did not panic")
		}
	}()
	var q Queue
	q.Push(Event{Time: math.NaN()})
}

func TestPushPanicsOnInf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inf time did not panic")
		}
	}()
	var q Queue
	q.Push(Event{Time: math.Inf(1)})
}

func TestReset(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1})
	q.Push(Event{Time: 2})
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not drain queue")
	}
	// Sequence numbers keep increasing after reset (determinism).
	q.Push(Event{Time: 5, Task: 1})
	q.Push(Event{Time: 5, Task: 2})
	e, _ := q.Pop()
	if e.Task != 1 {
		t.Fatal("FIFO tie-break broken after Reset")
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	src := rng.New(7)
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		src.Reseed(seed)
		var q Queue
		times := make([]float64, n)
		for i := range times {
			times[i] = src.Uniform(0, 1000)
			q.Push(Event{Time: times[i]})
		}
		sort.Float64s(times)
		for i := 0; i < n; i++ {
			e, ok := q.Pop()
			if !ok || e.Time != times[i] {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindFailure.String() != "failure" || KindTaskEnd.String() != "task-end" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	src := rng.New(1)
	for i := 0; i < b.N; i++ {
		q.Push(Event{Time: src.Float64()})
		if q.Len() > 1024 {
			for q.Len() > 0 {
				q.Pop()
			}
		}
	}
}

// TestQueueEqualTimestampInterleave pins the package's tie-break
// contract: events pushed at the same timestamp pop in FIFO (insertion)
// order regardless of kind, interleaved arbitrarily with earlier and
// later events. The online kernel's determinism at shared instants
// (Submit vs End vs Failure) rests on exactly this order.
func TestQueueEqualTimestampInterleave(t *testing.T) {
	var q Queue
	// Three events at t=10 in a deliberate kind mix, plus neighbors.
	q.Push(Event{Time: 10, Kind: KindTaskEnd, Task: 0})
	q.Push(Event{Time: 5, Kind: KindTaskEnd, Task: 1})
	q.Push(Event{Time: 10, Kind: KindSubmit, Task: 2})
	q.Push(Event{Time: 10, Kind: KindFailure, Task: 3, Proc: 7})
	q.Push(Event{Time: 15, Kind: KindSubmit, Task: 4})
	q.Push(Event{Time: 10, Kind: KindTaskEnd, Task: 5})

	want := []struct {
		time float64
		kind Kind
		task int
	}{
		{5, KindTaskEnd, 1},
		{10, KindTaskEnd, 0}, // first pushed at t=10
		{10, KindSubmit, 2},  // then the submit
		{10, KindFailure, 3}, // then the failure
		{10, KindTaskEnd, 5}, // last pushed at t=10
		{15, KindSubmit, 4},
	}
	for i, w := range want {
		ev, ok := q.Pop()
		if !ok {
			t.Fatalf("queue drained after %d events, want %d", i, len(want))
		}
		if ev.Time != w.time || ev.Kind != w.kind || ev.Task != w.task {
			t.Fatalf("pop %d = {t=%v %v task=%d}, want {t=%v %v task=%d}",
				i, ev.Time, ev.Kind, ev.Task, w.time, w.kind, w.task)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after the expected sequence")
	}

	// Reset keeps the seq counter, so cross-phase ties stay FIFO: an
	// event pushed after Reset sorts behind nothing from before (the
	// queue is empty) but its seq keeps growing monotonically.
	q.Push(Event{Time: 1, Kind: KindSubmit, Task: 0})
	q.Reset()
	q.Push(Event{Time: 1, Kind: KindTaskEnd, Task: 1})
	q.Push(Event{Time: 1, Kind: KindSubmit, Task: 2})
	ev, _ := q.Pop()
	if ev.Task != 1 {
		t.Fatalf("post-Reset FIFO broken: first pop is task %d", ev.Task)
	}
	if ev2, _ := q.Pop(); ev2.Task != 2 {
		t.Fatalf("post-Reset FIFO broken: second pop is task %d", ev2.Task)
	}
	if k := KindSubmit.String(); k != "submit" {
		t.Fatalf("KindSubmit renders as %q", k)
	}
}
