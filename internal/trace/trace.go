// Package trace provides simulation observability: a JSONL writer/reader
// for engine trace events and a plain-text timeline renderer used by the
// faulttrace example and cmd/coschedsim's verbose mode.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"cosched/internal/core"
)

// Log accumulates trace events in memory. Attach with Hook().
type Log struct {
	Events []core.TraceEvent
}

// Hook returns a callback suitable for core.Options.OnTrace.
func (l *Log) Hook() func(core.TraceEvent) {
	return func(ev core.TraceEvent) { l.Events = append(l.Events, ev) }
}

// Write serializes the log as JSON Lines.
func (l *Log) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range l.Events {
		if err := enc.Encode(&l.Events[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a JSON Lines trace.
func Read(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var l Log
	for {
		var ev core.TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: parsing event %d: %w", len(l.Events), err)
		}
		l.Events = append(l.Events, ev)
	}
	return &l, nil
}

// Timeline renders a human-readable event listing, one line per event,
// time-sorted. Durations are printed in the simulation's native seconds.
func (l *Log) Timeline() string {
	evs := append([]core.TraceEvent(nil), l.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	var b strings.Builder
	for _, ev := range evs {
		switch ev.Kind {
		case "failure":
			fmt.Fprintf(&b, "%14.2f  FAILURE      task %-4d (processor %d)\n", ev.Time, ev.Task, ev.Proc)
		case "suppressed":
			fmt.Fprintf(&b, "%14.2f  suppressed   task %-4d (processor %d, protected phase)\n", ev.Time, ev.Task, ev.Proc)
		case "idle":
			fmt.Fprintf(&b, "%14.2f  idle-strike  processor %d (unallocated)\n", ev.Time, ev.Proc)
		case "end":
			fmt.Fprintf(&b, "%14.2f  END          task %-4d\n", ev.Time, ev.Task)
		case "redistribute":
			fmt.Fprintf(&b, "%14.2f  REDISTRIBUTE task %-4d %d → %d procs (cost %.2f)\n",
				ev.Time, ev.Task, ev.From, ev.To, ev.Cost)
		default:
			fmt.Fprintf(&b, "%14.2f  %-12s task %-4d\n", ev.Time, ev.Kind, ev.Task)
		}
	}
	return b.String()
}

// AllocationTimeline reconstructs each task's allocation history from the
// trace (given the initial allocations) as step functions; useful for
// Gantt-style rendering.
func (l *Log) AllocationTimeline(initial []int) map[int][]Step {
	out := make(map[int][]Step, len(initial))
	for task, sigma := range initial {
		out[task] = []Step{{Time: 0, Procs: sigma}}
	}
	evs := append([]core.TraceEvent(nil), l.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	for _, ev := range evs {
		switch ev.Kind {
		case "redistribute":
			out[ev.Task] = append(out[ev.Task], Step{Time: ev.Time, Procs: ev.To})
		case "end":
			out[ev.Task] = append(out[ev.Task], Step{Time: ev.Time, Procs: 0})
		}
	}
	return out
}

// Step is one level of a task's allocation step function.
type Step struct {
	Time  float64
	Procs int
}
