package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Parent
// is the ID of the enclosing span (0 at the top); Run groups the spans
// of one campaign or request.
type span struct {
	ID, Parent, Run int
	Name            string
	Start, End      time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the traced run ends. A nil tracer
// records nothing, so untraced runs share the same code paths.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	runs   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newRun allocates an identifier for one campaign's or request's spans.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every finished span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each finished span's self time: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// unattributed is the share of the replayed units' time that no child
// layer span covers: campaign.unit self time over campaign.unit time.
func (t *tracer) unattributed() float64 {
	spans := t.closed()
	self := selfTimes(spans)
	var own, total time.Duration
	for _, s := range spans {
		if s.Name == "campaign.unit" {
			own += self[s.ID]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// writeFile writes the spans as trace-event JSON (the format chrome's
// about:tracing and Perfetto load), with the per-layer self times.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := t.closed()
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	selfMS := make(map[string]float64)
	for layer, d := range layerSelf(spans) {
		selfMS[layer] = float64(d) / 1e6
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"workload":     workload,
			"seed":         seed,
			"self_ms":      selfMS,
			"spans":        len(spans),
			"unattributed": t.unattributed(),
		},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
