// Package failure is the fault simulator substrate. The paper uses the
// fault generator of Bougeret et al. / Bosilca et al. ([20, 21]) to draw
// i.i.d. fail-stop failures per processor from an exponential law of
// parameter λ; this package reimplements that generator (exponential and,
// as an extension, Weibull inter-arrival laws), plus trace recording and
// replay so that experiments are reproducible and policies can be
// compared on identical failure sequences.
package failure

import (
	"fmt"
	"math"

	"cosched/internal/rng"
)

// Fault is one fail-stop failure: processor Proc fails at time Time.
type Fault struct {
	Time float64 `json:"t"`
	Proc int     `json:"proc"`
}

// Source produces a time-ordered stream of faults. Next returns false
// when the stream is exhausted (finite traces) — generative sources are
// endless and the consumer stops pulling when its simulation ends.
type Source interface {
	Next() (Fault, bool)
}

// Law is a per-processor inter-arrival distribution for a renewal fault
// process.
type Law interface {
	// Gap draws the time from one failure of a processor to its next.
	Gap(r *rng.Source) float64
	// Rate returns the long-run failure rate (1/mean gap) used for
	// diagnostics; it may return 0 if unknown.
	Rate() float64
}

// Exponential is the memoryless law of the paper: gap ~ Exp(λ).
type Exponential struct {
	Lambda float64 // per-processor failure rate (1/MTBF)
}

// Gap implements Law.
func (e Exponential) Gap(r *rng.Source) float64 { return r.Exponential(e.Lambda) }

// Rate implements Law.
func (e Exponential) Rate() float64 { return e.Lambda }

// Weibull is the heavy-tailed extension law with shape k and scale λ_s.
// Shape < 1 models infant mortality, shape 1 reduces to Exponential.
type Weibull struct {
	Shape, Scale float64
}

// Gap implements Law.
func (w Weibull) Gap(r *rng.Source) float64 { return r.Weibull(w.Shape, w.Scale) }

// Rate implements Law.
func (w Weibull) Rate() float64 {
	if w.Scale == 0 {
		return 0
	}
	// Mean = Scale·Γ(1 + 1/Shape).
	return 1 / (w.Scale * math.Gamma(1+1/w.Shape))
}

// LawForRate builds a named law with the given long-run per-processor
// failure rate. Supported names are "" or "exponential" (shape ignored)
// and "weibull", whose scale is chosen so that the mean inter-arrival
// time is 1/rate for the given shape. It is the bridge from declarative
// scenario specs to the fault simulator.
func LawForRate(name string, rate, shape float64) (Law, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("failure: law %q needs a positive rate, got %v", name, rate)
	}
	switch name {
	case "", "exponential":
		return Exponential{Lambda: rate}, nil
	case "weibull":
		if shape <= 0 {
			return nil, fmt.Errorf("failure: weibull law needs a positive shape, got %v", shape)
		}
		return Weibull{Shape: shape, Scale: 1 / (rate * math.Gamma(1+1/shape))}, nil
	default:
		return nil, fmt.Errorf("failure: unknown law %q (want exponential or weibull)", name)
	}
}

// Null is a fault-free source.
type Null struct{}

// Next implements Source.
func (Null) Next() (Fault, bool) { return Fault{}, false }

// procEntry is a pending next-failure for one processor.
type procEntry struct {
	t    float64
	proc int
}

// procHeap is a hand-rolled min-heap of pending per-processor failures
// (earliest time first, ties on the smaller processor index). It is an
// index heap rather than a container/heap implementation so the
// steady-state fault loop pays plain slice operations — no interface
// dispatch, no boxing of procEntry values. The sift order reproduces
// container/heap's Init/Fix exactly, so fault streams are bit-identical
// to the previous implementation (the core golden tests replay them).
type procHeap []procEntry

// less orders heap positions i, j.
func (h procHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].proc < h[j].proc
}

// down sifts position i toward the leaves, exactly as container/heap.
func (h procHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// init heapifies the whole slice (container/heap.Init's visit order).
func (h procHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Renewal generates faults as p independent per-processor renewal
// processes with the given law, merged in time order via a heap. For the
// exponential law this is exactly the paper's fault model. Draw order is
// deterministic for a given seed.
type Renewal struct {
	law Law
	rng *rng.Source
	h   procHeap
}

// NewRenewal creates a renewal source over p processors.
func NewRenewal(p int, law Law, src *rng.Source) (*Renewal, error) {
	r := &Renewal{}
	if err := r.Reset(p, law, src); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-arms the source in place for a new simulation run: fresh
// first-failure draws for p processors from law and src, reusing the
// merge heap's backing array. A Monte-Carlo worker can therefore hold
// one Renewal (and one reseeded rng.Source) per goroutine instead of
// allocating a generator per replicate; the draw sequence is identical
// to a freshly built NewRenewal with the same inputs.
func (r *Renewal) Reset(p int, law Law, src *rng.Source) error {
	if p <= 0 {
		return fmt.Errorf("failure: processor count %d must be positive", p)
	}
	if law == nil || src == nil {
		return fmt.Errorf("failure: law and rng source are required")
	}
	r.law, r.rng = law, src
	if cap(r.h) < p {
		r.h = make(procHeap, 0, p)
	}
	r.h = r.h[:0]
	for q := 0; q < p; q++ {
		r.h = append(r.h, procEntry{t: law.Gap(src), proc: q})
	}
	r.h.init()
	return nil
}

// Next implements Source; the stream is endless.
func (r *Renewal) Next() (Fault, bool) {
	e := r.h[0]
	r.h[0].t = e.t + r.law.Gap(r.rng)
	r.h.down(0)
	return Fault{Time: e.t, Proc: e.proc}, true
}

// Replay is the common-random-numbers source: it records the faults it
// pulls from an inner generator and can rewind to serve the identical
// stream again without touching the generator. A policy-comparison loop
// arms the generator once, runs its first policy through a fresh Replay
// and every later policy through Rewind — replays are pure slice reads
// (no heap sifts, no RNG draws), and a policy that outlives the recorded
// prefix transparently continues pulling (and recording) from the
// generator, whose state sits exactly at the end of the prefix.
type Replay struct {
	gen Source
	log []Fault
	pos int
}

// Reset re-arms the replay over a freshly armed generator, discarding
// the recorded prefix but keeping its capacity.
func (r *Replay) Reset(gen Source) {
	r.gen = gen
	r.log = r.log[:0]
	r.pos = 0
}

// Rewind restarts the recorded stream from the beginning.
func (r *Replay) Rewind() { r.pos = 0 }

// Next implements Source.
func (r *Replay) Next() (Fault, bool) {
	if r.pos < len(r.log) {
		f := r.log[r.pos]
		r.pos++
		return f, true
	}
	f, ok := r.gen.Next()
	if ok {
		r.log = append(r.log, f)
		r.pos++
	}
	return f, ok
}

// Trace replays a recorded fault sequence.
type Trace struct {
	faults []Fault
	pos    int
}

// NewTrace wraps a fault list; it must be sorted by time.
func NewTrace(faults []Fault) (*Trace, error) {
	for i := 1; i < len(faults); i++ {
		if faults[i].Time < faults[i-1].Time {
			return nil, fmt.Errorf("failure: trace not time-ordered at index %d", i)
		}
	}
	return &Trace{faults: faults}, nil
}

// Next implements Source.
func (t *Trace) Next() (Fault, bool) {
	if t.pos >= len(t.faults) {
		return Fault{}, false
	}
	f := t.faults[t.pos]
	t.pos++
	return f, true
}

// Rewind restarts the trace from the beginning, so one recorded sequence
// can be replayed against several policies (common random numbers).
func (t *Trace) Rewind() { t.pos = 0 }
