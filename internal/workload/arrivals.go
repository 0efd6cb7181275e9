package workload

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"cosched/internal/model"
	"cosched/internal/rng"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	// ArrivalPoisson draws Count jobs with exponential inter-arrival
	// times at Rate jobs per second (a memoryless submission stream).
	ArrivalPoisson = "poisson"
	// ArrivalBatch submits jobs in batches of BatchSize every Interval
	// seconds, each job jittered uniformly in [0, Jitter) — the
	// "campaign of users hitting submit around the hour" regime.
	ArrivalBatch = "batch"
	// ArrivalTrace replays submission times from a trace file: one
	// arrival per line, "<time> [<size>]", '#' comments allowed. Jobs
	// without an explicit size draw one like any generated task.
	ArrivalTrace = "trace"
)

// ArrivalSpec describes how jobs arrive over time, switching a scenario
// to the online co-scheduling regime. Job sizes are drawn from the same
// [MInf, MSup] range as the base pack (trace entries may pin them), so a
// workload.Spec plus an ArrivalSpec fully determines the submitted work.
// The zero value means "no arrivals" (offline, the paper's setting).
type ArrivalSpec struct {
	Process string `json:"process"` // poisson | batch | trace
	// Count is the number of arriving jobs (poisson, batch).
	Count int `json:"count,omitempty"`
	// Rate is the Poisson arrival rate in jobs per second.
	Rate float64 `json:"rate,omitempty"`
	// Interval is the batch period in seconds (batch).
	Interval float64 `json:"interval,omitempty"`
	// BatchSize is the number of jobs per batch (batch; default 1).
	BatchSize int `json:"batch_size,omitempty"`
	// Jitter spreads each batched job uniformly over [0, Jitter) seconds
	// after its batch instant (batch; default 0 = sharp batches).
	Jitter float64 `json:"jitter,omitempty"`
	// Trace is the trace file path (trace). Note that scenario
	// fingerprints cover the path, not the file's contents: do not edit
	// a trace between a campaign run and its manifest resume.
	Trace string `json:"trace,omitempty"`
	// Rule names the arrival redistribution rule applied to every
	// policy of the scenario: "none", "greedy" (ArrivalGreedy), "steal"
	// (ArrivalSteal, the default), or any arrival rule name of the core
	// policy table.
	// It is resolved by scenario.ParseArrivalRule — this package stays
	// below the engine and treats the name as opaque.
	Rule string `json:"rule,omitempty"`
}

// Validate reports whether the arrival spec is generable.
func (a ArrivalSpec) Validate() error {
	switch a.Process {
	case ArrivalPoisson:
		if a.Count <= 0 {
			return fmt.Errorf("workload: poisson arrivals need a positive count, got %d", a.Count)
		}
		if !(a.Rate > 0) {
			return fmt.Errorf("workload: poisson arrivals need a positive rate, got %v", a.Rate)
		}
	case ArrivalBatch:
		if a.Count <= 0 {
			return fmt.Errorf("workload: batch arrivals need a positive count, got %d", a.Count)
		}
		if !(a.Interval > 0) {
			return fmt.Errorf("workload: batch arrivals need a positive interval, got %v", a.Interval)
		}
		if a.BatchSize < 0 {
			return fmt.Errorf("workload: negative batch size %d", a.BatchSize)
		}
		if a.Jitter < 0 {
			return fmt.Errorf("workload: negative jitter %v", a.Jitter)
		}
	case ArrivalTrace:
		if a.Trace == "" {
			return fmt.Errorf("workload: trace arrivals need a trace file path")
		}
	case "":
		return fmt.Errorf("workload: arrival spec needs a process (poisson, batch or trace)")
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want poisson, batch or trace)", a.Process)
	}
	return nil
}

// effBatch returns the effective batch size.
func (a ArrivalSpec) effBatch() int {
	if a.BatchSize <= 0 {
		return 1
	}
	return a.BatchSize
}

// ParseProcessArg parses the CLI form of an arrival process — "poisson",
// "batch", or "trace:FILE" — shared by the -arrivals flags of
// cmd/coschedsim and cmd/campaign. tracePath is empty except for the
// trace form.
func ParseProcessArg(arg string) (process, tracePath string, err error) {
	switch {
	case arg == ArrivalPoisson, arg == ArrivalBatch:
		return arg, "", nil
	case strings.HasPrefix(arg, "trace:"):
		return ArrivalTrace, strings.TrimPrefix(arg, "trace:"), nil
	default:
		return "", "", fmt.Errorf("workload: arrival process %q: want poisson, batch or trace:FILE", arg)
	}
}

// ApplyFlagDefaults fills the derivable fields a flag-built block
// leaves zero, so `-arrivals batch -jobs N` works without further
// flags: one batch of roughly Count/4 jobs per day.
func (a *ArrivalSpec) ApplyFlagDefaults() {
	if a.Process != ArrivalBatch {
		return
	}
	if a.Interval == 0 {
		a.Interval = 86400
	}
	if a.BatchSize == 0 {
		a.BatchSize = (a.Count + 3) / 4
	}
}

// Generate draws the arrival schedule implied by the spec: submission
// times from the configured process and job sizes from s's problem-size
// range, both consumed from src in a fixed order so equal source states
// always produce the same schedule. The result is sorted by time
// (stable: equal timestamps keep generation order), ready for
// core.Instance.Arrivals. For the trace process the file is read on
// every call; loops should load it once (LoadArrivalTrace) and use
// GenerateFromTrace instead, as the campaign runner does.
func (a ArrivalSpec) Generate(s Spec, src *rng.Source) ([]model.Arrival, error) {
	var entries []TraceArrival
	if a.Process == ArrivalTrace && a.Trace != "" {
		var err error
		if entries, err = LoadArrivalTrace(a.Trace); err != nil {
			return nil, err
		}
	}
	return a.GenerateFromTrace(s, src, entries)
}

// GenerateFromTrace is Generate with pre-loaded trace entries (required
// for the trace process, ignored otherwise): the campaign hot path
// parses the trace file once per campaign, not once per unit.
func (a ArrivalSpec) GenerateFromTrace(s Spec, src *rng.Source, entries []TraceArrival) ([]model.Arrival, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	type job struct {
		t    float64
		m    float64 // 0 = draw from the workload range
		seq  int
		draw bool
	}
	var jobs []job
	switch a.Process {
	case ArrivalPoisson:
		t := 0.0
		for k := 0; k < a.Count; k++ {
			t += src.Exponential(a.Rate)
			jobs = append(jobs, job{t: t, seq: k, draw: true})
		}
	case ArrivalBatch:
		b := a.effBatch()
		for k := 0; k < a.Count; k++ {
			t := float64(k/b) * a.Interval
			if a.Jitter > 0 {
				t += src.Uniform(0, a.Jitter)
			}
			jobs = append(jobs, job{t: t, seq: k, draw: true})
		}
	case ArrivalTrace:
		if len(entries) == 0 {
			return nil, fmt.Errorf("workload: trace arrivals need loaded entries (LoadArrivalTrace)")
		}
		for k, en := range entries {
			jobs = append(jobs, job{t: en.Time, m: en.Size, seq: k, draw: en.Size == 0})
		}
	}
	// Sizes are drawn in submission (generation) order, before sorting,
	// so the draw sequence is independent of the realized times.
	out := make([]model.Arrival, len(jobs))
	for k := range jobs {
		m := jobs[k].m
		if jobs[k].draw {
			m = src.Uniform(s.MInf, s.MSup)
			if s.MInf == s.MSup {
				m = s.MInf
			}
		}
		out[k] = model.Arrival{
			Time: jobs[k].t,
			Task: model.Task{
				ID:      s.N + jobs[k].seq,
				Data:    m,
				Ckpt:    s.CkptUnit * m,
				Verify:  s.VerifyUnit * m,
				Profile: model.Synthetic{M: m, SeqFraction: s.SeqFraction},
			},
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// TraceArrival is one parsed line of an arrival trace file.
type TraceArrival struct {
	Time float64 // submission time, seconds
	Size float64 // problem size m, 0 = draw from the workload range
}

// LoadArrivalTrace parses an arrival trace file: one arrival per line as
// "<time> [<size>]" (whitespace-separated), blank lines and lines
// starting with '#' ignored. Times must be finite and non-negative;
// entries need not be sorted (Generate sorts).
func LoadArrivalTrace(path string) ([]TraceArrival, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: opening arrival trace: %w", err)
	}
	defer f.Close()
	var out []TraceArrival
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 2 {
			return nil, fmt.Errorf("workload: %s:%d: want \"<time> [<size>]\", got %d fields", path, line, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("workload: %s:%d: invalid arrival time %q", path, line, fields[0])
		}
		en := TraceArrival{Time: t}
		if len(fields) == 2 {
			m, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !(m > 1) {
				return nil, fmt.Errorf("workload: %s:%d: invalid job size %q (want > 1)", path, line, fields[1])
			}
			en.Size = m
		}
		out = append(out, en)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading arrival trace: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: arrival trace %s has no entries", path)
	}
	return out, nil
}
