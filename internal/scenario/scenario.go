// Package scenario defines the declarative experiment specification of
// the campaign subsystem. A Spec is a JSON-encodable description of a
// Monte-Carlo study: a base workload (pack shape, platform size,
// checkpoint cost model), a failure regime (exponential or Weibull law
// with a per-processor MTBF), a list of redistribution policies, a
// replicate count, and a parameter grid — either cartesian Axes expanded
// into every combination, or an explicit Points list for irregular
// sweeps (this is how the paper figures are expressed).
//
// Specs round-trip through JSON losslessly, validate eagerly, and carry
// a stable fingerprint so that campaign manifests can detect when a
// resume targets a different study. internal/campaign executes them.
package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/workload"
)

// FailureSpec selects the fault inter-arrival law. The rate always comes
// from the workload's MTBF; the law only shapes the distribution.
type FailureSpec struct {
	// Law is "" or "exponential" (the paper's model) or "weibull".
	Law string `json:"law,omitempty"`
	// Shape is the Weibull shape parameter k (shape < 1 models infant
	// mortality). Ignored for the exponential law.
	Shape float64 `json:"shape,omitempty"`
}

// PrecisionSpec switches a campaign from fixed replicate counts to
// adaptive, precision-driven sampling: the runner schedules replicates
// in batches per grid point and stops a point as soon as every policy's
// batch-means Student-t confidence interval is tight enough, instead of
// burning the same count whether the estimate converged after 50
// replicates or still wobbles after 5000. When a spec carries a
// precision block, its fixed `replicates` count is ignored.
//
// Stopping decisions are evaluated only at batch boundaries over
// replicates folded in replicate order, so they depend on completed
// batch counts alone — never on worker count or arrival order — and an
// adaptive campaign is exactly as deterministic as a fixed one.
type PrecisionSpec struct {
	// RelHalfWidth is the target relative confidence-interval half-width
	// h: a (point, policy) cell has converged when t·s_B/√B ≤ h·|mean|,
	// with s_B the standard deviation over completed batch means.
	RelHalfWidth float64 `json:"rel_half_width"`
	// Confidence is the two-sided confidence level (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// MinReplicates floors the replicate count per point (default two
	// batches, the minimum with a defined variance estimate).
	MinReplicates int `json:"min_replicates,omitempty"`
	// MaxReplicates caps the replicate count per point; a point that
	// never converges stops there. Required.
	MaxReplicates int `json:"max_replicates"`
	// Batch is the scheduling granularity (default 8): replicates run in
	// batches of this size and the stopping rule is checked between
	// batches.
	Batch int `json:"batch,omitempty"`
}

// BatchSize returns the effective scheduling batch size, clamped to the
// replicate cap.
func (p PrecisionSpec) BatchSize() int {
	b := p.Batch
	if b <= 0 {
		b = 8
	}
	if p.MaxReplicates > 0 && b > p.MaxReplicates {
		b = p.MaxReplicates
	}
	return b
}

// ConfidenceLevel returns the effective confidence level.
func (p PrecisionSpec) ConfidenceLevel() float64 {
	if p.Confidence > 0 {
		return p.Confidence
	}
	return 0.95
}

// MinReps returns the effective replicate floor: the explicit minimum,
// defaulting to two batches, never above the cap.
func (p PrecisionSpec) MinReps() int {
	m := p.MinReplicates
	if m <= 0 {
		m = 2 * p.BatchSize()
	}
	if m > p.MaxReplicates {
		m = p.MaxReplicates
	}
	return m
}

// validate checks the block in isolation; Spec.Validate calls it.
func (p PrecisionSpec) validate(ident string) error {
	if !(p.RelHalfWidth > 0) || math.IsInf(p.RelHalfWidth, 0) {
		return fmt.Errorf("scenario: %s precision needs a positive finite rel_half_width, got %v", ident, p.RelHalfWidth)
	}
	if p.Confidence != 0 && (p.Confidence <= 0 || p.Confidence >= 1 || math.IsNaN(p.Confidence)) {
		return fmt.Errorf("scenario: %s precision confidence %v outside (0,1)", ident, p.Confidence)
	}
	if p.MinReplicates < 0 {
		return fmt.Errorf("scenario: %s precision has a negative min_replicates %d", ident, p.MinReplicates)
	}
	if p.MaxReplicates < 1 {
		return fmt.Errorf("scenario: %s precision needs max_replicates ≥ 1, got %d", ident, p.MaxReplicates)
	}
	if p.MinReplicates > p.MaxReplicates {
		return fmt.Errorf("scenario: %s precision min_replicates %d exceeds max_replicates %d", ident, p.MinReplicates, p.MaxReplicates)
	}
	if p.Batch < 0 {
		return fmt.Errorf("scenario: %s precision has a negative batch %d", ident, p.Batch)
	}
	return nil
}

// Axis is one dimension of a cartesian parameter grid.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Point is one explicit grid point: the x-coordinate used for tables and
// a set of parameter overrides applied to the base workload.
type Point struct {
	X   float64            `json:"x"`
	Set map[string]float64 `json:"set,omitempty"`
}

// Spec is a complete declarative campaign description.
type Spec struct {
	Name   string `json:"name"`
	Title  string `json:"title,omitempty"`
	XLabel string `json:"xlabel,omitempty"`

	// Workload is the base configuration; grid parameters override its
	// fields point by point.
	Workload workload.Spec `json:"workload"`
	Failure  FailureSpec   `json:"failure,omitempty"`

	// Policies names the redistribution policies run on every unit (see
	// ParsePolicy). Labels, when present, gives them display names.
	Policies []string `json:"policies"`
	Labels   []string `json:"labels,omitempty"`
	// Base is the policy (by label, falling back to name) whose mean
	// makespan normalizes every series; "" keeps raw seconds.
	Base string `json:"base,omitempty"`

	Replicates int    `json:"replicates"`
	Seed       uint64 `json:"seed"`
	// Precision, when set, makes the campaign adaptive: Replicates is
	// ignored and each grid point runs only until its confidence
	// intervals meet the target (between MinReplicates and
	// MaxReplicates, in batches).
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Semantics is "" or "expected" (paper-faithful) or "deterministic".
	Semantics string `json:"semantics,omitempty"`
	// Arrivals, when set, switches the campaign to the online regime:
	// every unit submits dynamically arriving jobs on top of the base
	// pack, the block's rule attaches an arrival heuristic to every
	// policy, and per-job metrics (response, stretch, wait, utilization)
	// are folded alongside the makespan. Absent ⇒ the offline paper
	// setting, bit-identical to pre-online campaigns (golden-pinned).
	Arrivals *workload.ArrivalSpec `json:"arrivals,omitempty"`

	// Axes expands into the cartesian product of its values (first axis
	// outermost; its value is the point's x-coordinate). Points lists
	// grid points explicitly instead. At most one of the two may be set;
	// neither means a single point at the base workload.
	Axes   []Axis  `json:"axes,omitempty"`
	Points []Point `json:"points,omitempty"`
}

// Grid parameter names, each addressing one workload.Spec field.
const (
	ParamN          = "n"
	ParamP          = "p"
	ParamMInf       = "minf"
	ParamMSup       = "msup"
	ParamSeqFrac    = "f"
	ParamCkptUnit   = "c"
	ParamMTBF       = "mtbf"
	ParamDowntime   = "downtime"
	ParamSilentMTBF = "silent_mtbf"
	ParamVerifyUnit = "verify_unit"
)

// Params lists every grid parameter name in canonical order.
func Params() []string {
	return []string{ParamN, ParamP, ParamMInf, ParamMSup, ParamSeqFrac,
		ParamCkptUnit, ParamMTBF, ParamDowntime, ParamSilentMTBF, ParamVerifyUnit}
}

// apply sets the workload field addressed by param.
func apply(s *workload.Spec, param string, v float64) error {
	switch param {
	case ParamN:
		s.N = int(v)
	case ParamP:
		s.P = int(v)
	case ParamMInf:
		s.MInf = v
	case ParamMSup:
		s.MSup = v
	case ParamSeqFrac:
		s.SeqFraction = v
	case ParamCkptUnit:
		s.CkptUnit = v
	case ParamMTBF:
		s.MTBFYears = v
	case ParamDowntime:
		s.Downtime = v
	case ParamSilentMTBF:
		s.SilentMTBFYears = v
	case ParamVerifyUnit:
		s.VerifyUnit = v
	default:
		return fmt.Errorf("scenario: unknown grid parameter %q (want one of %s)",
			param, strings.Join(Params(), ", "))
	}
	return nil
}

// PolicySpec is one resolved policy of a scenario.
type PolicySpec struct {
	Name   string // canonical policy name (see ParsePolicy)
	Label  string // display name (defaults to Name)
	Policy core.Policy
	// FaultFree runs the policy with λ = 0 and no fault source: the
	// paper's fault-free-context reference curves.
	FaultFree bool
}

// aliases are the short policy names, in resolution and listing order:
// the paper's §6.2 combinations, then the proportional-share
// extension, then the end-rule-only forms. The "ff-" prefix turns any of
// them into its fault-free variant; every other name resolves through
// core.PolicyByName.
var aliases = []struct {
	name string
	pol  core.Policy
}{
	{"norc", core.NoRedistribution},
	{"ig-eg", core.IGEndGreedy},
	{"ig-el", core.IGEndLocal},
	{"stf-eg", core.STFEndGreedy},
	{"stf-el", core.STFEndLocal},
	{"ig-ep", core.Policy{OnEnd: core.EndProportional, OnFailure: core.FailIteratedGreedy}},
	{"stf-ep", core.Policy{OnEnd: core.EndProportional, OnFailure: core.FailShortestTasksFirst}},
	{"eg", core.Policy{OnEnd: core.EndGreedy}},
	{"el", core.Policy{OnEnd: core.EndLocal}},
	{"ep", core.Policy{OnEnd: core.EndProportional}},
}

// ParsePolicy resolves a policy name: a short alias (case-insensitive;
// see aliases) or a canonical Policy.String() composition such as
// "IteratedGreedy-EndLocal" or "ShortestTasksFirst-EndGreedy+ArrivalSteal"
// (case-sensitive; see core.PolicyNames). Each form may be prefixed with
// "ff-" for the fault-free-context variant (λ forced to 0).
func ParsePolicy(name string) (PolicySpec, error) {
	base, raw, prefix := strings.ToLower(name), name, ""
	if strings.HasPrefix(base, "ff-") {
		base, raw, prefix = base[len("ff-"):], raw[len("ff-"):], "ff-"
	}
	ff := prefix != ""
	for _, a := range aliases {
		if a.name == base {
			return PolicySpec{Name: prefix + base, Label: prefix + base, Policy: a.pol, FaultFree: ff}, nil
		}
	}
	// Canonical compositions keep their original spelling in Name: it
	// must round-trip through manifests and JSONL records.
	if pol, ok := core.PolicyByName(raw); ok {
		return PolicySpec{Name: prefix + raw, Label: prefix + raw, Policy: pol, FaultFree: ff}, nil
	}
	aliasNames := make([]string, len(aliases))
	for i, a := range aliases {
		aliasNames[i] = a.name
	}
	return PolicySpec{}, fmt.Errorf("scenario: unknown policy %q (want %s or a <fail>-<end> composition, optionally ff- prefixed; see -list-policies)",
		name, strings.Join(aliasNames, ", "))
}

// FprintPolicies writes every accepted policy name — the short aliases
// with their resolved combinations, the canonical compositions and the
// rule names. It backs the -list-policies flags of cmd/coschedsim and
// cmd/campaign.
func FprintPolicies(w io.Writer) {
	fmt.Fprintln(w, "short aliases (each also accepts an ff- prefix for the fault-free variant):")
	for _, a := range aliases {
		fmt.Fprintf(w, "  %-8s %s\n", a.name, a.pol)
	}
	fmt.Fprintln(w, "compositions:")
	for _, name := range core.PolicyNames() {
		fmt.Fprintf(w, "  %s\n", name)
	}
	fmt.Fprintf(w, "end rules:  %s\n", strings.Join(core.EndRules(), ", "))
	fmt.Fprintf(w, "fail rules: %s\n", strings.Join(core.FailRules(), ", "))
	fmt.Fprintf(w, "arrival rules (append \"+<rule>\" to a composition, online mode): %s\n",
		strings.Join(core.ArrivalRules(), ", "))
}

// Online reports whether the spec describes an online (dynamic-arrival)
// campaign.
func (s Spec) Online() bool { return s.Arrivals != nil }

// ParseArrivalRule resolves an arrival-rule name from a spec or CLI
// flag: the short aliases "steal" (the default for ""), "greedy" and
// "none", or any arrival rule name (core.ArrivalRuleByName).
func ParseArrivalRule(name string) (core.ArrivalRule, error) {
	switch strings.ToLower(name) {
	case "", "steal":
		return core.ArrivalSteal, nil
	case "greedy":
		return core.ArrivalGreedy, nil
	case "none":
		return core.ArrivalNone, nil
	}
	if r, ok := core.ArrivalRuleByName(name); ok {
		return r, nil
	}
	return 0, fmt.Errorf("scenario: unknown arrival rule %q (want none, greedy, steal or an arrival rule name)", name)
}

// PolicySpecs resolves the spec's policy list, applying Labels. For
// online specs (an arrivals block is present) the block's arrival rule
// is attached to every policy that does not already carry one, so
// "ig-el" in an online spec means IteratedGreedy-EndLocal plus the
// scenario's arrival rule; names, labels and fingerprints are
// untouched. An offline spec refuses a policy that names an arrival
// rule ("…+ArrivalGreedy"): with no arrivals the rule could never fire.
func (s Spec) PolicySpecs() ([]PolicySpec, error) {
	if len(s.Policies) == 0 {
		return nil, fmt.Errorf("scenario: %s lists no policies", s.ident())
	}
	if len(s.Labels) != 0 && len(s.Labels) != len(s.Policies) {
		return nil, fmt.Errorf("scenario: %s has %d labels for %d policies",
			s.ident(), len(s.Labels), len(s.Policies))
	}
	var arrivalRule core.ArrivalRule
	if s.Arrivals != nil {
		var err error
		arrivalRule, err = ParseArrivalRule(s.Arrivals.Rule)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ident(), err)
		}
	}
	out := make([]PolicySpec, len(s.Policies))
	seen := map[string]bool{}
	for i, name := range s.Policies {
		ps, err := ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		switch {
		case s.Arrivals == nil && ps.Policy.OnArrival != core.ArrivalNone:
			return nil, fmt.Errorf("scenario: %s: policy %q names arrival rule %v but the spec has no arrivals block",
				s.ident(), name, ps.Policy.OnArrival)
		case s.Arrivals != nil && ps.Policy.OnArrival == core.ArrivalNone:
			ps.Policy.OnArrival = arrivalRule
		}
		if len(s.Labels) != 0 {
			ps.Label = s.Labels[i]
		}
		if seen[ps.Label] {
			return nil, fmt.Errorf("scenario: %s repeats policy label %q", s.ident(), ps.Label)
		}
		seen[ps.Label] = true
		out[i] = ps
	}
	return out, nil
}

// RunPoint is one expanded grid point: its index in expansion order, the
// x-coordinate plotted for it, the parameter overrides that produced it
// (sorted for deterministic encoding), and the fully-resolved workload.
type RunPoint struct {
	Index int
	X     float64
	Set   map[string]float64
	Spec  workload.Spec
}

// Expand resolves the grid into run points. Explicit Points expand one
// to one; Axes expand into their cartesian product in row-major order
// (first axis outermost, its value doubling as the x-coordinate); an
// empty grid yields the single base-workload point with x = 0.
func (s Spec) Expand() ([]RunPoint, error) {
	if len(s.Axes) != 0 && len(s.Points) != 0 {
		return nil, fmt.Errorf("scenario: %s sets both axes and points", s.ident())
	}
	var out []RunPoint
	switch {
	case len(s.Points) != 0:
		out = make([]RunPoint, 0, len(s.Points))
		for _, pt := range s.Points {
			w := s.Workload
			set := make(map[string]float64, len(pt.Set))
			for _, k := range sortedKeys(pt.Set) {
				if err := apply(&w, k, pt.Set[k]); err != nil {
					return nil, err
				}
				set[k] = pt.Set[k]
			}
			out = append(out, RunPoint{Index: len(out), X: pt.X, Set: set, Spec: w})
		}
	case len(s.Axes) != 0:
		total := 1
		for _, ax := range s.Axes {
			if ax.Param == "" || len(ax.Values) == 0 {
				return nil, fmt.Errorf("scenario: %s has an empty axis %q", s.ident(), ax.Param)
			}
			if total > 1<<20/len(ax.Values) {
				return nil, fmt.Errorf("scenario: %s grid exceeds 2^20 points", s.ident())
			}
			total *= len(ax.Values)
		}
		out = make([]RunPoint, 0, total)
		idx := make([]int, len(s.Axes))
		for {
			w := s.Workload
			set := make(map[string]float64, len(s.Axes))
			for ai, ax := range s.Axes {
				if err := apply(&w, ax.Param, ax.Values[idx[ai]]); err != nil {
					return nil, err
				}
				set[ax.Param] = ax.Values[idx[ai]]
			}
			out = append(out, RunPoint{
				Index: len(out),
				X:     s.Axes[0].Values[idx[0]],
				Set:   set,
				Spec:  w,
			})
			// Odometer increment, last axis fastest.
			ai := len(idx) - 1
			for ; ai >= 0; ai-- {
				idx[ai]++
				if idx[ai] < len(s.Axes[ai].Values) {
					break
				}
				idx[ai] = 0
			}
			if ai < 0 {
				break
			}
		}
	default:
		out = []RunPoint{{Index: 0, X: 0, Set: map[string]float64{}, Spec: s.Workload}}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CoreSemantics maps the spec's semantics string to the engine's enum.
func (s Spec) CoreSemantics() (core.Semantics, error) {
	switch s.Semantics {
	case "", "expected":
		return core.SemanticsExpected, nil
	case "deterministic":
		return core.SemanticsDeterministic, nil
	default:
		return 0, fmt.Errorf("scenario: %s has unknown semantics %q (want expected or deterministic)", s.ident(), s.Semantics)
	}
}

func (s Spec) ident() string {
	if s.Name == "" {
		return "spec"
	}
	return fmt.Sprintf("spec %q", s.Name)
}

// Validate checks the whole spec: policy names, labels, base, semantics,
// failure law, replicate count, and that every expanded grid point
// yields a simulable workload.
func (s Spec) Validate() error {
	if s.Precision == nil && s.Replicates <= 0 {
		return fmt.Errorf("scenario: %s needs a positive replicate count, got %d", s.ident(), s.Replicates)
	}
	if s.Precision != nil {
		if err := s.Precision.validate(s.ident()); err != nil {
			return err
		}
	}
	if s.Arrivals != nil {
		if err := s.Arrivals.Validate(); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.ident(), err)
		}
	}
	pols, err := s.PolicySpecs()
	if err != nil {
		return err
	}
	if s.Base != "" {
		found := false
		for _, p := range pols {
			if p.Label == s.Base || p.Name == s.Base {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("scenario: %s normalization base %q is not among its policies", s.ident(), s.Base)
		}
	}
	if _, err := s.CoreSemantics(); err != nil {
		return err
	}
	// A unit rate probes the law's name and shape; the real rate comes
	// from each grid point's MTBF at run time. Delegating keeps
	// failure.LawForRate the single source of truth for supported laws.
	if _, err := failure.LawForRate(s.Failure.Law, 1, s.Failure.Shape); err != nil {
		return fmt.Errorf("scenario: %s: %w", s.ident(), err)
	}
	points, err := s.Expand()
	if err != nil {
		return err
	}
	needFaults := false
	for _, p := range pols {
		if !p.FaultFree {
			needFaults = true
		}
	}
	for _, pt := range points {
		w := pt.Spec
		if !needFaults {
			// Fault-free-only scenarios tolerate λ = 0 workloads with
			// silent-error fields, which Generate would otherwise reject.
			w.MTBFYears, w.SilentMTBFYears = 0, 0
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario: %s point %d (x=%v): %w", s.ident(), pt.Index, pt.X, err)
		}
	}
	return nil
}

// ReplicateCap returns the per-point replicate budget: the fixed
// replicate count, or the precision block's max_replicates for adaptive
// campaigns. Campaign unit indices and manifest capacities derive from
// it, so it is stable for a given spec.
func (s Spec) ReplicateCap() int {
	if s.Precision != nil {
		return s.Precision.MaxReplicates
	}
	return s.Replicates
}

// Decode reads and validates a JSON spec.
func Decode(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Encode writes the spec as indented JSON.
func (s Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Fingerprint is a stable 64-bit digest of the spec's canonical JSON
// form (encoding/json emits struct fields in declaration order and map
// keys sorted, so equal specs always hash equally). Campaign manifests
// store it to refuse resuming a different study.
func (s Spec) Fingerprint() (uint64, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: fingerprinting spec: %w", err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64(), nil
}
