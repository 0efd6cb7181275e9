// Package experiments reproduces the evaluation section of the paper
// (§6, Figures 5–14). Each figure is a Sweep: a swept parameter, a spec
// generator, and the series (policies) the paper plots. Sweeps are thin
// clients of the campaign subsystem: Run converts the sweep into a
// declarative scenario.Spec (explicit grid points, one policy per
// series) and executes it on the sharded campaign runner, inheriting its
// common-random-numbers discipline — every policy of a replicate sees
// the identical task draw and fault sequence — and its determinism
// across worker counts. Results are normalized by the no-redistribution
// fault baseline exactly as in the paper.
package experiments

import (
	"fmt"

	"cosched/internal/campaign"
	"cosched/internal/core"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// Series names shared across figures (matching the paper's legends).
const (
	SeriesNoRC      = "Fault context without RC"
	SeriesIGEG      = "IteratedGreedy-EndGreedy"
	SeriesIGEL      = "IteratedGreedy-EndLocal"
	SeriesSTFEG     = "ShortestTasksFirst-EndGreedy"
	SeriesSTFEL     = "ShortestTasksFirst-EndLocal"
	SeriesFaultFree = "Fault-free context with RC (local)"

	SeriesFFNoRC   = "Without RC"
	SeriesFFGreedy = "With RC (greedy)"
	SeriesFFLocal  = "With RC (local decisions)"
)

// SeriesSpec is one curve of a figure.
type SeriesSpec struct {
	Name      string
	Policy    core.Policy
	FaultFree bool // run with λ = 0 and no fault source
}

// FaultSeries returns the six curves of the failure-context figures
// (7, 8, 10–14). The first entry is the normalization base.
func FaultSeries() []SeriesSpec {
	return []SeriesSpec{
		{Name: SeriesNoRC, Policy: core.NoRedistribution},
		{Name: SeriesIGEG, Policy: core.IGEndGreedy},
		{Name: SeriesIGEL, Policy: core.IGEndLocal},
		{Name: SeriesSTFEG, Policy: core.STFEndGreedy},
		{Name: SeriesSTFEL, Policy: core.STFEndLocal},
		{Name: SeriesFaultFree, Policy: core.Policy{OnEnd: core.EndLocal}, FaultFree: true},
	}
}

// FaultFreeSeries returns the three curves of the fault-free figures
// (5, 6). The first entry is the normalization base.
func FaultFreeSeries() []SeriesSpec {
	return []SeriesSpec{
		{Name: SeriesFFNoRC, Policy: core.NoRedistribution, FaultFree: true},
		{Name: SeriesFFGreedy, Policy: core.Policy{OnEnd: core.EndGreedy}, FaultFree: true},
		{Name: SeriesFFLocal, Policy: core.Policy{OnEnd: core.EndLocal}, FaultFree: true},
	}
}

// Sweep is one panel of a paper figure.
type Sweep struct {
	ID     string
	Title  string
	XLabel string
	X      []float64
	// SpecAt maps a swept value to a full workload configuration.
	SpecAt func(x float64) workload.Spec
	Series []SeriesSpec
	// Base is the series used for normalization ("" keeps raw seconds).
	Base string
	Reps int
	Seed uint64
	// Precision, when set, runs the sweep adaptively through the
	// campaign runner's precision controller instead of a fixed Reps.
	Precision *scenario.PrecisionSpec
	// Semantics for all runs (paper-faithful expected times by default).
	Semantics core.Semantics
	// Workers bounds run parallelism; 0 means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives the campaign runner's live
	// telemetry (see campaign.Options.Metrics). Results are unaffected.
	Metrics *obs.Campaign
}

// Scenario converts the sweep into its declarative campaign form: every
// swept x becomes an explicit grid point carrying the full parameter set
// produced by SpecAt, and every series becomes a labelled policy. The
// result round-trips through JSON, so paper figures can be exported,
// edited, and replayed by cmd/campaign like any other scenario.
func (s Sweep) Scenario() (scenario.Spec, error) {
	if len(s.X) == 0 || len(s.Series) == 0 || s.SpecAt == nil {
		return scenario.Spec{}, fmt.Errorf("experiments: sweep %s has no points or series", s.ID)
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 1
	}
	sp := scenario.Spec{
		Name:       s.ID,
		Title:      s.Title,
		XLabel:     s.XLabel,
		Workload:   s.SpecAt(s.X[0]),
		Base:       s.Base,
		Replicates: reps,
		Seed:       s.Seed,
		Precision:  s.Precision,
	}
	if s.Semantics == core.SemanticsDeterministic {
		sp.Semantics = "deterministic"
	}
	for _, series := range s.Series {
		name, err := scenario.PolicyName(series.Policy, series.FaultFree)
		if err != nil {
			return scenario.Spec{}, fmt.Errorf("experiments: sweep %s series %q: %w", s.ID, series.Name, err)
		}
		sp.Policies = append(sp.Policies, name)
		sp.Labels = append(sp.Labels, series.Name)
	}
	for _, x := range s.X {
		w := s.SpecAt(x)
		sp.Points = append(sp.Points, scenario.Point{X: x, Set: map[string]float64{
			scenario.ParamN:          float64(w.N),
			scenario.ParamP:          float64(w.P),
			scenario.ParamMInf:       w.MInf,
			scenario.ParamMSup:       w.MSup,
			scenario.ParamSeqFrac:    w.SeqFraction,
			scenario.ParamCkptUnit:   w.CkptUnit,
			scenario.ParamMTBF:       w.MTBFYears,
			scenario.ParamDowntime:   w.Downtime,
			scenario.ParamSilentMTBF: w.SilentMTBFYears,
			scenario.ParamVerifyUnit: w.VerifyUnit,
		}})
	}
	return sp, nil
}

// Run executes the sweep through the campaign runner and returns the
// aggregated (and, when Base is set, normalized) table of mean
// makespans.
func (s Sweep) Run() (*stats.Table, error) {
	res, err := s.RunCampaign()
	if err != nil {
		return nil, err
	}
	return res.Table()
}

// RunCampaign executes the sweep and returns the full campaign result —
// per-point replicate counts, quantiles, precision diagnostics — for
// callers that need more than Run's distilled table (e.g. reporting
// what an adaptive sweep saved).
func (s Sweep) RunCampaign() (*campaign.Result, error) {
	sp, err := s.Scenario()
	if err != nil {
		return nil, err
	}
	res, err := campaign.Run(sp, campaign.Options{Workers: s.Workers, Metrics: s.Metrics})
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep %s: %w", s.ID, err)
	}
	return res, nil
}
