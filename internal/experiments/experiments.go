// Package experiments reproduces the evaluation section of the paper
// (§6, Figures 5–14). Every sweep-style figure is a declarative
// scenario.Spec (FigureScenario): one explicit grid point per swept
// value, carrying the full parameter set, and one labelled policy per
// curve the paper plots. Running it through campaign.Run inherits the
// runner's common-random-numbers discipline — every policy of a
// replicate sees the identical task draw and fault sequence — and its
// determinism across worker counts; the result table is normalized by
// the figure's no-redistribution baseline exactly as in the paper.
// Figure 9, a single-execution study rather than a sweep, has its own
// entry point (Figure9).
package experiments

import (
	"fmt"
	"strings"

	"cosched/internal/scenario"
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

	// Figure 9's three single-execution curves.
	SeriesFig9NoRC = "No redistribution"
	SeriesFig9IG   = "Iterated greedy"
	SeriesFig9STF  = "Shortest tasks first"
)

// curve is one plotted series of a sweep figure: its legend label and
// the scenario policy name that produces it.
type curve struct{ label, policy string }

// faultCurves are the six curves of the failure-context figures (7, 8,
// 10–14); faultFreeCurves the three of the fault-free figures (5, 6).
// The first curve of each is the normalization base.
var (
	faultCurves = []curve{
		{SeriesNoRC, "norc"},
		{SeriesIGEG, "ig-eg"},
		{SeriesIGEL, "ig-el"},
		{SeriesSTFEG, "stf-eg"},
		{SeriesSTFEL, "stf-el"},
		{SeriesFaultFree, "ff-el"},
	}
	faultFreeCurves = []curve{
		{SeriesFFNoRC, "ff-norc"},
		{SeriesFFGreedy, "ff-eg"},
		{SeriesFFLocal, "ff-el"},
	}
)

// Params tunes a figure reproduction. The zero value selects the paper's
// dimensions with a reduced replicate count (the paper uses 50; see
// EXPERIMENTS.md for the accuracy/runtime trade-off). Execution knobs —
// workers, adaptive precision, telemetry — belong to the spec or to
// campaign.Options, not here.
type Params struct {
	Reps   int     // replicates per point (default 10; paper: 50)
	Seed   uint64  // master seed (default 1)
	Shrink float64 // 0 or 1 = paper scale; 0.2 = fifth-scale platform
}

func (p Params) norm() Params {
	if p.Reps <= 0 {
		p.Reps = 10
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Shrink <= 0 || p.Shrink > 1 {
		p.Shrink = 1
	}
	return p
}

// shrinkSpec scales a paper-sized configuration down for quick runs,
// keeping p ≥ 2n and scaling the MTBF with the platform so failure
// counts per run stay comparable.
func shrinkSpec(s workload.Spec, f float64) workload.Spec {
	if f >= 1 {
		return s
	}
	n := int(float64(s.N) * f)
	if n < 2 {
		n = 2
	}
	p := int(float64(s.P) * f)
	if p%2 != 0 {
		p++
	}
	if p < 2*n {
		p = 2 * n
	}
	s.N, s.P = n, p
	if s.MTBFYears > 0 {
		s.MTBFYears *= f
	}
	return s
}

// SweepIDs lists every sweep-style figure identifier in paper order.
func SweepIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// FigureScenario returns the declarative campaign spec of a sweep-style
// figure: every swept x becomes an explicit grid point carrying the full
// parameter set, every curve a labelled policy. The spec round-trips
// through JSON, so paper figures can be exported (`campaign -figure 8
// -print-spec`), edited, and replayed like any other scenario. The extra
// id "online" maps to the online-regime demonstration study.
func FigureScenario(id string, pr Params) (scenario.Spec, error) {
	pr = pr.norm()
	if id == "online" {
		return onlineScenario(pr), nil
	}
	f, err := figureByID(id)
	if err != nil {
		return scenario.Spec{}, err
	}
	curves := faultCurves
	if f.faultFree {
		curves = faultFreeCurves
	}
	at := func(x float64) workload.Spec { return shrinkSpec(f.at(x), pr.Shrink) }
	sp := scenario.Spec{
		Name:       "fig" + id,
		Title:      f.title,
		XLabel:     f.xLabel,
		Workload:   at(f.x[0]),
		Base:       curves[0].label,
		Replicates: pr.Reps,
		Seed:       pr.Seed,
	}
	for _, c := range curves {
		sp.Policies = append(sp.Policies, c.policy)
		sp.Labels = append(sp.Labels, c.label)
	}
	for _, x := range f.x {
		w := at(x)
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

func figureByID(id string) (*figure, error) {
	for i := range figures {
		if figures[i].id == id {
			return &figures[i], nil
		}
	}
	if id == "9" || id == "9a" || id == "9b" {
		return nil, fmt.Errorf("experiments: figure 9 is a single-execution study, not a sweep; run it with `experiments -figure 9`")
	}
	return nil, fmt.Errorf("experiments: unknown figure id %q (want %s or online)", id, strings.Join(SweepIDs(), " "))
}
