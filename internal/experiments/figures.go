package experiments

import (
	"fmt"

	"cosched/internal/core"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// Params tunes a figure reproduction. The zero value selects the paper's
// dimensions with a reduced replicate count (the paper uses 50; see
// EXPERIMENTS.md for the accuracy/runtime trade-off).
type Params struct {
	Reps    int     // replicates per point (default 10; paper: 50)
	Seed    uint64  // master seed (default 1)
	Shrink  float64 // 0 or 1 = paper scale; 0.2 = fifth-scale platform
	Workers int     // run parallelism (0 = GOMAXPROCS)
	// Precision, when set, runs the figure adaptively: each grid point
	// burns replicates only until the target CI half-width is met
	// (Reps is then ignored; the block's own min/max bounds apply).
	Precision *scenario.PrecisionSpec
	// Metrics, when non-nil, receives live campaign telemetry.
	Metrics *obs.Campaign
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

// seqPoints builds {from, from+step, ..., to}.
func seqPoints(from, to, step float64) []float64 {
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, x)
	}
	return out
}

// mtbfPoints are the per-processor MTBF values (years) of Figures 10–13.
var mtbfPoints = []float64{5, 10, 25, 50, 75, 100, 125}

// Figure5 is the fault-free redistribution study with n = 100
// (Figure 5a/5b): p swept from 200 to 2000, homogeneous (variant "a",
// m_inf = 1.5e6) or heterogeneous (variant "b", m_inf = 1500) packs.
func Figure5(variant string, pr Params) (Sweep, error) {
	return faultFreeFigure("fig5"+variant, variant, 100, seqPoints(200, 2000, 200), pr)
}

// Figure6 is the fault-free study with n = 1000 (Figure 6a/6b): p swept
// from 2000 to 5000.
func Figure6(variant string, pr Params) (Sweep, error) {
	return faultFreeFigure("fig6"+variant, variant, 1000, seqPoints(2000, 5000, 500), pr)
}

func faultFreeFigure(id, variant string, n int, ps []float64, pr Params) (Sweep, error) {
	pr = pr.norm()
	var mInf float64
	switch variant {
	case "a":
		mInf = 1.5e6
	case "b":
		mInf = 1500
	default:
		return Sweep{}, fmt.Errorf("experiments: figure variant %q (want a or b)", variant)
	}
	return Sweep{
		ID:     id,
		Title:  fmt.Sprintf("Fault-free redistribution, n=%d, m_inf=%.2g (paper Figure %s)", n, mInf, id[3:]),
		XLabel: "#procs",
		X:      ps,
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.N = n
			s.P = int(x)
			s.MInf = mInf
			s.MTBFYears = 0
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultFreeSeries(),
		Base:   SeriesFFNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// Figure7 sweeps the number of tasks n with p = 5000 (paper Figure 7).
func Figure7(pr Params) (Sweep, error) {
	pr = pr.norm()
	return Sweep{
		ID:     "fig7",
		Title:  "Impact of n with p=5000 (paper Figure 7)",
		XLabel: "#tasks",
		X:      seqPoints(100, 1000, 100),
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.N = int(x)
			s.P = 5000
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultSeries(),
		Base:   SeriesNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// Figure8 sweeps the processor count p with n = 100 (paper Figure 8).
func Figure8(pr Params) (Sweep, error) {
	pr = pr.norm()
	x := append([]float64{200}, seqPoints(500, 5000, 500)...)
	return Sweep{
		ID:     "fig8",
		Title:  "Impact of p with n=100 (paper Figure 8)",
		XLabel: "#procs",
		X:      x,
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.P = int(x)
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultSeries(),
		Base:   SeriesNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// Figure10 sweeps the per-processor MTBF with p = 1000 (paper Figure 10).
func Figure10(pr Params) (Sweep, error) {
	return mtbfFigure("fig10", 1000, 1, pr)
}

// Figure11 sweeps the MTBF with p = 5000 (paper Figure 11).
func Figure11(pr Params) (Sweep, error) {
	return mtbfFigure("fig11", 5000, 1, pr)
}

func mtbfFigure(id string, p int, ckptUnit float64, pr Params) (Sweep, error) {
	pr = pr.norm()
	return Sweep{
		ID:     id,
		Title:  fmt.Sprintf("Impact of MTBF with n=100, p=%d, c=%g (paper Figure %s)", p, ckptUnit, id[3:]),
		XLabel: "MTBF (years)",
		X:      mtbfPoints,
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.P = p
			s.MTBFYears = x
			s.CkptUnit = ckptUnit
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultSeries(),
		Base:   SeriesNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// Figure12 sweeps the checkpointing unit cost c with n=100, p=1000
// (paper Figure 12; log-spaced points between 0.01 and 1).
func Figure12(pr Params) (Sweep, error) {
	pr = pr.norm()
	return Sweep{
		ID:     "fig12",
		Title:  "Impact of checkpoint cost with n=100, p=1000 (paper Figure 12)",
		XLabel: "cost of checkpoints (c)",
		X:      []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1},
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.CkptUnit = x
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultSeries(),
		Base:   SeriesNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// Figure13 reruns the MTBF sweep at checkpoint cost c = 1 ("a"),
// c = 0.1 ("b") or c = 0.01 ("c") with n=100, p=1000 (paper Figure 13).
func Figure13(variant string, pr Params) (Sweep, error) {
	var c float64
	switch variant {
	case "a":
		c = 1
	case "b":
		c = 0.1
	case "c":
		c = 0.01
	default:
		return Sweep{}, fmt.Errorf("experiments: figure 13 variant %q (want a, b or c)", variant)
	}
	return mtbfFigure("fig13"+variant, 1000, c, pr)
}

// Figure14 sweeps the sequential fraction f with n=100, p=1000
// (paper Figure 14).
func Figure14(pr Params) (Sweep, error) {
	pr = pr.norm()
	return Sweep{
		ID:     "fig14",
		Title:  "Impact of the sequential fraction with n=100, p=1000 (paper Figure 14)",
		XLabel: "fraction of sequential time (f)",
		X:      []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		SpecAt: func(x float64) workload.Spec {
			s := workload.Default()
			s.SeqFraction = x
			return shrinkSpec(s, pr.Shrink)
		},
		Series: FaultSeries(),
		Base:   SeriesNoRC,
		Reps:   pr.Reps,
		Seed:   pr.Seed,
	}, nil
}

// ByID builds the sweep(s) of a figure identifier: "5a", "5b", "6a",
// "6b", "7", "8", "10", "11", "12", "13a", "13b", "13c", "14".
// Figure 9 has a dedicated entry point (Figure9) because it is a
// single-execution study, not a sweep.
func ByID(id string, pr Params) (Sweep, error) {
	sw, err := byID(id, pr)
	if err != nil {
		return Sweep{}, err
	}
	sw.Precision = pr.Precision
	sw.Workers = pr.Workers
	sw.Metrics = pr.Metrics
	return sw, nil
}

func byID(id string, pr Params) (Sweep, error) {
	switch id {
	case "5a", "5b":
		return Figure5(id[1:], pr)
	case "6a", "6b":
		return Figure6(id[1:], pr)
	case "7":
		return Figure7(pr)
	case "8":
		return Figure8(pr)
	case "10":
		return Figure10(pr)
	case "11":
		return Figure11(pr)
	case "12":
		return Figure12(pr)
	case "13a", "13b", "13c":
		return Figure13(id[2:], pr)
	case "14":
		return Figure14(pr)
	default:
		return Sweep{}, fmt.Errorf("experiments: unknown figure id %q", id)
	}
}

// SweepIDs lists every sweep-style figure identifier in paper order.
func SweepIDs() []string {
	return []string{"5a", "5b", "6a", "6b", "7", "8", "10", "11", "12", "13a", "13b", "13c", "14"}
}

// FigureScenario returns the declarative campaign spec of a sweep-style
// figure: the same grid points and policies Sweep.Run would execute,
// exported for cmd/campaign (e.g. `campaign -figure 8`), spec files, and
// edited variants the paper never plotted. The extra id "online" maps to
// the online-regime demonstration study (OnlineScenario).
func FigureScenario(id string, pr Params) (scenario.Spec, error) {
	if id == "online" {
		return OnlineScenario(pr)
	}
	sw, err := ByID(id, pr)
	if err != nil {
		return scenario.Spec{}, err
	}
	return sw.Scenario()
}

// policyNames maps Figure 9's policies to their display names.
var figure9Policies = []struct {
	Name   string
	Policy core.Policy
}{
	{"No redistribution", core.NoRedistribution},
	{"Iterated greedy", core.IGEndLocal},
	{"Shortest tasks first", core.STFEndLocal},
}
