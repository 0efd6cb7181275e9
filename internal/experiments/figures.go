package experiments

import (
	"fmt"

	"cosched/internal/workload"
)

// figure is one sweep-style panel of the paper's evaluation.
type figure struct {
	id     string // "5a", "7", "13c", ...
	title  string
	xLabel string
	x      []float64
	// at maps a swept value to the paper-scale workload at that point.
	at func(x float64) workload.Spec
	// faultFree selects the three fault-free curves instead of the six
	// fault-context ones.
	faultFree bool
}

// figures holds every sweep-style figure in paper order. Figure 9 is a
// single-execution study with its own entry point (Figure9).
var figures = []figure{
	faultFreeFigure("5a", 100, 1.5e6, seqPoints(200, 2000, 200)),
	faultFreeFigure("5b", 100, 1500, seqPoints(200, 2000, 200)),
	faultFreeFigure("6a", 1000, 1.5e6, seqPoints(2000, 5000, 500)),
	faultFreeFigure("6b", 1000, 1500, seqPoints(2000, 5000, 500)),
	{
		id:     "7",
		title:  "Impact of n with p=5000 (paper Figure 7)",
		xLabel: "#tasks",
		x:      seqPoints(100, 1000, 100),
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.N = int(x)
			s.P = 5000
			return s
		},
	},
	{
		id:     "8",
		title:  "Impact of p with n=100 (paper Figure 8)",
		xLabel: "#procs",
		x:      append([]float64{200}, seqPoints(500, 5000, 500)...),
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.P = int(x)
			return s
		},
	},
	mtbfFigure("10", 1000, 1),
	mtbfFigure("11", 5000, 1),
	{
		id:     "12",
		title:  "Impact of checkpoint cost with n=100, p=1000 (paper Figure 12)",
		xLabel: "cost of checkpoints (c)",
		x:      []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1},
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.CkptUnit = x
			return s
		},
	},
	mtbfFigure("13a", 1000, 1),
	mtbfFigure("13b", 1000, 0.1),
	mtbfFigure("13c", 1000, 0.01),
	{
		id:     "14",
		title:  "Impact of the sequential fraction with n=100, p=1000 (paper Figure 14)",
		xLabel: "fraction of sequential time (f)",
		x:      []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.SeqFraction = x
			return s
		},
	},
}

// faultFreeFigure is the fault-free redistribution study of Figures 5
// (n = 100) and 6 (n = 1000): p swept, homogeneous (variant "a",
// m_inf = 1.5e6) or heterogeneous (variant "b", m_inf = 1500) packs.
func faultFreeFigure(id string, n int, mInf float64, ps []float64) figure {
	return figure{
		id:     id,
		title:  fmt.Sprintf("Fault-free redistribution, n=%d, m_inf=%.2g (paper Figure %s)", n, mInf, id),
		xLabel: "#procs",
		x:      ps,
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.N = n
			s.P = int(x)
			s.MInf = mInf
			s.MTBFYears = 0
			return s
		},
		faultFree: true,
	}
}

// mtbfFigure sweeps the per-processor MTBF with n = 100 on p processors
// at checkpoint cost c: Figures 10 (p = 1000), 11 (p = 5000) and 13a–c
// (p = 1000, c = 1, 0.1, 0.01).
func mtbfFigure(id string, p int, c float64) figure {
	return figure{
		id:     id,
		title:  fmt.Sprintf("Impact of MTBF with n=100, p=%d, c=%g (paper Figure %s)", p, c, id),
		xLabel: "MTBF (years)",
		x:      []float64{5, 10, 25, 50, 75, 100, 125},
		at: func(x float64) workload.Spec {
			s := workload.Default()
			s.P = p
			s.MTBFYears = x
			s.CkptUnit = c
			return s
		},
	}
}

// seqPoints builds {from, from+step, ..., to}.
func seqPoints(from, to, step float64) []float64 {
	var out []float64
	for x := from; x <= to+1e-9; x += step {
		out = append(out, x)
	}
	return out
}
