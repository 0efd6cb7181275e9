package model

import (
	"fmt"
	"math"
)

// PeriodRule selects the checkpointing-period formula. The paper uses
// Young's first-order approximation (Eq. 1); Daly's higher-order estimate
// is provided as an extension for ablation studies.
type PeriodRule int

const (
	// PeriodYoung is Young's period τ = sqrt(2·µ·C) + C (Eq. 1).
	PeriodYoung PeriodRule = iota
	// PeriodDaly is Daly's higher-order period (extension):
	// τ = sqrt(2·µ·C)·(1 + (1/3)·sqrt(C/(2µ)) + (1/9)·(C/(2µ))) for
	// C < 2µ, and µ + C otherwise. Like Young's formula it includes the
	// checkpoint itself, so the work segment is τ − C.
	PeriodDaly
)

// String implements fmt.Stringer.
func (p PeriodRule) String() string {
	switch p {
	case PeriodYoung:
		return "young"
	case PeriodDaly:
		return "daly"
	default:
		return fmt.Sprintf("PeriodRule(%d)", int(p))
	}
}

// Resilience holds the platform-wide fault and recovery parameters of §3.1.
type Resilience struct {
	// Lambda is the fail-stop rate of a single processor (1/MTBF).
	// Zero selects the fault-free limit: no failures, no checkpoints.
	Lambda float64
	// Downtime is D, the platform-dependent downtime after a failure.
	Downtime float64
	// Rule selects the checkpointing-period formula (default Young's).
	Rule PeriodRule
	// SilentLambda is the per-processor silent-error (SDC) rate of the
	// §7 extension; zero disables it (the paper's setting). See
	// silent.go for the model.
	SilentLambda float64
}

// Validate reports whether the parameters are admissible.
func (r Resilience) Validate() error {
	if r.Lambda < 0 {
		return fmt.Errorf("model: negative failure rate %v", r.Lambda)
	}
	if math.IsNaN(r.Lambda) || math.IsInf(r.Lambda, 0) {
		return fmt.Errorf("model: non-finite failure rate %v", r.Lambda)
	}
	if r.Downtime < 0 {
		return fmt.Errorf("model: negative downtime %v", r.Downtime)
	}
	if r.Rule != PeriodYoung && r.Rule != PeriodDaly {
		return fmt.Errorf("model: unknown period rule %d", int(r.Rule))
	}
	if r.SilentLambda < 0 || math.IsNaN(r.SilentLambda) || math.IsInf(r.SilentLambda, 0) {
		return fmt.Errorf("model: invalid silent-error rate %v", r.SilentLambda)
	}
	if r.SilentLambda > 0 && r.Lambda == 0 {
		return fmt.Errorf("model: silent errors need active checkpointing (Lambda > 0) for detection points")
	}
	return nil
}

// FaultFree reports whether the configuration disables failures entirely.
func (r Resilience) FaultFree() bool { return r.Lambda == 0 }

// Rate returns the failure rate λ·j of a task running on j processors.
func (r Resilience) Rate(j int) float64 { return r.Lambda * float64(j) }

// MTBF returns µ_{i,j} = µ/j, the MTBF of a task on j processors
// (+Inf in the fault-free limit).
func (r Resilience) MTBF(j int) float64 {
	if r.Lambda == 0 {
		return math.Inf(1)
	}
	return 1 / r.Rate(j)
}

// CkptCost returns C_{i,j} = C_i/j: the task's data is equally
// partitioned across its j processors (§3.1).
func (r Resilience) CkptCost(t Task, j int) float64 {
	if j < 1 {
		panic(fmt.Sprintf("model: CkptCost with j=%d", j))
	}
	return t.Ckpt / float64(j)
}

// Recovery returns R_{i,j}; the paper assumes R_{i,j} = C_{i,j}.
func (r Resilience) Recovery(t Task, j int) float64 { return r.CkptCost(t, j) }

// Period returns the checkpointing period τ_{i,j} (including the
// checkpoint itself, so the work segment is τ − C). In the fault-free
// limit the period is +Inf: no checkpoints are ever taken.
func (r Resilience) Period(t Task, j int) float64 {
	if r.Lambda == 0 {
		return math.Inf(1)
	}
	mu := r.MTBF(j)
	c := r.CkptCost(t, j)
	switch r.Rule {
	case PeriodDaly:
		if c >= 2*mu {
			return mu + c
		}
		x := c / (2 * mu)
		return math.Sqrt(2*mu*c) * (1 + math.Sqrt(x)/3 + x/9)
	default: // PeriodYoung, Eq. (1)
		return math.Sqrt(2*mu*c) + c
	}
}

// PostRedistCkpt returns the checkpoint taken right after a
// redistribution (§3.3.2: "we start with a checkpoint before computing"),
// which guarantees a fault never forces the redistribution to be redone.
// In the fault-free scenario of §3.3.1 no checkpoints exist and the
// surcharge is zero.
func (r Resilience) PostRedistCkpt(t Task, j int) float64 {
	if r.Lambda == 0 {
		return 0
	}
	return r.CkptCost(t, j)
}

// ffCount is the checkpoint count of Eq. (2) for a fault-free time t_{i,j}
// and a work segment τ_{i,j} − C_{i,j}. It is the shared kernel of
// FFCheckpoints, ExpectedTimeRaw and the compiled tables, so the
// derived quantities agree bit-for-bit no matter which entry point
// computed them.
func ffCount(alpha, tj, work float64) int {
	return int(math.Floor(alpha * tj / work))
}

// FFCheckpoints returns N^ff_{i,j}(α) (Eq. 2): the number of checkpoints
// taken while executing a fraction α of the task fault-free.
func (r Resilience) FFCheckpoints(t Task, j int, alpha float64) int {
	if alpha <= 0 {
		return 0
	}
	if r.Lambda == 0 {
		return 0 // infinite period: no checkpoints
	}
	return ffCount(alpha, t.Time(j), r.Period(t, j)-r.CkptCost(t, j))
}

// ExpectedTimeRaw returns t^R_{i,j}(α) of Eq. (4): the expected time to
// complete a fraction α of the task on j processors under failures,
// *without* the Eq. (6) monotonization. In the fault-free limit this is
// simply α·t_{i,j}.
//
// The α-independent sub-expressions (t_{i,j}, τ−C, C, λj, the e^{λjR}
// prefactor, the period term) are each computed exactly once and combined
// in a fixed order; the compiled tables cache them per (task, j) and must
// reproduce this combination order bit-for-bit (see compiled.go).
func (r Resilience) ExpectedTimeRaw(t Task, j int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha > 1 {
		alpha = 1
	}
	tj := t.Time(j)
	if r.Lambda == 0 {
		return alpha * tj
	}
	lj := r.Rate(j)
	ck := r.CkptCost(t, j)
	rec := r.Recovery(t, j)
	work := r.Period(t, j) - ck
	n := float64(ffCount(alpha, tj, work))
	tauLast := alpha*tj - n*work
	// Silent-error extension: each period's work segment (τ−C) inflates
	// to its expected retried duration; with the extension disabled this
	// leaves τ and τ_last untouched.
	period := r.silentSegment(t, j, work) + ck
	last := r.silentSegment(t, j, tauLast)
	// e^{λjR} (1/(λj) + D) ( N·(e^{λjτ}−1) + (e^{λjτ_last}−1) ),
	// computed with Expm1 for accuracy when λjτ is small.
	return math.Exp(lj*rec) * (1/lj + r.Downtime) *
		(n*math.Expm1(lj*period) + math.Expm1(lj*last))
}

// FFTime returns the deterministic fault-free completion time of a
// fraction α on j processors *including* checkpointing overhead:
// α·t_{i,j} + N^ff_{i,j}(α)·C_{i,j}. This is the task-end time used by
// the deterministic simulation semantics.
func (r Resilience) FFTime(t Task, j int, alpha float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if alpha > 1 {
		alpha = 1
	}
	tj := t.Time(j)
	if r.Lambda == 0 {
		return alpha * tj
	}
	ck := r.CkptCost(t, j)
	n := ffCount(alpha, tj, r.Period(t, j)-ck)
	return alpha*tj + float64(n)*ck
}

// ExpectedTime returns the monotonized expected time of Eq. (6): the
// prefix-minimum of ExpectedTimeRaw over even processor counts 2..j, for
// positive even j. The fold is MinEval's exactly: the previous value
// stays only when it is strictly smaller, so a NaN cell restarts it. It
// costs O(j) per query and is the direct reference MinEval is tested
// against; loops that scan ascending j use a compiled MinEval.
func (r Resilience) ExpectedTime(t Task, j int, alpha float64) float64 {
	if j < 2 || j%2 != 0 {
		panic(fmt.Sprintf("model: ExpectedTime with j=%d (want positive even)", j))
	}
	v := r.ExpectedTimeRaw(t, 2, alpha)
	for jj := 4; jj <= j; jj += 2 {
		if raw := r.ExpectedTimeRaw(t, jj, alpha); !(v < raw) {
			v = raw
		}
	}
	return v
}

// Arrival is one dynamically arriving job of an online instance: a task
// submitted at Time. The simulation core consumes sorted schedules of
// these (core.Instance.Arrivals); workload generators produce them.
type Arrival struct {
	Time float64
	Task Task
}
