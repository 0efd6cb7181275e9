package stats

import (
	"math"
	"sort"
)

// PSquare is the P² streaming quantile estimator of Jain & Chlamtac
// (CACM 1985): five markers track the running p-quantile of a stream in
// O(1) space and O(1) time per observation, with no sample storage. The
// adaptive campaign runner keeps one per (cell, quantile) so million-
// replicate studies can report medians and tail quantiles without ever
// materializing their samples.
//
// The zero value is unusable; construct with NewPSquare.
type PSquare struct {
	p       float64
	count   int
	tainted bool
	q       [5]float64 // marker heights
	n       [5]float64 // marker positions (1-based, as in the paper)
	np      [5]float64 // desired marker positions
	dn      [5]float64 // desired position increments
}

// NewPSquare returns a sketch tracking the p-quantile, 0 < p < 1.
// It panics on a p outside that range.
func NewPSquare(p float64) PSquare {
	var s PSquare
	s.Reset(p)
	return s
}

// Reset re-arms the sketch in place for a new stream.
func (s *PSquare) Reset(p float64) {
	if !(p > 0 && p < 1) {
		panic("stats: PSquare quantile must be in (0, 1)")
	}
	*s = PSquare{p: p, dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

// P returns the quantile the sketch tracks.
func (s *PSquare) P() float64 { return s.p }

// N returns the number of observations folded.
func (s *PSquare) N() int { return s.count }

// Valid reports whether every folded observation was finite.
func (s *PSquare) Valid() bool { return !s.tainted }

// Add folds one observation. A non-finite value taints the sketch:
// Quantile returns NaN from then on (see Valid).
func (s *PSquare) Add(x float64) {
	if x-x != 0 { // NaN or ±Inf
		s.tainted = true
		return
	}
	if s.count < 5 {
		// Warm-up: keep the first five observations sorted in q.
		i := s.count
		for i > 0 && s.q[i-1] > x {
			s.q[i] = s.q[i-1]
			i--
		}
		s.q[i] = x
		s.count++
		if s.count == 5 {
			s.n = [5]float64{1, 2, 3, 4, 5}
			p := s.p
			s.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	s.count++

	// Locate the cell k holding x and update the extreme markers.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := range s.np {
		s.np[i] += s.dn[i]
	}

	// Nudge the interior markers toward their desired positions with the
	// piecewise-parabolic (P²) update, falling back to linear when the
	// parabola would break marker monotonicity.
	for i := 1; i <= 3; i++ {
		d := s.np[i] - s.n[i]
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qp := s.parabolic(i, sign)
			if s.q[i-1] < qp && qp < s.q[i+1] {
				s.q[i] = qp
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.n[i] += sign
		}
	}
}

func (s *PSquare) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.n[i+1]-s.n[i-1])*
		((s.n[i]-s.n[i-1]+d)*(s.q[i+1]-s.q[i])/(s.n[i+1]-s.n[i])+
			(s.n[i+1]-s.n[i]-d)*(s.q[i]-s.q[i-1])/(s.n[i]-s.n[i-1]))
}

func (s *PSquare) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.n[j]-s.n[i])
}

// Quantile returns the current estimate of the tracked quantile: the
// center marker once five observations are in, the exact order statistic
// before that, and NaN for an empty or tainted sketch.
func (s *PSquare) Quantile() float64 {
	if s.tainted || s.count == 0 {
		return math.NaN()
	}
	if s.count >= 5 {
		return s.q[2]
	}
	// Exact order statistic over the warm-up buffer, which Add keeps
	// sorted.
	return quantileSorted(s.q[:s.count], s.p)
}

// QuantileSet bundles PSquare sketches for several quantiles of one
// stream (e.g. p50 and p95 of a campaign cell).
type QuantileSet struct {
	sketches []PSquare
}

// NewQuantileSet returns sketches for each of ps, kept in the given
// order.
func NewQuantileSet(ps ...float64) *QuantileSet {
	qs := &QuantileSet{sketches: make([]PSquare, len(ps))}
	for i, p := range ps {
		qs.sketches[i].Reset(p)
	}
	return qs
}

// Add folds one observation into every sketch.
func (qs *QuantileSet) Add(x float64) {
	for i := range qs.sketches {
		qs.sketches[i].Add(x)
	}
}

// Quantile returns the estimate for p, matching against the tracked
// quantiles with a small tolerance; ok is false for an untracked p.
func (qs *QuantileSet) Quantile(p float64) (float64, bool) {
	for i := range qs.sketches {
		if math.Abs(qs.sketches[i].p-p) < 1e-12 {
			return qs.sketches[i].Quantile(), true
		}
	}
	return 0, false
}

// ExactQuantiles returns the order-statistic quantiles of xs for each of
// ps, sorting once. It panics on an empty slice, mirroring Quantile.
func ExactQuantiles(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: ExactQuantiles of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
	return out
}
