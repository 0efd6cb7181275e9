// Package stats provides the small statistics substrate used by the
// simulator and the experiment harness: streaming moments (Welford),
// order statistics, and labelled series/tables for figure reproduction.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Accumulator computes streaming mean and variance (Welford's algorithm)
// together with min and max. The zero value is ready to use. Non-finite
// inputs taint the accumulator (Valid reports it) and propagate NaN/Inf
// through the moments, as IEEE arithmetic dictates.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
	tainted  bool
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	if x-x != 0 { // NaN or ±Inf
		a.tainted = true
	}
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll folds every value of xs into the accumulator.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Valid reports whether every folded observation was finite. A tainted
// accumulator's moments are IEEE garbage (NaN/Inf) and must not feed
// stopping rules or result sinks.
func (a *Accumulator) Valid() bool { return !a.tainted }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations). Each Welford increment is mathematically non-negative,
// but the sum is clamped at zero anyway so near-constant streams can
// never yield a (tiny) negative variance — and a NaN standard deviation
// — through floating-point cancellation.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	v := a.m2 / float64(a.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// PopStdDev returns the population standard deviation (divisor n), the
// quantity plotted in Figure 9(b) of the paper.
func (a *Accumulator) PopStdDev() float64 {
	if a.n == 0 {
		return 0
	}
	v := a.m2 / float64(a.n)
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Summary is the JSON-encodable snapshot of an Accumulator, used by the
// campaign runner's result sinks.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summary snapshots the accumulator's state.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice
// and returns NaN when xs contains a NaN (sort would silently park NaNs
// at the front and shift every order statistic).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates the q-quantile of an already-sorted,
// non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is a named sequence of y-values aligned with a table's x-axis.
type Series struct {
	Name string
	Y    []float64
}

// Table is a labelled collection of series over a shared x-axis: the
// in-memory form of one paper figure (or one panel of it).
type Table struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// AddSeries appends a named series; the length must match X.
func (t *Table) AddSeries(name string, y []float64) error {
	if len(y) != len(t.X) {
		return fmt.Errorf("stats: series %q has %d points, x-axis has %d", name, len(y), len(t.X))
	}
	t.Series = append(t.Series, Series{Name: name, Y: y})
	return nil
}

// SeriesByName returns the series with the given name, or nil.
func (t *Table) SeriesByName(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// Normalize divides every series pointwise by the series named base,
// mirroring the paper's normalization by the no-redistribution makespan.
// The base series itself becomes identically 1.
func (t *Table) Normalize(base string) error {
	b := t.SeriesByName(base)
	if b == nil {
		return fmt.Errorf("stats: base series %q not found", base)
	}
	ref := append([]float64(nil), b.Y...)
	for si := range t.Series {
		for i := range t.Series[si].Y {
			if ref[i] == 0 {
				return fmt.Errorf("stats: base series %q is zero at x=%v", base, t.X[i])
			}
			t.Series[si].Y[i] /= ref[i]
		}
	}
	return nil
}

// CSV renders the table as comma-separated text with a header row.
func (t *Table) CSV() string {
	out := "x"
	for _, s := range t.Series {
		out += "," + s.Name
	}
	out += "\n"
	for i, x := range t.X {
		out += formatFloat(x)
		for _, s := range t.Series {
			out += "," + formatFloat(s.Y[i])
		}
		out += "\n"
	}
	return out
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// ParseCSV reads a table previously rendered with CSV: a header row with
// "x" plus series names, then one row per x value. Series names may
// contain commas only if they do not — the writer never quotes, so the
// parser rejects ragged rows instead.
func ParseCSV(text string) (*Table, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("stats: CSV needs a header and at least one row")
	}
	header := strings.Split(lines[0], ",")
	if len(header) < 2 || header[0] != "x" {
		return nil, fmt.Errorf("stats: CSV header must start with 'x' and one series")
	}
	t := &Table{}
	cols := len(header)
	ys := make([][]float64, cols-1)
	for li, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != cols {
			return nil, fmt.Errorf("stats: row %d has %d fields, want %d", li+1, len(fields), cols)
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("stats: row %d x value: %w", li+1, err)
		}
		t.X = append(t.X, x)
		for ci := 1; ci < cols; ci++ {
			v, err := strconv.ParseFloat(fields[ci], 64)
			if err != nil {
				return nil, fmt.Errorf("stats: row %d col %d: %w", li+1, ci, err)
			}
			ys[ci-1] = append(ys[ci-1], v)
		}
	}
	for ci := 1; ci < cols; ci++ {
		if err := t.AddSeries(header[ci], ys[ci-1]); err != nil {
			return nil, err
		}
	}
	return t, nil
}
