// Package stats provides the error metrics and distribution summaries used
// throughout the paper's evaluation: relative error, means/maxima,
// percentiles and empirical CDFs (Fig. 10c's error distribution, the
// "<5% error for 90% of the time" headline).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations over empty data.
var ErrEmpty = errors.New("stats: empty data")

// RelativeError returns |estimate − actual| / |actual|. When actual is
// zero it returns 0 if the estimate is also zero and +Inf otherwise.
func RelativeError(estimate, actual float64) float64 {
	if actual == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-actual) / math.Abs(actual)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Max returns the maximum value.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the minimum value.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// StdDev returns the sample standard deviation (n−1 denominator).
func StdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("%w: need >= 2 values", ErrEmpty)
	}
	mean, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g outside [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// FractionBelow returns the fraction of values strictly below threshold —
// e.g. FractionBelow(errs, 0.05) for the "<5% for 90% of the time" claim.
func FractionBelow(xs []float64, threshold float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs)), nil
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds the ECDF of xs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Points returns (x, P(X<=x)) pairs suitable for plotting a CDF curve,
// downsampled to at most maxPoints.
func (e *ECDF) Points(maxPoints int) [][2]float64 {
	n := len(e.sorted)
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	out := make([][2]float64, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := i * (n - 1) / max1(maxPoints-1)
		out = append(out, [2]float64{e.sorted[idx], float64(idx+1) / float64(n)})
	}
	return out
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Summary aggregates an error sample the way the paper reports one.
type Summary struct {
	N          int
	Mean       float64
	Max        float64
	P90        float64
	P95        float64
	FracBelow5 float64 // fraction of samples with error < 5%
}

// Summarize computes a Summary of xs (interpreted as relative errors).
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, _ := Mean(xs)
	maxv, _ := Max(xs)
	p90, _ := Percentile(xs, 90)
	p95, _ := Percentile(xs, 95)
	f5, _ := FractionBelow(xs, 0.05)
	return Summary{N: len(xs), Mean: mean, Max: maxv, P90: p90, P95: p95, FracBelow5: f5}, nil
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f%% max=%.2f%% p90=%.2f%% p95=%.2f%% frac<5%%=%.1f%%",
		s.N, s.Mean*100, s.Max*100, s.P90*100, s.P95*100, s.FracBelow5*100)
}
