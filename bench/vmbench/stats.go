package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample count a reported tail percentile must leave
// above it: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// tailLadder is the set of tail percentiles the benchmark reports from,
// highest first. p99 is the top rung because that is what the
// end-to-end metrics are named after.
var tailLadder = []float64{0.99, 0.98, 0.95, 0.90, 0.75}

// nearestRank returns the nearest-rank q-quantile of sorted samples and
// how many samples lie above it.
func nearestRank(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n - 1 - i
}

// tail is one reported tail percentile: which rung of tailLadder was
// used, its value, and the sample counts behind it.
type tail struct {
	q      float64
	value  float64
	n      int
	beyond int
}

// label names the percentile ("p99", "p95", ...).
func (t tail) label() string {
	return fmt.Sprintf("p%g", math.Round(t.q*1000)/10)
}

// tailPercentile applies the reporting rule: the highest rung of
// tailLadder with at least minBeyond samples above it. With too few
// samples for any rung it falls back to the median.
func tailPercentile(sorted []float64) tail {
	for _, q := range tailLadder {
		v, beyond := nearestRank(sorted, q)
		if beyond >= minBeyond {
			return tail{q: q, value: v, n: len(sorted), beyond: beyond}
		}
	}
	v, beyond := nearestRank(sorted, 0.5)
	return tail{q: 0.5, value: v, n: len(sorted), beyond: beyond}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (mean of the two middle values for an
// even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so the repeat mode reports the spread those give.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
