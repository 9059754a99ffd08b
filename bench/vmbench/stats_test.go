package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestTailPercentileRule pins the reporting rule: the highest rung with
// at least ten samples beyond it, with the sample counts reported.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{1000, "p99", 990, 10},
		{999, "p98", 980, 19},
		{200, "p95", 190, 10},
		{100, "p90", 90, 10},
		{21, "p50", 11, 10},
		{5, "p50", 3, 2}, // too few for any rung: the median, honestly labelled
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n))
		if got.label() != c.label || got.value != c.value || got.beyond != c.beyond || got.n != c.n {
			t.Errorf("n=%d: got %s=%g (%d beyond of %d), want %s=%g (%d beyond)",
				c.n, got.label(), got.value, got.beyond, got.n, c.label, c.value, c.beyond)
		}
	}
	if got := tailPercentile(nil); got.n != 0 || got.value != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4)
// and median to statistics.median, the spread computation the bounds
// were set from.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(4), 1.25, 2.5, 3.75},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4.5}, 2, 4.5, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: got q1=%g med=%g q3=%g, want %g %g %g", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}
