package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelativeError(t *testing.T) {
	tests := []struct {
		name             string
		estimate, actual float64
		want             float64
	}{
		{name: "exact", estimate: 10, actual: 10, want: 0},
		{name: "over", estimate: 13, actual: 10, want: 0.3},
		{name: "under", estimate: 7, actual: 10, want: 0.3},
		{name: "negative actual", estimate: -5, actual: -10, want: 0.5},
		{name: "both zero", estimate: 0, actual: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RelativeError(tt.estimate, tt.actual); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("RelativeError = %g, want %g", got, tt.want)
			}
		})
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Fatal("nonzero estimate of zero must be +Inf")
	}
}

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	mean, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2.8) > 1e-12 {
		t.Fatalf("Mean = %g", mean)
	}
	maxV, _ := Max(xs)
	minV, _ := Min(xs)
	if maxV != 5 || minV != 1 {
		t.Fatalf("Max/Min = %g/%g", maxV, minV)
	}
	for _, f := range []func([]float64) (float64, error){Mean, Max, Min, StdDev} {
		if _, err := f(nil); !errors.Is(err, ErrEmpty) {
			t.Fatal("want ErrEmpty")
		}
	}
}

func TestStdDev(t *testing.T) {
	got, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(32.0 / 7)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", got, want)
	}
	if _, err := StdDev([]float64{1}); err == nil {
		t.Fatal("want too-few error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("P%g = %g, want %g", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Fatal("want range error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("want range error")
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatal("want ErrEmpty")
	}
	one, err := Percentile([]float64{7}, 50)
	if err != nil || one != 7 {
		t.Fatalf("single-element percentile = %g, %v", one, err)
	}
	// Percentile must not mutate its input.
	unsorted := []float64{3, 1, 2}
	if _, err := Percentile(unsorted, 50); err != nil {
		t.Fatal(err)
	}
	if unsorted[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.01, 0.03, 0.05, 0.08}
	got, err := FractionBelow(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("FractionBelow = %g (strict inequality expected)", got)
	}
	if _, err := FractionBelow(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Fatal("want ErrEmpty")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %g", got)
	}
	if got := e.At(2); got != 0.75 {
		t.Fatalf("At(2) = %g", got)
	}
	if got := e.At(3); got != 1 {
		t.Fatalf("At(3) = %g", got)
	}
	if _, err := NewECDF(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("want ErrEmpty")
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points = %d", len(pts))
	}
	if pts[0][0] != 0 || pts[9][0] != 99 {
		t.Fatalf("endpoints = %v, %v", pts[0], pts[9])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("CDF points must be monotone")
		}
	}
	all := e.Points(0)
	if len(all) != 100 {
		t.Fatalf("Points(0) = %d", len(all))
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{0.01, 0.02, 0.03, 0.10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-0.04) > 1e-12 {
		t.Fatalf("Mean = %g", s.Mean)
	}
	if s.Max != 0.10 {
		t.Fatalf("Max = %g", s.Max)
	}
	if s.FracBelow5 != 0.75 {
		t.Fatalf("FracBelow5 = %g", s.FracBelow5)
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("want ErrEmpty")
	}
}

// Property: the ECDF At() is a valid CDF — monotone, 0 below min, 1 at max.
func TestECDFProperty(t *testing.T) {
	f := func(raw [9]float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if e.At(math.Nextafter(sorted[0], math.Inf(-1))) != 0 {
			return false
		}
		if e.At(sorted[len(sorted)-1]) != 1 {
			return false
		}
		prev := -1.0
		for _, x := range sorted {
			cur := e.At(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile(0)/Percentile(100) bracket every sample.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw [7]float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, err1 := Percentile(xs, 0)
		hi, err2 := Percentile(xs, 100)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, x := range xs {
			if x < lo || x > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
