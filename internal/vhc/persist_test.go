package vhc

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func trainedApprox(t *testing.T) *Approximator {
	t.Helper()
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	synthSamples(t, a, 0b01, []float64{9.4, 0.3, 2.1}, 40, 1)
	synthSamples(t, a, 0b11, []float64{9.4, 0.3, 2.1, 17.9, 0.5, 1.2}, 60, 2)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExportImportRoundTrip(t *testing.T) {
	src := trainedApprox(t)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, combo := range []ComboMask{0b01, 0b11} {
		ws, err := src.Weights(combo)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := dst.Weights(combo)
		if err != nil {
			t.Fatal(err)
		}
		if !ws.Equalish(wd, 1e-12) {
			t.Fatalf("combo %s weights differ: %v vs %v", combo, ws, wd)
		}
		dSrc, err := src.Diags(combo)
		if err != nil {
			t.Fatal(err)
		}
		dDst, err := dst.Diags(combo)
		if err != nil {
			t.Fatal(err)
		}
		if dSrc.Samples != dDst.Samples || math.Abs(dSrc.RMSE-dDst.RMSE) > 1e-12 {
			t.Fatalf("diags differ: %+v vs %+v", dSrc, dDst)
		}
	}
	// Plans over both agree on fresh inputs.
	features := []float64{0.7, 0.2, 0.05}
	es, err := worthOf(planFor(t, src), 0b01, features)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := worthOf(planFor(t, dst), 0b01, features)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(es-ed) > 1e-12 {
		t.Fatalf("worths differ: %g vs %g", es, ed)
	}
}

func TestExportUntrained(t *testing.T) {
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(&bytes.Buffer{}); !errors.Is(err, ErrUntrained) {
		t.Fatalf("want ErrUntrained, got %v", err)
	}
}

func TestImportErrors(t *testing.T) {
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		input string
	}{
		{name: "garbage", input: "not json"},
		{name: "wrong version", input: `{"version":99,"num_types":2,"combos":[]}`},
		{name: "wrong types", input: `{"version":1,"num_types":3,"combos":[{"combo":1,"weights":[1,2,3]}]}`},
		{name: "no combos", input: `{"version":1,"num_types":2,"combos":[]}`},
		{name: "combo out of range", input: `{"version":1,"num_types":2,"combos":[{"combo":8,"weights":[1,2,3]}]}`},
		{name: "weight length", input: `{"version":1,"num_types":2,"combos":[{"combo":1,"weights":[1]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := a.Import(strings.NewReader(tc.input)); !errors.Is(err, ErrModelFormat) {
				t.Fatalf("want ErrModelFormat, got %v", err)
			}
		})
	}
}

func TestImportReplacesState(t *testing.T) {
	src := trainedApprox(t)
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// A differently trained approximator imports the model and forgets
	// its own table/samples.
	other, err := New(2, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	synthSamples(t, other, 0b01, []float64{100, 100, 100}, 20, 9)
	if err := other.Train(); err != nil {
		t.Fatal(err)
	}
	if err := other.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if other.SampleCount(0b01) != 0 {
		t.Fatal("Import must drop the old sample table")
	}
	w, err := other.Weights(0b01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-9.4) > 1e-9 {
		t.Fatalf("imported weight = %g, want 9.4", w[0])
	}
}
