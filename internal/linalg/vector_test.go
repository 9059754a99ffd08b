package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	tests := []struct {
		name    string
		v, u    Vector
		want    float64
		wantErr bool
	}{
		{name: "basic", v: Vector{1, 2, 3}, u: Vector{4, 5, 6}, want: 32},
		{name: "empty", v: Vector{}, u: Vector{}, want: 0},
		{name: "negatives", v: Vector{-1, 1}, u: Vector{1, -1}, want: -2},
		{name: "mismatch", v: Vector{1}, u: Vector{1, 2}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.v.Dot(tt.u)
			if tt.wantErr {
				if !errors.Is(err, ErrDimension) {
					t.Fatalf("want ErrDimension, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Dot = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2}
	u := Vector{3, 5}
	sum, err := v.Add(u)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equalish(Vector{4, 7}, 0) {
		t.Fatalf("Add = %v", sum)
	}
	diff, err := v.Sub(u)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equalish(Vector{-2, -3}, 0) {
		t.Fatalf("Sub = %v", diff)
	}
	if _, err := v.Add(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("Add mismatch: %v", err)
	}
	if _, err := v.Sub(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("Sub mismatch: %v", err)
	}
}

func TestVectorCloneSum(t *testing.T) {
	v := Vector{1, -2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
	if got := v.Sum(); got != 2 {
		t.Fatalf("Sum = %g", got)
	}
}

func TestVectorMaxAbs(t *testing.T) {
	if got := (Vector{-7, 3}).MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %g", got)
	}
	if got := (Vector{}).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs empty = %g", got)
	}
}

func TestVectorEqualish(t *testing.T) {
	if !(Vector{1, 2}).Equalish(Vector{1.0001, 2}, 0.001) {
		t.Fatal("want equalish within tol")
	}
	if (Vector{1, 2}).Equalish(Vector{1.1, 2}, 0.001) {
		t.Fatal("want not equalish")
	}
	if (Vector{1}).Equalish(Vector{1, 2}, 1) {
		t.Fatal("length mismatch must not be equalish")
	}
}

// Property: dot product is symmetric and linear in the first argument.
func TestVectorDotProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, u := Vector(a[:]), Vector(b[:])
		vu, err1 := v.Dot(u)
		uv, err2 := u.Dot(v)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.IsNaN(vu) || math.IsNaN(uv) {
			return true // NaN inputs are uninteresting
		}
		return vu == uv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
