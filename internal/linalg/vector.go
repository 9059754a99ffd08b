// Package linalg provides the small dense linear-algebra kernel used by
// the VHC-based linear approximation: vectors, matrices, a Householder QR
// decomposition and a least-squares solver with a ridge fallback for
// rank-deficient systems.
//
// The package is intentionally minimal and allocation-conscious; it is not
// a general-purpose BLAS. All types use float64 and row-major storage.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and u.
// It returns ErrDimension if the lengths differ.
func (v Vector) Dot(u Vector) (float64, error) {
	if len(v) != len(u) {
		return 0, fmt.Errorf("%w: dot %d vs %d", ErrDimension, len(v), len(u))
	}
	var s float64
	for i, x := range v {
		s += float64(x * u[i]) // round the product: no fused multiply-add
	}
	return s, nil
}

// Add returns v + u as a new vector.
func (v Vector) Add(u Vector) (Vector, error) {
	if len(v) != len(u) {
		return nil, fmt.Errorf("%w: add %d vs %d", ErrDimension, len(v), len(u))
	}
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = x + u[i]
	}
	return out, nil
}

// Sub returns v - u as a new vector.
func (v Vector) Sub(u Vector) (Vector, error) {
	if len(v) != len(u) {
		return nil, fmt.Errorf("%w: sub %d vs %d", ErrDimension, len(v), len(u))
	}
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = x - u[i]
	}
	return out, nil
}

// MaxAbs returns the infinity norm of v (0 for an empty vector).
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of components.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Equalish reports whether v and u are element-wise within tol.
func (v Vector) Equalish(u Vector, tol float64) bool {
	if len(v) != len(u) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-u[i]) > tol {
			return false
		}
	}
	return true
}
