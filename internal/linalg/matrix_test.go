package linalg

import (
	"errors"
	"strings"
	"testing"
)

func TestNewMatrix(t *testing.T) {
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if _, err := NewMatrix(-1, 2); !errors.Is(err, ErrDimension) {
		t.Fatalf("negative rows: %v", err)
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("ragged rows: %v", err)
	}
	empty, err := MatrixFromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows() != 0 {
		t.Fatalf("empty rows = %d", empty.Rows())
	}
}

func TestMatrixSetRowClone(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone must not alias")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got, err := m.MulVec(Vector{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(Vector{3, 7, 11}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := m.MulVec(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("mismatch: %v", err)
	}
}

func TestMatrixTMulVec(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got, err := m.TMulVec(Vector{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(Vector{9, 12}, 0) {
		t.Fatalf("TMulVec = %v", got)
	}
	if _, err := m.TMulVec(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("mismatch: %v", err)
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MatrixFromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul[%d][%d] = %g, want %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	c, _ := NewMatrix(3, 3)
	if _, err := a.Mul(c); !errors.Is(err, ErrDimension) {
		t.Fatalf("mismatch: %v", err)
	}
}

func TestMatrixTranspose(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("shape = %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatal("Transpose values wrong")
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}})
	if s := m.String(); !strings.Contains(s, "1 2") {
		t.Fatalf("String = %q", s)
	}
}
