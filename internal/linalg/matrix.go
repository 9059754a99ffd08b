package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns an all-zero rows×cols matrix.
// It returns an error if either dimension is negative.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: negative shape %dx%d", ErrDimension, rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// MatrixFromRows builds a matrix from row slices. All rows must have equal
// length; the input is copied.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := &Matrix{rows: len(rows), cols: cols, data: make([]float64, len(rows)*cols)}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimension, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j). Callers are expected to pass in-range
// indices; out-of-range access panics as with native slices.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("%w: mulvec %dx%d by %d", ErrDimension, m.rows, m.cols, len(v))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// TMulVec returns mᵀ·v.
func (m *Matrix) TMulVec(v Vector) (Vector, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("%w: tmulvec %dx%d by %d", ErrDimension, m.rows, m.cols, len(v))
	}
	out := make(Vector, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		vi := v[i]
		for j, a := range row {
			out[j] += a * vi
		}
	}
	return out, nil
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: mul %dx%d by %dx%d", ErrDimension, m.rows, m.cols, b.rows, b.cols)
	}
	out := &Matrix{rows: m.rows, cols: b.cols, data: make([]float64, m.rows*b.cols)}
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out, nil
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := &Matrix{rows: m.cols, cols: m.rows, data: make([]float64, len(m.data))}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
