package numopt

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("numopt: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("numopt: dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul computes m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("numopt: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// SolveLinear solves A·x = b by Gaussian elimination with partial pivoting.
// A is not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("numopt: SolveLinear needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("numopt: rhs length %d != %d", len(b), n)
	}
	// Augmented working copy.
	m := a.Clone()
	rhs := append([]float64(nil), b...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pmax := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vp := m.At(col, j), m.At(pivot, j)
				m.Set(col, j, vp)
				m.Set(pivot, j, vi)
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) * inv
			if factor == 0 {
				continue
			}
			m.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				m.Set(r, j, m.At(r, j)-factor*m.At(col, j))
			}
			rhs[r] -= factor * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}
