package numopt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinear2x2(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want (1, 3)", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveLinear(a, []float64{7, 9})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if math.Abs(x[0]-9) > 1e-12 || math.Abs(x[1]-7) > 1e-12 {
		t.Errorf("x = %v, want (9, 7)", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveLinear(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("non-square matrix accepted")
	}
	b := NewMatrix(2, 2)
	if _, err := SolveLinear(b, []float64{1}); err == nil {
		t.Error("mismatched rhs accepted")
	}
}

func TestMatrixMulVecMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(10*i+j))
		}
	}
	tr := a.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != a.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: for random well-conditioned systems, solving then multiplying
// back reproduces the right-hand side.
func TestSolveLinearProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%4+4)%4 // 3..6
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64()*2-1)
			}
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		back, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
