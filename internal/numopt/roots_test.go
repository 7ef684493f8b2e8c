package numopt

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Brent finds a root of f in a bracketing interval [a, b] using Brent's
// method (inverse quadratic interpolation guarded by bisection). It
// converges superlinearly on smooth functions while retaining bisection's
// robustness. It shares no code with Bisect, which makes it Bisect's
// cross-check in these tests.
func Brent(f Func, a, b, tol float64, maxIter int) (RootResult, error) {
	if math.IsNaN(a) || math.IsNaN(b) || a >= b {
		return RootResult{}, fmt.Errorf("%w: [%g, %g]", ErrInvalidInterval, a, b)
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return RootResult{Root: a, Converged: true}, nil
	}
	if fb == 0 {
		return RootResult{Root: b, Converged: true}, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return RootResult{}, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// Ensure |f(b)| <= |f(a)|: b is the best guess.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxIter; i++ {
		if fb == 0 || math.Abs(b-a) < tol {
			return RootResult{Root: b, FRoot: fb, Iterations: i, Converged: true}, nil
		}
		var s float64
		//lint:allow floateq exact distinctness guards the (fa-fc)/(fb-fc) divisions below; a tolerance would reintroduce the division-by-near-zero it prevents
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant step.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return RootResult{Root: b, FRoot: fb, Iterations: maxIter}, ErrMaxIterations
}

func TestBisectQuadratic(t *testing.T) {
	f := func(x float64) float64 { return x*x - 4 }
	r, err := Bisect(f, 0, 10, 1e-10, 200)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(r.Root-2) > 1e-9 {
		t.Errorf("root = %g, want 2", r.Root)
	}
	if !r.Converged {
		t.Error("expected convergence")
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x - 3 }
	r, err := Bisect(f, 3, 10, 1e-10, 100)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if r.Root != 3 {
		t.Errorf("root = %g, want exactly 3", r.Root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	_, err := Bisect(f, -1, 1, 1e-10, 100)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectInvalidInterval(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := Bisect(f, 2, 1, 1e-10, 100); !errors.Is(err, ErrInvalidInterval) {
		t.Errorf("err = %v, want ErrInvalidInterval", err)
	}
	if _, err := Bisect(f, math.NaN(), 1, 1e-10, 100); !errors.Is(err, ErrInvalidInterval) {
		t.Errorf("NaN bound: err = %v, want ErrInvalidInterval", err)
	}
}

func TestBisectMaxIterations(t *testing.T) {
	f := func(x float64) float64 { return x - math.Pi }
	_, err := Bisect(f, -1e18, 1e18, 1e-300, 3)
	if !errors.Is(err, ErrMaxIterations) {
		t.Errorf("err = %v, want ErrMaxIterations", err)
	}
}

func TestBrentTranscendental(t *testing.T) {
	// cos(x) = x has its root near 0.7390851332151607.
	f := func(x float64) float64 { return math.Cos(x) - x }
	r, err := Brent(f, 0, 1, 1e-12, 200)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(r.Root-0.7390851332151607) > 1e-9 {
		t.Errorf("root = %.12f, want 0.739085133215", r.Root)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	cases := []struct {
		name string
		f    Func
		a, b float64
	}{
		{"cubic", func(x float64) float64 { return x*x*x - 2*x - 5 }, 1, 3},
		{"exp", func(x float64) float64 { return math.Exp(x) - 10 }, 0, 5},
		{"log", func(x float64) float64 { return math.Log(x) - 1 }, 1, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rb, err := Bisect(tc.f, tc.a, tc.b, 1e-12, 400)
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			rr, err := Brent(tc.f, tc.a, tc.b, 1e-12, 400)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if math.Abs(rb.Root-rr.Root) > 1e-8 {
				t.Errorf("Bisect %g vs Brent %g", rb.Root, rr.Root)
			}
			if rr.Iterations > rb.Iterations {
				t.Logf("note: Brent used %d iters vs bisect %d", rr.Iterations, rb.Iterations)
			}
		})
	}
}

// Property: for any monotone linear function with a root inside the
// interval, bisection locates it to tolerance.
func TestBisectPropertyLinear(t *testing.T) {
	prop := func(slope, root float64) bool {
		s := 0.5 + math.Mod(math.Abs(slope), 10) // slope in [0.5, 10.5)
		r := math.Mod(root, 100)                 // root in (-100, 100)
		f := func(x float64) float64 { return s * (x - r) }
		res, err := Bisect(f, r-150, r+151, 1e-9, 300)
		if err != nil {
			return false
		}
		return math.Abs(res.Root-r) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Brent agrees with bisection on randomized cubics that bracket.
func TestBrentPropertyCubic(t *testing.T) {
	prop := func(shift float64) bool {
		c := math.Mod(math.Abs(shift), 50)
		f := func(x float64) float64 { return x*x*x - c }
		want := math.Cbrt(c)
		res, err := Brent(f, -1, c+2, 1e-10, 500)
		if err != nil {
			return false
		}
		return math.Abs(res.Root-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
