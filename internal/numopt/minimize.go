package numopt

// MinResult reports the outcome of a minimization (NelderMead).
type MinResult struct {
	X          float64 // abscissa of the located minimum
	F          float64 // function value at X
	Iterations int
	Converged  bool
}

// IsConvexOn probes convexity of f on [a, b] by checking the discrete
// midpoint inequality f((x+y)/2) <= (f(x)+f(y))/2 + tol on a grid of n
// points. It returns false with the first violating pair if the probe
// fails. The paper leans on convexity of E(T_w) under the fixed-μ
// condition; tests use this probe to confirm it, and to exhibit the
// nonconvexity of the unconditioned objective (Section III-A).
func IsConvexOn(f Func, a, b float64, n int, tol float64) (bool, float64, float64) {
	if n < 3 {
		n = 3
	}
	xs := make([]float64, n)
	fs := make([]float64, n)
	for i := range xs {
		xs[i] = a + (b-a)*float64(i)/float64(n-1)
		fs[i] = f(xs[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j += (j - i) { // midpoints at power-of-two spans
			mid := (xs[i] + xs[j]) / 2
			if f(mid) > (fs[i]+fs[j])/2+tol {
				return false, xs[i], xs[j]
			}
		}
	}
	// Also check consecutive triples via second differences.
	for i := 1; i < n-1; i++ {
		if fs[i] > (fs[i-1]+fs[i+1])/2+tol {
			return false, xs[i-1], xs[i+1]
		}
	}
	return true, 0, 0
}
