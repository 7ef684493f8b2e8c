package numopt

import "math"

// Derivative estimates f'(x) by central differences with a step scaled to
// the magnitude of x. The speedup and overhead tests use it to cross-check
// analytic derivatives.
func Derivative(f Func, x float64) float64 {
	h := 1e-6 * (1 + math.Abs(x))
	return (f(x+h) - f(x-h)) / (2 * h)
}

// DerivativeStep is Derivative with an explicit step size. It backs the
// ablation solver that locates N* without the analytic derivative
// (Formula 24) and the finite-difference checks of that gradient.
func DerivativeStep(f Func, x, h float64) float64 {
	return (f(x+h) - f(x-h)) / (2 * h)
}

// PartialDerivative estimates ∂f/∂x_i of a multivariate function at point x.
func PartialDerivative(f func([]float64) float64, x []float64, i int) float64 {
	h := 1e-6 * (1 + math.Abs(x[i]))
	xp := append([]float64(nil), x...)
	xm := append([]float64(nil), x...)
	xp[i] += h
	xm[i] -= h
	return (f(xp) - f(xm)) / (2 * h)
}
