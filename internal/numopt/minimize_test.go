package numopt

import (
	"math"
	"testing"
)

func TestIsConvexOn(t *testing.T) {
	convex := func(x float64) float64 { return x * x }
	if ok, a, b := IsConvexOn(convex, -5, 5, 41, 1e-9); !ok {
		t.Errorf("x² flagged nonconvex at [%g, %g]", a, b)
	}
	nonconvex := func(x float64) float64 { return math.Sin(x) }
	if ok, _, _ := IsConvexOn(nonconvex, 0, 2*math.Pi, 41, 1e-9); ok {
		t.Error("sin flagged convex on a full period")
	}
}
