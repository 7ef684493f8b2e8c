package model

import (
	"math"

	"mlckpt/internal/overhead"
	"mlckpt/internal/speedup"
)

// Evaluator evaluates ∂E(T_w)/∂N (Formula 24) and E(T_w) (Formula 21) one
// scale at a time for a fixed iterate (x, b) with μ_i(N) = b_i·N — the
// shape of the inner solver's scale search, which scans, bisects and
// compares many scales per iterate.
//
// NewEvaluator runs once per solve: it resolves the speedup model's
// concrete type and marks each level's C_i, C′_i, R_i and R′_i as
// N-invariant or not. Bind runs once per (x, b) iterate: it precomputes
// every term none of whose inputs can vary with N, including the
// invariant prefix of each left-to-right Σ_{k≤i} sum. GradN and WallClock
// then do, per point, the remaining operations of Params.GradN and
// Params.WallClock in their original order, so the results are
// bit-identical to those methods, which stay the oracle. (A NaN result is
// NaN on both sides, but which NaN payload an operation on two NaNs keeps
// depends on the operand order the compiler picks, so payloads may
// differ.)
//
// Exactness rules:
//   - A term is hoisted only if none of its inputs can vary with N. A cost
//     of any baseline but LinearN has the same At(n) at every n.
//     DerivativeAt of any baseline is Coeff·H′ below a cap and +0 above
//     it, so it is invariant only without a cap or when Coeff·H′ is itself
//     +0; a negative or non-finite Coeff stays per point.
//   - Float addition is not associative: only a prefix of a left-to-right
//     sum is hoisted, and the terms after its first N-variant one are
//     added per point in the original order.
//   - Per-point expressions call the concrete speedup and cost methods or
//     keep the oracle's expression shape, so multiply-add fusion (arm64)
//     treats both alike.
//
// The Evaluator snapshots p's levels at construction; it is not safe for
// concurrent use.
type Evaluator struct {
	te, alloc float64

	kind speedupKind
	quad speedup.Quadratic
	lin  speedup.Linear
	amd  speedup.Amdahl
	gus  speedup.Gustafson
	g    speedup.Model // any other model, called through the interface

	lv []evalLevel
	// varC and varD list the levels whose C_i(N), R_i(N) (varC) or
	// C′_i(N), R′_i(N) (varD) are recomputed per point.
	varC, varD []int
	// cFrom (dFrom) is the first level whose C_k (C′_k) varies with N:
	// Σ_{k≤i} C_k x_k/(2x_i) is hoisted for k < cFrom and added per point
	// from there on.
	cFrom, dFrom int

	sumBp float64 // Σ b_i/(2x_i), bound per iterate
}

type speedupKind uint8

const (
	speedupModel speedupKind = iota
	speedupQuadratic
	speedupLinear
	speedupAmdahl
	speedupGustafson
)

// evalLevel is one level's cost terms, their values at the current point
// (set once when N-invariant), and its bound iterate terms.
type evalLevel struct {
	cAt, cDer, rAt, rDer pointCost // C_i, C′_i, R_i, R′_i
	c, cp, r, rp         float64   // their values at the current point

	x, b, x2, xm1 float64 // x_i, b_i, 2x_i, x_i − 1
	ckPre, cpPre  float64 // hoisted prefixes of Σ_{k≤i} C_k x_k/(2x_i) and Σ C′_k x_k/(2x_i)
}

// NewEvaluator returns an Evaluator for p. Bind it to an iterate before
// evaluating.
func (p *Params) NewEvaluator() *Evaluator {
	L := p.L()
	e := &Evaluator{te: p.Te, alloc: p.Alloc, lv: make([]evalLevel, L), cFrom: L, dFrom: L}
	vars := make([]int, 2*L)
	e.varC, e.varD = vars[:0:L], vars[L:L]
	switch m := p.Speedup.(type) {
	case speedup.Quadratic:
		e.kind, e.quad = speedupQuadratic, m
	case speedup.Linear:
		e.kind, e.lin = speedupLinear, m
	case speedup.Amdahl:
		e.kind, e.amd = speedupAmdahl, m
	case speedup.Gustafson:
		e.kind, e.gus = speedupGustafson, m
	default:
		e.kind, e.g = speedupModel, m
	}
	for i := range e.lv {
		l := &e.lv[i]
		ck, rc := p.Levels[i].Checkpoint, p.Levels[i].Recovery
		l.cAt, l.cDer = atCost(ck), derivativeCost(ck)
		l.rAt, l.rDer = atCost(rc), derivativeCost(rc)
		// Fixed terms keep these values; the others are overwritten per point.
		l.c, l.cp, l.r, l.rp = l.cAt.v, l.cDer.v, l.rAt.v, l.rDer.v
		if l.cAt.kind != pointFixed || l.rAt.kind != pointFixed {
			e.varC = append(e.varC, i)
		}
		if l.cDer.kind != pointFixed || l.rDer.kind != pointFixed {
			e.varD = append(e.varD, i)
		}
		if l.cAt.kind != pointFixed && e.cFrom == L {
			e.cFrom = i
		}
		if l.cDer.kind != pointFixed && e.dFrom == L {
			e.dFrom = i
		}
	}
	return e
}

// pointCost is one cost term — some Cost's At or DerivativeAt — as the
// Evaluator computes it per point, bit-identical to that method.
type pointCost struct {
	kind pointKind
	v    float64 // pointFixed: the value; pointStep: the value below the cap
	c    overhead.Cost
}

type pointKind uint8

const (
	pointFixed  pointKind = iota // N-invariant: v
	pointLinear                  // LinearN At: Const + Coeff·min(n, Cap)
	pointStep                    // capped DerivativeAt: v up to the cap, +0 above
)

// atCost classifies c.At. Every baseline but LinearN has H = 0, so its
// Const + Coeff·0 is the same at every n.
func atCost(c overhead.Cost) pointCost {
	if c.H == overhead.LinearN {
		return pointCost{kind: pointLinear, c: c}
	}
	return pointCost{kind: pointFixed, v: c.At(0), c: c}
}

// derivativeCost classifies c.DerivativeAt. Every baseline has a constant
// H′, so the value is Coeff·H′ at every n up to a cap (0 is below any cap)
// and +0 above it: N-invariant without a cap, or when Coeff·H′ is +0
// itself.
func derivativeCost(c overhead.Cost) pointCost {
	v := c.DerivativeAt(0)
	if !(c.Cap > 0) || math.Float64bits(v) == 0 {
		return pointCost{kind: pointFixed, v: v, c: c}
	}
	return pointCost{kind: pointStep, v: v, c: c}
}

// at returns the term at scale n.
func (t *pointCost) at(n float64) float64 {
	switch t.kind {
	case pointFixed:
		return t.v
	case pointLinear:
		// Cost.At with H(n) = n.
		if t.c.Cap > 0 && n > t.c.Cap {
			n = t.c.Cap
		}
		return t.c.Const + t.c.Coeff*n
	default: // pointStep
		if n > t.c.Cap {
			return 0
		}
		return t.v
	}
}

// Bind fixes the iterate (x, b), both of length L, for the following
// evaluations. The Evaluator keeps copies; the caller may reuse x and b.
//
//mlckpt:hotpath
func (e *Evaluator) Bind(x, b []float64) {
	lv := e.lv
	if len(x) != len(lv) || len(b) != len(lv) {
		badBind()
	}
	sumBp := 0.0
	for i := range lv {
		l := &lv[i]
		l.x, l.b = x[i], b[i]
		l.x2, l.xm1 = 2*x[i], x[i]-1
		sumBp += b[i] / (2 * x[i])
	}
	e.sumBp = sumBp
	for i := range lv {
		l := &lv[i]
		ckPre, cpPre := 0.0, 0.0
		for k := 0; k <= i && k < e.cFrom; k++ {
			ckPre += lv[k].c * lv[k].x / l.x2
		}
		for k := 0; k <= i && k < e.dFrom; k++ {
			cpPre += lv[k].cp * lv[k].x / l.x2
		}
		l.ckPre, l.cpPre = ckPre, cpPre
	}
}

// badBind is outlined so the panic stays out of Bind's compiled body.
//
//go:noinline
func badBind() {
	panic("model: Evaluator.Bind: x and b must have one entry per level")
}

// GradN returns ∂E(T_w)/∂N at scale n for the bound iterate, bit-identical
// to Params.GradN(x, n, b).
//
//mlckpt:hotpath
func (e *Evaluator) GradN(n float64) float64 {
	g, gp := e.speedupAt(n)
	lv := e.lv
	for _, i := range e.varC {
		l := &lv[i]
		l.c, l.r = l.cAt.at(n), l.rAt.at(n)
	}
	for _, i := range e.varD {
		l := &lv[i]
		l.cp, l.rp = l.cDer.at(n), l.rDer.at(n)
	}
	sumMu := 0.0
	for i := range lv {
		sumMu += lv[i].b * n / lv[i].x2
	}
	grad := e.te / (g * g) * (e.sumBp*g - (1+sumMu)*gp)
	for i := range lv {
		grad += lv[i].cp * lv[i].xm1
	}
	for i := range lv {
		l := &lv[i]
		sumCk, sumCkPrime := l.ckPre, l.cpPre
		for k := e.cFrom; k <= i; k++ {
			sumCk += lv[k].c * lv[k].x / l.x2
		}
		for k := e.dFrom; k <= i; k++ {
			sumCkPrime += lv[k].cp * lv[k].x / l.x2
		}
		grad += l.b * (sumCk + e.alloc + l.r)
		grad += l.b * n * (sumCkPrime + l.rp)
	}
	return grad
}

// WallClock returns E(T_w) at scale n for the bound iterate with
// μ_i = b_i·n, bit-identical to Params.WallClock(x, n, μ).
//
//mlckpt:hotpath
func (e *Evaluator) WallClock(n float64) float64 {
	g, _ := e.speedupAt(n)
	lv := e.lv
	for _, i := range e.varC {
		l := &lv[i]
		l.c, l.r = l.cAt.at(n), l.rAt.at(n)
	}
	// speedup.ParallelTime: non-positive speedup means no progress.
	pt := math.Inf(1)
	if !(g <= 0) {
		pt = e.te / g
	}
	total := pt
	for i := range lv {
		total += lv[i].c * lv[i].xm1
	}
	for i := range lv {
		l := &lv[i]
		loss := pt / l.x2
		for k := 0; k <= i; k++ {
			loss += lv[k].c * lv[k].x / l.x2
		}
		total += l.b * n * (loss + e.alloc + l.r)
	}
	return total
}

// speedupAt returns g(n) and g′(n) through the concrete model's methods.
func (e *Evaluator) speedupAt(n float64) (g, gp float64) {
	switch e.kind {
	case speedupQuadratic:
		return e.quad.Speedup(n), e.quad.Derivative(n)
	case speedupLinear:
		return e.lin.Speedup(n), e.lin.Derivative(n)
	case speedupAmdahl:
		return e.amd.Speedup(n), e.amd.Derivative(n)
	case speedupGustafson:
		return e.gus.Speedup(n), e.gus.Derivative(n)
	default:
		return e.g.Speedup(n), e.g.Derivative(n)
	}
}
