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
// A scale scan evaluates GradN on a fixed grid of points many times, once
// per iterate. SetScan tabulates the grid's N-only terms once — each
// point's g(N), g′(N), T_e/g² and the N-variant levels' C_i, R_i, C′_i
// and R′_i — and GradScan then fills the grid's gradients four points per
// pass, each lane doing GradN's remaining operations in GradN's order, so
// every lane is bit-identical to GradN at its point too.
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

	// scan is SetScan's table of scanPoints grid points, one block of
	// 4·scanStride floats per four points (the last block may be partial).
	// Column c of a block holds its four points' values at [4c, 4c+4); the
	// columns are n, g(n), g′(n), T_e/g(n)², then C_i(n), R_i(n) of each
	// varC level, then C′_i(n), R′_i(n) of each varD level.
	scan       []float64
	scanStride int
	scanPoints int
}

// scanHead is the number of speedup columns that open a scan table
// block: n, g, g′ and T_e/g².
const scanHead = 4

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

	// The lane scratch of a GradScan pass: C_i, R_i, C′_i, R′_i at the
	// pass's four points (set once when N-invariant).
	lc, lr, lcp, lrp [4]float64
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
		for j := range l.lc {
			l.lc[j], l.lcp[j], l.lr[j], l.lrp[j] = l.c, l.cp, l.r, l.rp
		}
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
	e.scanStride = scanHead + 2*len(e.varC) + 2*len(e.varD)
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

// ScanLen returns the number of floats SetScan needs for a grid of points
// scales.
func (e *Evaluator) ScanLen(points int) int { return (points + 3) / 4 * 4 * e.scanStride }

// SetScan tabulates the N-only terms of Formula 24 at the scales ns into
// buf, which must hold ScanLen(len(ns)) floats and which the Evaluator
// keeps until the next SetScan. The table does not depend on the iterate,
// so it survives Bind.
//
//mlckpt:hotpath
func (e *Evaluator) SetScan(ns, buf []float64) {
	stride, size := e.scanStride, e.ScanLen(len(ns))
	if len(buf) < size {
		badScan()
	}
	e.scan, e.scanPoints = buf[:size], len(ns)
	for k, n := range ns {
		blk := e.scan[k/4*4*stride:]
		lane := k % 4
		g, gp := e.speedupAt(n)
		blk[0*4+lane], blk[1*4+lane], blk[2*4+lane], blk[3*4+lane] = n, g, gp, e.te/(g*g)
		col := scanHead
		for _, i := range e.varC {
			l := &e.lv[i]
			blk[col*4+lane], blk[(col+1)*4+lane] = l.cAt.at(n), l.rAt.at(n)
			col += 2
		}
		for _, i := range e.varD {
			l := &e.lv[i]
			blk[col*4+lane], blk[(col+1)*4+lane] = l.cDer.at(n), l.rDer.at(n)
			col += 2
		}
	}
}

// GradScan sets dst[k] to ∂E(T_w)/∂N at the k-th SetScan scale for the
// bound iterate, bit-identical to GradN there: four points per
// gradPass, and GradN for the remainder. dst needs one entry per scale.
//
//mlckpt:hotpath
func (e *Evaluator) GradScan(dst []float64) {
	if len(dst) != e.scanPoints {
		badScan()
	}
	blockLen := 4 * e.scanStride
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		e.gradPass(e.scan[k/4*blockLen:(k/4+1)*blockLen], (*[4]float64)(dst[k:k+4]))
	}
	for ; k < len(dst); k++ {
		dst[k] = e.GradN(e.scan[k/4*blockLen+k%4])
	}
}

// gradPass evaluates Formula 24 at the four scan points of the table block
// blk, one lane per point: each lane does GradN's operations in GradN's
// order, with the table's terms in place of the speedup and cost calls,
// and keeps its sums in locals rather than in a per-stage column.
//
//mlckpt:hotpath
func (e *Evaluator) gradPass(blk []float64, dst *[4]float64) {
	lv := e.lv
	col := scanHead * 4
	for _, i := range e.varC {
		l := &lv[i]
		l.lc, l.lr = [4]float64(blk[col:col+4]), [4]float64(blk[col+4:col+8])
		col += 8
	}
	for _, i := range e.varD {
		l := &lv[i]
		l.lcp, l.lrp = [4]float64(blk[col:col+4]), [4]float64(blk[col+4:col+8])
		col += 8
	}
	ns, gs, gps, tg2 := [4]float64(blk[0:4]), [4]float64(blk[4:8]), [4]float64(blk[8:12]), [4]float64(blk[12:16])
	n0, n1, n2, n3 := ns[0], ns[1], ns[2], ns[3]
	m0, m1, m2, m3 := 0.0, 0.0, 0.0, 0.0
	for i := range lv {
		l := &lv[i]
		m0 += l.b * n0 / l.x2
		m1 += l.b * n1 / l.x2
		m2 += l.b * n2 / l.x2
		m3 += l.b * n3 / l.x2
	}
	sumBp := e.sumBp
	g0 := tg2[0] * (sumBp*gs[0] - (1+m0)*gps[0])
	g1 := tg2[1] * (sumBp*gs[1] - (1+m1)*gps[1])
	g2 := tg2[2] * (sumBp*gs[2] - (1+m2)*gps[2])
	g3 := tg2[3] * (sumBp*gs[3] - (1+m3)*gps[3])
	for i := range lv {
		l := &lv[i]
		g0 += l.lcp[0] * l.xm1
		g1 += l.lcp[1] * l.xm1
		g2 += l.lcp[2] * l.xm1
		g3 += l.lcp[3] * l.xm1
	}
	for i := range lv {
		l := &lv[i]
		c0, c1, c2, c3 := l.ckPre, l.ckPre, l.ckPre, l.ckPre
		for k := e.cFrom; k <= i; k++ {
			lk := &lv[k]
			c0 += lk.lc[0] * lk.x / l.x2
			c1 += lk.lc[1] * lk.x / l.x2
			c2 += lk.lc[2] * lk.x / l.x2
			c3 += lk.lc[3] * lk.x / l.x2
		}
		p0, p1, p2, p3 := l.cpPre, l.cpPre, l.cpPre, l.cpPre
		for k := e.dFrom; k <= i; k++ {
			lk := &lv[k]
			p0 += lk.lcp[0] * lk.x / l.x2
			p1 += lk.lcp[1] * lk.x / l.x2
			p2 += lk.lcp[2] * lk.x / l.x2
			p3 += lk.lcp[3] * lk.x / l.x2
		}
		g0 += l.b * (c0 + e.alloc + l.lr[0])
		g1 += l.b * (c1 + e.alloc + l.lr[1])
		g2 += l.b * (c2 + e.alloc + l.lr[2])
		g3 += l.b * (c3 + e.alloc + l.lr[3])
		g0 += l.b * n0 * (p0 + l.lrp[0])
		g1 += l.b * n1 * (p1 + l.lrp[1])
		g2 += l.b * n2 * (p2 + l.lrp[2])
		g3 += l.b * n3 * (p3 + l.lrp[3])
	}
	dst[0], dst[1], dst[2], dst[3] = g0, g1, g2, g3
}

// badScan is outlined so the panic stays out of the scan's compiled bodies.
//
//go:noinline
func badScan() {
	panic("model: Evaluator scan: buffer or destination does not match the scan grid")
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
