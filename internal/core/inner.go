package core

import (
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/model"
	"mlckpt/internal/numopt"
	"mlckpt/internal/obs"
)

// scaleGridN is the scan resolution of the scale search: the gradient is
// evaluated on scaleGridN+1 equispaced points of [scaleFloor, ceiling] and
// every sign change is bisected.
const scaleGridN = 64

// innerState is the workspace of one Algorithm 1 solve: the per-level
// vectors of the inner iterate and of the outer μ refresh, the scale
// scan's grid, gradients and table, all carved from one slab, the point
// evaluator of the scale search (built once per solve), and the candidate
// scratch. One instance serves one Params value; it is not safe for
// concurrent use.
type innerState struct {
	p *model.Params
	L int
	// ceiling is N^(*), the top of the scale search.
	ceiling float64

	b, x, prevX, mu []float64
	// outer holds Algorithm 1's μ buffers: the current estimate, μ at the
	// solved scale (line 6), and the refreshed estimate (lines 7–10).
	outer [3][]float64

	// grid holds the scan's scaleGridN+1 points of [scaleFloor, ceiling]
	// and grads the gradient at each; table is the evaluator's table of the
	// grid's N-only terms. The grid depends on p alone, so scanGrid builds
	// grid and table once, at the solve's first scale search.
	grid, grads, table []float64
	gridBuilt          bool

	ev   *model.Evaluator
	cand []float64
}

// newInnerState builds a workspace for p.
func newInnerState(p *model.Params) *innerState {
	L := p.L()
	ev := p.NewEvaluator()
	const points = scaleGridN + 1
	vecs := make([]float64, 7*L+2*points+ev.ScanLen(points))
	scan := vecs[7*L:]
	return &innerState{
		p: p, L: L, ceiling: p.Speedup.IdealScale(),
		b:     vecs[0*L : 1*L],
		x:     vecs[1*L : 2*L],
		prevX: vecs[2*L : 3*L],
		mu:    vecs[3*L : 4*L],
		outer: [3][]float64{vecs[4*L : 5*L], vecs[5*L : 6*L], vecs[6*L : 7*L]},
		grid:  scan[:points],
		grads: scan[points : 2*points],
		table: scan[2*points:],
		ev:    ev,
	}
}

// solve performs the inner convex solve of Algorithm 1 (line 5): with the
// expected failure counts frozen as μ_i(N) = b_i·N (b_i derived from the
// wall-clock estimate tEst), it starts from Young's intervals (Formula 25)
// at nInit and alternates
//
//   - per-level interval updates from the stationarity condition of
//     Formula (23):
//     x_i = sqrt( μ_i·(T_e/g + Σ_{j<i}C_j·x_j) / (2·C_i·(1 + ½Σ_{j>i}μ_j/x_j)) )
//   - a scale update solving ∂E(T_w)/∂N = 0 (Formula 24) by bisecting every
//     sign change on [scaleFloor, N^(*)] and taking the argmin over the
//     stationary points, the endpoints, and any cost-saturation caps. On
//     cap-free problems the derivative is monotone and this reduces to the
//     paper's single bisection; if the derivative is still negative at
//     N^(*), the optimum is N^(*) itself (the "very few failures" case).
//
// until both stabilize. It leaves the interval counts in st.x and returns
// the scale and the iterations used.
//
// The scale search evaluates through model.Evaluator, bit-identical to
// Params.GradN and Params.WallClock: its scan through the evaluator's
// four-lane passes over the grid's table, the rest point by point.
// Options.NumericGradN switches it to the finite-difference ablation.
func (st *innerState) solve(tEst, nInit float64, opts Options) (float64, int, error) {
	p, L := st.p, st.L
	p.BOfTInto(st.b, tEst)

	n := nInit
	ceiling := st.ceiling
	if opts.FixedN > 0 {
		n = opts.FixedN
	}
	if n <= 0 || n > ceiling {
		n = ceiling
	}
	x, mu := st.x, st.mu
	muInto(mu, st.b, n)
	for i := range x {
		x[i] = p.YoungX(n, mu, i)
	}

	for iter := 1; ; iter++ {
		copy(st.prevX, x)
		prevN := n
		// High failure rates couple x and N strongly enough that the bare
		// alternation can contract very slowly; once it has clearly not
		// converged quickly, blend each update with the previous iterate.
		damp := 0.0
		if iter > 50 {
			damp = 0.5
		}

		muInto(mu, st.b, n)
		pt := p.ProductiveTime(n)
		// Interval sweep, lowest level first so the Σ_{j<i}C_j·x_j prefix
		// uses current-iteration values (Gauss–Seidel style, which
		// converges in fewer sweeps than Jacobi here).
		for i := 0; i < L; i++ {
			ci := p.Levels[i].Checkpoint.At(n)
			if ci <= 0 || mu[i] <= 0 {
				x[i] = 1
				continue
			}
			prefix := pt
			for j := 0; j < i; j++ {
				prefix += p.Levels[j].Checkpoint.At(n) * x[j]
			}
			suffix := 0.0
			for j := i + 1; j < L; j++ {
				suffix += mu[j] / x[j]
			}
			v := math.Sqrt(mu[i] * prefix / (2 * ci * (1 + suffix/2)))
			if v < 1 || math.IsNaN(v) {
				v = 1
			}
			x[i] = (1-damp)*v + damp*x[i]
		}

		if opts.FixedN <= 0 {
			nNew, err := st.solveScale(opts)
			if err != nil {
				return n, iter, err
			}
			n = (1-damp)*nNew + damp*n
		}

		worst := math.Abs(n-prevN) / (1 + math.Abs(prevN))
		for i := range x {
			if d := math.Abs(x[i]-st.prevX[i]) / (1 + math.Abs(st.prevX[i])); d > worst {
				worst = d
			}
		}
		if worst <= innerTol {
			return n, iter, nil
		}
		if iter >= innerMaxIter {
			return n, iter, fmt.Errorf("%w: inner solve after %d iterations", ErrNoConverge, innerMaxIter)
		}
	}
}

// solveScale finds the root of ∂E/∂N on [scaleFloor, ceiling] for the
// current iterate with the point evaluator bound to it: the analytic
// Formula 24, whose scan the evaluator fills four points per pass from the
// grid's table, or its finite difference for Options.NumericGradN.
func (st *innerState) solveScale(opts Options) (float64, error) {
	st.ev.Bind(st.x, st.b)
	rec := obs.OrNop(opts.Obs)
	if opts.NumericGradN {
		return st.searchScale(st.numericGradN, st.ev.WallClock, rec)
	}
	st.scanGrid()
	st.ev.GradScan(st.grads)
	return st.pickScale(st.ev.GradN, st.ev.WallClock, rec)
}

// numericGradN is the finite-difference ablation of Formula 24: a central
// difference of the bound E(T_w).
func (st *innerState) numericGradN(n float64) float64 {
	return numopt.DerivativeStep(st.ev.WallClock, n, math.Max(1, n*1e-6))
}

// scanGrid returns the scan's scaleGridN+1 equispaced points of
// [scaleFloor, ceiling], building them, and the evaluator's table of
// their N-only terms, on the first call.
func (st *innerState) scanGrid() []float64 {
	if !st.gridBuilt {
		lo, hi := scaleFloor, st.ceiling
		st.grid[0] = lo
		for k := 1; k <= scaleGridN; k++ {
			st.grid[k] = lo + (hi-lo)*float64(k)/scaleGridN
		}
		st.ev.SetScan(st.grid, st.table)
		st.gridBuilt = true
	}
	return st.grid
}

// searchScale minimizes the frozen-μ objective over [scaleFloor, ceiling]
// given its N-gradient grad and value wallClock, calling grad once per
// scan point; pickScale does the rest.
func (st *innerState) searchScale(grad, wallClock numopt.Func, rec obs.Recorder) (float64, error) {
	for k, n := range st.scanGrid() {
		st.grads[k] = grad(n)
	}
	return st.pickScale(grad, wallClock, rec)
}

// pickScale minimizes the frozen-μ objective over [scaleFloor, ceiling]
// from the scan's gradients st.grads, given the objective's N-gradient
// grad and value wallClock. The candidate optima are the interval
// endpoints, every stationary point of the gradient, and any
// cost-saturation caps: a saturation kink can split the objective into two
// convex branches, each with its own stationary point, so a single
// bisection is not enough. It bisects every sign change of the scan
// through grad and returns the candidate with the least wallClock.
func (st *innerState) pickScale(grad, wallClock numopt.Func, rec obs.Recorder) (float64, error) {
	lo, hi := scaleFloor, st.ceiling
	st.cand = append(st.cand[:0], lo, hi)
	for _, lv := range st.p.Levels {
		for _, cap := range [2]float64{lv.Checkpoint.Cap, lv.Recovery.Cap} {
			if cap > lo && cap < hi {
				st.cand = append(st.cand, cap)
			}
		}
	}
	prev := lo
	gPrev := st.grads[0]
	if math.IsNaN(gPrev) || math.IsInf(gPrev, -1) {
		// The gradient blew up at the floor where the objective is
		// infinite (or the finite-difference stencil stepped below it);
		// the objective always falls away from N = 0, so treat the floor
		// gradient as negative.
		gPrev = -1
	}
	for k := 1; k <= scaleGridN; k++ {
		cur, gCur := st.grid[k], st.grads[k]
		if gPrev < 0 && gCur >= 0 {
			// Bisection well below the fixed-point tolerance (the paper
			// stops at error < 0.5 for integral N and rounds; a coarser
			// tolerance would jitter successive iterates and stall the
			// outer fixed point at small scales).
			res, err := numopt.Bisect(grad, prev, cur, 1e-4, 200)
			if err == nil {
				rec.Count("core.bisect.calls", 1)
				rec.Count("core.bisect.iters", int64(res.Iterations))
				st.cand = append(st.cand, res.Root)
			} else if !errors.Is(err, numopt.ErrNoBracket) {
				return 0, fmt.Errorf("%w: scale bisection: %v", ErrDiverged, err)
			}
		}
		prev, gPrev = cur, gCur
	}
	best, bestE := st.cand[0], math.Inf(1)
	for _, n := range st.cand {
		if e := wallClock(n); e < bestE {
			best, bestE = n, e
		}
	}
	return best, nil
}

// muInto fills mu_i = b_i·N without allocating.
//
//mlckpt:hotpath
func muInto(dst, b []float64, n float64) {
	for i := range b {
		dst[i] = b[i] * n
	}
}
