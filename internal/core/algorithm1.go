package core

import (
	"fmt"
	"math"

	"mlckpt/internal/model"
	"mlckpt/internal/obs"
)

// Optimize runs Algorithm 1: it initializes the expected failure counts
// from the failure-free productive time (lines 1–3), then alternates the
// inner convex solve with a refresh of the expected failure counts from
// the new expected wall-clock length (lines 4–11) until
// max_i |μ'_i − μ_i| ≤ δ.
func Optimize(p *model.Params, opts Options) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.withDefaults()
	// Telemetry: the track's time axis is cumulative inner iterations —
	// a virtual clock measuring solver effort, deterministic across runs.
	rec := obs.OrNop(opts.Obs)
	track := opts.ObsLabel
	if track == "" {
		track = "optimize"
	}
	rec.Count("core.optimize.solves", 1)

	// Lines 1–3: μ_i from the failure-free productive time at the starting
	// scale (the ideal scale, capped by the machine size, or the pinned
	// one).
	st := newInnerState(p)
	mu, muStar, muNu := st.outer[0], st.outer[1], st.outer[2]
	n := p.Speedup.IdealScale()
	if opts.MaxScale > 0 && opts.MaxScale < n {
		n = opts.MaxScale
	}
	if opts.FixedN > 0 {
		n = opts.FixedN
	}
	tEst := p.ProductiveTime(n)
	if math.IsInf(tEst, 0) || tEst <= 0 {
		return Solution{}, fmt.Errorf("%w: productive time %g at N=%g", ErrDiverged, tEst, n)
	}
	p.MuOfNInto(mu, n, tEst)

	var sol Solution
	var aitken [3]float64 // trailing wall-clock estimates for Δ² extrapolation
	nAitken := 0
	for outer := 1; ; outer++ {
		// Line 5: the inner convex solve under μ_i(N) = b_i·N.
		var innerIters int
		var err error
		n, innerIters, err = st.solve(tEst, n, opts)
		sol.InnerIterations += innerIters
		if err != nil {
			return sol, err
		}
		x := st.x

		// Line 6: expected wall clock under the solved (x, N).
		p.MuOfNInto(muStar, n, tEst)
		wct := p.WallClock(x, n, muStar)
		if math.IsNaN(wct) || math.IsInf(wct, 0) || wct <= 0 {
			rec.Count("core.optimize.diverged", 1)
			return sol, fmt.Errorf("%w: wall clock %g at outer step %d", ErrDiverged, wct, outer)
		}
		if opts.Damping > 0 {
			wct = (1-opts.Damping)*wct + opts.Damping*tEst
		}
		if opts.Accelerate {
			aitken[nAitken] = wct
			nAitken++
			if nAitken == 3 {
				d0 := aitken[1] - aitken[0]
				d1 := aitken[2] - aitken[1]
				den := d1 - d0
				if math.Abs(den) > 1e-12*math.Abs(aitken[2]) {
					if acc := aitken[2] - d1*d1/den; acc > 0 && !math.IsNaN(acc) && !math.IsInf(acc, 0) {
						wct = acc
					}
				}
				nAitken = 0
			}
		}

		// Lines 7–10: refresh μ from the new wall clock.
		p.MuOfNInto(muNu, n, wct)
		delta := 0.0
		for i := range mu {
			if d := math.Abs(muNu[i] - mu[i]); d > delta {
				delta = d
			}
		}
		sol.History = append(sol.History, OuterStep{
			Mu: append([]float64(nil), mu...), N: n, WallClock: wct, MuDelta: delta,
		})
		if rec != obs.Nop() {
			args := map[string]float64{
				"n": n, "wct_s": wct, "mu_delta": delta, "inner_iters": float64(innerIters),
			}
			for i := range muNu {
				args[fmt.Sprintf("mu_%d", i+1)] = muNu[i]
				args[fmt.Sprintf("x_%d", i+1)] = x[i]
			}
			rec.Span(track, fmt.Sprintf("outer-%d", outer),
				float64(sol.InnerIterations-innerIters), float64(innerIters), args)
		}
		mu, muNu = muNu, mu
		tEst = wct
		sol.X = append(sol.X[:0], x...)
		sol.N, sol.WallClock = n, wct
		sol.Mu = append(sol.Mu[:0], mu...)
		sol.OuterIterations = outer

		// Divergence guard: μ exploding beyond any physical regime means
		// the failure rates outpace progress (Section III-D's caveat).
		if delta > 1e12 {
			rec.Count("core.optimize.diverged", 1)
			return sol, fmt.Errorf("%w: μ delta %g at outer step %d", ErrDiverged, delta, outer)
		}
		// Line 11: convergence on the failure counts.
		if delta <= opts.OuterTol {
			sol.Converged = true
			finishOptimizeObs(rec, track, sol, true)
			return sol, nil
		}
		if opts.SinglePass {
			// Classic Young: no refresh loop; keep the first-pass answer.
			finishOptimizeObs(rec, track, sol, false)
			return sol, nil
		}
		if outer >= opts.OuterMaxIter {
			rec.Count("core.optimize.no_converge", 1)
			return sol, fmt.Errorf("%w: Algorithm 1 after %d outer iterations", ErrNoConverge, opts.OuterMaxIter)
		}
	}
}

// finishOptimizeObs records the end-of-solve telemetry: iteration-count
// histograms (the paper reports 7–15 outer iterations at δ = 1e-12) and a
// terminal instant on the solve's track.
func finishOptimizeObs(rec obs.Recorder, track string, sol Solution, converged bool) {
	if converged {
		rec.Count("core.optimize.converged", 1)
	}
	rec.Observe("core.optimize.outer_iters", float64(sol.OuterIterations))
	rec.Observe("core.optimize.inner_iters", float64(sol.InnerIterations))
	rec.Observe("core.optimize.wct_days", sol.WallClock/86400)
	rec.Instant(track, "done", float64(sol.InnerIterations), map[string]float64{
		"outer_iters": float64(sol.OuterIterations),
		"wct_s":       sol.WallClock,
	})
}
