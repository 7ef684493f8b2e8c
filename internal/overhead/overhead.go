// Package overhead models per-level checkpoint and recovery costs as
// functions of the execution scale, following Formulas (19)/(20) of the
// paper:
//
//	C_i(N) = ε_i + α_i·H_c(N)
//	R_i(N) = η_i + β_i·H_r(N)
//
// H_c and H_r are baseline functions through the origin: H(N)=0 models a
// constant overhead (local storage, partner copy, RS encoding on FTI), and
// H(N)=N models the linearly congesting parallel file system. The
// coefficients are obtained by least squares over characterization tables
// such as the paper's Table II.
package overhead

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mlckpt/internal/numopt"
)

// ErrCharacterize is returned when a characterization table cannot be
// fitted.
var ErrCharacterize = errors.New("overhead: characterization failed")

// Baseline is a scale-dependence baseline function H(N). All baselines pass
// through the origin, per the paper's definition.
type Baseline int

// Baseline kinds. Any other value evaluates as Zero.
const (
	Zero    Baseline = iota // H(N) = 0: scale-independent overhead
	LinearN                 // H(N) = N: linear congestion (PFS metadata+bandwidth)
)

// Eval returns H(N).
func (b Baseline) Eval(n float64) float64 {
	if b == LinearN {
		return n
	}
	return 0
}

// Derivative returns dH/dN.
func (b Baseline) Derivative(n float64) float64 {
	if b == LinearN {
		return 1
	}
	return 0
}

func (b Baseline) String() string {
	switch b {
	case Zero:
		return "0"
	case LinearN:
		return "N"
	default:
		return fmt.Sprintf("baseline(%d)", int(b))
	}
}

// Cost is a single-level cost model c(N) = Const + Coeff·H(min(N, Cap)),
// used for both checkpoint overheads (ε, α) and recovery overheads (η, β).
//
// Cap, when positive, saturates the scale-dependent term: beyond Cap cores
// the cost stops growing. This models a strong-scaling PFS checkpoint: the
// total checkpoint volume of a fixed problem is constant, so once the file
// system's client concurrency is saturated the write time plateaus, and
// only the per-file metadata term grew up to that point. Cap = 0 means no
// saturation (the pure Formula 19/20 form).
type Cost struct {
	Const float64  // ε_i or η_i, in seconds
	Coeff float64  // α_i or β_i
	H     Baseline // scale-dependence baseline
	Cap   float64  // saturation scale for the H term; 0 = none
}

// Constant builds a scale-independent cost of c seconds.
func Constant(c float64) Cost { return Cost{Const: c, H: Zero} }

// LinearCost builds c(N) = c0 + slope·N.
func LinearCost(c0, slope float64) Cost {
	return Cost{Const: c0, Coeff: slope, H: LinearN}
}

// At returns the cost in seconds at scale n.
func (c Cost) At(n float64) float64 {
	if c.Cap > 0 && n > c.Cap {
		n = c.Cap
	}
	return c.Const + c.Coeff*c.H.Eval(n)
}

// DerivativeAt returns dc/dN at scale n (C'_i and R'_i in Formula 24).
// Beyond a saturation cap the cost is flat, so the derivative is zero.
func (c Cost) DerivativeAt(n float64) float64 {
	if c.Cap > 0 && n > c.Cap {
		return 0
	}
	return c.Coeff * c.H.Derivative(n)
}

// IsConstant reports whether the cost does not vary with scale.
func (c Cost) IsConstant() bool { return c.Coeff == 0 || c.H != LinearN }

func (c Cost) String() string {
	if c.IsConstant() {
		return fmt.Sprintf("%.4gs", c.Const)
	}
	return fmt.Sprintf("%.4g + %.4g·%s s", c.Const, c.Coeff, c.H)
}

// Level bundles the checkpoint and recovery cost models for one checkpoint
// level.
type Level struct {
	Checkpoint Cost
	Recovery   Cost
}

// Characterization is a measured overhead table: Scales[k] cores produced
// Costs[k][i] seconds of overhead at level i. The paper's Table II is an
// instance with scales {128, 256, 384, 512, 1024} and four levels.
type Characterization struct {
	Scales []float64
	Costs  [][]float64 // Costs[k][i]: overhead at Scales[k], level i
}

// Levels returns the number of characterized levels.
func (ch Characterization) Levels() int {
	if len(ch.Costs) == 0 {
		return 0
	}
	return len(ch.Costs[0])
}

// Validate checks shape consistency.
func (ch Characterization) Validate() error {
	if len(ch.Scales) == 0 || len(ch.Costs) != len(ch.Scales) {
		return fmt.Errorf("%w: %d scales vs %d cost rows", ErrCharacterize, len(ch.Scales), len(ch.Costs))
	}
	l := ch.Levels()
	if l == 0 {
		return fmt.Errorf("%w: empty cost rows", ErrCharacterize)
	}
	for k, row := range ch.Costs {
		if len(row) != l {
			return fmt.Errorf("%w: row %d has %d levels, want %d", ErrCharacterize, k, len(row), l)
		}
		for i, v := range row {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("%w: invalid cost %g at row %d level %d", ErrCharacterize, v, k, i)
			}
		}
	}
	return nil
}

// fitFlatness is Fit's flatness threshold: if the LinearN fit improves the
// residual sum of squares over the constant fit by less than this relative
// factor, the level is declared constant (α=0), mirroring the paper's
// reading of Table II ("the checkpoint overheads for the first three
// levels look like constants").
const fitFlatness = 0.5

// Fit derives a Cost model per level from a characterization table. For
// each level it compares a constant fit against a LinearN fit and keeps
// the scale-dependent model only when it reduces the residual
// substantially (fitFlatness) and explains at least 30% of the mean cost
// across the characterized range, so measurement noise on a flat level
// cannot masquerade as growth.
func Fit(ch Characterization) ([]Cost, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	scaleSpan := ch.Scales[len(ch.Scales)-1] - ch.Scales[0]
	nLevels := ch.Levels()
	out := make([]Cost, nLevels)
	for i := 0; i < nLevels; i++ {
		ys := make([]float64, len(ch.Scales))
		for k := range ch.Scales {
			ys[k] = ch.Costs[k][i]
		}
		constFit := mean(ys)
		constRSS := 0.0
		for _, y := range ys {
			d := y - constFit
			constRSS += d * d
		}

		best := Cost{Const: constFit, H: Zero}
		hx := make([]float64, len(ch.Scales))
		for k, n := range ch.Scales {
			hx[k] = LinearN.Eval(n)
		}
		if c0, slope, err := numopt.FitLine(hx, ys); err == nil {
			cand := Cost{Const: c0, Coeff: slope, H: LinearN}
			candRSS := 0.0
			for k, n := range ch.Scales {
				d := ys[k] - cand.At(n)
				candRSS += d * d
			}
			span := slope * (LinearN.Eval(ch.Scales[0]+scaleSpan) - LinearN.Eval(ch.Scales[0]))
			if candRSS < constRSS*(1-fitFlatness) && slope > 0 && span > 0.3*constFit {
				best = cand
			}
		}
		if best.Const < 0 {
			best.Const = 0
		}
		out[i] = best
	}
	// Enforce the paper's ordering assumption C_1 <= C_2 <= ... <= C_L at
	// the largest characterized scale; warn via error if violated.
	top := ch.Scales[len(ch.Scales)-1]
	vals := make([]float64, nLevels)
	for i, c := range out {
		vals[i] = c.At(top)
	}
	if !sort.Float64sAreSorted(vals) {
		return out, fmt.Errorf("%w: fitted costs not monotone across levels at N=%g: %v", ErrCharacterize, top, vals)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// FusionFittedCosts returns the paper's published least-squares coefficients
// for Table II: (ε_i, α_i) = (0.866, 0), (2.586, 0), (3.886, 0),
// (5.5, 0.0212) with H_c(N) = N for level 4. The evaluation section (Fig. 5,
// 6, 7, Table III) uses exactly these.
func FusionFittedCosts() []Cost {
	return []Cost{
		Constant(0.866),
		Constant(2.586),
		Constant(3.886),
		LinearCost(5.5, 0.0212),
	}
}

// ExascaleCosts is the exascale extrapolation of Table II used by the
// Figure 5/6/7 and Table III reproductions: levels 1–3 keep their fitted
// constants; level 4 keeps the fitted linear metadata growth but saturates
// at 256Ki clients (C4 tops out at ≈5,563 s).
//
// Rationale: extrapolating α4·N literally to 10^6 cores yields C4 ≈ 21,205 s
// ≈ the level-4 MTBF of the 16-12-8-4 scenario, at which point the paper's
// own fixed-point model diverges at N^(*) — yet the paper reports finite
// ML(ori-scale) results and calls Table IV's 2,000 s constant PFS cost
// "relatively large" compared to this setting. Under strong scaling the
// total checkpoint volume is fixed, so a saturating PFS cost is the
// physically consistent reading; see DESIGN.md for the full derivation.
func ExascaleCosts() []Cost {
	c := FusionFittedCosts()
	c[3].Cap = 262144
	return c
}

// SymmetricLevels builds Level specs whose recovery model equals the
// checkpoint model scaled by factor (the common R ≈ C assumption in the
// paper's numerical studies, e.g. C(N)=R(N)=5 in Figure 3).
func SymmetricLevels(costs []Cost, factor float64) []Level {
	out := make([]Level, len(costs))
	for i, c := range costs {
		out[i] = Level{
			Checkpoint: c,
			Recovery:   Cost{Const: c.Const * factor, Coeff: c.Coeff * factor, H: c.H, Cap: c.Cap},
		}
	}
	return out
}
