// Package stats provides the deterministic random-number substrate and the
// descriptive statistics used by the failure models, the exascale simulator,
// and the experiment harness.
//
// All stochastic components in this repository draw from stats.RNG rather
// than math/rand's global source so that every experiment is reproducible
// from a seed and safe to parallelize (one RNG per simulation run).
package stats

import "math"

// RNG is a small, fast, deterministic generator (SplitMix64 core). It is
// NOT cryptographically secure; it exists to make simulations reproducible.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new independent generator derived from the current state,
// used to give each parallel simulation run its own stream.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// DeriveSeed maps a root seed and a substream name to an independent stream
// seed. The derivation depends only on (root, key) — never on call order or
// goroutine scheduling — which is what lets a parallel sweep hand every job
// its own RNG stream while staying bit-identical for any worker count. The
// key bytes are folded in FNV-1a style and the result is pushed through the
// SplitMix64 finalizer so near-identical keys land far apart in state space.
func DeriveSeed(root uint64, key string) uint64 {
	h := root ^ 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Uint64 returns the next 64 random bits.
//
//mlckpt:hotpath
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential samples an exponential interarrival time with the given rate
// (events per unit time). Failure interarrivals in the paper follow the
// exponential distribution ([37], Section IV-A).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Weibull samples a Weibull-distributed value with the given scale and
// shape. shape == 1 reduces to Exponential(1/scale); shape < 1 models the
// infant-mortality regime some HPC failure logs exhibit. Used by the
// failure-distribution ablation.
func (r *RNG) Weibull(scale, shape float64) float64 {
	if scale <= 0 || shape <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Jitter returns v perturbed by a uniform relative error in [-ratio, +ratio],
// clamped at zero. The paper's simulator jitters checkpoint/restart
// overheads with a random error ratio of up to 30% (Section IV-A).
func (r *RNG) Jitter(v, ratio float64) float64 {
	if ratio <= 0 {
		return v
	}
	out := v * (1 + r.Uniform(-ratio, ratio))
	if out < 0 {
		return 0
	}
	return out
}
