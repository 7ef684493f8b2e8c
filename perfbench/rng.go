package main

import (
	"hash/fnv"
	"math"
)

// rng is the benchmark's own generator (SplitMix64). Inputs never come
// from the program's internal/stats RNG, so a change there cannot change
// what the benchmark feeds the program.
type rng struct{ s uint64 }

// newRNG returns the stream for item i of the named generator: a pure
// function of (seed, stream, i), so any item can be rebuilt on its own.
func newRNG(seed uint64, stream string, i int) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: seed ^ h.Sum64()}
	r.s ^= r.next() + uint64(i)*0x9E3779B97F4A7C15
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// uniform returns a uniform value in [lo, hi).
func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// logUniform returns a value whose logarithm is uniform in [log lo, log hi).
func (r *rng) logUniform(lo, hi float64) float64 {
	return math.Exp(r.uniform(math.Log(lo), math.Log(hi)))
}

// band returns the k-th of n equal log-width sub-bands of [lo, hi): the
// strata a workload cycles through so every run covers them equally.
func band(lo, hi float64, k, n int) (float64, float64) {
	step := math.Log(hi/lo) / float64(n)
	return lo * math.Exp(step*float64(k)), lo * math.Exp(step*float64(k+1))
}
