// Package jacobi implements a distributed Jacobi iterative solver for
// dense linear systems Ax = b on the mpisim runtime — the second
// application class the paper leans on (its reference [35]; the Nek5000
// eddy_uv program it profiles has the same communication signature:
// per-iteration global exchanges whose cost does not shrink with the
// process count).
//
// Rows of A are block-partitioned across ranks; every iteration each rank
// updates its block of x and then allgathers the full vector. Compute per
// rank shrinks as 1/P while the allgather volume stays O(n), so the
// measured speedup rises, saturates, and falls — exactly the Figure 2(b)
// shape that motivates fitting only the rising range.
package jacobi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/mpisim"
	"mlckpt/internal/stats"
)

// ErrJacobi is returned for invalid configurations or snapshots.
var ErrJacobi = errors.New("jacobi: error")

// Config describes the system.
type Config struct {
	N          int     // unknowns
	Iterations int     // Jacobi sweeps
	FlopTime   float64 // simulated seconds per multiply-add
	Seed       uint64  // system generator seed (diagonally dominant A)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: n = %d", ErrJacobi, c.N)
	}
	if c.Iterations < 0 || c.FlopTime < 0 {
		return fmt.Errorf("%w: iterations %d, flop time %g", ErrJacobi, c.Iterations, c.FlopTime)
	}
	return nil
}

// System holds the dense problem; every rank generates it deterministically
// from the seed (as an MPI code would read it from a shared input).
type System struct {
	A []float64 // n×n row-major
	B []float64
}

// GenerateSystem builds a strictly diagonally dominant system (guaranteed
// Jacobi convergence) from the seed.
func GenerateSystem(cfg Config) *System {
	rng := stats.NewRNG(cfg.Seed)
	n := cfg.N
	s := &System{A: make([]float64, n*n), B: make([]float64, n)}
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Uniform(-1, 1)
			s.A[i*n+j] = v
			rowSum += math.Abs(v)
		}
		s.A[i*n+i] = rowSum + 1 + rng.Float64() // strict dominance
		s.B[i] = rng.Uniform(-10, 10)
	}
	return s
}

// Solver is the per-rank state.
type Solver struct {
	cfg   Config
	rank  *mpisim.Rank
	sys   *System
	rowLo int
	rowHi int
	x     []float64 // full current iterate (all n entries)
	iter  int
	resid float64

	resBuf [1]float64 // the residual Allreduce's one-element vector
}

// NewSolver initializes the rank's partition with x = 0.
func NewSolver(r *mpisim.Rank, cfg Config, sys *System) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N < r.Size() {
		return nil, fmt.Errorf("%w: %d rows over %d ranks", ErrJacobi, cfg.N, r.Size())
	}
	s := &Solver{cfg: cfg, rank: r, sys: sys}
	s.rowLo = r.ID() * cfg.N / r.Size()
	s.rowHi = (r.ID() + 1) * cfg.N / r.Size()
	s.x = make([]float64, cfg.N)
	return s, nil
}

// Iteration returns the completed sweep count.
func (s *Solver) Iteration() int { return s.iter }

// Residual returns ‖b − A·x‖_∞ of the last sweep (computed on owned rows,
// reduced globally).
func (s *Solver) Residual() float64 { return s.resid }

// Solution returns a copy of the current full iterate.
func (s *Solver) Solution() []float64 { return append([]float64(nil), s.x...) }

// Step performs one Jacobi sweep: local row updates, residual Allreduce,
// and an allgather of the updated blocks (via the runtime's Gather).
func (s *Solver) Step() {
	n := s.cfg.N
	rows := s.rowHi - s.rowLo
	local := make([]float64, rows)
	localRes := 0.0
	for i := s.rowLo; i < s.rowHi; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += s.sys.A[i*n+j] * s.x[j]
			}
		}
		xi := (s.sys.B[i] - sum) / s.sys.A[i*n+i]
		local[i-s.rowLo] = xi
		// Residual of the OLD iterate on this row.
		if r := math.Abs(s.sys.B[i] - sum - s.sys.A[i*n+i]*s.x[i]); r > localRes {
			localRes = r
		}
	}
	s.rank.Compute(float64(rows*n) * s.cfg.FlopTime)

	// Allgather the updated blocks (real data through the runtime).
	blob := make([]byte, 8*rows)
	for k, v := range local {
		binary.LittleEndian.PutUint64(blob[8*k:], math.Float64bits(v))
	}
	all := s.rank.Gather(blob)
	for rk, b := range all {
		lo := rk * n / s.rank.Size()
		for k := 0; k+8 <= len(b); k += 8 {
			s.x[lo+k/8] = math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
		}
	}
	s.resBuf[0] = localRes
	s.resid = s.rank.Allreduce(mpisim.Max, s.resBuf[:])[0]
	s.iter++
}

// Run advances until cfg.Iterations complete or hook returns false.
func (s *Solver) Run(hook func(*Solver) bool) (iterations int, residual, wallClock float64) {
	for s.iter < s.cfg.Iterations {
		s.Step()
		if hook != nil && !hook(s) {
			break
		}
	}
	return s.iter, s.resid, s.rank.Clock()
}

// Serialize captures the protected state: iteration counter + the full
// iterate (each rank holds a consistent copy after the allgather).
func (s *Solver) Serialize() []byte {
	buf := make([]byte, 8+8*s.cfg.N)
	binary.LittleEndian.PutUint64(buf, uint64(s.iter))
	for i, v := range s.x {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return buf
}

// Restore reinstates a Serialize snapshot.
func (s *Solver) Restore(data []byte) error {
	want := 8 + 8*s.cfg.N
	if len(data) != want {
		return fmt.Errorf("%w: snapshot %d bytes, want %d", ErrJacobi, len(data), want)
	}
	s.iter = int(binary.LittleEndian.Uint64(data))
	for i := range s.x {
		s.x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return nil
}

// SerialTime returns the single-core time per the cost model.
func (c Config) SerialTime() float64 {
	return float64(c.N) * float64(c.N) * float64(c.Iterations) * c.FlopTime
}

// MeasureSpeedup runs the solver at each scale and returns (scale, speedup)
// samples. With the allgather volume fixed at O(n), the curve rises and
// then falls — the eddy_uv shape of Figure 2(b).
func MeasureSpeedup(cfg Config, cost mpisim.CostModel, scales []int) (out []Sample, err error) {
	sys := GenerateSystem(cfg)
	serial := cfg.SerialTime()
	for _, p := range scales {
		wall, err := mpisim.Run(p, cost, func(r *mpisim.Rank) {
			s, err := NewSolver(r, cfg, sys)
			if err != nil {
				panic(err)
			}
			s.Run(nil)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Scale: p, Speedup: serial / wall})
	}
	return out, nil
}

// Sample is one measured (scale, speedup) point.
type Sample struct {
	Scale   int
	Speedup float64
}
