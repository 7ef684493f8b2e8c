// Package heat implements the paper's evaluation application: Heat
// Distribution, a 2-D Jacobi stencil that computes the steady-state heat
// distribution of a room given boundary heat sources (Section IV-A). It
// runs on the mpisim runtime with the same communication structure as the
// MPI original — ghost-row exchange via nonblocking send/receive pairs
// plus a residual Allreduce every iteration — and exposes
// serialize/restore hooks for the FTI-style checkpoint toolkit.
//
// The domain is decomposed by rows: rank r owns a contiguous band of rows
// and exchanges one ghost row with each neighbor per iteration. Compute
// time is charged to the virtual clock per cell update, so speedup curves
// (Figure 2a) emerge from the interplay of the per-rank work shrinking
// with scale and the communication costs growing.
package heat

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mlckpt/internal/enc"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/obs"
)

// ErrHeat is returned for invalid configurations or corrupt snapshots.
var ErrHeat = errors.New("heat: error")

// Config describes the global problem.
type Config struct {
	GridX, GridY int     // global grid size (columns, rows)
	Iterations   int     // Jacobi iterations to run
	CellTime     float64 // simulated seconds per cell update (e.g. 5e-9)
	TopTemp      float64 // fixed temperature of the top boundary (heat source)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GridX < 3 || c.GridY < 3 {
		return fmt.Errorf("%w: grid %dx%d too small", ErrHeat, c.GridX, c.GridY)
	}
	if c.Iterations < 0 || c.CellTime < 0 {
		return fmt.Errorf("%w: iterations %d, cell time %g", ErrHeat, c.Iterations, c.CellTime)
	}
	return nil
}

// Solver is the per-rank state of the computation.
type Solver struct {
	cfg      Config
	rank     *mpisim.Rank
	rowLo    int       // first owned global row
	rowHi    int       // one past the last owned global row
	cur, nxt []float64 // (rows+2) × GridX including ghost rows
	iter     int
	residual float64

	// Per-iteration scratch: the one-element residual vector for the
	// Allreduce. The ghost exchange itself needs no solver-side buffers —
	// SendFloats/RecvFloatsInto encode and decode directly between the
	// grid and the runtime's pooled message buffers.
	resBuf [1]float64
}

// NewSolver initializes the rank-local state: interior at 0, top boundary
// at TopTemp.
func NewSolver(r *mpisim.Rank, cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.GridY < r.Size() {
		return nil, fmt.Errorf("%w: %d rows over %d ranks", ErrHeat, cfg.GridY, r.Size())
	}
	s := &Solver{cfg: cfg, rank: r}
	s.rowLo = r.ID() * cfg.GridY / r.Size()
	s.rowHi = (r.ID() + 1) * cfg.GridY / r.Size()
	n := (s.rows() + 2) * cfg.GridX
	s.cur = make([]float64, n)
	s.nxt = make([]float64, n)
	// Top boundary (global row 0) is the heat source.
	if s.rowLo == 0 {
		for x := 0; x < cfg.GridX; x++ {
			s.cur[s.idx(0, x)] = cfg.TopTemp
			s.nxt[s.idx(0, x)] = cfg.TopTemp
		}
	}
	return s, nil
}

func (s *Solver) rows() int { return s.rowHi - s.rowLo }

// idx maps a local row (0-based within the owned band) and column to the
// flattened index, accounting for the leading ghost row.
func (s *Solver) idx(localRow, col int) int {
	return (localRow+1)*s.cfg.GridX + col
}

// Iteration returns the number of completed iterations.
func (s *Solver) Iteration() int { return s.iter }

// Rank returns the underlying mpisim rank (checkpoint drivers attach their
// toolkit through it).
func (s *Solver) Rank() *mpisim.Rank { return s.rank }

const (
	tagUp   = 101 // to the previous rank (my first row)
	tagDown = 102 // to the next rank (my last row)
)

// Step performs one Jacobi iteration: ghost exchange, stencil update,
// residual Allreduce. It charges the virtual clock for the cell updates.
func (s *Solver) Step() {
	r := s.rank
	gx := s.cfg.GridX
	rows := s.rows()

	// --- Ghost-row exchange ---
	// Same message flow and virtual-clock op order as the original
	// Irecv/Isend/Waitall shape (sends are eager, so the clock sequence is
	// Send↑, Send↓, Recv↑, Recv↓), but through the float-payload calls:
	// SendFloats encodes the boundary row straight into the runtime's
	// pooled message buffer and RecvFloatsInto decodes straight into the
	// ghost row — two memory passes per message instead of the four an
	// encode/Send/RecvInto/decode chain costs, same bytes on the wire.
	if s.rowLo > 0 {
		r.SendFloats(r.ID()-1, tagUp, s.cur[s.idx(0, 0):s.idx(0, gx)])
	}
	if s.rowHi < s.cfg.GridY {
		r.SendFloats(r.ID()+1, tagDown, s.cur[s.idx(rows-1, 0):s.idx(rows-1, gx)])
	}
	if s.rowLo > 0 {
		r.RecvFloatsInto(r.ID()-1, tagDown, s.cur[0:gx])
	}
	if s.rowHi < s.cfg.GridY {
		r.RecvFloatsInto(r.ID()+1, tagUp, s.cur[(rows+1)*gx:(rows+2)*gx])
	}

	// --- Stencil update ---
	// Row-sliced form of the per-cell loop: boundary handling hoisted out
	// of the inner loop and the interior span handed to the stencilRow
	// kernel. The update order and per-cell arithmetic are unchanged, and
	// the residual is a max of non-negative values (order-independent), so
	// the result is bit-identical to the cell-at-a-time original.
	localMax := 0.0
	for lr := 0; lr < rows; lr++ {
		globalRow := s.rowLo + lr
		base := s.idx(lr, 0)
		src := s.cur[base : base+gx]
		dst := s.nxt[base : base+gx]
		if globalRow == 0 || globalRow == s.cfg.GridY-1 {
			copy(dst, src) // fixed boundary row
			continue
		}
		dst[0], dst[gx-1] = src[0], src[gx-1] // fixed side walls
		up := s.cur[base-gx : base]
		down := s.cur[base+gx : base+2*gx]
		if m := stencilRow(dst[1:gx-1], up[1:gx-1], down[1:gx-1], src[:gx-2], src[2:], src[1:gx-1]); m > localMax {
			localMax = m
		}
	}
	r.Compute(float64(rows*gx) * s.cfg.CellTime)
	s.cur, s.nxt = s.nxt, s.cur

	// --- Residual monitoring, as the eddy_uv program does each step ---
	s.resBuf[0] = localMax
	s.residual = r.Allreduce(mpisim.Max, s.resBuf[:])[0]
	s.iter++
}

// RunResult summarizes a completed (segment of a) run.
type RunResult struct {
	Iterations int
	Residual   float64
	WallClock  float64 // final virtual clock of this rank
}

// Run advances the solver until cfg.Iterations are complete or hook
// returns false. The hook (may be nil) is called after every iteration —
// checkpoint drivers live there.
func (s *Solver) Run(hook func(s *Solver) bool) RunResult {
	for s.iter < s.cfg.Iterations {
		s.Step()
		if hook != nil && !hook(s) {
			break
		}
	}
	return RunResult{Iterations: s.iter, Residual: s.residual, WallClock: s.rank.Clock()}
}

// Serialize captures the rank's protected state (iteration counter + owned
// rows, not ghosts) for checkpointing.
func (s *Solver) Serialize() []byte {
	return s.SerializeInto(nil)
}

// SerializeInto is Serialize into a caller-owned buffer (grown when too
// small), so checkpoint loops can reuse one snapshot buffer per rank.
func (s *Solver) SerializeInto(buf []byte) []byte {
	gx := s.cfg.GridX
	rows := s.rows()
	n := 8 + 8*rows*gx
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	binary.LittleEndian.PutUint64(buf, uint64(s.iter))
	// The owned band is contiguous past the leading ghost row, so the
	// whole payload is one bulk encode.
	enc.PutFloat64s(buf[8:], s.cur[gx:gx+rows*gx])
	return buf
}

// Restore reinstates a snapshot produced by Serialize on the same
// decomposition.
func (s *Solver) Restore(data []byte) error {
	gx := s.cfg.GridX
	rows := s.rows()
	want := 8 + 8*rows*gx
	if len(data) != want {
		return fmt.Errorf("%w: snapshot %d bytes, want %d", ErrHeat, len(data), want)
	}
	s.iter = int(binary.LittleEndian.Uint64(data))
	enc.GetFloat64s(s.cur[gx:gx+rows*gx], data[8:])
	return nil
}

// SerialTime returns the failure-free single-core time of the full problem
// under the cost model: cells × iterations × CellTime. It anchors measured
// speedups (Figure 2a).
func (c Config) SerialTime() float64 {
	return float64(c.GridX) * float64(c.GridY) * float64(c.Iterations) * c.CellTime
}

// MeasureSpeedupObs runs the problem at each scale and returns (scale,
// speedup) samples: speedup = serial time / measured parallel wall clock.
// Each scale's run is observed through rec on track "<track>/p<scale>"
// (see mpisim.RunObserved); a nil recorder or empty track disables
// tracing.
func MeasureSpeedupObs(cfg Config, cost mpisim.CostModel, scales []int, rec obs.Recorder, track string) ([]Sample, error) {
	return measureSpeedup(cfg, cost, scales, rec, track, func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(nil)
	})
}

func measureSpeedup(cfg Config, cost mpisim.CostModel, scales []int, rec obs.Recorder, track string, fn func(*mpisim.Rank)) ([]Sample, error) {
	serial := cfg.SerialTime()
	out := make([]Sample, 0, len(scales))
	for _, p := range scales {
		t := ""
		if track != "" {
			t = fmt.Sprintf("%s/p%d", track, p)
		}
		wall, err := mpisim.RunObserved(p, cost, fn, rec, t)
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

// MeasureSpeedupBlocksObs is MeasureSpeedupObs for the 2-D block
// decomposition: same problem, same cost model, same telemetry, but four
// smaller neighbor messages per iteration instead of two larger ones.
func MeasureSpeedupBlocksObs(cfg Config, cost mpisim.CostModel, scales []int, rec obs.Recorder, track string) ([]Sample, error) {
	return measureSpeedup(cfg, cost, scales, rec, track, func(r *mpisim.Rank) {
		s, err := NewBlockSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(nil)
	})
}
