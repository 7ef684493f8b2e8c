package heat

import (
	"encoding/binary"
	"fmt"
	"math"

	"mlckpt/internal/enc"
	"mlckpt/internal/mpisim"
)

// BlockSolver is the 2-D block decomposition of the Heat Distribution
// program — the layout the paper describes ("splits a particular space
// into several blocks and computes the heat distribution for each of them
// in parallel with communicated messages on the shared edges"). Each rank
// owns a rectangular block and exchanges one ghost row/column with each of
// its four neighbors per iteration.
//
// The numerical result is identical to the row-decomposed Solver (Jacobi
// is order-independent); what changes is the communication pattern: four
// smaller messages instead of two larger ones, which matters for the
// speedup curves at scale.
type BlockSolver struct {
	cfg          Config
	rank         *mpisim.Rank
	px, py       int // process-grid dimensions (px·py = ranks)
	rx, ry       int // this rank's grid coordinates
	colLo, colHi int
	rowLo, rowHi int
	cur, nxt     []float64 // (rows+2) × (cols+2) with ghost border
	iter         int
	residual     float64
	resBuf       [1]float64 // the residual Allreduce's one-element vector
}

// ProcessGrid factors p into the most square px×py grid (px ≤ py).
func ProcessGrid(p int) (px, py int) {
	px = int(math.Sqrt(float64(p)))
	for px > 1 && p%px != 0 {
		px--
	}
	if px < 1 {
		px = 1
	}
	return px, p / px
}

// NewBlockSolver initializes the rank's block.
func NewBlockSolver(r *mpisim.Rank, cfg Config) (*BlockSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	px, py := ProcessGrid(r.Size())
	if cfg.GridX < px || cfg.GridY < py {
		return nil, fmt.Errorf("%w: %dx%d grid over a %dx%d process grid", ErrHeat, cfg.GridX, cfg.GridY, px, py)
	}
	s := &BlockSolver{cfg: cfg, rank: r, px: px, py: py}
	s.rx = r.ID() % px
	s.ry = r.ID() / px
	s.colLo = s.rx * cfg.GridX / px
	s.colHi = (s.rx + 1) * cfg.GridX / px
	s.rowLo = s.ry * cfg.GridY / py
	s.rowHi = (s.ry + 1) * cfg.GridY / py
	n := (s.rows() + 2) * (s.cols() + 2)
	s.cur = make([]float64, n)
	s.nxt = make([]float64, n)
	if s.rowLo == 0 {
		for c := 0; c < s.cols(); c++ {
			s.cur[s.at(0, c)] = cfg.TopTemp
			s.nxt[s.at(0, c)] = cfg.TopTemp
		}
	}
	return s, nil
}

func (s *BlockSolver) rows() int { return s.rowHi - s.rowLo }
func (s *BlockSolver) cols() int { return s.colHi - s.colLo }

// at maps local (row, col) within the owned block to the flattened index
// (ghost border excluded from the coordinates).
func (s *BlockSolver) at(row, col int) int {
	return (row+1)*(s.cols()+2) + col + 1
}

// Iteration returns the number of completed iterations.
func (s *BlockSolver) Iteration() int { return s.iter }

const (
	tagN = 201 // to the north neighbor (my first row)
	tagS = 202 // to the south neighbor (my last row)
	tagW = 203 // to the west neighbor (my first column)
	tagE = 204 // to the east neighbor (my last column)
)

func (s *BlockSolver) neighbor(dx, dy int) (int, bool) {
	nx, ny := s.rx+dx, s.ry+dy
	if nx < 0 || nx >= s.px || ny < 0 || ny >= s.py {
		return 0, false
	}
	return ny*s.px + nx, true
}

func (s *BlockSolver) rowBytes(row int) []byte {
	out := make([]byte, 8*s.cols())
	enc.PutFloat64s(out, s.cur[s.at(row, 0):s.at(row, s.cols())])
	return out
}

func (s *BlockSolver) colBytes(col int) []byte {
	out := make([]byte, 8*s.rows())
	for r := 0; r < s.rows(); r++ {
		binary.LittleEndian.PutUint64(out[8*r:], math.Float64bits(s.cur[s.at(r, col)]))
	}
	return out
}

// Step performs one Jacobi iteration with 4-neighbor ghost exchange.
func (s *BlockSolver) Step() {
	r := s.rank
	cols, rows := s.cols(), s.rows()
	stride := cols + 2

	var reqs []*mpisim.Request
	type ghost struct {
		req *mpisim.Request
		set func(data []byte)
	}
	var ghosts []ghost
	if n, ok := s.neighbor(0, -1); ok { // north
		rq := r.Irecv(n, tagS)
		ghosts = append(ghosts, ghost{rq, func(d []byte) {
			for c := 0; c < cols; c++ {
				s.cur[s.at(-1, c)] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*c:]))
			}
		}})
		reqs = append(reqs, rq, r.Isend(n, tagN, s.rowBytes(0)))
	}
	if n, ok := s.neighbor(0, 1); ok { // south
		rq := r.Irecv(n, tagN)
		ghosts = append(ghosts, ghost{rq, func(d []byte) {
			for c := 0; c < cols; c++ {
				s.cur[s.at(rows, c)] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*c:]))
			}
		}})
		reqs = append(reqs, rq, r.Isend(n, tagS, s.rowBytes(rows-1)))
	}
	if n, ok := s.neighbor(-1, 0); ok { // west
		rq := r.Irecv(n, tagE)
		ghosts = append(ghosts, ghost{rq, func(d []byte) {
			for rr := 0; rr < rows; rr++ {
				s.cur[s.at(rr, -1)] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*rr:]))
			}
		}})
		reqs = append(reqs, rq, r.Isend(n, tagW, s.colBytes(0)))
	}
	if n, ok := s.neighbor(1, 0); ok { // east
		rq := r.Irecv(n, tagW)
		ghosts = append(ghosts, ghost{rq, func(d []byte) {
			for rr := 0; rr < rows; rr++ {
				s.cur[s.at(rr, cols)] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*rr:]))
			}
		}})
		reqs = append(reqs, rq, r.Isend(n, tagE, s.colBytes(cols-1)))
	}
	r.Waitall(reqs)
	for _, g := range ghosts {
		g.set(g.req.Wait())
	}

	// Row-sliced stencil: the block's interior columns are the contiguous
	// local span [lcLo, lcHi) (global columns 1..GridX−2), so each row is
	// one kernel call plus fixed-wall copies — bit-identical to the
	// cell-at-a-time loop (same per-cell arithmetic; residual max is
	// order-independent over non-negative values).
	lcLo, lcHi := 0, cols
	if s.colLo == 0 {
		lcLo = 1
	}
	if s.colHi == s.cfg.GridX {
		lcHi = cols - 1
	}
	localMax := 0.0
	for lr := 0; lr < rows; lr++ {
		gRow := s.rowLo + lr
		base := s.at(lr, 0)
		src := s.cur[base : base+cols]
		dst := s.nxt[base : base+cols]
		if gRow == 0 || gRow == s.cfg.GridY-1 {
			copy(dst, src) // fixed boundary row
			continue
		}
		for lc := 0; lc < lcLo; lc++ {
			dst[lc] = src[lc] // global west wall
		}
		for lc := lcHi; lc < cols; lc++ {
			dst[lc] = src[lc] // global east wall
		}
		if lcLo < lcHi {
			// Left/right neighbors may be ghost-column cells, so they
			// slice the full array rather than the owned row.
			up := s.cur[base-stride+lcLo : base-stride+lcHi]
			down := s.cur[base+stride+lcLo : base+stride+lcHi]
			left := s.cur[base+lcLo-1 : base+lcHi-1]
			right := s.cur[base+lcLo+1 : base+lcHi+1]
			if m := stencilRow(dst[lcLo:lcHi], up, down, left, right, src[lcLo:lcHi]); m > localMax {
				localMax = m
			}
		}
	}
	r.Compute(float64(rows*cols) * s.cfg.CellTime)
	s.cur, s.nxt = s.nxt, s.cur
	s.resBuf[0] = localMax
	s.residual = r.Allreduce(mpisim.Max, s.resBuf[:])[0]
	s.iter++
}

// Run advances until cfg.Iterations complete or hook returns false.
func (s *BlockSolver) Run(hook func(*BlockSolver) bool) RunResult {
	for s.iter < s.cfg.Iterations {
		s.Step()
		if hook != nil && !hook(s) {
			break
		}
	}
	return RunResult{Iterations: s.iter, Residual: s.residual, WallClock: s.rank.Clock()}
}
