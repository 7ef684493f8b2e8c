package heat

import (
	"fmt"
	"testing"

	"mlckpt/internal/mpisim"
)

func TestProcessGrid(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{12, 3, 4}, {16, 4, 4}, {7, 1, 7}, {36, 6, 6},
	}
	for _, tc := range cases {
		px, py := ProcessGrid(tc.p)
		if px*py != tc.p {
			t.Errorf("ProcessGrid(%d) = %dx%d does not cover", tc.p, px, py)
		}
		if px != tc.px || py != tc.py {
			t.Errorf("ProcessGrid(%d) = %dx%d, want %dx%d", tc.p, px, py, tc.px, tc.py)
		}
	}
}

// gatherBlockGrid runs the block solver on p ranks and returns the global
// grid.
func gatherBlockGrid(t *testing.T, cfg Config, p int) [][]float64 {
	t.Helper()
	grid := make([][]float64, cfg.GridY)
	for i := range grid {
		grid[i] = make([]float64, cfg.GridX)
	}
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	_, err := mpisim.Run(p, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewBlockSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(nil)
		<-mu
		for row := s.rowLo; row < s.rowHi; row++ {
			for col := s.colLo; col < s.colHi; col++ {
				v, err := s.Temperature(row, col)
				if err != nil {
					panic(err)
				}
				grid[row][col] = v
			}
		}
		mu <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

func TestBlockMatchesRowDecomposition(t *testing.T) {
	// Jacobi is decomposition-independent: the 2-D block layout must
	// produce the exact same grid as the 1-D row layout.
	cfg := Config{GridX: 24, GridY: 24, Iterations: 25, CellTime: 1e-9, TopTemp: 100}
	rows := gatherGrid(t, cfg, 4)
	for _, p := range []int{1, 4, 6, 9} {
		blocks := gatherBlockGrid(t, cfg, p)
		for y := range rows {
			for x := range rows[y] {
				if rows[y][x] != blocks[y][x] {
					t.Fatalf("p=%d: block grid differs at (%d,%d): %g vs %g",
						p, y, x, rows[y][x], blocks[y][x])
				}
			}
		}
	}
}

func TestBlockSolverTooSmall(t *testing.T) {
	cfg := Config{GridX: 3, GridY: 3, Iterations: 1, CellTime: 1e-9, TopTemp: 100}
	_, err := mpisim.Run(16, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		if _, err := NewBlockSolver(r, cfg); err == nil {
			panic("3x3 grid on a 4x4 process grid accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockResidualMatchesRowSolver(t *testing.T) {
	cfg := Config{GridX: 16, GridY: 16, Iterations: 40, CellTime: 1e-9, TopTemp: 100}
	var rowRes, blockRes float64
	_, err := mpisim.Run(4, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		res := s.Run(nil)
		if r.ID() == 0 {
			rowRes = res.Residual
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpisim.Run(4, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewBlockSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		res := s.Run(nil)
		if r.ID() == 0 {
			blockRes = res.Residual
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rowRes != blockRes {
		t.Errorf("residuals differ: row %g vs block %g", rowRes, blockRes)
	}
}

// Temperature returns the value at a global coordinate owned by this rank.
func (s *BlockSolver) Temperature(globalRow, globalCol int) (float64, error) {
	if globalRow < s.rowLo || globalRow >= s.rowHi || globalCol < s.colLo || globalCol >= s.colHi {
		return 0, fmt.Errorf("%w: (%d,%d) not owned by rank %d", ErrHeat, globalRow, globalCol, s.rank.ID())
	}
	return s.cur[s.at(globalRow-s.rowLo, globalCol-s.colLo)], nil
}
