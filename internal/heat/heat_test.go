package heat

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"mlckpt/internal/mpisim"
)

// DefaultConfig is a small, fast problem.
func DefaultConfig() Config {
	return Config{GridX: 64, GridY: 64, Iterations: 50, CellTime: 5e-9, TopTemp: 100}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.GridX = 1
	if err := bad.Validate(); !errors.Is(err, ErrHeat) {
		t.Errorf("tiny grid: %v", err)
	}
	neg := DefaultConfig()
	neg.Iterations = -1
	if err := neg.Validate(); !errors.Is(err, ErrHeat) {
		t.Errorf("negative iterations: %v", err)
	}
}

func TestTooManyRanks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GridY = 4
	_, err := mpisim.Run(8, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		if _, err := NewSolver(r, cfg); err == nil {
			panic("8 ranks on 4 rows accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherGrid runs the solver on p ranks and returns the final global grid.
func gatherGrid(t *testing.T, cfg Config, p int) [][]float64 {
	t.Helper()
	grid := make([][]float64, cfg.GridY)
	done := make(chan struct{}, p)
	_, err := mpisim.Run(p, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(nil)
		for row := s.rowLo; row < s.rowHi; row++ {
			vals := make([]float64, cfg.GridX)
			for x := 0; x < cfg.GridX; x++ {
				v, err := s.Temperature(row, x)
				if err != nil {
					panic(err)
				}
				vals[x] = v
			}
			grid[row] = vals
		}
		done <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	// Jacobi is order-independent: any decomposition must produce
	// bit-identical grids.
	cfg := Config{GridX: 24, GridY: 24, Iterations: 30, CellTime: 1e-9, TopTemp: 100}
	serial := gatherGrid(t, cfg, 1)
	for _, p := range []int{2, 3, 4, 8} {
		parallel := gatherGrid(t, cfg, p)
		for y := range serial {
			for x := range serial[y] {
				if serial[y][x] != parallel[y][x] {
					t.Fatalf("p=%d: grid differs at (%d,%d): %g vs %g",
						p, y, x, serial[y][x], parallel[y][x])
				}
			}
		}
	}
}

func TestHeatFlowsDownward(t *testing.T) {
	cfg := Config{GridX: 16, GridY: 16, Iterations: 200, CellTime: 1e-9, TopTemp: 100}
	grid := gatherGrid(t, cfg, 4)
	mid := cfg.GridX / 2
	// Top boundary stays at the source temperature.
	if grid[0][mid] != 100 {
		t.Errorf("top boundary = %g, want 100", grid[0][mid])
	}
	// Temperature decreases monotonically down the center column.
	for y := 1; y < cfg.GridY-1; y++ {
		if grid[y][mid] > grid[y-1][mid]+1e-12 {
			t.Errorf("temperature rising downward at row %d: %g > %g", y, grid[y][mid], grid[y-1][mid])
		}
	}
	// Interior is strictly warmer than the cold bottom boundary.
	if !(grid[1][mid] > 0 && grid[cfg.GridY-2][mid] >= 0) {
		t.Error("interior temperatures out of range")
	}
}

func TestResidualDecreases(t *testing.T) {
	cfg := Config{GridX: 16, GridY: 16, Iterations: 100, CellTime: 1e-9, TopTemp: 100}
	var early, late float64
	_, err := mpisim.Run(2, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(func(s *Solver) bool {
			if s.Iteration() == 5 && r.ID() == 0 {
				early = s.Residual()
			}
			return true
		})
		if r.ID() == 0 {
			late = s.Residual()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(late < early) {
		t.Errorf("residual did not decrease: early %g, late %g", early, late)
	}
}

func TestSerializeRestoreRoundTrip(t *testing.T) {
	cfg := Config{GridX: 16, GridY: 16, Iterations: 40, CellTime: 1e-9, TopTemp: 100}
	_, err := mpisim.Run(4, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 10; i++ {
			s.Step()
		}
		snap := s.Serialize()
		ref := append([]byte(nil), snap...)
		for i := 0; i < 5; i++ {
			s.Step()
		}
		if bytes.Equal(s.Serialize(), ref) {
			panic("state did not change after more iterations")
		}
		if err := s.Restore(snap); err != nil {
			panic(err)
		}
		if s.Iteration() != 10 {
			panic("iteration counter not restored")
		}
		if !bytes.Equal(s.Serialize(), ref) {
			panic("restore did not reproduce the snapshot")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	_, err := mpisim.Run(1, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Restore([]byte{1, 2, 3}); err == nil {
			panic("short snapshot accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestartEquivalence(t *testing.T) {
	// Checkpoint mid-run, restart in a NEW mpisim run from the snapshot,
	// and finish: the grid must match an uninterrupted run bitwise. This
	// is the core property the FTI recovery path depends on.
	cfg := Config{GridX: 20, GridY: 20, Iterations: 30, CellTime: 1e-9, TopTemp: 100}
	p := 4

	uninterrupted := gatherGrid(t, cfg, p)

	snaps := make([][]byte, p)
	_, err := mpisim.Run(p, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		s.Run(func(s *Solver) bool { return s.Iteration() < 12 })
		snaps[r.ID()] = s.Serialize()
	})
	if err != nil {
		t.Fatal(err)
	}

	restarted := make([][]float64, cfg.GridY)
	_, err = mpisim.Run(p, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Restore(snaps[r.ID()]); err != nil {
			panic(err)
		}
		s.Run(nil)
		for row := s.rowLo; row < s.rowHi; row++ {
			vals := make([]float64, cfg.GridX)
			for x := 0; x < cfg.GridX; x++ {
				v, _ := s.Temperature(row, x)
				vals[x] = v
			}
			restarted[row] = vals
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for y := range uninterrupted {
		for x := range uninterrupted[y] {
			if uninterrupted[y][x] != restarted[y][x] {
				t.Fatalf("restart diverged at (%d,%d): %g vs %g",
					y, x, uninterrupted[y][x], restarted[y][x])
			}
		}
	}
}

func TestTemperatureBounds(t *testing.T) {
	cfg := DefaultConfig()
	_, err := mpisim.Run(2, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg)
		if err != nil {
			panic(err)
		}
		if _, err := s.Temperature(-1, 0); err == nil {
			panic("negative row accepted")
		}
		if _, err := s.Temperature(0, 999); err == nil {
			panic("column out of range accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeasureSpeedupRises(t *testing.T) {
	cfg := Config{GridX: 128, GridY: 128, Iterations: 10, CellTime: 1e-7, TopTemp: 100}
	samples, err := MeasureSpeedupObs(cfg, mpisim.DefaultCostModel(), []int{1, 2, 4, 8, 16}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("%d samples", len(samples))
	}
	if math.Abs(samples[0].Speedup-1) > 0.2 {
		t.Errorf("single-rank speedup = %g, want ≈1", samples[0].Speedup)
	}
	if samples[4].Speedup <= samples[0].Speedup {
		t.Errorf("speedup did not rise: %v", samples)
	}
}

func TestSerialTimeFormula(t *testing.T) {
	cfg := Config{GridX: 10, GridY: 20, Iterations: 3, CellTime: 2}
	if got, want := cfg.SerialTime(), 10.0*20*3*2; got != want {
		t.Errorf("SerialTime = %g, want %g", got, want)
	}
}

// Residual returns the global max-change of the last completed iteration.
func (s *Solver) Residual() float64 { return s.residual }

// Temperature returns the current value at a global coordinate owned by
// this rank.
func (s *Solver) Temperature(globalRow, col int) (float64, error) {
	if globalRow < s.rowLo || globalRow >= s.rowHi || col < 0 || col >= s.cfg.GridX {
		return 0, fmt.Errorf("%w: (%d,%d) not owned by rank %d", ErrHeat, globalRow, col, s.rank.ID())
	}
	return s.cur[s.idx(globalRow-s.rowLo, col)], nil
}
