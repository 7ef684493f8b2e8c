package jacobi

import (
	"bytes"
	"math"
	"testing"

	"mlckpt/internal/mpisim"
)

// DefaultConfig is a small, fast system.
func DefaultConfig() Config {
	return Config{N: 128, Iterations: 40, FlopTime: 1e-9, Seed: 7}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.N = 1
	if err := bad.Validate(); err == nil {
		t.Error("n=1 accepted")
	}
	neg := DefaultConfig()
	neg.FlopTime = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative flop time accepted")
	}
}

func TestSystemDiagonalDominance(t *testing.T) {
	cfg := DefaultConfig()
	sys := GenerateSystem(cfg)
	n := cfg.N
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(sys.A[i*n+j])
			}
		}
		if math.Abs(sys.A[i*n+i]) <= off {
			t.Fatalf("row %d not strictly dominant", i)
		}
	}
}

func TestConvergesToTrueSolution(t *testing.T) {
	cfg := Config{N: 64, Iterations: 200, FlopTime: 1e-9, Seed: 3}
	sys := GenerateSystem(cfg)
	var x []float64
	_, err := mpisim.Run(4, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg, sys)
		if err != nil {
			panic(err)
		}
		_, resid, _ := s.Run(nil)
		if r.ID() == 0 {
			x = s.Solution()
			if resid > 1e-8 {
				panic("residual did not converge")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x ≈ b directly.
	n := cfg.N
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += sys.A[i*n+j] * x[j]
		}
		if math.Abs(sum-sys.B[i]) > 1e-6 {
			t.Fatalf("row %d: A·x = %g, b = %g", i, sum, sys.B[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cfg := Config{N: 48, Iterations: 30, FlopTime: 1e-9, Seed: 5}
	sys := GenerateSystem(cfg)
	gather := func(p int) []float64 {
		var x []float64
		_, err := mpisim.Run(p, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
			s, err := NewSolver(r, cfg, sys)
			if err != nil {
				panic(err)
			}
			s.Run(nil)
			if r.ID() == 0 {
				x = s.Solution()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	serial := gather(1)
	for _, p := range []int{2, 3, 6, 8} {
		parallel := gather(p)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("p=%d: x[%d] = %g vs serial %g", p, i, parallel[i], serial[i])
			}
		}
	}
}

func TestSerializeRestore(t *testing.T) {
	cfg := Config{N: 32, Iterations: 30, FlopTime: 1e-9, Seed: 9}
	sys := GenerateSystem(cfg)
	_, err := mpisim.Run(4, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		s, err := NewSolver(r, cfg, sys)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 10; i++ {
			s.Step()
		}
		snap := s.Serialize()
		for i := 0; i < 5; i++ {
			s.Step()
		}
		if err := s.Restore(snap); err != nil {
			panic(err)
		}
		if s.Iteration() != 10 || !bytes.Equal(s.Serialize(), snap) {
			panic("restore mismatch")
		}
		if err := s.Restore([]byte{1, 2}); err == nil {
			panic("short snapshot accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTooManyRanks(t *testing.T) {
	cfg := Config{N: 4, Iterations: 1, FlopTime: 1e-9, Seed: 1}
	sys := GenerateSystem(cfg)
	_, err := mpisim.Run(8, mpisim.DefaultCostModel(), func(r *mpisim.Rank) {
		if _, err := NewSolver(r, cfg, sys); err == nil {
			panic("4 rows over 8 ranks accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRiseAndFallSpeedupShape(t *testing.T) {
	// The communication-bound regime must bend the curve: speedup rises at
	// small P and falls once the O(n) allgather dominates the 1/P compute.
	cfg := Config{N: 256, Iterations: 4, FlopTime: 1e-6, Seed: 11}
	cost := mpisim.CostModel{Overhead: 2e-4, Latency: 1e-3, ByteTime: 1e-8}
	samples, err := MeasureSpeedup(cfg, cost, []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i, s := range samples {
		if s.Speedup > samples[peak].Speedup {
			peak = i
		}
	}
	if peak == 0 {
		t.Fatalf("no speedup at all: %v", samples)
	}
	if peak == len(samples)-1 {
		t.Fatalf("speedup never fell: %v", samples)
	}
	if samples[peak].Speedup < 2 {
		t.Errorf("peak speedup %g too small", samples[peak].Speedup)
	}
}
