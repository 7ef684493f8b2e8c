package storage

import (
	"errors"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := DefaultHierarchy().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultHierarchy()
	bad.PFSBandwidth = 0
	if err := bad.Validate(); !errors.Is(err, ErrStorage) {
		t.Errorf("zero bandwidth: %v", err)
	}
	neg := DefaultHierarchy()
	neg.LocalLatency = -1
	if err := neg.Validate(); !errors.Is(err, ErrStorage) {
		t.Errorf("negative latency: %v", err)
	}
}

func TestLevelCostOrdering(t *testing.T) {
	// At any realistic configuration, C1 <= C2 and C1 <= C3; at scale,
	// C4 dominates everything (the paper's C_1 <= ... <= C_L assumption).
	h := DefaultHierarchy()
	perNode := 64 << 20 // 64 MiB per node
	nodes := 512
	c := make([]float64, 5)
	for lvl := 1; lvl <= 4; lvl++ {
		v, err := h.CheckpointTime(lvl, perNode, nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		c[lvl] = v
	}
	if !(c[1] < c[2] && c[2] < c[3] && c[3] < c[4]) {
		t.Errorf("costs not increasing with level: %v", c[1:])
	}
}

func TestTableIIShape(t *testing.T) {
	// Levels 1–3 must be (nearly) flat in the node count; level 4 must
	// grow — the qualitative shape of Table II.
	h := DefaultHierarchy()
	perNode := 32 << 20
	at := func(lvl, nodes int) float64 {
		v, err := h.CheckpointTime(lvl, perNode, nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for lvl := 1; lvl <= 3; lvl++ {
		small, large := at(lvl, 128), at(lvl, 1024)
		if small != large {
			t.Errorf("level %d varies with node count: %g vs %g", lvl, small, large)
		}
	}
	if !(at(4, 1024) > at(4, 128)*1.5) {
		t.Errorf("level 4 does not grow with scale: %g vs %g", at(4, 128), at(4, 1024))
	}
}

func TestPFSStrongScalingSaturation(t *testing.T) {
	// Under strong scaling the per-node data shrinks as 1/nodes, so the
	// bandwidth term is constant and only metadata grows — the rationale
	// for overhead.ExascaleCosts' saturating level-4 model.
	h := DefaultHierarchy()
	total := 1 << 36 // 64 GiB problem
	t128 := h.PFSWrite(total/128, 128)
	t1024 := h.PFSWrite(total/1024, 1024)
	bwTerm := float64(total) / h.PFSBandwidth
	if t128 < bwTerm || t1024 < bwTerm {
		t.Errorf("PFS write below bandwidth floor: %g, %g < %g", t128, t1024, bwTerm)
	}
	if t1024 <= t128 {
		t.Errorf("metadata growth missing: %g <= %g", t1024, t128)
	}
	if (t1024-t128)/t128 > 0.2 {
		t.Errorf("strong-scaling PFS cost grew too fast: %g -> %g", t128, t1024)
	}
}

func TestCheckpointTimeInvalidLevel(t *testing.T) {
	h := DefaultHierarchy()
	if _, err := h.CheckpointTime(0, 1024, 4, 2); !errors.Is(err, ErrStorage) {
		t.Errorf("level 0: %v", err)
	}
	if _, err := h.CheckpointTime(5, 1024, 4, 2); !errors.Is(err, ErrStorage) {
		t.Errorf("level 5: %v", err)
	}
	if _, err := h.RecoveryTime(9, 1024, 4, 2); !errors.Is(err, ErrStorage) {
		t.Errorf("recovery level 9: %v", err)
	}
}

func TestRecoveryCheaperThanOrComparableToCheckpoint(t *testing.T) {
	h := DefaultHierarchy()
	perNode := 16 << 20
	for lvl := 1; lvl <= 4; lvl++ {
		c, err := h.CheckpointTime(lvl, perNode, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		r, err := h.RecoveryTime(lvl, perNode, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		if r > c*1.01 {
			t.Errorf("level %d recovery %g > checkpoint %g", lvl, r, c)
		}
	}
}

func TestMonotoneInSize(t *testing.T) {
	h := DefaultHierarchy()
	for lvl := 1; lvl <= 4; lvl++ {
		small, err := h.CheckpointTime(lvl, 1<<20, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		large, err := h.CheckpointTime(lvl, 1<<24, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if large <= small {
			t.Errorf("level %d not monotone in bytes: %g <= %g", lvl, large, small)
		}
	}
}

func TestEncodeGroupSizeEffect(t *testing.T) {
	h := DefaultHierarchy()
	e2 := h.Encode(1<<24, 2)
	e16 := h.Encode(1<<24, 16)
	if e16 <= e2 {
		t.Errorf("larger RS group should cost more exchange: %g <= %g", e16, e2)
	}
	// Degenerate group of 1 is accepted.
	if h.Encode(1<<20, 0) <= 0 {
		t.Error("degenerate group mishandled")
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, Base: 0.5, Factor: 2}
	want := []float64{0.5, 1, 2}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %g, want %g", i, got, w)
		}
	}
	if got := p.Backoff(-1); got != 0 {
		t.Errorf("Backoff(-1) = %g", got)
	}
}

func TestRetryPricing(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, Base: 0.5, Factor: 2}

	// Immediate success: one attempt, no backoff.
	elapsed, attempts, ok := p.Retry(2, func(int) bool { return false })
	if !ok || attempts != 1 || elapsed != 2 {
		t.Fatalf("clean op: elapsed=%g attempts=%d ok=%v", elapsed, attempts, ok)
	}

	// Two transient failures: 3 attempts, backoffs 0.5 + 1.
	fails := 2
	elapsed, attempts, ok = p.Retry(2, func(a int) bool { return a < fails })
	if !ok || attempts != 3 || elapsed != 3*2+0.5+1 {
		t.Fatalf("2 transients: elapsed=%g attempts=%d ok=%v", elapsed, attempts, ok)
	}

	// Persistent failure: budget exhausted, all attempts + interior
	// backoffs charged, ok=false.
	elapsed, attempts, ok = p.Retry(2, func(int) bool { return true })
	if ok || attempts != 4 || elapsed != 4*2+0.5+1+2 {
		t.Fatalf("persistent: elapsed=%g attempts=%d ok=%v", elapsed, attempts, ok)
	}

	// Zero-retry policy gives up after the first failure.
	elapsed, attempts, ok = (RetryPolicy{}).Retry(1, func(int) bool { return true })
	if ok || attempts != 1 || elapsed != 1 {
		t.Fatalf("no-retry: elapsed=%g attempts=%d ok=%v", elapsed, attempts, ok)
	}
}
