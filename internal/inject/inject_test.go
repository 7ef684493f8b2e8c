package inject

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func fullSpec() Spec {
	return Spec{
		CorruptRate:       []float64{0.3, 0.3, 0.3, 0.3},
		TruncateFrac:      0.4,
		PartnerPairRate:   0.5,
		ParityHolderRate:  0.5,
		CkptAbortRate:     0.2,
		RecoveryCrashRate: 0.3,
		PFSWriteFailRate:  0.4,
		PFSReadFailRate:   0.4,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if err := fullSpec().Validate(); err != nil {
		t.Fatalf("full spec: %v", err)
	}
	bad := []Spec{
		{CorruptRate: []float64{-0.1}},
		{CorruptRate: []float64{1.5}},
		{TruncateFrac: 2},
		{PartnerPairRate: -1},
		{PFSWriteFailRate: 1.0001},
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrSpec) {
			t.Errorf("bad[%d]: err = %v, want ErrSpec", i, err)
		}
	}
}

// TestPlanDeterministic pins the core guarantee: every decision is a pure
// function of (seed, identity), independent of call order.
func TestPlanDeterministic(t *testing.T) {
	a := MustCompile(fullSpec(), 42, "chaos/cell-3")
	b := MustCompile(fullSpec(), 42, "chaos/cell-3")

	// Same queries in reverse order must give identical answers.
	type snapQ struct{ level, rank, version, size int }
	var queries []snapQ
	for level := 1; level <= 4; level++ {
		for rank := 0; rank < 8; rank++ {
			for version := 1; version <= 5; version++ {
				queries = append(queries, snapQ{level, rank, version, 256})
			}
		}
	}
	ansA := make(map[snapQ]Fault)
	okA := make(map[snapQ]bool)
	for _, q := range queries {
		f, ok := a.SnapshotFault(q.level, q.rank, q.version, q.size)
		ansA[q], okA[q] = f, ok
	}
	for i := len(queries) - 1; i >= 0; i-- {
		q := queries[i]
		f, ok := b.SnapshotFault(q.level, q.rank, q.version, q.size)
		if ok != okA[q] || f != ansA[q] {
			t.Fatalf("query %+v: order-dependent answer (%v,%v) vs (%v,%v)", q, f, ok, ansA[q], okA[q])
		}
	}
}

func TestPlanSeedSeparation(t *testing.T) {
	a := MustCompile(fullSpec(), 42, "cell-a")
	b := MustCompile(fullSpec(), 42, "cell-b")
	same, total := 0, 0
	for v := 1; v <= 200; v++ {
		fa, oka := a.SnapshotFault(1, 0, v, 1024)
		fb, okb := b.SnapshotFault(1, 0, v, 1024)
		if oka == okb && fa == fb {
			same++
		}
		total++
	}
	if same == total {
		t.Fatal("plans with different keys produced identical fault streams")
	}
}

// TestPlanConcurrentUse exercises a read-only plan from many goroutines
// (the sweep engine queries one plan from every worker); run under -race.
func TestPlanConcurrentUse(t *testing.T) {
	p := MustCompile(fullSpec(), 7, "race")
	var wg sync.WaitGroup
	results := make([][]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]bool, 100)
			for i := range out {
				_, ok := p.SnapshotFault(1+i%4, i%16, i, 64)
				out[i] = ok || p.PFSWriteFails(i, 0) || p.PairCrash(i)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d disagreed at %d", g, i)
			}
		}
	}
}

func TestRatesCalibrated(t *testing.T) {
	spec := Spec{CorruptRate: []float64{0.25}, PFSWriteFailRate: 0.5}
	p := MustCompile(spec, 3, "calib")
	const n = 4000
	hits := 0
	for v := 0; v < n; v++ {
		if _, ok := p.SnapshotFault(1, 0, v, 128); ok {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.2 || got > 0.3 {
		t.Errorf("corrupt rate 0.25 realized as %g", got)
	}
	hits = 0
	for op := 0; op < n; op++ {
		if p.PFSWriteFails(op, 0) {
			hits++
		}
	}
	got = float64(hits) / n
	if got < 0.45 || got > 0.55 {
		t.Errorf("pfs write fail rate 0.5 realized as %g", got)
	}
}

func TestNilAndZeroPlansInjectNothing(t *testing.T) {
	var nilPlan *Plan
	zero := MustCompile(Spec{}, 1, "zero")
	for _, p := range []*Plan{nilPlan, zero} {
		if _, ok := p.SnapshotFault(1, 0, 1, 64); ok {
			t.Error("snapshot fault from empty plan")
		}
		if _, ok := p.ParityFault(0, 0, 1, 64); ok {
			t.Error("parity fault from empty plan")
		}
		if p.PairCrash(0) || p.ParityCrash(0) || p.PFSWriteFails(0, 0) || p.PFSReadFails(0, 0) {
			t.Error("crash/pfs fault from empty plan")
		}
		if _, ok := p.CkptAbort(1, 0); ok {
			t.Error("ckpt abort from empty plan")
		}
		if _, ok := p.RecoveryCrash(0, 0); ok {
			t.Error("recovery crash from empty plan")
		}
	}
}

func TestFaultApply(t *testing.T) {
	data := []byte{0, 0, 0, 0}
	out := Fault{Kind: BitFlip, Offset: 2, Bit: 0x10}.Apply(data)
	if out[2] != 0x10 {
		t.Errorf("bit flip: got %v", out)
	}
	// Same flip restores (XOR involution).
	out = Fault{Kind: BitFlip, Offset: 2, Bit: 0x10}.Apply(out)
	if out[2] != 0 {
		t.Errorf("double flip: got %v", out)
	}
	out = Fault{Kind: Truncate, Len: 2}.Apply([]byte{1, 2, 3, 4})
	if len(out) != 2 {
		t.Errorf("truncate: len %d", len(out))
	}
	// Truncation never returns the full slice for non-empty input.
	out = Fault{Kind: Truncate, Len: 99}.Apply([]byte{1, 2, 3})
	if len(out) != 2 {
		t.Errorf("clipped truncate: len %d", len(out))
	}
	// Out-of-range flips clip instead of panicking.
	out = Fault{Kind: BitFlip, Offset: 50}.Apply([]byte{0})
	if out[0] == 0 {
		t.Error("clipped flip did nothing")
	}
	if got := (Fault{Kind: BitFlip}).Apply(nil); len(got) != 0 {
		t.Error("nil data mutated")
	}
}

func TestCkptAbortFractionInterior(t *testing.T) {
	p := MustCompile(Spec{CkptAbortRate: 1}, 9, "frac")
	for seq := 0; seq < 200; seq++ {
		frac, ok := p.CkptAbort(2, seq)
		if !ok {
			t.Fatal("rate-1 abort did not fire")
		}
		if frac <= 0 || frac >= 1 {
			t.Fatalf("fraction %g not interior", frac)
		}
	}
}

func TestRecoveryCrashClasses(t *testing.T) {
	p := MustCompile(Spec{RecoveryCrashRate: 1}, 5, "classes")
	seen := map[int]bool{}
	for e := 0; e < 200; e++ {
		class, ok := p.RecoveryCrash(e, 0)
		if !ok {
			t.Fatal("rate-1 recovery crash did not fire")
		}
		if class < 1 || class > 3 {
			t.Fatalf("class %d out of range", class)
		}
		seen[class] = true
	}
	if len(seen) != 3 {
		t.Errorf("classes seen: %v", seen)
	}
}

func TestCompileRejectsBadSpec(t *testing.T) {
	if _, err := Compile(Spec{TruncateFrac: -1}, 0, "x"); !errors.Is(err, ErrSpec) {
		t.Fatalf("err = %v", err)
	}
}

func ExamplePlan_SnapshotFault() {
	plan := MustCompile(Spec{CorruptRate: []float64{1, 0, 0, 0}}, 42, "example")
	fault, ok := plan.SnapshotFault(1, 3, 1, 64)
	fmt.Println(ok, fault.Kind)
	// Output: true bit-flip
}
