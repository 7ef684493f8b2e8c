package inject

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"mlckpt/internal/stats"
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

// TestDecisionsAllocateNothing pins the decision path at zero
// allocations: each key is built in a stack buffer and its stream stays
// on the stack. Every rate is 1, so each of the eight methods opens its
// stream and draws, and the two TruncateFrac values run both of
// drawFault's fault kinds.
func TestDecisionsAllocateNothing(t *testing.T) {
	for _, frac := range []float64{0, 1} {
		p := MustCompile(Spec{
			CorruptRate:       []float64{1, 1, 1, 1},
			TruncateFrac:      frac,
			PartnerPairRate:   1,
			ParityHolderRate:  1,
			CkptAbortRate:     1,
			RecoveryCrashRate: 1,
			PFSWriteFailRate:  1,
			PFSReadFailRate:   1,
		}, 7, "allocs")
		for _, c := range []struct {
			name string
			call func()
		}{
			{"SnapshotFault", func() { p.SnapshotFault(2, 31, 12, 4096) }},
			{"ParityFault", func() { p.ParityFault(3, 1, 12, 4096) }},
			{"PairCrash", func() { p.PairCrash(1234) }},
			{"ParityCrash", func() { p.ParityCrash(1234) }},
			{"CkptAbort", func() { p.CkptAbort(4, 567) }},
			{"RecoveryCrash", func() { p.RecoveryCrash(1234, 2) }},
			{"PFSWriteFails", func() { p.PFSWriteFails(8901, 3) }},
			{"PFSReadFails", func() { p.PFSReadFails(8901, 3) }},
		} {
			if n := testing.AllocsPerRun(100, c.call); n != 0 {
				t.Errorf("TruncateFrac %g: %s makes %.0f allocations per call, want 0", frac, c.name, n)
			}
		}
	}
}

// FuzzDecisionKeys holds every decision method to the key its stream was
// derived from when keys were formatted with fmt.Sprintf: for any ids, the
// method's first draw is the first draw of DeriveSeed(seed, Sprintf(...)).
// The draw u is pinned to the last bit from outside: a plan whose rate is
// u must not fire (the method drew u' ≥ u) and one whose rate is the next
// float above u must (u' ≤ u). The extreme seeds give keys longer than the
// 32 bytes a non-escaping string conversion keeps on the stack.
func FuzzDecisionKeys(f *testing.F) {
	ids := []int{0, -1, math.MaxInt64, math.MinInt64}
	for i := range ids {
		f.Add(uint64(42), ids[i], ids[(i+1)%4], ids[(i+2)%4])
	}
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c int) {
		level := 1 + int(uint(a)%4) // SnapshotFault draws only for a level the spec has
		corrupt := func(r float64) Spec { return Spec{CorruptRate: []float64{r, r, r, r}} }
		for _, d := range []struct {
			key   string
			spec  func(rate float64) Spec
			fires func(p *Plan) bool
		}{
			{fmt.Sprintf("snap/%d/%d/%d", level, b, c), corrupt,
				func(p *Plan) bool { _, ok := p.SnapshotFault(level, b, c, 1); return ok }},
			{fmt.Sprintf("parity/%d/%d/%d", a, b, c), corrupt,
				func(p *Plan) bool { _, ok := p.ParityFault(a, b, c, 1); return ok }},
			{fmt.Sprintf("pair/%d", a), func(r float64) Spec { return Spec{PartnerPairRate: r} },
				func(p *Plan) bool { return p.PairCrash(a) }},
			{fmt.Sprintf("paritycrash/%d", a), func(r float64) Spec { return Spec{ParityHolderRate: r} },
				func(p *Plan) bool { return p.ParityCrash(a) }},
			{fmt.Sprintf("ckptabort/%d/%d", a, b), func(r float64) Spec { return Spec{CkptAbortRate: r} },
				func(p *Plan) bool { _, ok := p.CkptAbort(a, b); return ok }},
			{fmt.Sprintf("recovcrash/%d/%d", a, b), func(r float64) Spec { return Spec{RecoveryCrashRate: r} },
				func(p *Plan) bool { _, ok := p.RecoveryCrash(a, b); return ok }},
			{fmt.Sprintf("pfsw/%d/%d", a, b), func(r float64) Spec { return Spec{PFSWriteFailRate: r} },
				func(p *Plan) bool { return p.PFSWriteFails(a, b) }},
			{fmt.Sprintf("pfsr/%d/%d", a, b), func(r float64) Spec { return Spec{PFSReadFailRate: r} },
				func(p *Plan) bool { return p.PFSReadFails(a, b) }},
		} {
			u := stats.NewRNG(stats.DeriveSeed(seed, d.key)).Float64()
			at := &Plan{spec: d.spec(u), seed: seed}
			above := &Plan{spec: d.spec(math.Nextafter(u, 2)), seed: seed}
			if d.fires(at) || !d.fires(above) {
				t.Errorf("seed %d: the decision keyed %q does not draw from that key's stream", seed, d.key)
			}
		}
	})
}

func ExamplePlan_SnapshotFault() {
	plan := MustCompile(Spec{CorruptRate: []float64{1, 0, 0, 0}}, 42, "example")
	fault, ok := plan.SnapshotFault(1, 3, 1, 64)
	fmt.Println(ok, fault.Kind)
	// Output: true bit-flip
}
