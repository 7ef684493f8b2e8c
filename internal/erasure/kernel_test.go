package erasure

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"mlckpt/internal/stats"
)

// encodeRef computes parity with the scalar log/exp reference kernel
// (mulSliceXor), bypassing the table-driven fast paths entirely. The
// differential tests below hold the optimized codec to byte-identity
// with this implementation.
func encodeRef(c *Code, data [][]byte) [][]byte {
	size := 0
	if len(data) > 0 {
		size = len(data[0])
	}
	parity := make([][]byte, c.M)
	for i := range parity {
		parity[i] = make([]byte, size)
		for j := 0; j < c.K; j++ {
			mulSliceXor(c.matrix[i][j], data[j], parity[i])
		}
	}
	return parity
}

func TestMulTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		tab := makeMulTable(byte(c))
		for b := 0; b < 256; b++ {
			want := Mul(byte(c), byte(b))
			got := tab.lo[b&0x0F] ^ tab.hi[b>>4]
			if got != want {
				t.Fatalf("table %d·%d = %d, scalar %d", c, b, got, want)
			}
		}
		if tab.lo[1] != byte(c) {
			t.Fatalf("lo[1] = %d, want coefficient %d", tab.lo[1], c)
		}
	}
}

// TestKernelSlicesMatchScalar drives the word-lane kernels against the
// scalar reference on lengths that exercise the 8-byte lanes, the byte
// tail, and both together.
func TestKernelSlicesMatchScalar(t *testing.T) {
	rng := stats.NewRNG(77)
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4096, 4099} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		init := make([]byte, n)
		for i := range init {
			init[i] = byte(rng.Uint64())
		}
		for _, c := range []byte{0, 1, 2, 29, 76, 142, 255} {
			tab := makeMulTable(c)

			want := append([]byte(nil), init...)
			mulSliceXor(c, src, want)
			got := append([]byte(nil), init...)
			mulSliceXorTab(&tab, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("mulSliceXorTab(c=%d, n=%d) diverges from scalar", c, n)
			}

			wantSet := make([]byte, n)
			mulSliceXor(c, src, wantSet) // onto zeros: XOR == set
			gotSet := append([]byte(nil), init...)
			mulSliceSetTab(&tab, src, gotSet)
			if !bytes.Equal(gotSet, wantSet) {
				t.Fatalf("mulSliceSetTab(c=%d, n=%d) diverges from scalar", c, n)
			}
		}
		wantX := append([]byte(nil), init...)
		mulSliceXor(1, src, wantX)
		gotX := append([]byte(nil), init...)
		xorSlice(src, gotX)
		if !bytes.Equal(gotX, wantX) {
			t.Fatalf("xorSlice(n=%d) diverges from scalar c=1", n)
		}
	}
}

func TestKernelLengthContractPanics(t *testing.T) {
	tab := makeMulTable(5)
	for name, f := range map[string]func(){
		"mulSliceXor":    func() { mulSliceXor(5, make([]byte, 4), make([]byte, 3)) },
		"mulSliceXorTab": func() { mulSliceXorTab(&tab, make([]byte, 4), make([]byte, 3)) },
		"mulSliceSetTab": func() { mulSliceSetTab(&tab, make([]byte, 3), make([]byte, 4)) },
		"xorSlice":       func() { xorSlice(make([]byte, 4), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched lengths must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestEncodeMatchesScalarProperty holds the optimized Encode to
// byte-identity with the scalar reference across random shapes and shard
// sizes, including lengths not divisible by 8 and sizes large enough to
// engage the striped worker pool.
func TestEncodeMatchesScalarProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := 1 + rng.Intn(10)
		m := rng.Intn(5)
		size := rng.Intn(3 * stripeChunk) // crosses the striping threshold
		c, err := New(k, m)
		if err != nil {
			return false
		}
		data := makeShards(k, size, seed^0x5EED)
		got, err := c.Encode(data)
		if err != nil {
			return false
		}
		want := encodeRef(c, data)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEncodeStripedDeterministic pins the striping invariant: outputs are
// byte-identical for every worker count. make race runs this under the
// race detector, which doubles as the striped pool's race gate.
func TestEncodeStripedDeterministic(t *testing.T) {
	const size = 5*stripeChunk + 13 // several chunks plus a ragged tail
	data := makeShards(8, size, 99)
	var want [][]byte
	for _, workers := range []int{1, 2, 3, 8, 0} {
		c, err := New(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = workers
		got, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			ref := encodeRef(c, data)
			for i := range ref {
				if !bytes.Equal(got[i], ref[i]) {
					t.Fatalf("workers=%d: parity %d diverges from scalar reference", workers, i)
				}
			}
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: parity %d differs from workers=1", workers, i)
			}
		}
	}
}

// TestReconstructRandomErasures drives random loss patterns through the
// table-driven reconstruct on random (incl. non-multiple-of-8) sizes and
// checks the round trip against the original shards.
func TestReconstructRandomErasures(t *testing.T) {
	rng := stats.NewRNG(4242)
	arena := &Arena{}
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(2000)
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := makeShards(k, size, rng.Uint64())
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		shards := append(append([][]byte{}, data...), parity...)
		lost := rng.Intn(m + 1)
		for i := 0; i < lost; i++ {
			shards[rng.Intn(k+m)] = nil
		}
		arena.Reset()
		if err := c.ReconstructInto(shards, arena); err != nil {
			t.Fatalf("k=%d m=%d size=%d lost≤%d: %v", k, m, size, lost, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("k=%d m=%d size=%d: data shard %d corrupted", k, m, size, i)
			}
		}
		want := encodeRef(c, data)
		for i := range want {
			if !bytes.Equal(shards[k+i], want[i]) {
				t.Fatalf("k=%d m=%d size=%d: parity shard %d diverges from scalar", k, m, size, i)
			}
		}
	}
}

// TestEncodeIntoSteadyStateAllocs pins the zero-allocation contract of the
// buffer-reusing API on the single-goroutine path (the striped path
// allocates its worker pool).
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	c, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.workers = 1
	data := makeShards(8, 4096, 7)
	parity := make([][]byte, 2)
	for i := range parity {
		parity[i] = make([]byte, 4096)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.EncodeInto(data, parity); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEncodeSteadyStateAllocs pins Encode's exact allocation count on the
// single-goroutine path: the parity slice and the one backing array its
// shards share, on top of the allocation-free EncodeInto.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	c, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.workers = 1
	data := makeShards(8, 4096, 7)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Encode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Encode allocates %.1f objects/op, want 2", allocs)
	}
}

// TestReconstructSteadyStateAllocs pins Reconstruct's exact allocation
// count on the single-goroutine path, for BenchmarkReconstruct's pattern:
// 8+2 shards with data shards 1 and 5 lost. The 32 objects are the decode
// system (the picked generator rows and the Gauss–Jordan work matrix),
// the two rebuilt shards with their multiplication tables, and the
// growing slices that collect them, the arena's included; none scales
// with the shard size.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	c, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.workers = 1
	data := makeShards(8, 4096, 7)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	shards := make([][]byte, len(full))
	allocs := testing.AllocsPerRun(20, func() {
		copy(shards, full)
		shards[1], shards[5] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 32 {
		t.Errorf("Reconstruct allocates %.1f objects/op, want 32", allocs)
	}
}

func TestEncodeIntoShapeErrors(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := makeShards(4, 64, 3)
	parity := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := c.EncodeInto(data[:3], parity); err == nil {
		t.Error("short data accepted")
	}
	if err := c.EncodeInto(data, parity[:1]); err == nil {
		t.Error("short parity accepted")
	}
	if err := c.EncodeInto(data, [][]byte{make([]byte, 64), make([]byte, 63)}); err == nil {
		t.Error("ragged parity accepted")
	}
	bad := append([][]byte{}, data...)
	bad[2] = nil
	if err := c.EncodeInto(bad, parity); err == nil {
		t.Error("nil data shard accepted")
	}
}

// FuzzEncodeKernelMatchesScalar fuzzes shard contents and sizes through
// both the optimized and the scalar encoders and requires byte-identity,
// then reconstructs after two erasures as a round-trip check.
func FuzzEncodeKernelMatchesScalar(f *testing.F) {
	f.Add(uint64(1), 17)
	f.Add(uint64(99), 4096)
	f.Add(uint64(7), 0)
	f.Fuzz(func(t *testing.T, seed uint64, size int) {
		if size < 0 || size > 1<<16 {
			t.Skip()
		}
		c, err := New(6, 2)
		if err != nil {
			t.Fatal(err)
		}
		data := makeShards(6, size, seed)
		got, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeRef(c, data)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("parity %d diverges from scalar reference", i)
			}
		}
		shards := append(append([][]byte{}, data...), got...)
		shards[1], shards[4] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("data shard %d corrupted after reconstruct", i)
			}
		}
	})
}

// --- benchmarks for the Into APIs (the allocation-free steady state) ---

func BenchmarkEncodeInto(b *testing.B) {
	for _, size := range []int{4 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("8+2/%dKiB", size>>10), func(b *testing.B) {
			c, err := New(8, 2)
			if err != nil {
				b.Fatal(err)
			}
			data := benchShards(8, size)
			parity := make([][]byte, 2)
			for i := range parity {
				parity[i] = make([]byte, size)
			}
			b.SetBytes(int64(8 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EncodeInto(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeSerial(b *testing.B) {
	// The single-goroutine kernel, isolating table/lane throughput from
	// the striped fan-out.
	c, err := New(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	c.workers = 1
	size := 4 << 20
	data := benchShards(8, size)
	parity := make([][]byte, 2)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	b.SetBytes(int64(8 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeInto(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}
