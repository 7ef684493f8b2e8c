// High-throughput GF(2⁸) kernels: split-nibble lookup tables and 64-bit
// word lanes replace the branchy per-byte log/exp arithmetic of gf256.go
// on the encode/decode hot path, and large shards are striped across a
// bounded worker pool. Outputs are bit-identical to the scalar reference
// (Mul / mulSliceXor) for every input and every worker count — the
// differential tests in kernel_test.go pin that equivalence.
//
// Why split-nibble tables: a full product table per coefficient would be
// 256 bytes per matrix cell; splitting the operand byte into nibbles needs
// only two 16-entry tables (c·x and c·(x<<4)) per cell, 32 bytes that stay
// resident in L1 for the whole encode. Each output byte is then two loads
// and one XOR, branch-free: c·b = lo[b&0x0F] ^ hi[b>>4].
//
// Why 64-bit lanes: the inner loop loads 8 source bytes as one word,
// translates the 16 nibbles through the tables, packs the 8 product bytes
// back into a word, and XORs it into the destination with a single store —
// amortizing the loads/stores and keeping the loop free of per-byte
// bounds checks.
//
// Why striping: shards are split into cache-sized chunks and fanned across
// at most GOMAXPROCS goroutines. Every output byte is computed by exactly
// one worker using the same arithmetic, so the result is byte-identical
// for any worker count — the same invariant the sweep engine enforces.
package erasure

import (
	"encoding/binary"
	"runtime"
	"sync"
)

// mulTable holds the split-nibble product tables of one GF(2⁸)
// coefficient c: lo[x] = c·x for x in [0,16) and hi[x] = c·(x<<4).
// lo[1] recovers the coefficient itself (c·1 = c), which the row drivers
// use to skip zero cells and fast-path identity cells. gfni is the same
// linear map packed as the 8×8 bit matrix GF2P8AFFINEQB consumes on
// hosts with Galois Field New Instructions; the layout (lo, hi at fixed
// offsets 0/16, matrix at 32) is relied on by kernel_amd64.s.
type mulTable struct {
	lo, hi [16]byte
	gfni   uint64
}

// makeMulTable builds the split-nibble tables of a coefficient with the
// scalar reference arithmetic (so the kernels inherit its correctness).
func makeMulTable(c byte) mulTable {
	var t mulTable
	for x := 1; x < 16; x++ {
		t.lo[x] = Mul(c, byte(x))
		t.hi[x] = Mul(c, byte(x<<4))
	}
	t.gfni = gfniMatrix(c)
	return t
}

// gfniMatrix packs multiplication by c — a linear map over the GF(2)
// vector space of field elements — into the bit-matrix operand of
// GF2P8AFFINEQB: result bit i of each byte is parity(matrix.byte[7-i] &
// src byte), so matrix.byte[7-i].bit[k] must be bit i of c·2^k. Built
// from the scalar reference like the nibble tables; computed on every
// architecture (it is just a uint64) and only consumed by the amd64
// assembly.
func gfniMatrix(c byte) uint64 {
	var m uint64
	for k := 0; k < 8; k++ {
		p := Mul(c, 1<<k) // column k: the image of basis element 2^k
		for i := 0; i < 8; i++ {
			if p&(1<<i) != 0 {
				m |= 1 << ((7-i)*8 + k)
			}
		}
	}
	return m
}

// makeMulTables builds one table per coefficient of a matrix row.
func makeMulTables(row []byte) []mulTable {
	out := make([]mulTable, len(row))
	for j, c := range row {
		out[j] = makeMulTable(c)
	}
	return out
}

// mulWord translates the 8 bytes of s through t's nibble tables.
func mulWord(t *mulTable, s uint64) uint64 {
	r := uint64(t.lo[s&15] ^ t.hi[s>>4&15])
	r |= uint64(t.lo[s>>8&15]^t.hi[s>>12&15]) << 8
	r |= uint64(t.lo[s>>16&15]^t.hi[s>>20&15]) << 16
	r |= uint64(t.lo[s>>24&15]^t.hi[s>>28&15]) << 24
	r |= uint64(t.lo[s>>32&15]^t.hi[s>>36&15]) << 32
	r |= uint64(t.lo[s>>40&15]^t.hi[s>>44&15]) << 40
	r |= uint64(t.lo[s>>48&15]^t.hi[s>>52&15]) << 48
	r |= uint64(t.lo[s>>56&15]^t.hi[s>>60&15]) << 56
	return r
}

// mulSliceXorTab computes dst[i] ^= c·src[i] with t's tables: AVX2 when
// the host has it (32 bytes per iteration), 64-bit word lanes otherwise
// and for tails. Both slices must have the same length (see mulSliceXor).
func mulSliceXorTab(t *mulTable, src, dst []byte) {
	if len(src) != len(dst) {
		panic("erasure: mulSliceXorTab: src and dst lengths differ")
	}
	i := 0
	if hasAVX2 {
		if v := len(src) &^ 31; v > 0 {
			gfMulXorAVX2(t, &src[0], &dst[0], v)
			i = v
		}
	}
	n := len(src) &^ 7
	for ; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(dst[i:]) ^ mulWord(t, binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= t.lo[src[i]&15] ^ t.hi[src[i]>>4]
	}
}

// mulSliceSetTab computes dst[i] = c·src[i] (overwriting dst), so row
// drivers can skip zero-filling destination buffers before accumulating.
func mulSliceSetTab(t *mulTable, src, dst []byte) {
	if len(src) != len(dst) {
		panic("erasure: mulSliceSetTab: src and dst lengths differ")
	}
	i := 0
	if hasAVX2 {
		if v := len(src) &^ 31; v > 0 {
			gfMulSetAVX2(t, &src[0], &dst[0], v)
			i = v
		}
	}
	n := len(src) &^ 7
	for ; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], mulWord(t, binary.LittleEndian.Uint64(src[i:])))
	}
	for i := n; i < len(src); i++ {
		dst[i] = t.lo[src[i]&15] ^ t.hi[src[i]>>4]
	}
}

// xorSlice computes dst[i] ^= src[i] — the c == 1 fast path, a plain word
// XOR with no table translation.
func xorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("erasure: xorSlice: src and dst lengths differ")
	}
	i := 0
	if hasAVX2 {
		if v := len(src) &^ 31; v > 0 {
			gfXorAVX2(&src[0], &dst[0], v)
			i = v
		}
	}
	n := len(src) &^ 7
	for ; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulRowsRange computes dst[r][lo:hi] = Σ_j tabs[r][j]·src[j][lo:hi] for
// every row r. Zero coefficients are skipped, the first nonzero cell of a
// row overwrites (no pre-zeroing needed), and identity cells degrade to
// copy/XOR. All-zero rows zero-fill their destination range.
func mulRowsRange(tabs [][]mulTable, src, dst [][]byte, lo, hi int) {
	if hasGFNI && len(src) >= 4 && hi-lo >= 32 {
		w := (hi - lo) &^ 31
		mulRowsFusedGFNI(tabs, src, dst, lo, lo+w)
		if w == hi-lo {
			return
		}
		lo += w // byte tail continues on the generic path below
	}
	for r := range dst {
		d := dst[r][lo:hi]
		wrote := false
		for j := range src {
			t := &tabs[r][j]
			c := t.lo[1] // c·1 = c
			if c == 0 {
				continue
			}
			s := src[j][lo:hi]
			switch {
			case !wrote && c == 1:
				copy(d, s)
			case !wrote:
				mulSliceSetTab(t, s, d)
			case c == 1:
				xorSlice(s, d)
			default:
				mulSliceXorTab(t, s, d)
			}
			wrote = true
		}
		if !wrote {
			for i := range d {
				d[i] = 0
			}
		}
	}
}

// mulRowsFusedGFNI is the GFNI fast path of mulRowsRange: four source
// shards per assembly call, destination accumulated in registers.
// Requires hi-lo > 0 and ≡ 0 (mod 32), at least 4 sources, and hasGFNI
// (which implies hasAVX2 for the leftover single-source cells). Zero
// coefficients multiply to zero inside the fused call, so no skip logic
// is needed; the result is byte-for-byte the arithmetic of the generic
// path.
func mulRowsFusedGFNI(tabs [][]mulTable, src, dst [][]byte, lo, hi int) {
	n := hi - lo
	for r := range dst {
		row := tabs[r]
		d := &dst[r][lo]
		gfMul4SetGFNI(&row[0], &src[0][lo], &src[1][lo], &src[2][lo], &src[3][lo], d, n)
		j := 4
		for ; j+4 <= len(src); j += 4 {
			gfMul4XorGFNI(&row[j], &src[j][lo], &src[j+1][lo], &src[j+2][lo], &src[j+3][lo], d, n)
		}
		for ; j < len(src); j++ {
			t := &row[j]
			if t.lo[1] == 0 { // c·1 = c: zero coefficient, no contribution
				continue
			}
			gfMulXorAVX2(t, &src[j][lo], d, n)
		}
	}
}

const (
	// stripeChunk is the per-task byte range of the striped drivers: with
	// an FTI-typical 8+2 group the per-chunk working set is ~10 chunks,
	// sized to stay inside a per-core L2 slice.
	stripeChunk = 16 << 10
	// stripeMin is the shard size below which striping is not worth the
	// goroutine fan-out and the encode stays on the calling goroutine.
	stripeMin = 2 * stripeChunk
)

// mulRows runs mulRowsRange over [0, size), striping cache-sized chunks
// across a bounded worker pool when the shards are large enough. Each
// chunk of each output row is written by exactly one worker with the same
// arithmetic, so the result is byte-identical for every worker count.
func (c *Code) mulRows(tabs [][]mulTable, src, dst [][]byte, size int) {
	if len(dst) == 0 || size == 0 {
		return
	}
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := (size + stripeChunk - 1) / stripeChunk
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 || size < stripeMin {
		// Serial path still walks chunk by chunk: the destination chunk
		// stays cache-resident across all K accumulation passes, so large
		// shards stream from memory once instead of once per matrix cell.
		for lo := 0; lo < size; lo += stripeChunk {
			hi := lo + stripeChunk
			if hi > size {
				hi = size
			}
			mulRowsRange(tabs, src, dst, lo, hi)
		}
		return
	}
	// Striped-chunk worker pattern: workers pull chunk indexes from a
	// channel and write disjoint [lo, hi) ranges of the shared destination
	// shards — the per-range sibling of the per-slot idiom the
	// goroutine-capture linter exempts (see internal/lint/gocapture.go).
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				lo := ci * stripeChunk
				hi := lo + stripeChunk
				if hi > size {
					hi = size
				}
				mulRowsRange(tabs, src, dst, lo, hi)
			}
		}()
	}
	for ci := 0; ci < chunks; ci++ {
		next <- ci
	}
	close(next)
	wg.Wait()
}
