//go:build amd64

package erasure

import "mlckpt/internal/cpu"

// AVX2 entry points implemented in kernel_amd64.s. Each requires n > 0
// and n ≡ 0 (mod 32); the dispatch in kernel.go guarantees that and
// finishes tails with the portable word-lane kernels.

//go:noescape
func gfMulXorAVX2(tab *mulTable, src, dst *byte, n int)

//go:noescape
func gfMulSetAVX2(tab *mulTable, src, dst *byte, n int)

//go:noescape
func gfXorAVX2(src, dst *byte, n int)

//go:noescape
func gfMul4SetGFNI(tabs *mulTable, src0, src1, src2, src3, dst *byte, n int)

//go:noescape
func gfMul4XorGFNI(tabs *mulTable, src0, src1, src2, src3, dst *byte, n int)

// hasAVX2 gates the assembly fast path (cpu.X86.HasAVX2: AVX2 with
// OS-enabled YMM state). Kernel outputs are byte-identical with and
// without it — only throughput differs — so the differential tests in
// kernel_test.go cover whichever path the host runs. It is a variable,
// not a constant, so tests can force the portable path.
var hasAVX2 = cpu.X86.HasAVX2

// hasGFNI additionally gates the fused four-source kernels: GFNI with
// the VEX (256-bit) encoding. The fused drivers fall back to the
// single-source AVX2 kernels for leftover matrix cells, so hasGFNI must
// imply hasAVX2.
var hasGFNI = hasAVX2 && cpu.X86.HasGFNI
