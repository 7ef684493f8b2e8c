// Package cpu detects the host's SIMD capabilities so accelerated kernels
// (the heat stencil, the erasure codec) can pick a vector path at
// startup. Detection is one-shot at init; the exported flags never change
// afterwards, so hot loops can read them through a package-level bool
// without synchronization.
//
// The package deliberately mirrors the shape of golang.org/x/sys/cpu
// without importing it: the repo builds with the standard library only.
// On architectures without a detector (everything but amd64 here) the
// flags stay false and callers fall through to their portable kernels,
// which are the differential oracle for the vector paths anyway.
package cpu

// X86 reports the availability of the x86 ISA extensions the repo's
// kernels use. All flags include the OS-support check (XSAVE-enabled YMM
// state), not just the CPUID feature bit: a kernel may only look at the
// flag, never at CPUID directly.
var X86 struct {
	// HasAVX2 reports VEX-encoded 256-bit integer and float vector
	// support with OS-managed YMM state.
	HasAVX2 bool
	// HasGFNI reports the Galois-field affine instructions
	// (VGF2P8AFFINEQB) with OS-managed YMM state, so their VEX-encoded
	// 256-bit forms are usable.
	HasGFNI bool
}
