// AVX2 split-nibble GF(2⁸) kernels. The two 16-entry tables of a
// mulTable are exactly the shuffle tables VPSHUFB consumes: broadcast
// lo/hi into a YMM register each, then every 32-byte block of src is
// multiplied by the coefficient with two shuffles and one XOR —
// identical arithmetic to the pure-Go word-lane kernels in kernel.go,
// 32 bytes per iteration instead of 8.
//
// All three loops require n > 0 and n ≡ 0 (mod 32); the Go wrappers
// enforce that and handle tails.

#include "textflag.h"

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $16

// func gfMulXorAVX2(tab *mulTable, src, dst *byte, n int)
// dst[i] ^= c·src[i] for i in [0, n)
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y0           // lo nibble table
	VBROADCASTI128 16(AX), Y1         // hi nibble table
	VBROADCASTI128 nibbleMask<>(SB), Y2

	CMPQ    CX, $64
	JB      mulxor_tail32

mulxor_loop64:                            // two independent 32-byte lanes
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y5
	VPSRLQ  $4, Y3, Y4
	VPSRLQ  $4, Y5, Y6
	VPAND   Y2, Y3, Y3                // low nibbles
	VPAND   Y2, Y5, Y5
	VPAND   Y2, Y4, Y4                // high nibbles
	VPAND   Y2, Y6, Y6
	VPSHUFB Y3, Y0, Y3                // lo[b & 0x0F]
	VPSHUFB Y5, Y0, Y5
	VPSHUFB Y4, Y1, Y4                // hi[b >> 4]
	VPSHUFB Y6, Y1, Y6
	VPXOR   Y3, Y4, Y3                // c·b
	VPXOR   Y5, Y6, Y5
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y5, Y5
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     mulxor_loop64
	TESTQ   CX, CX
	JZ      mulxor_done

mulxor_tail32:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)

mulxor_done:
	VZEROUPPER
	RET

// func gfMulSetAVX2(tab *mulTable, src, dst *byte, n int)
// dst[i] = c·src[i] for i in [0, n)
TEXT ·gfMulSetAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 nibbleMask<>(SB), Y2

	CMPQ    CX, $64
	JB      mulset_tail32

mulset_loop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y5
	VPSRLQ  $4, Y3, Y4
	VPSRLQ  $4, Y5, Y6
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y5, Y5
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y6, Y6
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y5, Y0, Y5
	VPSHUFB Y4, Y1, Y4
	VPSHUFB Y6, Y1, Y6
	VPXOR   Y3, Y4, Y3
	VPXOR   Y5, Y6, Y5
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     mulset_loop64
	TESTQ   CX, CX
	JZ      mulset_done

mulset_tail32:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)

mulset_done:
	VZEROUPPER
	RET

// func gfXorAVX2(src, dst *byte, n int)
// dst[i] ^= src[i] for i in [0, n) — the c == 1 fast path.
TEXT ·gfXorAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX

xor_loop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xor_loop
	VZEROUPPER
	RET

// GFNI fused kernels: VGF2P8AFFINEQB multiplies 32 bytes by a constant
// in one instruction (the mulTable.gfni bit matrix, broadcast per qword
// lane), so four source shards accumulate into one destination with four
// loads, four affines and a handful of XORs per 32-byte block. The
// matrix lives at offset 32 of each mulTable; tabs points at four
// consecutive tables (stride 40 bytes).

// func gfMul4SetGFNI(tabs *mulTable, src0, src1, src2, src3, dst *byte, n int)
// dst[i] = c0·src0[i] ^ c1·src1[i] ^ c2·src2[i] ^ c3·src3[i]
TEXT ·gfMul4SetGFNI(SB), NOSPLIT, $0-56
	MOVQ tabs+0(FP), AX
	MOVQ src0+8(FP), SI
	MOVQ src1+16(FP), BX
	MOVQ src2+24(FP), R8
	MOVQ src3+32(FP), R9
	MOVQ dst+40(FP), DI
	MOVQ n+48(FP), CX
	VPBROADCASTQ 32(AX), Y0           // matrix c0
	VPBROADCASTQ 72(AX), Y1           // matrix c1
	VPBROADCASTQ 112(AX), Y2          // matrix c2
	VPBROADCASTQ 152(AX), Y3          // matrix c3

mul4set_loop:
	VMOVDQU (SI), Y4
	VGF2P8AFFINEQB $0, Y0, Y4, Y4
	VMOVDQU (BX), Y5
	VGF2P8AFFINEQB $0, Y1, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VMOVDQU (R8), Y5
	VGF2P8AFFINEQB $0, Y2, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VMOVDQU (R9), Y5
	VGF2P8AFFINEQB $0, Y3, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mul4set_loop
	VZEROUPPER
	RET

// func gfMul4XorGFNI(tabs *mulTable, src0, src1, src2, src3, dst *byte, n int)
// dst[i] ^= c0·src0[i] ^ c1·src1[i] ^ c2·src2[i] ^ c3·src3[i]
TEXT ·gfMul4XorGFNI(SB), NOSPLIT, $0-56
	MOVQ tabs+0(FP), AX
	MOVQ src0+8(FP), SI
	MOVQ src1+16(FP), BX
	MOVQ src2+24(FP), R8
	MOVQ src3+32(FP), R9
	MOVQ dst+40(FP), DI
	MOVQ n+48(FP), CX
	VPBROADCASTQ 32(AX), Y0
	VPBROADCASTQ 72(AX), Y1
	VPBROADCASTQ 112(AX), Y2
	VPBROADCASTQ 152(AX), Y3

mul4xor_loop:
	VMOVDQU (SI), Y4
	VGF2P8AFFINEQB $0, Y0, Y4, Y4
	VMOVDQU (BX), Y5
	VGF2P8AFFINEQB $0, Y1, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VMOVDQU (R8), Y5
	VGF2P8AFFINEQB $0, Y2, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VMOVDQU (R9), Y5
	VGF2P8AFFINEQB $0, Y3, Y5, Y5
	VPXOR   Y5, Y4, Y4
	VPXOR   (DI), Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mul4xor_loop
	VZEROUPPER
	RET
