// AVX-512 VNNI micro-kernel for the blocked int8 GEMM (see
// gemm_int8.go). Only used after gemm_int8_amd64.go verifies CPU and OS
// support at init.

#include "textflag.h"

// func vnniTile4x16(kq int64, pa, pb *uint8, c *int32, ldc int64, flags int64)
//
// Computes, for r in 0..3 and s in 0..15:
//
//	C[r*ldc+s] += Σ_q Σ_t pa[(q*4+r)*4+t] · pb[(q*16+s)*4+t]
//
// over q = 0..kq-1, t = 0..3, seeding each accumulator with C (flags
// bit 0 clear) or 0 (set). One operand's bytes are s8 and the other's
// u8: pa is the signed one when flags bit 1 is clear (a conv's weights
// against u8 image strips), pb when it is set (a dense layer's packed
// weights against u8 activation rows) — VPDPBUSD takes the u8 quads in
// its first source and the s8 quads in its second, so the two loops
// differ only in which register goes where. One VPDPBUSD folds a quad of
// four u8·s8 products into each of eight int32 lanes; the widening
// products and the lane sum are exact, so the result matches
// vnniTileGeneric bit for bit (integer arithmetic has no rounding to
// reorder).
//
// Register plan: Y8..Y15 hold the 4×16 accumulator tile (4 rows × two
// 8-lane halves); Y0/Y1 hold the current packed-B quad group (16
// columns × 4 bytes); Y2..Y5 broadcast the four packed-A row quads.
// Go assembler operand order: VPDPBUSD signed_src, unsigned_src, acc.
TEXT ·vnniTile4x16(SB), NOSPLIT, $0-48
	MOVQ kq+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // row stride in bytes
	MOVQ flags+40(FP), R9

	LEAQ (DX)(R8*1), R10     // row 1
	LEAQ (R10)(R8*1), R11    // row 2
	LEAQ (R11)(R8*1), R12    // row 3

	TESTQ $1, R9
	JNZ   zero

	VMOVDQU (DX), Y8
	VMOVDQU 32(DX), Y9
	VMOVDQU (R10), Y10
	VMOVDQU 32(R10), Y11
	VMOVDQU (R11), Y12
	VMOVDQU 32(R11), Y13
	VMOVDQU (R12), Y14
	VMOVDQU 32(R12), Y15
	JMP     pick

zero:
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15

pick:
	TESTQ $2, R9
	JNZ   loopBSigned

loop:
	TESTQ CX, CX
	JZ    done

	VMOVDQU (DI), Y0         // B quad group, columns 0..7
	VMOVDQU 32(DI), Y1       // B quad group, columns 8..15

	VPBROADCASTD (SI), Y2    // A row 0 quad
	VPBROADCASTD 4(SI), Y3   // A row 1 quad
	VPDPBUSD     Y2, Y0, Y8  // Y8 += u8(Y0)·s8(Y2) per dword lane
	VPDPBUSD     Y2, Y1, Y9
	VPDPBUSD     Y3, Y0, Y10
	VPDPBUSD     Y3, Y1, Y11

	VPBROADCASTD 8(SI), Y4   // A row 2 quad
	VPBROADCASTD 12(SI), Y5  // A row 3 quad
	VPDPBUSD     Y4, Y0, Y12
	VPDPBUSD     Y4, Y1, Y13
	VPDPBUSD     Y5, Y0, Y14
	VPDPBUSD     Y5, Y1, Y15

	ADDQ $16, SI             // next packed-A quad group (4 rows × 4 bytes)
	ADDQ $64, DI             // next packed-B quad group (16 cols × 4 bytes)
	DECQ CX
	JMP  loop

loopBSigned:
	TESTQ CX, CX
	JZ    done

	VMOVDQU (DI), Y0         // B quad group (s8), columns 0..7
	VMOVDQU 32(DI), Y1       // B quad group (s8), columns 8..15

	VPBROADCASTD (SI), Y2    // A row 0 quad (u8)
	VPBROADCASTD 4(SI), Y3   // A row 1 quad
	VPDPBUSD     Y0, Y2, Y8  // Y8 += u8(Y2)·s8(Y0) per dword lane
	VPDPBUSD     Y1, Y2, Y9
	VPDPBUSD     Y0, Y3, Y10
	VPDPBUSD     Y1, Y3, Y11

	VPBROADCASTD 8(SI), Y4   // A row 2 quad
	VPBROADCASTD 12(SI), Y5  // A row 3 quad
	VPDPBUSD     Y0, Y4, Y12
	VPDPBUSD     Y1, Y4, Y13
	VPDPBUSD     Y0, Y5, Y14
	VPDPBUSD     Y1, Y5, Y15

	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JMP  loopBSigned

done:
	VMOVDQU Y8, (DX)
	VMOVDQU Y9, 32(DX)
	VMOVDQU Y10, (R10)
	VMOVDQU Y11, 32(R10)
	VMOVDQU Y12, (R11)
	VMOVDQU Y13, 32(R11)
	VMOVDQU Y14, (R12)
	VMOVDQU Y15, 32(R12)
	VZEROUPPER
	RET

// func interleaveQuadAVX(dst *[64]uint8, r0, r1, r2, r3 *[16]uint8)
//
// dst[4l+t] = r_t[l] for l in 0..15, t in 0..3: the quad group of four
// 16-lane tap rows (packPanelU8). Two rounds of unpacks — bytes of
// (r0,r1) and (r2,r3), then words of those — leave four lanes' quads in
// each register.
TEXT ·interleaveQuadAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), AX
	MOVQ r1+16(FP), BX
	MOVQ r2+24(FP), CX
	MOVQ r3+32(FP), DX
	VMOVDQU (AX), X0
	VMOVDQU (BX), X1
	VMOVDQU (CX), X2
	VMOVDQU (DX), X3
	VPUNPCKLBW X1, X0, X4    // r0[0] r1[0] r0[1] r1[1] … lanes 0..7
	VPUNPCKHBW X1, X0, X5    // … lanes 8..15
	VPUNPCKLBW X3, X2, X6    // r2[0] r3[0] … lanes 0..7
	VPUNPCKHBW X3, X2, X7
	VPUNPCKLWD X6, X4, X0    // r0[l] r1[l] r2[l] r3[l], lanes 0..3
	VPUNPCKHWD X6, X4, X1    // lanes 4..7
	VPUNPCKLWD X7, X5, X2    // lanes 8..11
	VPUNPCKHWD X7, X5, X3    // lanes 12..15
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	VMOVDQU X2, 32(DI)
	VMOVDQU X3, 48(DI)
	RET
