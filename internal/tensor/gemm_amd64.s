// AVX+FMA3 micro-kernel for the blocked GEMM (see gemm.go). Only used
// after gemm_amd64.go verifies CPU and OS support at init.

#include "textflag.h"

// func fmaTile4x16(kc int64, pa, pb, c *float32, ldc int64, zeroAcc int64)
//
// Computes, for r in 0..3 and s in 0..15:
//
//	C[r*ldc+s] = fma(pa[p*4+r], pb[p*16+s], ...) folded over p = 0..kc-1,
//
// seeding each accumulator with C (zeroAcc == 0) or 0 (zeroAcc != 0).
// One FMA per output cell per p step, ascending p — the exact reduction
// order fmaTileGeneric emulates, so the two paths are bitwise identical.
//
// Register plan: Y8..Y15 hold the 4×16 accumulator tile (4 rows × two
// 8-float lanes); Y0/Y1 hold the current packed-B row; Y2..Y5 broadcast
// the four packed-A values.
TEXT ·fmaTile4x16(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // row stride in bytes
	MOVQ zeroAcc+40(FP), R9

	LEAQ (DX)(R8*1), R10     // row 1
	LEAQ (R10)(R8*1), R11    // row 2
	LEAQ (R11)(R8*1), R12    // row 3

	TESTQ R9, R9
	JNZ   zero

	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VMOVUPS (R10), Y10
	VMOVUPS 32(R10), Y11
	VMOVUPS (R11), Y12
	VMOVUPS 32(R11), Y13
	VMOVUPS (R12), Y14
	VMOVUPS 32(R12), Y15
	JMP     loop

zero:
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

loop:
	TESTQ CX, CX
	JZ    done

	VMOVUPS (DI), Y0         // B row, lanes 0..7
	VMOVUPS 32(DI), Y1       // B row, lanes 8..15

	VBROADCASTSS (SI), Y2    // A row 0
	VBROADCASTSS 4(SI), Y3   // A row 1
	VFMADD231PS  Y0, Y2, Y8  // Y8 += Y2*Y0
	VFMADD231PS  Y1, Y2, Y9
	VFMADD231PS  Y0, Y3, Y10
	VFMADD231PS  Y1, Y3, Y11

	VBROADCASTSS 8(SI), Y4   // A row 2
	VBROADCASTSS 12(SI), Y5  // A row 3
	VFMADD231PS  Y0, Y4, Y12
	VFMADD231PS  Y1, Y4, Y13
	VFMADD231PS  Y0, Y5, Y14
	VFMADD231PS  Y1, Y5, Y15

	ADDQ $16, SI             // next packed-A group (4 floats)
	ADDQ $64, DI             // next packed-B group (16 floats)
	DECQ CX
	JMP  loop

done:
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	VMOVUPS Y10, (R10)
	VMOVUPS Y11, 32(R10)
	VMOVUPS Y12, (R11)
	VMOVUPS Y13, 32(R11)
	VMOVUPS Y14, (R12)
	VMOVUPS Y15, 32(R12)
	VZEROUPPER
	RET

// RELU(acc) zeroes the lanes of acc that are <= 0 (VCMPPS LE_OQ against
// Y4, which holds +0; a NaN compares false and stays), so −0 and every
// negative become +0. Y5 holds the mask.
#define RELU(acc) \
	VCMPPS  $0x12, Y4, acc, Y5; \
	VANDNPS acc, Y5, acc

// func fmaConvTile4x16(k int64, pa, x *float32, taps *int32, c *float32, ldc int64, bias *float32, relu int64)
//
// fmaTile4x16 for the direct convolution (conv_infer.go): B row p is not
// a packed strip but the 16 floats at x[taps[p]:] — two unaligned loads
// from the zero-padded image plane — and the accumulators always start
// at zero and walk all k taps in one ascending pass:
//
//	C[r*ldc+s] = fma(pa[p*4+r], x[taps[p]+s], ...) folded over p = 0..k-1,
//
// then, before the store, the conv epilogue: row r gains bias[r] with
// the accumulator as first source (scalar `v + b`: of two NaNs, the
// accumulator's comes out), and with relu != 0 every lane v <= 0
// (ordered, so NaN is kept) becomes +0. Same register plan as
// fmaTile4x16; R9 walks the tap table.
TEXT ·fmaConvTile4x16(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ x+16(FP), DI
	MOVQ taps+24(FP), R9
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8              // row stride in bytes

	LEAQ (DX)(R8*1), R10     // row 1
	LEAQ (R10)(R8*1), R11    // row 2
	LEAQ (R11)(R8*1), R12    // row 3

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

convloop:
	TESTQ CX, CX
	JZ    convdone

	MOVLQSX (R9), R13            // tap offset, in floats
	VMOVUPS (DI)(R13*4), Y0      // image row, lanes 0..7
	VMOVUPS 32(DI)(R13*4), Y1    // image row, lanes 8..15

	VBROADCASTSS (SI), Y2    // filter row 0
	VBROADCASTSS 4(SI), Y3   // filter row 1
	VFMADD231PS  Y0, Y2, Y8
	VFMADD231PS  Y1, Y2, Y9
	VFMADD231PS  Y0, Y3, Y10
	VFMADD231PS  Y1, Y3, Y11

	VBROADCASTSS 8(SI), Y4   // filter row 2
	VBROADCASTSS 12(SI), Y5  // filter row 3
	VFMADD231PS  Y0, Y4, Y12
	VFMADD231PS  Y1, Y4, Y13
	VFMADD231PS  Y0, Y5, Y14
	VFMADD231PS  Y1, Y5, Y15

	ADDQ $16, SI             // next A group (4 floats)
	ADDQ $4, R9              // next tap
	DECQ CX
	JMP  convloop

convdone:
	MOVQ         bias+48(FP), AX
	VBROADCASTSS (AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	VADDPS       Y0, Y8, Y8  // Y8 = Y8 + Y0: the accumulator first
	VADDPS       Y0, Y9, Y9
	VADDPS       Y1, Y10, Y10
	VADDPS       Y1, Y11, Y11
	VADDPS       Y2, Y12, Y12
	VADDPS       Y2, Y13, Y13
	VADDPS       Y3, Y14, Y14
	VADDPS       Y3, Y15, Y15

	MOVQ  relu+56(FP), AX
	TESTQ AX, AX
	JZ    convstore
	VXORPS Y4, Y4, Y4
	RELU(Y8)
	RELU(Y9)
	RELU(Y10)
	RELU(Y11)
	RELU(Y12)
	RELU(Y13)
	RELU(Y14)
	RELU(Y15)

convstore:
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	VMOVUPS Y10, (R10)
	VMOVUPS Y11, 32(R10)
	VMOVUPS Y12, (R11)
	VMOVUPS Y13, 32(R11)
	VMOVUPS Y14, (R12)
	VMOVUPS Y15, 32(R12)
	VZEROUPPER
	RET

// func fmaConvBackTile4x16(n, f int64, pw, dy *float32, taps *int32, fstride int64, masks *uint32, c *float32, ldc int64)
//
// The input-gradient tile of a training conv (conv_train.go): the 4×16
// tile of c starts at +0, then for each of the n taps, whose (offset,
// mask row) pair taps lists,
//
//	t[r][s] = fma(pw[i*4+r], dy[offset+i*fstride+s], ...) folded over i = 0..f-1
//
// from zero, with pw moving on by f groups of four per tap; lanes whose
// mask is zero become +0, and c[r*ldc+s] = c[r*ldc+s] + t[r][s] — the
// tile as the first operand, as col2im's `dx += dcol`. Y8..Y15 hold t,
// with fmaConvTile4x16's register plan; the tile itself stays in memory.
TEXT ·fmaConvBackTile4x16(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ pw+16(FP), SI
	MOVQ dy+24(FP), DI
	MOVQ taps+32(FP), R9
	MOVQ fstride+40(FP), R11
	SHLQ $2, R11             // filter-plane stride in bytes
	MOVQ masks+48(FP), AX
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	SHLQ $2, R8              // row stride in bytes
	LEAQ (DX)(R8*2), R10     // row 2

	VXORPS  Y0, Y0, Y0
	VMOVUPS Y0, (DX)
	VMOVUPS Y0, 32(DX)
	VMOVUPS Y0, (DX)(R8*1)
	VMOVUPS Y0, 32(DX)(R8*1)
	VMOVUPS Y0, (R10)
	VMOVUPS Y0, 32(R10)
	VMOVUPS Y0, (R10)(R8*1)
	VMOVUPS Y0, 32(R10)(R8*1)

backtap:
	TESTQ CX, CX
	JZ    backdone

	MOVLQSX (R9), R12        // this tap's dy offset, in floats
	LEAQ    (DI)(R12*4), R12 // its 16 floats for the first filter
	MOVLQSX 4(R9), R13       // its mask row, in lanes
	LEAQ    (AX)(R13*4), R13
	MOVQ    f+8(FP), BX

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

backfilter:
	TESTQ BX, BX
	JZ    backadd

	VMOVUPS (R12), Y0        // dy, lanes 0..7
	VMOVUPS 32(R12), Y1      // dy, lanes 8..15

	VBROADCASTSS (SI), Y2    // channel row 0
	VBROADCASTSS 4(SI), Y3   // channel row 1
	VFMADD231PS  Y0, Y2, Y8
	VFMADD231PS  Y1, Y2, Y9
	VFMADD231PS  Y0, Y3, Y10
	VFMADD231PS  Y1, Y3, Y11

	VBROADCASTSS 8(SI), Y4   // channel row 2
	VBROADCASTSS 12(SI), Y5  // channel row 3
	VFMADD231PS  Y0, Y4, Y12
	VFMADD231PS  Y1, Y4, Y13
	VFMADD231PS  Y0, Y5, Y14
	VFMADD231PS  Y1, Y5, Y15

	ADDQ $16, SI             // next weight group (4 floats)
	ADDQ R11, R12            // next filter's plane
	DECQ BX
	JMP  backfilter

backadd:
	VMOVUPS (R13), Y0        // mask, lanes 0..7
	VMOVUPS 32(R13), Y1      // mask, lanes 8..15
	VANDPS  Y0, Y8, Y8
	VANDPS  Y1, Y9, Y9
	VANDPS  Y0, Y10, Y10
	VANDPS  Y1, Y11, Y11
	VANDPS  Y0, Y12, Y12
	VANDPS  Y1, Y13, Y13
	VANDPS  Y0, Y14, Y14
	VANDPS  Y1, Y15, Y15

	VMOVUPS (DX), Y2
	VADDPS  Y8, Y2, Y2       // Y2 = Y2 + Y8: the tile first
	VMOVUPS Y2, (DX)
	VMOVUPS 32(DX), Y3
	VADDPS  Y9, Y3, Y3
	VMOVUPS Y3, 32(DX)
	VMOVUPS (DX)(R8*1), Y2
	VADDPS  Y10, Y2, Y2
	VMOVUPS Y2, (DX)(R8*1)
	VMOVUPS 32(DX)(R8*1), Y3
	VADDPS  Y11, Y3, Y3
	VMOVUPS Y3, 32(DX)(R8*1)
	VMOVUPS (R10), Y2
	VADDPS  Y12, Y2, Y2
	VMOVUPS Y2, (R10)
	VMOVUPS 32(R10), Y3
	VADDPS  Y13, Y3, Y3
	VMOVUPS Y3, 32(R10)
	VMOVUPS (R10)(R8*1), Y2
	VADDPS  Y14, Y2, Y2
	VMOVUPS Y2, (R10)(R8*1)
	VMOVUPS 32(R10)(R8*1), Y3
	VADDPS  Y15, Y3, Y3
	VMOVUPS Y3, 32(R10)(R8*1)

	ADDQ $8, R9              // next tap's pair
	DECQ CX
	JMP  backtap

backdone:
	VZEROUPPER
	RET

// func fmaRowIdx1x64(n int64, idx *int32, a, w *float32, ldw int64, c *float32)
//
// The one-row kernel (gemm_packed.go): one row of A against 64 columns
// of a row-major W, both read where they lie, over an ascending list of
// k positions:
//
//	c[s] = fma(a[idx[i]], w[idx[i]*ldw+s], ...) folded over i = 0..n-1
//
// from zero — fmaTile4x16's chain for each of the 64 cells, less the
// positions the list leaves out. Y8..Y15 hold the accumulators across
// the whole list, Y2 the broadcast a[p]; R13 is p, then the address of
// row p of w (an index register on the FMAs' memory operands would
// split each from its load).
TEXT ·fmaRowIdx1x64(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ idx+8(FP), R9
	MOVQ a+16(FP), SI
	MOVQ w+24(FP), DI
	MOVQ ldw+32(FP), R8
	SHLQ $2, R8              // row stride in bytes
	MOVQ c+40(FP), DX

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

rowloop:
	TESTQ CX, CX
	JZ    rowdone

	MOVLQSX      (R9), R13           // p
	VBROADCASTSS (SI)(R13*4), Y2     // a[p]
	IMULQ        R8, R13
	ADDQ         DI, R13             // row p of w
	VFMADD231PS  (R13), Y2, Y8
	VFMADD231PS  32(R13), Y2, Y9
	VFMADD231PS  64(R13), Y2, Y10
	VFMADD231PS  96(R13), Y2, Y11
	VFMADD231PS  128(R13), Y2, Y12
	VFMADD231PS  160(R13), Y2, Y13
	VFMADD231PS  192(R13), Y2, Y14
	VFMADD231PS  224(R13), Y2, Y15

	ADDQ $4, R9              // next listed position
	DECQ CX
	JMP  rowloop

rowdone:
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	VMOVUPS Y10, 64(DX)
	VMOVUPS Y11, 96(DX)
	VMOVUPS Y12, 128(DX)
	VMOVUPS Y13, 160(DX)
	VMOVUPS Y14, 192(DX)
	VMOVUPS Y15, 224(DX)
	VZEROUPPER
	RET

// func fmaRowIdxS8x64(n int64, idx *int32, a *float32, q *int8, scales *float32, ldq int64, c *float32)
//
// fmaRowIdx1x64 over an int8 matrix (gemm_packed.go's int8 form): each
// group of eight codes of row p is widened to int32 (VPMOVSXBD, AVX2),
// converted exactly (|q| <= 128) and multiplied by its columns' scales,
// the one rounding Go's float32(q)*scale makes: the product is the
// float32 weight fmaRowIdx1x64 would read, and it goes into the same
// VFMADD231PS. Y8..Y15 hold the accumulators, Y2 the broadcast a[p], Y0
// and Y1 a group's weights; the scales are read from memory (L1 after
// the first position).
#define S8GROUP(off, w, acc) \
	VPMOVSXBD   off(R13), w; \
	VCVTDQ2PS   w, w; \
	VMULPS      (off*4)(R10), w, w; \
	VFMADD231PS w, Y2, acc

TEXT ·fmaRowIdxS8x64(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ idx+8(FP), R9
	MOVQ a+16(FP), SI
	MOVQ q+24(FP), DI
	MOVQ scales+32(FP), R10
	MOVQ ldq+40(FP), R8      // row stride in bytes: one per code
	MOVQ c+48(FP), DX

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

s8loop:
	TESTQ CX, CX
	JZ    s8done

	MOVLQSX      (R9), R13           // p
	VBROADCASTSS (SI)(R13*4), Y2     // a[p]
	IMULQ        R8, R13
	ADDQ         DI, R13             // row p of q
	S8GROUP(0, Y0, Y8)
	S8GROUP(8, Y1, Y9)
	S8GROUP(16, Y0, Y10)
	S8GROUP(24, Y1, Y11)
	S8GROUP(32, Y0, Y12)
	S8GROUP(40, Y1, Y13)
	S8GROUP(48, Y0, Y14)
	S8GROUP(56, Y1, Y15)

	ADDQ $4, R9              // next listed position
	DECQ CX
	JMP  s8loop

s8done:
	VMOVUPS Y8, (DX)
	VMOVUPS Y9, 32(DX)
	VMOVUPS Y10, 64(DX)
	VMOVUPS Y11, 96(DX)
	VMOVUPS Y12, 128(DX)
	VMOVUPS Y13, 160(DX)
	VMOVUPS Y14, 192(DX)
	VMOVUPS Y15, 224(DX)
	VZEROUPPER
	RET

// func maxPool2x2x8(oh, ow int64, src *float32, w int64, dst *float32)
//
// The 2×2/stride-2 max-pool of one [2·oh.., w] plane into the [oh, ow]
// plane dst, ow a multiple of 8 (conv.go's maxPoolPlanes), eight outputs
// a step. VSHUFPS splits the 16 floats of each of the window's two rows
// into even and odd columns — interleaved across the two 128-bit halves,
// which VPERMPD puts back in order once the maximum is taken — and
// VMAXPS folds r0's odd, r1's even and r1's odd lane, in the scalar
// scan order, into r0's even one with the candidate as first source:
// VMAXPS returns its first source only when it compares greater, which
// is `if v > best { best = v }` for NaNs and signed zeros as well.
TEXT ·maxPool2x2x8(SB), NOSPLIT, $0-40
	MOVQ oh+0(FP), CX
	MOVQ ow+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ w+24(FP), R8
	SHLQ $2, R8              // src row stride in bytes
	MOVQ dst+32(FP), DI
	LEAQ (SI)(R8*1), R9      // the window's second row
	SHLQ $1, R8              // one row pair

poolrow:
	TESTQ CX, CX
	JZ    pooldone
	MOVQ  SI, R10
	MOVQ  R9, R11
	MOVQ  BX, DX             // outputs left in this row

poolstep:
	VMOVUPS (R10), Y0        // r0, columns 0..7
	VMOVUPS 32(R10), Y1      // r0, columns 8..15
	VMOVUPS (R11), Y2        // r1, columns 0..7
	VMOVUPS 32(R11), Y3      // r1, columns 8..15
	VSHUFPS $0x88, Y1, Y0, Y4 // r0 even: 0 2 8 10 | 4 6 12 14
	VSHUFPS $0xdd, Y1, Y0, Y5 // r0 odd, in the same lanes
	VSHUFPS $0x88, Y3, Y2, Y6 // r1 even
	VSHUFPS $0xdd, Y3, Y2, Y7 // r1 odd
	VMAXPS  Y4, Y5, Y4       // Y4 = Y5 > Y4 ? Y5 : Y4
	VMAXPS  Y4, Y6, Y4
	VMAXPS  Y4, Y7, Y4
	VPERMPD $0xd8, Y4, Y4    // qwords 0 2 1 3: outputs 0..7 in order
	VMOVUPS Y4, (DI)

	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $32, DI             // dst rows are contiguous: DI runs on into the next
	SUBQ $8, DX
	JNZ  poolstep

	ADDQ R8, SI
	ADDQ R8, R9
	DECQ CX
	JMP  poolrow

pooldone:
	VZEROUPPER
	RET

// func listNonzero8(n int64, a *float32, idx *int32, lanes *uint64) int64
//
// listNonzero's scan (gemm_packed.go) for n floats, a multiple of 8:
// writes the positions p < n with a[p] != 0 to idx, ascending, and
// returns how many. Per eight floats, VCMPPS NEQ_UQ against zero marks
// the nonzero lanes (a NaN is unordered, so it counts; ±0 does not),
// VMOVMSKPS makes them a byte m, and lanes[m] lists those lanes one
// byte each, widened, offset by p and stored as eight int32s, of which
// POPCNT(m) count. The surplus ones are overwritten by the next store or
// lie past the count; they never pass position p+7 < n, so idx needs no
// slack.
TEXT ·listNonzero8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ idx+16(FP), DI
	MOVQ lanes+24(FP), R8
	XORQ AX, AX              // positions written
	XORQ DX, DX              // p

	VXORPS       Y0, Y0, Y0  // +0
	VPXOR        Y2, Y2, Y2  // p in every lane
	MOVL         $8, R9
	VMOVD        R9, X3
	VPBROADCASTD X3, Y3      // 8 in every lane

nzloop:
	CMPQ DX, CX
	JGE  nzdone

	VCMPPS    $4, (SI)(DX*4), Y0, Y1 // NEQ_UQ
	VMOVMSKPS Y1, R10
	VPMOVZXBD (R8)(R10*8), Y4
	VPADDD    Y2, Y4, Y4
	VMOVDQU   Y4, (DI)(AX*4)
	POPCNTL   R10, R10
	ADDQ      R10, AX

	VPADDD Y3, Y2, Y2
	ADDQ   $8, DX
	JMP    nzloop

nzdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func cpuidAsm(leaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL  leaf+0(FP), AX
	XORL  CX, CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL    CX, CX
	XGETBV
	MOVL    AX, eax+0(FP)
	MOVL    DX, edx+4(FP)
	RET
