//go:build amd64

package tensor

// vnniTile4x16 is the AVX-512 VNNI micro-kernel (gemm_int8_amd64.s): a
// 4×16 int32 accumulator tile updated with one VPDPBUSD per cell group
// per k-quad — four u8·s8 products folded into each int32 lane, exactly
// (VPDPBUSD widens to int32 before summing and never saturates). With
// vnniZeroAcc in flags the accumulators start at zero; otherwise they
// load from c. c rows are ldc int32s apart. pa is the packed A strip
// (quad layout, 16 bytes per quad), pb the packed B strip (64 bytes per
// quad); pa's bytes are the s8 operand and pb's the u8 one, or the other
// way round with vnniBSigned.
//
//go:noescape
func vnniTile4x16(kq int64, pa, pb *uint8, c *int32, ldc int64, flags int64)

// interleaveQuadAVX is interleaveQuad's byte transpose in eight AVX
// unpack instructions (gemm_int8_amd64.s); it rides on the VNNI kernel's
// feature check, which implies AVX.
//
//go:noescape
func interleaveQuadAVX(dst *[64]uint8, r0, r1, r2, r3 *[16]uint8)

// hasAVX512VNNI reports whether both the CPU and the OS support the
// VPDPBUSD kernel. The Go assembler emits the EVEX (AVX-512) encoding
// of VPDPBUSD, so 256-bit operation needs AVX512F + AVX512VL + the
// AVX512_VNNI extension (CPUID leaf 7 subleaf 0: EBX bits 16 and 31,
// ECX bit 11), OSXSAVE, and an OS that preserves the full AVX-512
// register state (XCR0 bits 1|2 for XMM/YMM and 5|6|7 for the opmask
// and upper ZMM state).
func hasAVX512VNNI() bool {
	maxLeaf, _, _, _ := cpuidAsm(0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	const xstate = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0&xstate != xstate {
		return false
	}
	_, ebx7, ecx7, _ := cpuidAsm(7)
	const avx512f = 1 << 16
	const avx512vl = 1 << 31
	const avx512vnni = 1 << 11
	return ebx7&(avx512f|avx512vl) == avx512f|avx512vl && ecx7&avx512vnni != 0
}

func init() {
	vnniAvailable = hasAVX512VNNI()
	useVNNIKernel.Store(vnniAvailable)
}
