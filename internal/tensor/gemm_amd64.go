//go:build amd64

package tensor

// fmaTile4x16 is the AVX+FMA3 micro-kernel (gemm_amd64.s): a 4×16
// float32 accumulator tile updated with one fused multiply-add per cell
// per k step, p ascending. With zeroAcc != 0 the accumulators start at
// zero; otherwise they load from c. c rows are ldc floats apart.
//
//go:noescape
func fmaTile4x16(kc int64, pa, pb, c *float32, ldc int64, zeroAcc int64)

// fmaConvTile4x16 is fmaTile4x16 for the direct convolution: B row p is
// the 16 floats at x[taps[p]:], the accumulators start at zero and all k
// taps are walked in one ascending pass; then row r gains bias[r] and,
// with relu != 0, lanes <= 0 become +0 before the store (gemm_amd64.s).
//
//go:noescape
func fmaConvTile4x16(k int64, pa, x *float32, taps *int32, c *float32, ldc int64, bias *float32, relu int64)

// fmaConvBackTile4x16 is the training conv's input-gradient tile: the
// 4×16 tile of c from +0, plus, per tap, fmaConvTile4x16's chain over the
// f filter planes of dy, masked (gemm_amd64.s).
//
//go:noescape
func fmaConvBackTile4x16(n, f int64, pw, dy *float32, taps *int32, fstride int64, masks *uint32, c *float32, ldc int64)

// fmaRowIdx1x64 is the one-row kernel: 64 cells of c, each folding
// a[p]·w[p*ldw+s] from zero over the n ascending positions p in idx with
// fmaTile4x16's chain (gemm_amd64.s).
//
//go:noescape
func fmaRowIdx1x64(n int64, idx *int32, a, w *float32, ldw int64, c *float32)

// fmaRowIdxS8x64 is fmaRowIdx1x64 over an int8 matrix: w[p*ldq+s] is
// float32(q[p*ldq+s])·scales[s], widened and multiplied in registers
// (gemm_amd64.s). It needs AVX2.
//
//go:noescape
func fmaRowIdxS8x64(n int64, idx *int32, a *float32, q *int8, scales *float32, ldq int64, c *float32)

// maxPool2x2x8 is maxPoolPlanes' 2×2/stride-2 window over one plane
// whose row of ow outputs is a multiple of 8, src rows w floats apart
// (gemm_amd64.s). It needs AVX2.
//
//go:noescape
func maxPool2x2x8(oh, ow int64, src *float32, w int64, dst *float32)

// listNonzero8 writes the positions p < n, n a multiple of 8, with
// a[p] != 0 (NaN included) to idx in ascending order and returns how
// many; lanes is nonzeroLanes (gemm_amd64.s). It needs AVX2.
//
//go:noescape
func listNonzero8(n int64, a *float32, idx *int32, lanes *uint64) int64

func cpuidAsm(leaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVXFMA reports whether both the CPU and the OS support the AVX+FMA3
// kernel: CPUID leaf 1 ECX bits 12 (FMA), 27 (OSXSAVE), 28 (AVX), and
// XCR0 bits 1|2 (the OS preserves XMM and YMM state across context
// switches).
func hasAVXFMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xcr0, _ := xgetbvAsm()
	return xcr0&6 == 6
}

func init() {
	fmaAvailable = hasAVXFMA()
	useFMAKernel.Store(fmaAvailable)
	// AVX2 is CPUID leaf 7 subleaf 0, EBX bit 5; listNonzero8 also
	// counts with POPCNT, leaf 1 ECX bit 23.
	maxLeaf, _, _, _ := cpuidAsm(0)
	_, _, ecx1, _ := cpuidAsm(1)
	_, ebx7, _, _ := cpuidAsm(7)
	avx2Available = fmaAvailable && maxLeaf >= 7 && ebx7&(1<<5) != 0 && ecx1&(1<<23) != 0
}
