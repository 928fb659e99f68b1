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
// taps are walked in one ascending pass (gemm_amd64.s).
//
//go:noescape
func fmaConvTile4x16(k int64, pa, x *float32, taps *int32, c *float32, ldc int64)

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
	useFMAKernel.Store(hasAVXFMA())
}
