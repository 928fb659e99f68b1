//go:build !amd64

package tensor

// The assembly micro-kernels are only reachable when useFMAKernel is
// true, which never happens off amd64 (the flag is left false and
// nothing sets it except the amd64 init and tests that first check the
// platform).
func fmaTile4x16(kc int64, pa, pb, c *float32, ldc int64, zeroAcc int64) {
	panic("tensor: fmaTile4x16 called without FMA kernel support")
}

func fmaConvTile4x16(k int64, pa, x *float32, taps *int32, c *float32, ldc int64, bias *float32, relu int64) {
	panic("tensor: fmaConvTile4x16 called without FMA kernel support")
}

func fmaConvBackTile4x16(n, f int64, pw, dy *float32, taps *int32, fstride int64, masks *uint32, c *float32, ldc int64) {
	panic("tensor: fmaConvBackTile4x16 called without FMA kernel support")
}

func fmaRowIdx1x64(n int64, idx *int32, a, w *float32, ldw int64, c *float32) {
	panic("tensor: fmaRowIdx1x64 called without FMA kernel support")
}

func fmaRowIdxS8x64(n int64, idx *int32, a *float32, q *int8, scales *float32, ldq int64, c *float32) {
	panic("tensor: fmaRowIdxS8x64 called without AVX2 kernel support")
}

func maxPool2x2x8(oh, ow int64, src *float32, w int64, dst *float32) {
	panic("tensor: maxPool2x2x8 called without AVX2 kernel support")
}

func listNonzero8(n int64, a *float32, idx *int32, lanes *uint64) int64 {
	panic("tensor: listNonzero8 called without AVX2 kernel support")
}
