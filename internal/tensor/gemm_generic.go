//go:build !amd64

package tensor

// The assembly micro-kernels are only reachable when useFMAKernel is
// true, which never happens off amd64 (the flag is left false and
// nothing sets it except the amd64 init and tests that first check the
// platform).
func fmaTile4x16(kc int64, pa, pb, c *float32, ldc int64, zeroAcc int64) {
	panic("tensor: fmaTile4x16 called without FMA kernel support")
}

func fmaConvTile4x16(k int64, pa, x *float32, taps *int32, c *float32, ldc int64) {
	panic("tensor: fmaConvTile4x16 called without FMA kernel support")
}

func fmaConvBackTile4x16(n, f int64, pw, dy *float32, taps *int32, fstride int64, masks *uint32, c *float32, ldc int64) {
	panic("tensor: fmaConvBackTile4x16 called without FMA kernel support")
}

func fmaRowIdx1x64(n int64, idx *int32, a, w *float32, ldw int64, c *float32) {
	panic("tensor: fmaRowIdx1x64 called without FMA kernel support")
}
