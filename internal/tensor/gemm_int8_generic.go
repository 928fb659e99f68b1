//go:build !amd64

package tensor

// vnniTile4x16 is only reachable when useVNNIKernel is true, which never
// happens off amd64 (the flag is left false and nothing sets it except
// the amd64 init and tests that first check the platform).
func vnniTile4x16(kq int64, pa, pb *uint8, c *int32, ldc int64, flags int64) {
	panic("tensor: vnniTile4x16 called without VNNI kernel support")
}

// interleaveQuadAVX, likewise, is reached only with useVNNIKernel set.
func interleaveQuadAVX(dst *[64]uint8, r0, r1, r2, r3 *[16]uint8) {
	panic("tensor: interleaveQuadAVX called without VNNI kernel support")
}
