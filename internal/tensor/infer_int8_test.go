package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// int8ConvGeoms covers both packPanelU8 paths and every edge of the
// blocked driver: "same" geometry with strips inside one output row
// (windows), rows narrower than a strip or not a multiple of one (lane
// gather), strides, unpadded and over-padded kernels, 1×k kernels,
// filter counts off the micro-tile, k not a multiple of four, k crossing
// KC, columns crossing NC.
var int8ConvGeoms = []struct {
	c, h, w, f int
	spec       ConvSpec
}{
	{4, 32, 32, 4, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
	{6, 16, 16, 13, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
	{5, 17, 23, 6, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
	{3, 8, 8, 5, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
	{30, 20, 20, 3, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}}, // k = 270 > KC
	{1, 24, 24, 1, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},  // 576 columns > NC
	{2, 9, 40, 4, ConvSpec{KH: 3, KW: 5, Stride: 1}},
	{2, 7, 33, 3, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 3, PadW: 4}},
	{3, 19, 21, 7, ConvSpec{KH: 3, KW: 3, Stride: 2, PadH: 1, PadW: 1}},
	{4, 1, 70, 3, ConvSpec{KH: 1, KW: 9, Stride: 1, PadW: 4}},
	{2, 1, 400, 2, ConvSpec{KH: 1, KW: 5, Stride: 2, PadW: 2}},
	{2, 12, 48, 4, ConvSpec{KH: 2, KW: 20, Stride: 1, PadW: 3}}, // window wider than winW
	{90, 5, 18, 4, ConvSpec{KH: 1, KW: 1, Stride: 1}},           // more kernel rows per panel than winRows
}

// eachInt8Kernel runs fn with the generic tiles and, where the CPU has
// them, with the assembly kernels.
func eachInt8Kernel(t *testing.T, fn func(asm bool)) {
	t.Helper()
	prev := SetInt8Asm(false)
	defer SetInt8Asm(prev)
	fn(false)
	if SetInt8Asm(true); useVNNIKernel.Load() {
		fn(true)
	}
}

// TestInterleaveQuadAsmMatchesGeneric pins the byte transpose both
// packers' quad groups go through.
func TestInterleaveQuadAsmMatchesGeneric(t *testing.T) {
	if !vnniAvailable {
		t.Skip("no VNNI kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(41))
	var rows [4][qNR]uint8
	for trial := 0; trial < 20; trial++ {
		for i := range rows {
			copy(rows[i][:], randUint8(rng, qNR))
		}
		var want, got [4 * qNR]uint8
		interleaveQuad(false, &want, &rows[0], &rows[1], &rows[2], &rows[3])
		interleaveQuad(true, &got, &rows[0], &rows[1], &rows[2], &rows[3])
		if got != want {
			t.Fatalf("trial %d: asm %v, generic %v", trial, got, want)
		}
		for l := 0; l < qNR; l++ {
			for k := 0; k < 4; k++ {
				if want[4*l+k] != rows[k][l] {
					t.Fatalf("generic interleave: byte %d = %d, want rows[%d][%d] = %d", 4*l+k, want[4*l+k], k, l, rows[k][l])
				}
			}
		}
	}
}

// TestConvPlaneU8MatchesIm2ColGemm: the int32 plane of the implicit
// GEMM — strips packed straight from the image — equals GemmInt8 over
// the column matrix Im2ColBatchU8 materialises, an independent
// expansion of the same image, for every geometry and both kernels.
func TestConvPlaneU8MatchesIm2ColGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, geo := range int8ConvGeoms {
		oh, ow := geo.spec.OutDims(geo.h, geo.w)
		k, colW := geo.c*geo.spec.KH*geo.spec.KW, oh*ow
		x := randUint8(rng, geo.c*geo.h*geo.w)
		wt := randInt8(rng, geo.f*k)
		zp := uint8(rng.Intn(256))
		cols := make([]uint8, k*colW)
		Im2ColBatchU8(cols, x, 1, geo.c, geo.h, geo.w, geo.spec, zp)
		want := refGemmInt8(geo.f, colW, k, wt, cols)
		pw := PackInt8A(wt, k, 1, geo.f, k)
		g := convGeom{c: geo.c, h: geo.h, w: geo.w, spec: geo.spec, oh: oh, ow: ow}
		eachInt8Kernel(t, func(asm bool) {
			got := make([]int32, geo.f*colW)
			bufs := qPackPool.Get().(*qPackBufs)
			gemmInt8Serial(got, colW, 0, geo.f, 0, colW, k, qLeft{packed: pw}, qRight{u8: x, conv: &g, zp: zp}, bufs)
			qPackPool.Put(bufs)
			requireInt32Equal(t, fmt.Sprintf("conv plane %+v asm=%v", geo, asm), got, want, geo.f, colW, k)
		})
	}
}
