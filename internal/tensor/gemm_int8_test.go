package tensor

import (
	"math/rand"
	"testing"
)

// refGemmInt8 is the naive reference: a plain triple loop with int32
// accumulation, the definition the blocked path must reproduce exactly.
func refGemmInt8(m, n, k int, a []int8, b []uint8) []int32 {
	out := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			out[i*n+j] = acc
		}
	}
	return out
}

func randInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127) // full symmetric range [-127, 127]
	}
	return out
}

func randUint8(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(256))
	}
	return out
}

// gemmInt8TestShapes exercises full tiles, ragged edges in every
// dimension, k values straddling quad and KC boundaries, and tall/wide
// aspect ratios that flip the row/column stripe choice.
var gemmInt8TestShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 1, 4},
	{4, 16, 4},
	{4, 16, 256},
	{3, 5, 7},
	{5, 17, 9},
	{7, 33, 31},
	{16, 64, 36},
	{12, 1024, 36}, // conv1-like: few filters, wide columns
	{130, 93, 301}, // crosses MC and KC boundaries, ragged everywhere
	{64, 20, 257},  // k just past one KC panel
	{33, 4, 1000},  // tall: row-stripe parallel path
	{2, 600, 514},  // wide: column-stripe parallel path
	{960, 8, 64},   // classifier-head-like: many rows, few columns
}

func requireInt32Equal(t *testing.T, what string, got, want []int32, m, n, k int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s shape %dx%dx%d: cell %d got %d want %d", what, m, n, k, i, got[i], want[i])
		}
	}
}

func TestGemmInt8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range gemmInt8TestShapes {
		a := randInt8(rng, s.m*s.k)
		b := randUint8(rng, s.k*s.n)
		want := refGemmInt8(s.m, s.n, s.k, a, b)
		got := make([]int32, s.m*s.n)
		GemmInt8(got, s.n, s.m, s.n, s.k, a, s.k, 1, b, s.n, 1)
		requireInt32Equal(t, "GemmInt8", got, want, s.m, s.n, s.k)
	}
}

// TestGemmInt8StridedViews drives the transposed-operand strides the nn
// package uses: the dense head multiplies W[out,in] by xᵀ viewed with
// (rs=1, cs=in).
func TestGemmInt8StridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const m, n, k = 37, 19, 53
	a := randInt8(rng, m*k)
	// x is [n, k] row-major; the GEMM consumes xᵀ via strides.
	x := randUint8(rng, n*k)
	bT := make([]uint8, k*n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT[p*n+j] = x[j*k+p]
		}
	}
	want := refGemmInt8(m, n, k, a, bT)
	got := make([]int32, m*n)
	GemmInt8(got, n, m, n, k, a, k, 1, x, 1, k)
	requireInt32Equal(t, "GemmInt8 strided", got, want, m, n, k)
}

// TestGemmInt8WorkerInvariance sweeps worker counts and demands
// identical bytes — the int8 path inherits the float path's contract:
// workers own whole output cells and never split the k reduction.
func TestGemmInt8WorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n, k = 130, 93, 301
	a := randInt8(rng, m*k)
	b := randUint8(rng, k*n)

	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	base := make([]int32, m*n)
	GemmInt8(base, n, m, n, k, a, k, 1, b, n, 1)
	for _, workers := range []int{2, 4, 8} {
		SetMaxWorkers(workers)
		got := make([]int32, m*n)
		GemmInt8(got, n, m, n, k, a, k, 1, b, n, 1)
		requireInt32Equal(t, "workers", got, base, m, n, k)
	}
}

// TestGemmInt8GenericMatchesAsmKernel proves the pure-Go micro-kernel
// and the VPDPBUSD assembly kernel produce identical bytes across
// ragged shapes and worker counts, so quantized predictions are
// platform-independent. Integer accumulation is exact, so this is an
// equality of definitions, not of rounding behavior — but the test pins
// the packing layout and operand order the asm kernel assumes.
func TestGemmInt8GenericMatchesAsmKernel(t *testing.T) {
	if !useVNNIKernel.Load() {
		t.Skip("VNNI kernel not available on this CPU")
	}
	rng := rand.New(rand.NewSource(24))
	prevWorkers := SetMaxWorkers(1)
	defer SetMaxWorkers(prevWorkers)
	for _, workers := range []int{1, 2, 4, 8} {
		SetMaxWorkers(workers)
		for _, s := range gemmInt8TestShapes {
			a := randInt8(rng, s.m*s.k)
			b := randUint8(rng, s.k*s.n)
			asm := make([]int32, s.m*s.n)
			GemmInt8(asm, s.n, s.m, s.n, s.k, a, s.k, 1, b, s.n, 1)
			useVNNIKernel.Store(false)
			gen := make([]int32, s.m*s.n)
			GemmInt8(gen, s.n, s.m, s.n, s.k, a, s.k, 1, b, s.n, 1)
			useVNNIKernel.Store(true)
			requireInt32Equal(t, "generic vs asm", gen, asm, s.m, s.n, s.k)
		}
	}
}

// TestGemmInt8ExtremeValues pins the non-saturating contract: the
// largest-magnitude operand products (±127·255) accumulate exactly.
func TestGemmInt8ExtremeValues(t *testing.T) {
	const m, n, k = 4, 16, 64
	a := make([]int8, m*k)
	b := make([]uint8, k*n)
	for i := range a {
		if i%2 == 0 {
			a[i] = -128
		} else {
			a[i] = 127
		}
	}
	for i := range b {
		b[i] = 255
	}
	want := refGemmInt8(m, n, k, a, b)
	got := make([]int32, m*n)
	GemmInt8(got, n, m, n, k, a, k, 1, b, n, 1)
	requireInt32Equal(t, "extremes", got, want, m, n, k)
	if useVNNIKernel.Load() {
		useVNNIKernel.Store(false)
		gen := make([]int32, m*n)
		GemmInt8(gen, n, m, n, k, a, k, 1, b, n, 1)
		useVNNIKernel.Store(true)
		requireInt32Equal(t, "extremes generic", gen, want, m, n, k)
	}
}

// TestGemmInt8PackedMatches proves both pre-packed weight forms are
// byte-for-byte the plain path across ragged shapes, worker counts and
// micro-kernels: PackInt8A must reproduce exactly the panels
// gemmInt8Serial would have packed on the fly, including strip offsets
// under worker row striping, and PackInt8B — the signed right operand
// under a u8 left one, the dense layers' form — the transposed product,
// including column stripes that start inside a stored NC block.
func TestGemmInt8PackedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	defer SetMaxWorkers(SetMaxWorkers(1))
	eachInt8Kernel(t, func(asm bool) {
		for _, workers := range []int{1, 2, 4, 8} {
			SetMaxWorkers(workers)
			for _, s := range gemmInt8TestShapes {
				a := randInt8(rng, s.m*s.k)
				b := randUint8(rng, s.k*s.n)
				want := refGemmInt8(s.m, s.n, s.k, a, b)
				pa := PackInt8A(a, s.k, 1, s.m, s.k)
				if m, k := pa.Dims(); m != s.m || k != s.k {
					t.Fatalf("PackInt8A dims: got %dx%d want %dx%d", m, k, s.m, s.k)
				}
				got := make([]int32, s.m*s.n)
				gemmInt8(got, s.n, s.m, s.n, s.k, qLeft{packed: pa}, qRight{u8: b, rs: s.n, cs: 1})
				requireInt32Equal(t, "packed A", got, want, s.m, s.n, s.k)

				// The same product transposed: bᵀ [n,k] u8 on the left,
				// aᵀ [k,m] s8 packed on the right, so got[j,i] = want[i,j].
				pb := PackInt8B(a, 1, s.k, s.k, s.m)
				if k, n := pb.Dims(); k != s.k || n != s.m {
					t.Fatalf("PackInt8B dims: got %dx%d want %dx%d", k, n, s.k, s.m)
				}
				gotT := make([]int32, s.n*s.m)
				gemmInt8(gotT, s.m, s.n, s.m, s.k, qLeft{u8: b, rs: 1, cs: s.n}, qRight{packed: pb})
				for i := 0; i < s.m; i++ {
					for j := 0; j < s.n; j++ {
						if gotT[j*s.m+i] != want[i*s.n+j] {
							t.Fatalf("packed B asm=%v workers=%d shape %dx%dx%d: cell (%d,%d) got %d want %d",
								asm, workers, s.m, s.n, s.k, i, j, gotT[j*s.m+i], want[i*s.n+j])
						}
					}
				}
			}
		}
	})
}

// TestGemmInt8PackedAStridedB drives the packed path with a transposed
// activation view (rs=1, cs=k), the B shape that bypasses the row-major
// packing fast path.
func TestGemmInt8PackedAStridedB(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const m, n, k = 37, 19, 53
	a := randInt8(rng, m*k)
	x := randUint8(rng, n*k) // [n, k] row-major, consumed as xᵀ
	want := make([]int32, m*n)
	GemmInt8(want, n, m, n, k, a, k, 1, x, 1, k)
	got := make([]int32, m*n)
	gemmInt8(got, n, m, n, k, qLeft{packed: PackInt8A(a, k, 1, m, k)}, qRight{u8: x, rs: 1, cs: k})
	requireInt32Equal(t, "packed A strided B", got, want, m, n, k)
}

// refIm2ColU8 is the naive tap-by-tap definition the span-copy fast
// paths in im2colU8Into must reproduce byte for byte.
func refIm2ColU8(x []uint8, n, c, h, w int, spec ConvSpec, zp uint8) []uint8 {
	oh, ow := spec.OutDims(h, w)
	colW := oh * ow
	ld := n * colW
	cols := make([]uint8, c*spec.KH*spec.KW*ld)
	for i := 0; i < n; i++ {
		xi := x[i*c*h*w:]
		idx := 0
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < spec.KH; ky++ {
				for kx := 0; kx < spec.KW; kx++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy := oy*spec.Stride + ky - spec.PadH
							ix := ox*spec.Stride + kx - spec.PadW
							v := zp
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = xi[ch*h*w+iy*w+ix]
							}
							cols[idx*ld+i*colW+oy*ow+ox] = v
						}
					}
					idx++
				}
			}
		}
	}
	return cols
}

// TestIm2ColBatchU8FastPaths sweeps the specs that select each im2col
// code path: 'same' stride-1 geometry (single contiguous copy per tap),
// stride-1 with shrinking output (per-row spans), and stride > 1 (the
// scalar loop), on dimensions with and without ragged edges.
func TestIm2ColBatchU8FastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := []struct {
		name string
		h, w int
		spec ConvSpec
	}{
		{"same3x3", 8, 8, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
		{"same5x5", 9, 7, ConvSpec{KH: 5, KW: 5, Stride: 1, PadH: 2, PadW: 2}},
		{"valid3x3", 8, 8, ConvSpec{KH: 3, KW: 3, Stride: 1}},
		{"padTall", 6, 5, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 2, PadW: 1}},
		{"stride2", 9, 7, ConvSpec{KH: 3, KW: 3, Stride: 2, PadH: 1, PadW: 1}},
	}
	const n, c, zp = 2, 3, 77
	for _, tc := range cases {
		x := randUint8(rng, n*c*tc.h*tc.w)
		want := refIm2ColU8(x, n, c, tc.h, tc.w, tc.spec, zp)
		got := make([]uint8, len(want))
		Im2ColBatchU8(got, x, n, c, tc.h, tc.w, tc.spec, zp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: cell %d got %d want %d", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestIm2ColBatchU8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n, c, h, w = 3, 2, 9, 7
	const zp = 13
	spec := ConvSpec{KH: 3, KW: 3, Stride: 2, PadH: 1, PadW: 1}
	oh, ow := spec.OutDims(h, w)
	xq := randUint8(rng, n*c*h*w)
	// Float reference: im2col of the u8 values with zero padding equals
	// the u8 im2col with zp padding after mapping pad cells.
	xf := New(n, c, h, w)
	for i, v := range xq {
		xf.Data[i] = float32(v)
	}
	colsF := New(c*spec.KH*spec.KW, n*oh*ow)
	Im2ColBatch(colsF, xf, c, h, w, spec)
	colsQ := make([]uint8, c*spec.KH*spec.KW*n*oh*ow)
	Im2ColBatchU8(colsQ, xq, n, c, h, w, spec, zp)
	// Zero-pad taps in the float reference are exactly 0; in the u8
	// layout they carry zp. Everything else matches elementwise.
	for i := range colsQ {
		want := colsF.Data[i]
		got := float32(colsQ[i])
		if want == 0 {
			if colsQ[i] != zp && got != want {
				t.Fatalf("cell %d: got %d, want 0 (pad=%d) or a real zero", i, colsQ[i], zp)
			}
			continue
		}
		if got != want {
			t.Fatalf("cell %d: got %v want %v", i, got, want)
		}
	}
}

func TestMaxPool2DForwardU8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// 2×2/stride-2 hits the branch-free fast path (on both even and odd
	// inputs — OutDims never clips a 2-wide stride-2 window); 3×3/stride-2
	// exercises the general loop including clipped edge windows.
	for _, tc := range []struct {
		h, w int
		spec ConvSpec
	}{
		{8, 8, ConvSpec{KH: 2, KW: 2, Stride: 2}},
		{7, 9, ConvSpec{KH: 2, KW: 2, Stride: 2}},
		{8, 8, ConvSpec{KH: 3, KW: 3, Stride: 2}},
	} {
		const n, c = 2, 3
		h, w, spec := tc.h, tc.w, tc.spec
		oh, ow := spec.OutDims(h, w)
		xq := randUint8(rng, n*c*h*w)
		xf := New(n, c, h, w)
		for i, v := range xq {
			xf.Data[i] = float32(v)
		}
		yf, _ := MaxPool2DForward(xf, c, h, w, spec, false)
		yq := make([]uint8, n*c*oh*ow)
		MaxPool2DForwardU8(yq, xq, n, c, h, w, spec)
		for i := range yq {
			if float32(yq[i]) != yf.Data[i] {
				t.Fatalf("%dx%d %dx%d/s%d: cell %d got %d want %v",
					h, w, spec.KH, spec.KW, spec.Stride, i, yq[i], yf.Data[i])
			}
		}
	}
}
