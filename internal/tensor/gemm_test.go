package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fma32 is the reference fused multiply-add: exact for float32 operands
// because the float64 product is exact and the final rounding is the
// only rounding that matters (see gemm.go).
func fma32(a, b, c float32) float32 {
	return float32(float64(a)*float64(b) + float64(c))
}

// gemmRef computes the reference product with the exact reduction order
// the blocked kernel guarantees: one accumulator per cell, ascending p,
// one fma32 per step. seed provides initial accumulator values for the
// accumulate variants (nil means zero).
func gemmRef(m, n, k int, at func(i, p int) float32, bt func(p, j int) float32, seed *Tensor) *Tensor {
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			if seed != nil {
				acc = seed.Data[i*n+j]
			}
			for p := 0; p < k; p++ {
				acc = fma32(at(i, p), bt(p, j), acc)
			}
			out.Data[i*n+j] = acc
		}
	}
	return out
}

func randTensor(rng *rand.Rand, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func requireBitwise(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d != %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: got %v (bits %08x) want %v (bits %08x)",
				label, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// gemmTestShapes exercises ragged sizes around every blocking boundary:
// the 4×16 micro-tile, the KC=256 panel depth, and sizes well below and
// above each.
var gemmTestShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 3, 2},
	{3, 15, 7},
	{4, 16, 8},
	{5, 17, 9},
	{3, 16, 256},
	{4, 17, 257},
	{15, 31, 63},
	{16, 32, 64},
	{17, 33, 1},
	{33, 5, 300},
	{64, 48, 100},
	{129, 130, 19},
}

func TestMatMulBitwiseMatchesFMAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmTestShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		want := gemmRef(s.m, s.n, s.k,
			func(i, p int) float32 { return a.Data[i*s.k+p] },
			func(p, j int) float32 { return b.Data[p*s.n+j] }, nil)
		got := MatMul(nil, a, b)
		requireBitwise(t, "MatMul", got, want)
	}
}

func TestMatMulTransABitwiseMatchesFMAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range gemmTestShapes {
		a := randTensor(rng, s.k, s.m) // Aᵀ operand layout
		b := randTensor(rng, s.k, s.n)
		want := gemmRef(s.m, s.n, s.k,
			func(i, p int) float32 { return a.Data[p*s.m+i] },
			func(p, j int) float32 { return b.Data[p*s.n+j] }, nil)
		got := MatMulTransA(nil, a, b)
		requireBitwise(t, "MatMulTransA", got, want)

		// Accumulate form seeds the chain with the existing destination.
		dst := randTensor(rng, s.m, s.n)
		wantAcc := gemmRef(s.m, s.n, s.k,
			func(i, p int) float32 { return a.Data[p*s.m+i] },
			func(p, j int) float32 { return b.Data[p*s.n+j] }, dst)
		MatMulTransAAcc(dst, a, b)
		requireBitwise(t, "MatMulTransAAcc", dst, wantAcc)
	}
}

func TestMatMulTransBBitwiseMatchesFMAReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range gemmTestShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.n, s.k) // Bᵀ operand layout
		want := gemmRef(s.m, s.n, s.k,
			func(i, p int) float32 { return a.Data[i*s.k+p] },
			func(p, j int) float32 { return b.Data[j*s.k+p] }, nil)
		got := MatMulTransB(nil, a, b)
		requireBitwise(t, "MatMulTransB", got, want)
	}
}

// TestMatMulCloseToFloat64Naive is the accuracy (as opposed to
// bit-exactness) check: the fixed-order float32 FMA chain must stay near
// a float64 triple-loop reference.
func TestMatMulCloseToFloat64Naive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range gemmTestShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		got := MatMul(nil, a, b)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				var acc float64
				for p := 0; p < s.k; p++ {
					acc += float64(a.Data[i*s.k+p]) * float64(b.Data[p*s.n+j])
				}
				if diff := math.Abs(float64(got.Data[i*s.n+j]) - acc); diff > 1e-3*(1+math.Abs(acc)) {
					t.Fatalf("shape %dx%dx%d cell (%d,%d): got %v want %v", s.m, s.n, s.k, i, j, got.Data[i*s.n+j], acc)
				}
			}
		}
	}
}

// TestGEMMWorkerInvariance sweeps worker counts and demands identical
// bytes: the contract the PR 2 determinism suite builds on.
func TestGEMMWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Large enough to cross the parallel threshold and several block
	// boundaries, ragged so edge tiles land mid-stripe.
	const m, n, k = 130, 93, 301
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	bT := randTensor(rng, n, k)
	aT := randTensor(rng, k, m)

	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	base := MatMul(nil, a, b)
	baseTA := MatMulTransA(nil, aT, b)
	baseTB := MatMulTransB(nil, a, bT)
	for _, workers := range []int{2, 4, 8} {
		SetMaxWorkers(workers)
		requireBitwise(t, "MatMul workers", MatMul(nil, a, b), base)
		requireBitwise(t, "MatMulTransA workers", MatMulTransA(nil, aT, b), baseTA)
		requireBitwise(t, "MatMulTransB workers", MatMulTransB(nil, a, bT), baseTB)
	}
}

// TestGEMMGenericMatchesAsmKernel proves the pure-Go micro-kernel and the
// assembly FMA kernel produce identical bytes, so determinism holds
// across platforms, not just across worker counts.
func TestGEMMGenericMatchesAsmKernel(t *testing.T) {
	if !useFMAKernel.Load() {
		t.Skip("FMA kernel not available on this CPU")
	}
	rng := rand.New(rand.NewSource(12))
	for _, s := range gemmTestShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		asm := MatMul(nil, a, b)
		useFMAKernel.Store(false)
		gen := MatMul(nil, a, b)
		useFMAKernel.Store(true)
		requireBitwise(t, "generic vs asm", gen, asm)
	}
}

func TestMatMulZeroInnerDimension(t *testing.T) {
	a := New(3, 0)
	b := New(0, 4)
	dst := New(3, 4)
	for i := range dst.Data {
		dst.Data[i] = 5
	}
	MatMul(dst, a, b)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("k=0 product must zero dst, element %d = %v", i, v)
		}
	}
}

func TestConv2DForwardWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, c, h, w, f = 5, 3, 13, 11, 7
	spec := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := randTensor(rng, n, c, h, w)
	wt := randTensor(rng, f, c*spec.KH*spec.KW)
	bias := randTensor(rng, f)

	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	base, _ := Conv2DForward(x, wt, bias, c, h, w, spec)
	for _, workers := range []int{2, 4, 8} {
		SetMaxWorkers(workers)
		got, _ := Conv2DForward(x, wt, bias, c, h, w, spec)
		requireBitwise(t, "Conv2DForward workers", got, base)
	}
}
