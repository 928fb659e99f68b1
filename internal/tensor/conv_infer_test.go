package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// layerwiseRef is the layer-by-layer path Conv2DInfer must reproduce bit
// for bit, built from the pieces with the least shared code: a column
// matrix from the scalar im2col, the reference fma32 chain, `+ bias`,
// the ReLU layer's test, and the train-mode pool (the general window
// loop, never the 2×2 fast path).
func layerwiseRef(x, wt, bias *Tensor, c, h, w int, spec ConvSpec, relu bool, pool *ConvSpec) *Tensor {
	n, f, k := x.Shape[0], wt.Shape[0], wt.Shape[1]
	oh, ow := spec.OutDims(h, w)
	colW := oh * ow
	y := New(n, f, oh, ow)
	cols := New(k, colW)
	for i := 0; i < n; i++ {
		im2colScalarInto(cols.Data, colW, x.Data[i*c*h*w:(i+1)*c*h*w], c, h, w, spec)
		prod := gemmRef(f, colW, k,
			func(r, p int) float32 { return wt.Data[r*k+p] },
			func(p, j int) float32 { return cols.Data[p*colW+j] }, nil)
		for fi := 0; fi < f; fi++ {
			for j := 0; j < colW; j++ {
				v := prod.Data[fi*colW+j]
				if bias != nil {
					v += bias.Data[fi]
				}
				if relu && v <= 0 {
					v = 0
				}
				y.Data[(i*f+fi)*colW+j] = v
			}
		}
	}
	if pool != nil {
		y, _ = MaxPool2DForward(y, f, oh, ow, *pool, true)
	}
	return y
}

// TestConv2DInferBitwiseMatchesLayerwise is the fused forward's identity
// proof: over a ragged table of geometries, batch sizes on both sides of
// the worker count, every worker count and both micro-kernels, the
// implicit-GEMM conv with its bias/ReLU/pool epilogue returns the bytes
// of the layer-by-layer path — and of the train-mode conv forward.
func TestConv2DInferBitwiseMatchesLayerwise(t *testing.T) {
	same3 := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	pool2 := &ConvSpec{KH: 2, KW: 2, Stride: 2}
	cases := []struct {
		name    string
		c, h, w int
		f       int
		spec    ConvSpec
		relu    bool
		pool    *ConvSpec
		noBias  bool
	}{
		{name: "fastconfig-conv1", c: 4, h: 32, w: 32, f: 4, spec: same3, relu: true, pool: pool2},
		{name: "fastconfig-conv3", c: 6, h: 16, w: 16, f: 8, spec: same3, relu: true},
		{name: "odd-extent-pool", c: 5, h: 17, w: 23, f: 6, spec: same3, relu: true, pool: pool2},
		{name: "one-filter-one-channel", c: 1, h: 17, w: 23, f: 1, spec: same3, relu: true},
		{name: "no-relu", c: 4, h: 9, w: 20, f: 3, spec: same3},
		{name: "pool-no-relu", c: 4, h: 9, w: 20, f: 3, spec: same3, pool: pool2},
		{name: "no-bias", c: 1, h: 8, w: 8, f: 4, spec: same3, relu: true, pool: pool2, noBias: true},
		{name: "narrow-rows", c: 4, h: 12, w: 5, f: 13, spec: same3, relu: true, pool: pool2},
		{name: "stride2", c: 5, h: 17, w: 23, f: 6, spec: ConvSpec{KH: 3, KW: 3, Stride: 2, PadH: 1, PadW: 1}, relu: true},
		{name: "no-padding", c: 4, h: 17, w: 23, f: 13, spec: ConvSpec{KH: 3, KW: 3, Stride: 1}, relu: true, pool: pool2},
		{name: "wide-padding", c: 1, h: 6, w: 5, f: 3, spec: ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 2, PadW: 1}, relu: true},
		{name: "conv1d-1x5-s2", c: 4, h: 1, w: 200, f: 4, spec: ConvSpec{KH: 1, KW: 5, Stride: 2, PadW: 2}, relu: true},
		{name: "conv1d-1x9-same", c: 1, h: 1, w: 70, f: 3, spec: ConvSpec{KH: 1, KW: 9, Stride: 1, PadW: 4}, relu: true},
		{name: "k-crosses-KC", c: 30, h: 7, w: 9, f: 6, spec: same3, relu: true},
		{name: "cols-cross-NC", c: 1, h: 24, w: 24, f: 4, spec: same3, relu: true, pool: pool2},
		{name: "overlapping-pool", c: 4, h: 11, w: 13, f: 3, spec: same3, relu: true, pool: &ConvSpec{KH: 3, KW: 3, Stride: 2}},
		// The direct convolution's own edges: a row that is exactly one
		// strip, one whose second strip is a single lane (its other 15
		// read the next row or, on the last row, the plane's slack),
		// unequal paddings, a 5×5 kernel, a ragged filter strip, K past
		// KC over full strips, and a batch large enough to fan out.
		{name: "ow-16", c: 3, h: 5, w: 16, f: 4, spec: same3, relu: true},
		{name: "ow-17", c: 3, h: 5, w: 17, f: 4, spec: same3, relu: true, pool: pool2},
		{name: "pad-h0-w2", c: 3, h: 10, w: 18, f: 4, spec: ConvSpec{KH: 3, KW: 3, Stride: 1, PadW: 2}, relu: true, pool: pool2},
		{name: "same-5x5", c: 2, h: 9, w: 19, f: 5, spec: ConvSpec{KH: 5, KW: 5, Stride: 1, PadH: 2, PadW: 2}, relu: true},
		{name: "five-filters", c: 4, h: 6, w: 32, f: 5, spec: same3, relu: true, pool: pool2},
		{name: "k-past-KC-full-strips", c: 30, h: 4, w: 33, f: 5, spec: same3, relu: true},
		{name: "fans-out", c: 8, h: 32, w: 32, f: 8, spec: same3, relu: true, pool: pool2},
	}
	defer SetMaxWorkers(SetMaxWorkers(1))
	asm := useFMAKernel.Load()
	defer useFMAKernel.Store(asm)
	kernels := []bool{false}
	if asm {
		kernels = append(kernels, true)
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		for _, n := range []int{1, 3, 9} {
			x := randTensor(rng, n, tc.c, tc.h, tc.w)
			wt := randTensor(rng, tc.f, tc.c*tc.spec.KH*tc.spec.KW)
			var bias *Tensor
			if !tc.noBias {
				bias = randTensor(rng, tc.f)
			}
			want := layerwiseRef(x, wt, bias, tc.c, tc.h, tc.w, tc.spec, tc.relu, tc.pool)
			for _, fma := range kernels {
				useFMAKernel.Store(fma)
				for _, workers := range []int{1, 2, 4, 8} {
					SetMaxWorkers(workers)
					label := fmt.Sprintf("%s n=%d workers=%d fma=%v", tc.name, n, workers, fma)
					got := Conv2DInfer(x, wt, bias, tc.c, tc.h, tc.w, tc.spec, tc.relu, tc.pool)
					if !got.SameShape(want) {
						t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
					}
					requireBitwise(t, label, got, want)
					if !tc.relu && tc.pool == nil {
						train, cols := Conv2DForward(x, wt, bias, tc.c, tc.h, tc.w, tc.spec)
						requireBitwise(t, label+" vs train-mode forward", got, train)
						defaultArena.Put(cols)
						defaultArena.Put(train)
					}
				}
			}
		}
	}
}

// TestConv2DInferSpecialValues pins the epilogue's treatment of the
// values where `v <= 0 → 0` and a float max differ from the obvious
// shortcuts: −0 becomes +0, NaN passes the ReLU, and a NaN wins a pool
// window only from its first cell, exactly as the separate layers do.
func TestConv2DInferSpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	// A 1×1 identity conv passes x straight to the epilogue.
	x := FromSlice([]float32{
		nan, 1, -1, negZero,
		2, 3, -2, -3,
		1, nan, 5, nan,
		4, 2, nan, 7,
	}, 1, 1, 4, 4)
	wt := FromSlice([]float32{1}, 1, 1)
	id := ConvSpec{KH: 1, KW: 1, Stride: 1}
	pool := &ConvSpec{KH: 2, KW: 2, Stride: 2}
	for _, relu := range []bool{false, true} {
		want := layerwiseRef(x, wt, nil, 1, 4, 4, id, relu, pool)
		requireBitwise(t, fmt.Sprintf("special values relu=%v", relu), Conv2DInfer(x, wt, nil, 1, 4, 4, id, relu, pool), want)
	}
	// A non-finite weight on a tap that falls in the padding: the zero
	// there is multiplied, not skipped, so Inf·0 turns the border cells
	// NaN exactly where the column-matrix path does.
	same3 := ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	asm := useFMAKernel.Load()
	defer useFMAKernel.Store(asm)
	finite := New(1, 1, 4, 4)
	for i := range finite.Data {
		finite.Data[i] = float32(i + 1)
	}
	for _, bad := range []float32{float32(math.Inf(1)), nan} {
		w3 := FromSlice([]float32{bad, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2, 9)
		want := layerwiseRef(finite, w3, nil, 1, 4, 4, same3, true, nil)
		if v := want.Data[0]; v == v {
			t.Fatalf("weight %v on a padded tap left the corner cell %v; the case proves nothing", bad, v)
		}
		for _, fma := range []bool{false, asm} {
			useFMAKernel.Store(fma)
			requireBitwise(t, fmt.Sprintf("weight %v on a padded tap, fma=%v", bad, fma),
				Conv2DInfer(finite, w3, nil, 1, 4, 4, same3, true, nil), want)
		}
	}
	useFMAKernel.Store(asm)
	got := Conv2DInfer(x, wt, nil, 1, 4, 4, id, true, nil)
	if bits := math.Float32bits(got.Data[3]); bits != 0 {
		t.Fatalf("relu(-0) has bits %08x, want +0", bits)
	}
	if v := got.Data[0]; v == v {
		t.Fatalf("relu(NaN) = %v, want NaN", v)
	}
}

// TestConv2DInferReturnsScratch pins the arena half of the inference
// contract: the output is the one check-out a call leaves behind —
// Outstanding rises by exactly one per Infer and falls back when the
// caller returns it — and every scratch buffer (a strided conv's column
// matrix included) is back before the call returns, so Outstanding stays
// flat in a process that only serves.
func TestConv2DInferReturnsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randTensor(rng, 3, 4, 16, 16)
	wt := randTensor(rng, 6, 36)
	for _, stride := range []int{1, 2} {
		spec := ConvSpec{KH: 3, KW: 3, Stride: stride, PadH: 1, PadW: 1}
		for _, workers := range []int{1, 2, 8} {
			prev := SetMaxWorkers(workers)
			before := defaultArena.Outstanding()
			var outs []*Tensor
			for i := 0; i < 5; i++ {
				outs = append(outs,
					Conv2DInfer(x, wt, nil, 4, 16, 16, spec, true, &ConvSpec{KH: 2, KW: 2, Stride: 2}),
					Conv2DInfer(x, wt, nil, 4, 16, 16, spec, true, nil))
				if got := defaultArena.Outstanding(); got != before+len(outs) {
					t.Fatalf("stride=%d workers=%d: Outstanding went %d → %d over %d inference forwards, want one check-out each", stride, workers, before, got, len(outs))
				}
			}
			SetMaxWorkers(prev)
			for _, out := range outs {
				defaultArena.Put(out)
			}
			if got := defaultArena.Outstanding(); got != before {
				t.Fatalf("stride=%d workers=%d: Outstanding went %d → %d once the outputs were returned", stride, workers, before, got)
			}
		}
	}
}

// TestIm2ColSameMatchesScalar checks the "same"-geometry copy path of
// im2colInto against the scalar loop it replaces, in a shared batch
// matrix (ld > OH·OW) whose untouched columns must stay untouched.
func TestIm2ColSameMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct {
		h, w int
		spec ConvSpec
	}{
		{8, 8, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
		{17, 23, ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}},
		{9, 7, ConvSpec{KH: 5, KW: 5, Stride: 1, PadH: 2, PadW: 2}},
		{1, 40, ConvSpec{KH: 1, KW: 5, Stride: 1, PadW: 2}},
		{3, 2, ConvSpec{KH: 7, KW: 5, Stride: 1, PadH: 3, PadW: 2}}, // kernel larger than the image
		{1, 4, ConvSpec{KH: 5, KW: 1, Stride: 1, PadH: 2}},          // padding wider than the image
		{5, 5, ConvSpec{KH: 1, KW: 1, Stride: 1}},
	}
	const c, ldPad = 3, 11
	for _, tc := range cases {
		oh, ow := tc.spec.OutDims(tc.h, tc.w)
		if oh != tc.h || ow != tc.w {
			t.Fatalf("case %+v is not same geometry", tc)
		}
		x := randTensor(rng, c, tc.h, tc.w)
		ld := oh*ow + ldPad
		rows := c * tc.spec.KH * tc.spec.KW
		got, want := New(rows, ld).Fill(9), New(rows, ld).Fill(9)
		im2colInto(got.Data, ld, x.Data, c, tc.h, tc.w, tc.spec)
		im2colScalarInto(want.Data, ld, x.Data, c, tc.h, tc.w, tc.spec)
		requireBitwise(t, fmt.Sprintf("im2col %dx%d %+v", tc.h, tc.w, tc.spec), got, want)
	}
}

// TestMaxPool2DForwardInferenceSkipsArgmax: the inference pool returns
// no argmax table and the bytes of the train-mode pool, on the 2×2 fast
// path and on ragged extents.
func TestMaxPool2DForwardInferenceSkipsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, tc := range []struct {
		h, w int
		spec ConvSpec
	}{
		{8, 8, ConvSpec{KH: 2, KW: 2, Stride: 2}},
		{9, 7, ConvSpec{KH: 2, KW: 2, Stride: 2}},
		{9, 7, ConvSpec{KH: 3, KW: 3, Stride: 2}},
		{6, 6, ConvSpec{KH: 2, KW: 2, Stride: 1}},
	} {
		x := randTensor(rng, 3, 2, tc.h, tc.w)
		x.Data[5] = float32(math.NaN())
		want, argmax := MaxPool2DForward(x, 2, tc.h, tc.w, tc.spec, true)
		if len(argmax) != want.Len() {
			t.Fatalf("train-mode pool returned %d argmax entries for %d outputs", len(argmax), want.Len())
		}
		got, none := MaxPool2DForward(x, 2, tc.h, tc.w, tc.spec, false)
		if none != nil {
			t.Fatalf("inference pool built an argmax table of %d entries", len(none))
		}
		requireBitwise(t, fmt.Sprintf("pool %dx%d %+v", tc.h, tc.w, tc.spec), got, want)
	}
}

// TestMatMulPackedBBitwiseMatchesMatMul: the row kernel changes how W
// is read — in place, 64 columns a pass, the tail columns through the
// tile — never a cell's reduction chain, over batch sizes around the
// micro-tile height, k crossing KC, n crossing NR, the row kernel's 64
// and NC, every worker count and both micro-kernels.
func TestMatMulPackedBBitwiseMatchesMatMul(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	asm := useFMAKernel.Load()
	defer useFMAKernel.Store(asm)
	kernels := []bool{false}
	if asm {
		kernels = append(kernels, true)
	}
	rng := rand.New(rand.NewSource(45))
	for _, kn := range []struct{ k, n int }{
		{1, 1}, {7, 15}, {64, 16}, {255, 17}, {256, 128}, {257, 33}, {3072, 128}, {300, 513}, {40, 1100},
		// Around the one-row kernel's 64-column pass: exactly one, one
		// plus a tile strip, and the runtime head's 960 logits.
		{300, 64}, {257, 80}, {260, 960},
	} {
		b := randTensor(rng, kn.k, kn.n)
		packed := PackB(b)
		if k, n := packed.Dims(); k != kn.k || n != kn.n {
			t.Fatalf("Dims = %dx%d, want %dx%d", k, n, kn.k, kn.n)
		}
		for _, m := range []int{1, 2, 3, 4, 5, 32, 65} {
			a := randTensor(rng, m, kn.k)
			SetMaxWorkers(1)
			useFMAKernel.Store(asm)
			want := MatMul(nil, a, b)
			for _, fma := range kernels {
				useFMAKernel.Store(fma)
				for _, workers := range []int{1, 2, 4, 8} {
					SetMaxWorkers(workers)
					got := MatMulPackedB(nil, a, packed)
					requireBitwise(t, fmt.Sprintf("m=%d k=%d n=%d workers=%d fma=%v", m, kn.k, kn.n, workers, fma), got, want)
				}
			}
		}
	}
}
