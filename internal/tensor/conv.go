package tensor

import "fmt"

// ConvSpec describes a 2D convolution: kernel extent, stride, and
// symmetric zero padding. The same spec type is reused for pooling.
type ConvSpec struct {
	KH, KW int // kernel height and width
	Stride int // stride in both dimensions (>= 1)
	PadH   int // symmetric zero padding in the height dimension
	PadW   int // symmetric zero padding in the width dimension
}

// OutDims returns the output height and width for an input of h×w.
func (s ConvSpec) OutDims(h, w int) (oh, ow int) {
	oh = (h+2*s.PadH-s.KH)/s.Stride + 1
	ow = (w+2*s.PadW-s.KW)/s.Stride + 1
	return oh, ow
}

// Validate checks the spec against an input of h×w and returns a
// descriptive error for degenerate configurations.
func (s ConvSpec) Validate(h, w int) error {
	if s.KH <= 0 || s.KW <= 0 {
		return fmt.Errorf("tensor: non-positive kernel %dx%d", s.KH, s.KW)
	}
	if s.Stride <= 0 {
		return fmt.Errorf("tensor: non-positive stride %d", s.Stride)
	}
	if s.PadH < 0 || s.PadW < 0 {
		return fmt.Errorf("tensor: negative padding %dx%d", s.PadH, s.PadW)
	}
	oh, ow := s.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: conv of %dx%d input with kernel %dx%d stride %d pad %dx%d yields empty output",
			h, w, s.KH, s.KW, s.Stride, s.PadH, s.PadW)
	}
	return nil
}

// im2colInto expands one sample x [C,H,W] into column-matrix rows of
// length OH*OW written at row stride ld starting at dst[0]. With
// ld == OH*OW this is the classic dense [C*KH*KW, OH*OW] layout; the
// batched path passes ld == N*OH*OW so each sample fills its own column
// block of a shared matrix.
//
// "Same" geometry (stride 1, output extent equal to the input's — every
// conv layer of the 2D-CNN) takes im2colSameInto; everything else the
// scalar loop. Both only move data, so they produce the same bytes.
func im2colInto(dst []float32, ld int, x []float32, c, h, w int, spec ConvSpec) {
	if oh, ow := spec.OutDims(h, w); spec.Stride == 1 && oh == h && ow == w {
		im2colSameInto(dst, ld, x, c, h, w, spec)
		return
	}
	im2colScalarInto(dst, ld, x, c, h, w, spec)
}

// im2colSameInto is im2colInto for "same" geometry, the float32 port of
// im2colU8Into's fast path: source and destination share the row
// stride, so all valid output rows of a tap form ONE contiguous copy;
// the pad columns it fills with neighbouring values, and the pad rows
// it skips, are zeroed after.
func im2colSameInto(dst []float32, ld int, x []float32, c, h, w int, spec ConvSpec) {
	idx := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < spec.KH; ky++ {
			// Valid output rows: oyLo ≤ oy < oyHi keeps iy inside [0, h).
			// Padding wider than the image leaves none.
			oyLo := min(max(spec.PadH-ky, 0), h)
			oyHi := max(min(h-ky+spec.PadH, h), oyLo)
			for kx := 0; kx < spec.KW; kx++ {
				// Valid output columns, likewise.
				lo := min(max(spec.PadW-kx, 0), w)
				hi := max(min(w-kx+spec.PadW, w), lo)
				row := dst[idx*ld : idx*ld+h*w]
				idx++
				clear(row[:oyLo*w])
				clear(row[oyHi*w:])
				if oyLo == oyHi || lo == hi {
					clear(row[oyLo*w : oyHi*w])
					continue
				}
				src := base + (oyLo+ky-spec.PadH)*w + lo + kx - spec.PadW
				length := (oyHi-1-oyLo)*w + hi - lo
				copy(row[oyLo*w+lo:oyLo*w+lo+length], x[src:src+length])
				if lo > 0 || hi < w {
					for oy := oyLo; oy < oyHi; oy++ {
						clear(row[oy*w : oy*w+lo])
						clear(row[oy*w+hi : (oy+1)*w])
					}
				}
			}
		}
	}
}

// im2colScalarInto is im2colInto one element at a time: the path for
// strided and unpadded specs, and the reference the fast path is tested
// against.
func im2colScalarInto(dst []float32, ld int, x []float32, c, h, w int, spec ConvSpec) {
	oh, ow := spec.OutDims(h, w)
	idx := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < spec.KH; ky++ {
			for kx := 0; kx < spec.KW; kx++ {
				row := dst[idx*ld:]
				// ix = ox·Stride + kx − PadW lies in [0, w) for ox in
				// [lo, hi); the cells either side are padding.
				first := kx - spec.PadW
				lo := min(ow, max(0, (spec.Stride-1-first)/spec.Stride))
				hi := max(lo, min(ow, (w-1-first+spec.Stride)/spec.Stride))
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.Stride + ky - spec.PadH
					if iy < 0 || iy >= h {
						clear(row[di : di+ow])
						di += ow
						continue
					}
					out, src := row[di:di+ow], base+iy*w+first
					clear(out[:lo])
					for ox := lo; ox < hi; ox++ {
						out[ox] = x[src+ox*spec.Stride]
					}
					clear(out[hi:])
					di += ow
				}
				idx++
			}
		}
	}
}

// col2imFrom scatters column-matrix rows (length OH*OW, row stride ld,
// starting at src[0]) back into an input-shaped gradient dx [C,H,W],
// accumulating overlapping windows.
func col2imFrom(dx []float32, src []float32, ld int, c, h, w int, spec ConvSpec) {
	oh, ow := spec.OutDims(h, w)
	idx := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < spec.KH; ky++ {
			for kx := 0; kx < spec.KW; kx++ {
				row := src[idx*ld:]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.Stride + ky - spec.PadH
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					rowBase := base + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.Stride + kx - spec.PadW
						if ix >= 0 && ix < w {
							dx[rowBase+ix] += row[si]
						}
						si++
					}
				}
				idx++
			}
		}
	}
}

// Im2Col expands one sample x [C,H,W] into a column matrix
// [C*KH*KW, OH*OW] so a convolution becomes a single matrix multiply.
// cols must be pre-shaped; it is overwritten.
func Im2Col(cols, x *Tensor, c, h, w int, spec ConvSpec) {
	oh, ow := spec.OutDims(h, w)
	im2colInto(cols.Data, oh*ow, x.Data, c, h, w, spec)
}

// Col2Im scatters a column-matrix gradient [C*KH*KW, OH*OW] back into an
// input-shaped gradient dx [C,H,W], accumulating overlapping windows.
// dx must be zeroed by the caller if accumulation from a clean slate is
// desired.
func Col2Im(dx, cols *Tensor, c, h, w int, spec ConvSpec) {
	oh, ow := spec.OutDims(h, w)
	col2imFrom(dx.Data, cols.Data, oh*ow, c, h, w, spec)
}

// Im2ColBatch expands the whole batch x [N,C,H,W] into one shared column
// matrix cols [C*KH*KW, N*OH*OW] where sample i owns the column block
// [i*OH*OW, (i+1)*OH*OW). The fill is sample-parallel: workers write
// disjoint column ranges of every row.
func Im2ColBatch(cols, x *Tensor, c, h, w int, spec ConvSpec) {
	n := x.Shape[0]
	oh, ow := spec.OutDims(h, w)
	For(n, 1, im2colBatch{cols: cols.Data, x: x.Data, c: c, h: h, w: w, spec: spec, colW: oh * ow, ld: n * oh * ow})
}

// im2colBatch is one Im2ColBatch call.
type im2colBatch struct {
	cols, x           []float32
	c, h, w, colW, ld int
	spec              ConvSpec
}

// Run fills the column blocks of samples [lo, hi).
func (j im2colBatch) Run(lo, hi int) {
	img := j.c * j.h * j.w
	for i := lo; i < hi; i++ {
		im2colInto(j.cols[i*j.colW:], j.ld, j.x[i*img:(i+1)*img], j.c, j.h, j.w, j.spec)
	}
}

// Conv2DForward computes the train-mode forward of a batched 2D
// convolution.
//
//	x: [N, C, H, W], weights: [F, C*KH*KW], bias: [F] (may be nil)
//	returns y: [N, F, OH, OW] and the shared batch column matrix
//	[C*KH*KW, N*OH*OW] the backward pass needs.
//
// It is the training path of a strided conv (see ConvTrain) and the
// reference the stride-1 direct path is tested against. Inference, which
// needs no column matrix, runs Conv2DInfer instead. The whole batch runs
// as a single weights×cols GEMM over the shared column matrix rather
// than one small multiply per sample. The returned y and cols are
// default-arena check-outs owned by the caller; recycling them with Put
// when dead is optional but keeps steady-state training allocation-free.
func Conv2DForward(x, weights, bias *Tensor, c, h, w int, spec ConvSpec) (y, cols *Tensor) {
	ar := defaultArena
	n := x.Shape[0]
	f := weights.Shape[0]
	colRows := weights.Shape[1]
	oh, ow := spec.OutDims(h, w)
	colW := oh * ow

	cols = ar.Get(colRows, n*colW)
	Im2ColBatch(cols, x, c, h, w, spec)

	// yT[fi, i*colW+j] is the pre-permute output: one GEMM for the batch.
	yT := ar.Get(f, n*colW)
	gemm(yT.Data, n*colW, f, n*colW, colRows,
		gemmView{data: weights.Data, rs: colRows, cs: 1},
		gemmView{data: cols.Data, rs: n * colW, cs: 1},
		false)

	// Permute [F, N*OH*OW] → [N, F, OH, OW] and add bias, sample-parallel.
	y = ar.Get(n, f, oh, ow)
	For(n, 1, convScatter{y: y.Data, yT: yT.Data, bias: bias, f: f, colW: colW, ld: n * colW})
	ar.Put(yT)
	return y, cols
}

// convScatter copies samples' rows out of the pre-permute GEMM output
// yT [F, ld] into y's [i, F, OH*OW] blocks, adding bias when present.
type convScatter struct {
	y, yT       []float32
	bias        *Tensor
	f, colW, ld int
}

// Run scatters samples [lo, hi).
func (j convScatter) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		for fi := 0; fi < j.f; fi++ {
			src := j.yT[fi*j.ld+i*j.colW : fi*j.ld+(i+1)*j.colW]
			dst := j.y[(i*j.f+fi)*j.colW : (i*j.f+fi+1)*j.colW]
			if j.bias != nil {
				b := j.bias.Data[fi]
				for k, v := range src {
					dst[k] = v + b
				}
			} else {
				copy(dst, src)
			}
		}
	}
}

// Conv2DBackward computes gradients for a batched 2D convolution given
// the upstream gradient dy [N, F, OH, OW] and the shared column matrix
// saved by the forward pass. It accumulates into dW [F, C*KH*KW] and
// dB [F] (dB may be nil) and returns dx [N, C, H, W], a default-arena
// check-out owned by the caller. The gradient reduces to two GEMMs over
// the batch — dW += dyT·colsᵀ and dcols = Wᵀ·dyT — followed by a
// sample-parallel Col2Im scatter into dx. Both GEMMs keep the fixed
// per-cell ascending reduction order, and dB sums each filter's gradient
// in (sample, pixel) order, so all accumulation is bitwise deterministic
// for any worker count.
func Conv2DBackward(dy, weights, cols *Tensor, dW, dB *Tensor, c, h, w int, spec ConvSpec) (dx *Tensor) {
	return convBackwardCols(dy, weights, cols, dW, dB, c, h, w, spec, true)
}

// convBackwardCols is Conv2DBackward, skipping dcols and dx (returning
// nil) without wantDx.
func convBackwardCols(dy, weights, cols *Tensor, dW, dB *Tensor, c, h, w int, spec ConvSpec, wantDx bool) (dx *Tensor) {
	ar := defaultArena
	n := dy.Shape[0]
	f := weights.Shape[0]
	colRows := weights.Shape[1]
	oh, ow := spec.OutDims(h, w)
	colW := oh * ow

	// Permute dy [N, F, OH*OW] → dyT [F, N*OH*OW], matching the column
	// layout of cols. Sample-parallel: workers write disjoint column
	// blocks of every row.
	dyT := ar.Get(f, n*colW)
	For(n, 1, convGather{dyT: dyT.Data, dy: dy.Data, f: f, colW: colW, ld: n * colW})

	// dW += dyT · colsᵀ — one accumulating GEMM for the whole batch.
	gemm(dW.Data, colRows, f, colRows, n*colW,
		gemmView{data: dyT.Data, rs: n * colW, cs: 1},
		gemmView{data: cols.Data, rs: 1, cs: n * colW}, // colsᵀ
		true)

	// Filter counts are small, so the bias gradient stays serial.
	if dB != nil {
		biasGrad(dB.Data, dy.Data, n, f, colW)
	}
	if !wantDx {
		ar.Put(dyT)
		return nil
	}

	// dcols = Wᵀ · dyT, then scatter each sample's column block into dx.
	dcols := ar.Get(colRows, n*colW)
	gemm(dcols.Data, n*colW, colRows, n*colW, f,
		gemmView{data: weights.Data, rs: 1, cs: colRows}, // Wᵀ
		gemmView{data: dyT.Data, rs: n * colW, cs: 1},
		false)
	ar.Put(dyT)

	dx = ar.Get(n, c, h, w)
	dx.Zero()
	For(n, 1, col2imBatch{dx: dx.Data, dcols: dcols.Data, c: c, h: h, w: w, spec: spec, colW: colW, ld: n * colW})
	ar.Put(dcols)
	return dx
}

// convGather copies samples' [F, OH*OW] gradient blocks of dy into the
// column layout dyT [F, ld] matching the shared column matrix.
type convGather struct {
	dyT, dy     []float32
	f, colW, ld int
}

// Run gathers samples [lo, hi).
func (j convGather) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		for fi := 0; fi < j.f; fi++ {
			copy(j.dyT[fi*j.ld+i*j.colW:fi*j.ld+(i+1)*j.colW], j.dy[(i*j.f+fi)*j.colW:(i*j.f+fi+1)*j.colW])
		}
	}
}

// col2imBatch scatters the column blocks of a shared dcols
// [C*KH*KW, ld] into the samples of dx [N, C, H, W].
type col2imBatch struct {
	dx, dcols         []float32
	c, h, w, colW, ld int
	spec              ConvSpec
}

// Run scatters samples [lo, hi).
func (j col2imBatch) Run(lo, hi int) {
	img := j.c * j.h * j.w
	for i := lo; i < hi; i++ {
		col2imFrom(j.dx[i*img:(i+1)*img], j.dcols[i*j.colW:], j.ld, j.c, j.h, j.w, j.spec)
	}
}

// MaxPool2DForward applies max pooling to x [N, C, H, W] with the given
// window/stride spec (padding must be zero) and returns the pooled output
// [N, C, OH, OW] plus, when train is set, the flat argmax indices the
// backward pass needs (nil otherwise).
func MaxPool2DForward(x *Tensor, c, h, w int, spec ConvSpec, train bool) (y *Tensor, argmax []int32) {
	oh, ow := spec.OutDims(h, w)
	y = New(x.Shape[0], c, oh, ow)
	if train {
		argmax = make([]int32, y.Len())
	}
	MaxPool2DForwardInto(y, argmax, x, c, h, w, spec)
	return y, argmax
}

// MaxPool2DForwardInto is MaxPool2DForward into the caller's y
// [N, C, OH, OW] and, when non-nil, argmax (one entry per element of y),
// both overwritten.
func MaxPool2DForwardInto(y *Tensor, argmax []int32, x *Tensor, c, h, w int, spec ConvSpec) {
	if spec.PadH != 0 || spec.PadW != 0 {
		panic("tensor: MaxPool2DForward does not support padding")
	}
	For(x.Shape[0], 64, maxPoolSamples{y: y.Data, x: x.Data, argmax: argmax, c: c, h: h, w: w, spec: spec})
}

// maxPoolSamples is one MaxPool2DForwardInto call.
type maxPoolSamples struct {
	y, x    []float32
	argmax  []int32
	c, h, w int
	spec    ConvSpec
}

// Run pools the planes of samples [lo, hi).
func (j maxPoolSamples) Run(lo, hi int) {
	maxPoolPlanes(j.y, j.x, lo*j.c, hi*j.c, j.h, j.w, j.spec, j.argmax)
}

// maxPoolPlanes pools the [h, w] planes p0 ≤ p < p1 of src into the
// matching [oh, ow] planes of dst. Each window is scanned row by row
// and its first element, or a later one that compares greater, wins —
// the one order every caller (the pool layer in both modes, the fused
// conv epilogue) shares, so they agree bit for bit, NaNs included. A
// non-nil argmax records each winner's index into src.
func maxPoolPlanes(dst, src []float32, p0, p1, h, w int, spec ConvSpec, argmax []int32) {
	oh, ow := spec.OutDims(h, w)
	if argmax == nil && spec.KH == 2 && spec.KW == 2 && spec.Stride == 2 && 2*oh <= h && 2*ow <= w {
		// The ubiquitous 2×2/stride-2 window with no ragged edge: the
		// same four comparisons without the bounds tests — eight windows
		// a step in vector registers when a row's outputs come in eights.
		if oh > 0 && ow > 0 && ow%8 == 0 && useFMAKernel.Load() && avx2Available {
			for p := p0; p < p1; p++ {
				maxPool2x2x8(int64(oh), int64(ow), &src[p*h*w], int64(w), &dst[p*oh*ow])
			}
			return
		}
		for p := p0; p < p1; p++ {
			for oy := 0; oy < oh; oy++ {
				r0 := src[p*h*w+2*oy*w : p*h*w+2*oy*w+2*ow]
				r1 := src[p*h*w+(2*oy+1)*w : p*h*w+(2*oy+1)*w+2*ow]
				out := dst[p*oh*ow+oy*ow : p*oh*ow+(oy+1)*ow]
				for ox := range out {
					best := r0[2*ox]
					if v := r0[2*ox+1]; v > best {
						best = v
					}
					if v := r1[2*ox]; v > best {
						best = v
					}
					if v := r1[2*ox+1]; v > best {
						best = v
					}
					out[ox] = best
				}
			}
		}
		return
	}
	for p := p0; p < p1; p++ {
		inBase := p * h * w
		outBase := p * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(0)
				bestIdx := -1
				for ky := 0; ky < spec.KH; ky++ {
					iy := oy*spec.Stride + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < spec.KW; kx++ {
						ix := ox*spec.Stride + kx
						if ix >= w {
							break
						}
						idx := inBase + iy*w + ix
						if bestIdx < 0 || src[idx] > best {
							best, bestIdx = src[idx], idx
						}
					}
				}
				o := outBase + oy*ow + ox
				dst[o] = best
				if argmax != nil {
					argmax[o] = int32(bestIdx)
				}
			}
		}
	}
}

// MaxPool2DBackward routes the upstream gradient dy through the argmax
// indices recorded by the forward pass, returning dx with the input
// shape. The scatter is sample-parallel: sample i's argmax indices all
// fall inside its own dx block [i*C*H*W, (i+1)*C*H*W), so workers own
// disjoint dx regions.
func MaxPool2DBackward(dy *Tensor, argmax []int32, n, c, h, w int) *Tensor {
	dx := New(n, c, h, w)
	MaxPool2DBackwardInto(dx, dy, argmax)
	return dx
}

// MaxPool2DBackwardInto is MaxPool2DBackward into the caller's dx
// [N, C, H, W], overwritten.
func MaxPool2DBackwardInto(dx, dy *Tensor, argmax []int32) {
	For(dx.Shape[0], 1, maxPoolScatter{dx: dx.Data, dy: dy.Data, argmax: argmax, n: dx.Shape[0]})
}

// maxPoolScatter is one MaxPool2DBackwardInto call.
type maxPoolScatter struct {
	dx, dy []float32
	argmax []int32
	n      int
}

// Run writes samples [lo, hi) of the n in dx: zero, then each of their
// gradients in dy added at its winner's index — which lies in the same
// sample, so workers own disjoint blocks of dx.
func (j maxPoolScatter) Run(lo, hi int) {
	in, out := len(j.dx)/max(j.n, 1), len(j.dy)/max(j.n, 1)
	clear(j.dx[lo*in : hi*in])
	for o := lo * out; o < hi*out; o++ {
		j.dx[j.argmax[o]] += j.dy[o]
	}
}
