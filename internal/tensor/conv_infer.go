package tensor

import (
	"math"
	"math/bits"
)

// Inference conv forward: an implicit GEMM with a fused epilogue.
//
// Conv2DForwardArena runs a conv as five passes over memory — im2col
// writes the [C·KH·KW, N·OH·OW] column matrix, the GEMM's B packer
// re-reads it, the GEMM writes a [F, N·OH·OW] product, a scatter permutes
// that to [N,F,OH,OW] adding bias — and the layer stack adds a ReLU pass
// and a pool pass. Training needs the column matrix for backward;
// inference needs none of it. Conv2DInfer runs one GEMM per sample whose
// right operand is the *implicit* column matrix of that sample's image:
// the B packer (convGeom.packPanel) fills its NR-wide strips straight
// from the image, the micro-kernel stores into the sample's [F, OH·OW]
// plane at row stride OH·OW — already the final layout — and bias, ReLU
// and the following max-pool run over that plane while it is still in
// cache.
//
// Bitwise neutrality. The strips hold exactly the values im2col would
// have written, so each output cell is the same ascending-k fma32 chain
// from zero as in the column-matrix path (gemm.go: tiling and striping
// never change a cell's chain). The epilogue then applies, per cell and
// in this order, `+ bias` (one float32 add, as convScatterOut), `v <= 0
// → 0` (the ReLU layer's test, so −0 becomes +0 and NaN passes), and the
// window maximum in maxPoolPlanes' scan order — the operations of the
// layer-by-layer path in the order the layers apply them.

// inferParallelMin is the multiply-add count a worker must be handed
// before fan-out pays on the inference path. A batch-1 forward is a
// chain of GEMMs of 10⁵ multiply-adds — tens of microseconds each,
// about what waking a second thread costs — so gemmParallelMin, sized
// for training batches, makes a lone request slower on two cores than
// on one.
const inferParallelMin = 1 << 20

// convGeom is the geometry of one conv layer's input and output; as a
// gemmView's conv it makes the view's data, one [C,H,W] image, stand for
// that image's [C·KH·KW, OH·OW] column matrix.
type convGeom struct {
	c, h, w int
	spec    ConvSpec
	oh, ow  int
}

// convStrip is the per-strip set-up of the implicit-im2col packers, one
// for float32 images and one for u8: for a strip of NR consecutive output
// pixels, each lane's offset into a channel plane and the lanes for
// which a kernel row / kernel column stays inside the image. It is worked
// out once per strip and shared by every channel and tap. The lane masks
// are uint16: one bit per lane of an NR = 16 strip.
type convStrip struct {
	off    [gemmNR]int // lane's tap-(0,0) offset within a channel plane; may be negative
	rowOK  []uint16    // per kernel row: the lanes it keeps inside the image
	colOK  []uint16    // per kernel column, likewise
	contig bool        // the lanes are consecutive image cells
}

// laneMasks returns n lane masks: buf's first n (a packer's stack array,
// enough for kernels up to 8×8) or, for a larger kernel, a fresh slice.
func laneMasks(buf []uint16, n int) []uint16 {
	if n > len(buf) {
		return make([]uint16, n)
	}
	return buf[:n]
}

// set describes the strip of lanes output pixels starting at column j of
// g's column matrix (output pixel (j/OW, j%OW)). Lanes past lanes keep
// clear mask bits, so they read as padding.
func (s *convStrip) set(g *convGeom, j, lanes int) {
	kh, kw, stride := g.spec.KH, g.spec.KW, g.spec.Stride
	clear(s.rowOK)
	clear(s.colOK)
	s.contig = true
	oy, ox := j/g.ow, j%g.ow
	for l := 0; l < lanes; l++ {
		iy0 := oy*stride - g.spec.PadH
		ix0 := ox*stride - g.spec.PadW
		s.off[l] = iy0*g.w + ix0
		s.contig = s.contig && s.off[l] == s.off[0]+l
		for ky := max(0, -iy0); ky < min(kh, g.h-iy0); ky++ {
			s.rowOK[ky] |= 1 << l
		}
		for kx := max(0, -ix0); kx < min(kw, g.w-ix0); kx++ {
			s.colOK[kx] |= 1 << l
		}
		if ox++; ox == g.ow {
			ox, oy = 0, oy+1
		}
	}
}

// packPanel packs rows [p0, p0+kc) × columns [j0, j0+nc) of image x's
// implicit column matrix into NR-wide strips, packBPanel's layout. Row p
// is tap (ch, ky, kx) = (p/(KH·KW), p/KW%KH, p%KW); column j is output
// pixel (j/OW, j%OW); taps that fall in the padding are zero.
//
// When the lanes of a strip (convStrip) are consecutive in the image
// (stride 1, no row break that moves the source, which "same" padding
// guarantees for every strip) a tap is one copy of the strip's 16 image
// cells — of its valid run only, where the 16 would reach past the
// image — plus zero stores for the lanes in the padding or past the
// panel edge; otherwise it is a per-lane gather.
func (g *convGeom) packPanel(dst, x []float32, p0, j0, kc, nc int) {
	kh, kw := g.spec.KH, g.spec.KW
	taps := kh * kw
	var rowBuf, colBuf [8]uint16
	strip := convStrip{rowOK: laneMasks(rowBuf[:], kh), colOK: laneMasks(colBuf[:], kw)}
	off, rowOK, colOK := &strip.off, strip.rowOK, strip.colOK

	idx := 0
	for sj := 0; sj < nc; sj += gemmNR {
		strip.set(g, j0+sj, min(gemmNR, nc-sj))
		contig := strip.contig
		ch, t := p0/taps, p0%taps
		ky, kx := t/kw, t%kw
		for p := 0; p < kc; p++ {
			d := dst[idx : idx+gemmNR]
			idx += gemmNR
			valid := rowOK[ky] & colOK[kx]
			tap := ch*g.h*g.w + ky*g.w + kx
			switch {
			case valid == 0:
				clear(d)
			case contig:
				// The strip is 16 consecutive image cells starting at
				// src. Where that window lies inside the image, take
				// all of it — the lanes in the padding get neighbouring
				// cells — otherwise the valid run, which does (its two
				// ends are in range); then zero the padding lanes.
				if src := tap + off[0]; src >= 0 && src+gemmNR <= len(x) {
					*(*[gemmNR]float32)(d) = *(*[gemmNR]float32)(x[src : src+gemmNR])
				} else {
					lo, hi := bits.TrailingZeros16(valid), 16-bits.LeadingZeros16(valid)
					copy(d[lo:hi], x[src+lo:src+hi])
				}
				for z := ^valid; z != 0; z &= z - 1 {
					d[bits.TrailingZeros16(z)] = 0
				}
			default:
				for l := range d {
					if valid>>l&1 != 0 {
						d[l] = x[tap+off[l]]
					} else {
						d[l] = 0
					}
				}
			}
			if kx++; kx == kw {
				kx = 0
				if ky++; ky == kh {
					ky = 0
					ch++
				}
			}
		}
	}
}

// Conv2DInfer computes the inference forward of a conv layer and the
// ReLU and max-pool that follow it, in one pass per sample (see the
// file comment):
//
//	x: [N, C, H, W], weights: [F, C*KH*KW], bias: [F] (may be nil)
//	returns pool(relu(conv(x)+bias)): [N, F, OH, OW], or
//	[N, F, OH', OW'] with pool, whose padding must be zero
//
// relu false and pool nil skip the respective stage. The result is a
// fresh tensor the caller owns, bitwise identical to Conv2DForwardArena
// followed by the separate ReLU and MaxPool2DForward passes, for any
// worker count and with or without the assembly kernel. Scratch comes
// from the default arena and is returned before the call ends.
func Conv2DInfer(x, weights, bias *Tensor, c, h, w int, spec ConvSpec, relu bool, pool *ConvSpec) *Tensor {
	n := x.Shape[0]
	f := weights.Shape[0]
	k := weights.Shape[1]
	oh, ow := spec.OutDims(h, w)
	poh, pow := oh, ow
	if pool != nil {
		if pool.PadH != 0 || pool.PadW != 0 {
			panic("tensor: Conv2DInfer does not support pool padding")
		}
		poh, pow = pool.OutDims(oh, ow)
	}
	out := New(n, f, poh, pow)
	job := convInfer{
		x: x.Data, out: out.Data,
		weights: gemmView{data: weights.Data, rs: k, cs: 1},
		bias:    bias, relu: relu, pool: pool,
		geom: convGeom{c: c, h: h, w: w, spec: spec, oh: oh, ow: ow},
		f:    f, k: k, outLen: f * poh * pow,
	}
	// Workers take whole samples, and only when each gets enough of them
	// to pay for the fan-out; a sample's plane is never split. The
	// inline case — every batch-1 forward — calls samples directly: a
	// func value handed to ParallelForMin would put job on the heap.
	minChunk := (inferParallelMin + f*k*oh*ow - 1) / (f * k * oh * ow)
	if MaxWorkers() == 1 || n < 2*minChunk {
		job.samples(0, n)
		return out
	}
	shared := job
	ParallelForMin(n, minChunk, shared.samples)
	return out
}

// convInfer is one Conv2DInfer call: what every sample shares.
type convInfer struct {
	x, out  []float32
	weights gemmView
	bias    *Tensor
	relu    bool
	pool    *ConvSpec
	geom    convGeom
	f, k    int
	outLen  int // one sample's share of out
}

// samples computes out[lo:hi]: per sample one GEMM over the image's
// implicit column matrix, then the epilogue over its plane. Without a
// pool the micro-kernel stores straight into out; with one the plane is
// arena scratch and the pool writes out.
func (j *convInfer) samples(lo, hi int) {
	g := &j.geom
	colW, imgLen := g.oh*g.ow, g.c*g.h*g.w
	ar := defaultArena
	var scratch *Tensor
	if j.pool != nil {
		scratch = ar.Get(j.f * colW)
	}
	for i := lo; i < hi; i++ {
		dst := j.out[i*j.outLen : (i+1)*j.outLen]
		plane := dst
		if j.pool != nil {
			plane = scratch.Data
		}
		b := gemmView{data: j.x[i*imgLen : (i+1)*imgLen], conv: g}
		gemmSerial(plane, colW, 0, j.f, 0, colW, j.k, j.weights, b, false, ar)
		biasReLURows(plane, j.f, colW, j.bias, j.relu)
		if j.pool != nil {
			maxPoolPlanes(dst, plane, 0, j.f, g.oh, g.ow, *j.pool, nil)
		}
	}
	ar.Put(scratch)
}

// biasReLURows applies the conv epilogue in place to rows rows of
// length n: row r gains bias[r] (skipped when bias is nil), then, with
// relu, every value v <= 0 becomes +0.
func biasReLURows(data []float32, rows, n int, bias *Tensor, relu bool) {
	for r := 0; r < rows; r++ {
		row := data[r*n : (r+1)*n]
		var b float32
		if bias != nil {
			b = bias.Data[r]
		}
		switch {
		case bias != nil && relu:
			for j, v := range row {
				row[j] = relu32(v + b)
			}
		case bias != nil:
			for j := range row {
				row[j] += b
			}
		case relu:
			for j, v := range row {
				row[j] = relu32(v)
			}
		}
	}
}

// relu32 returns +0 when v <= 0 and v otherwise — the ReLU layer's
// `if v <= 0` — without the branch, which on activations of either sign
// mispredicts every other element. v <= 0 holds exactly for the bit
// patterns from −0 (0x80000000) to −Inf (0xff800000) and for +0, which
// maps to itself; negative NaNs lie above −Inf and pass, like all NaNs.
func relu32(v float32) float32 {
	u := math.Float32bits(v)
	if u-0x80000000 <= 0x7f800000 {
		u = 0
	}
	return math.Float32frombits(u)
}
