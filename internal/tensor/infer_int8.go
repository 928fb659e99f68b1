package tensor

import "math"

// Quantized inference forward: conv_infer.go's treatment for u8
// activations and s8 weights.
//
// A conv block is one int8 GEMM per sample whose right operand is the
// implicit column matrix of that sample's u8 image: packPanelU8 fills
// the quad-layout strips straight from the image, taps in the padding
// packing the activation zero point — the quantized image of real 0.0. The sample's
// int32 plane stays in cache for the epilogue, which takes the 2×2 window
// maximum on the accumulators first and then maps each surviving cell to
// the next activation's u8 domain (Requant), writing [N,F,OH',OW']
// directly. A dense block is one GEMM for the batch against weights
// packed on the NR side (PackedInt8B) and the same epilogue per cell.
//
// Pool before requantization. Requant's map a ↦ u8 is weakly increasing
// in a for a positive scale: a−corr is an exact int32; int32→float32
// rounds monotonically; multiplying by s > 0, adding the bias, dividing
// by OutScale > 0, rounding to nearest and clamping each preserve ≤. A
// weakly increasing map commutes with max, so requantizing the window
// maximum yields the byte that pooling the requantized cells would — for
// a quarter of the requantizations.
//
// Integer accumulation is exact, so every forward here is bitwise
// identical for any batch size, worker count, and with or without the
// assembly kernels.

// Requant maps a quantized layer's int32 accumulators to its output. For
// output channel ch the real pre-activation is
//
//	s·float32(a − corr) + Bias[ch],  s = InScale·WScale[ch],  corr = InZero·WSum[ch]
//
// (the zero-point correction, see nn/quant.go), which u8 outputs divide
// by OutScale, round, shift by OutZero and clamp — at OutZero from below
// with Relu, folding the activation in exactly.
type Requant struct {
	InScale  float32
	InZero   uint8
	WScale   []float32 // per output channel; positive
	WSum     []int32   // per output channel Σ w_q
	Bias     []float32
	OutScale float32 // unused for real-valued output
	OutZero  uint8
	Relu     bool
}

// channel returns output channel ch's s, corr and bias.
func (r *Requant) channel(ch int) (s float32, corr int32, bias float32) {
	return r.InScale * r.WScale[ch], int32(r.InZero) * r.WSum[ch], r.Bias[ch]
}

// preact is the pre-activation of accumulator a. The product is rounded
// to float32 before the add on every platform (no fused multiply-add).
func preact(a int32, s float32, corr int32, bias float32) float32 {
	return float32(s*float32(a-corr)) + bias
}

// roundI32 is int32(math.Round(v)) for the magnitudes quantization
// produces: round half away from zero via biased truncation. For any v
// whose significand fits float64 exactly after adding ±0.5 (always true
// here — inputs are float32-valued and far below 2^52), the result is
// bit-identical to the library routine, which is pure-Go bit twiddling
// and dominates the requantization profile otherwise. The bias takes
// v's sign without a branch: activations of either sign would mispredict
// it every other cell.
func roundI32(v float64) int32 {
	return int32(v + math.Copysign(0.5, v))
}

// quantizer is a u8 domain as the epilogue loops hold it: in locals,
// the low clamp resolved.
type quantizer struct {
	scale    float32
	zero, lo int32
}

func newQuantizer(scale float32, zero uint8, relu bool) quantizer {
	q := quantizer{scale: scale, zero: int32(zero)}
	if relu {
		q.lo = q.zero
	}
	return q
}

func (q quantizer) u8(v float32) uint8 {
	return uint8(min(max(roundI32(float64(v/q.scale))+q.zero, q.lo), 255))
}

// QuantizeU8 maps a real value to the u8 domain (scale, zero): v/scale
// rounded to nearest, shifted by zero, saturated to [0, 255] — or to
// [zero, 255] with relu, the low clamp sitting at the quantized image of
// real 0, which folds a ReLU into the quantization exactly.
func QuantizeU8(v, scale float32, zero uint8, relu bool) uint8 {
	return newQuantizer(scale, zero, relu).u8(v)
}

// convStrip is the per-strip set-up of packPanelU8's lane-by-lane
// gather: for a strip of NR consecutive output pixels, each lane's offset into a channel plane and the lanes for
// which a kernel row / kernel column stays inside the image. It is worked
// out once per strip and shared by every channel and tap. The lane masks
// are uint16: one bit per lane of an NR = 16 strip.
type convStrip struct {
	off   [gemmNR]int // lane's tap-(0,0) offset within a channel plane; may be negative
	rowOK []uint16    // per kernel row: the lanes it keeps inside the image
	colOK []uint16    // per kernel column, likewise
}

// laneMasks returns n lane masks: buf's first n (the packer's stack array,
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
	oy, ox := j/g.ow, j%g.ow
	for l := 0; l < lanes; l++ {
		iy0 := oy*stride - g.spec.PadH
		ix0 := ox*stride - g.spec.PadW
		s.off[l] = iy0*g.w + ix0
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

// packPanelU8's windows: a window row holds a strip's NR cells plus the
// KW−1 further ones its last lane's kernel row reaches, in winW bytes,
// and a k panel may span winRows kernel rows — a full KC panel of a
// 3-wide kernel.
const (
	winW    = 32
	winRows = qKC/3 + 3
)

// packPanelU8 packs rows [p0, p0+kc) × columns [j0, j0+nc) of u8 image
// x's implicit column matrix in the int8 GEMM's quad layout
// (packBPanel8's): per strip and k-quad, four taps' 16-lane rows
// interleaved into a 64-byte quad group, with zp for taps that fall in
// the padding. k bytes past kc pack zero, as their A bytes do.
//
// Row p of the column matrix is tap (ch, ky, kx) with p = (ch·KH+ky)·KW +
// kx, so p/KW names a kernel row of a channel. For a stride-1 strip
// inside one output row — every strip of the 2D-CNN — each such kernel
// row is gathered once as a window: the NR+KW−1 consecutive image cells
// it slides over, zp where they leave the image. Tap kx is then the 16
// bytes at window offset kx, and a quad group is an interleave of four
// addresses with no per-tap work. Any other strip (a row break inside
// it, a stride) gathers each tap lane by lane from convStrip's offsets
// and masks.
func (g *convGeom) packPanelU8(dst, x []uint8, zp uint8, p0, j0, kc, nc, kq int) {
	kh, kw := g.spec.KH, g.spec.KW
	taps, hw := kh*kw, g.h*g.w
	asm := useVNNIKernel.Load()

	row0, rowN := p0/kw, (p0+kc-1)/kw+1
	windowed := g.spec.Stride == 1 && qNR+kw-1 <= winW && rowN-row0 <= winRows
	var (
		win [(winRows + 1) * winW]uint8 // window of kernel row row0 + r at win[r*winW:]; the last stays zero
		at  [qKC + 3]int                // window offset of k index p0 + i
	)
	if windowed {
		for i := range at[:kq*4] {
			at[i] = winRows * winW
			if i < kc {
				at[i] = ((p0+i)/kw-row0)*winW + (p0+i)%kw
			}
		}
	}

	var rowBuf, colBuf [8]uint16
	strip := convStrip{rowOK: laneMasks(rowBuf[:], kh), colOK: laneMasks(colBuf[:], kw)}
	var rows [4][qNR]uint8 // one quad's tap rows, gathered

	for sj := 0; sj < nc; sj += qNR {
		lanes := min(qNR, nc-sj)
		oy, ox := (j0+sj)/g.ow, (j0+sj)%g.ow
		if windowed && ox+lanes <= g.ow {
			// Window byte b is image column ix0+b, inside the image for
			// lo ≤ b < hi; bytes from NR+KW−1 on are never read.
			ix0 := ox - g.spec.PadW
			lo, hi := max(0, -ix0), min(qNR+kw-1, g.w-ix0)
			ch, ky := row0/kh, row0%kh
			for r := 0; r < rowN-row0; r++ {
				w := win[r*winW : (r+1)*winW]
				iy := oy - g.spec.PadH + ky
				if iy < 0 || iy >= g.h || lo >= hi {
					fillU8(w, zp)
				} else {
					// All winW cells where they lie inside the image
					// array (the ones outside this image row are
					// overwritten or never read), else the valid run.
					if src := ch*hw + iy*g.w + ix0; src >= 0 && src+winW <= len(x) {
						*(*[winW / 2]uint8)(w) = *(*[winW / 2]uint8)(x[src:])
						*(*[winW / 2]uint8)(w[winW/2:]) = *(*[winW / 2]uint8)(x[src+winW/2:])
					} else {
						copy(w[lo:hi], x[src+lo:src+hi])
					}
					fillU8(w[:lo], zp)
					fillU8(w[hi:qNR+kw-1], zp)
				}
				if ky++; ky == kh {
					ky, ch = 0, ch+1
				}
			}
			for q := 0; q < kq; q++ {
				a := at[4*q : 4*q+4]
				interleaveQuad(asm, (*[4 * qNR]uint8)(dst),
					(*[qNR]uint8)(win[a[0]:]), (*[qNR]uint8)(win[a[1]:]),
					(*[qNR]uint8)(win[a[2]:]), (*[qNR]uint8)(win[a[3]:]))
				dst = dst[4*qNR:]
			}
			continue
		}

		strip.set(g, j0+sj, lanes)
		ch, t := p0/taps, p0%taps
		ky, kx := t/kw, t%kw
		for p := 0; p < kq*4; p++ {
			d := &rows[p%4]
			if p >= kc {
				*d = [qNR]uint8{}
			} else {
				valid := strip.rowOK[ky] & strip.colOK[kx]
				tap := ch*hw + ky*g.w + kx
				for l := range d {
					if valid>>l&1 != 0 {
						d[l] = x[tap+strip.off[l]]
					} else {
						d[l] = zp
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
			if p%4 == 3 {
				interleaveQuad(asm, (*[4 * qNR]uint8)(dst), &rows[0], &rows[1], &rows[2], &rows[3])
				dst = dst[4*qNR:]
			}
		}
	}
}

// interleaveQuad writes the quad group of four 16-lane tap rows: lane
// l's four k bytes, r0[l] … r3[l], at dst[4l:4l+4] — through the
// assembly routine with asm, which callers set only where the VNNI
// kernel runs.
func interleaveQuad(asm bool, dst *[4 * qNR]uint8, r0, r1, r2, r3 *[qNR]uint8) {
	if asm {
		interleaveQuadAVX(dst, r0, r1, r2, r3)
		return
	}
	for l := 0; l < qNR; l++ {
		dst[4*l], dst[4*l+1], dst[4*l+2], dst[4*l+3] = r0[l], r1[l], r2[l], r3[l]
	}
}

// Conv2DInferU8 computes the inference forward of a quantized conv layer
// over the batch x [N, C, H, W] of u8 activations with zero point
// rq.InZero, w holding its [F, C·KH·KW] filters: into dst [N, F, OH, OW]
// the requantized outputs, or [N, F, OH/2, OW/2] their unpadded 2×2
// stride-2 max-pool with pool; or, with dst nil, into dstReal
// [N, F, OH, OW] the real-valued pre-activations (calibration reads
// those; pool must be false). See the file comment for the passes this is and is not.
func Conv2DInferU8(dst []uint8, dstReal []float32, x []uint8, n int, w *PackedInt8A, c, h, wd int, spec ConvSpec, rq Requant, pool bool) {
	f, k := w.Dims()
	oh, ow := spec.OutDims(h, wd)
	job := convInferU8{
		x: x, u8: dst, real: dstReal, w: w, rq: rq, pool: pool,
		geom: convGeom{c: c, h: h, w: wd, spec: spec, oh: oh, ow: ow},
		f:    f, k: k,
	}
	// As Conv2DInfer: the inline case calls samples directly, so job
	// stays off the heap.
	minChunk, serial := inferSerial(n, f*k*oh*ow)
	if serial {
		job.samples(0, n)
		return
	}
	shared := job
	ParallelForMin(n, minChunk, shared.samples)
}

// convInferU8 is one Conv2DInferU8 call: what every sample shares.
type convInferU8 struct {
	x, u8 []uint8
	real  []float32
	w     *PackedInt8A
	rq    Requant
	pool  bool
	geom  convGeom
	f, k  int
}

// samples computes samples [lo, hi): per sample one GEMM over the
// image's implicit column matrix into the worker's int32 plane, then the
// epilogue over that plane.
func (j *convInferU8) samples(lo, hi int) {
	g, rq := &j.geom, &j.rq
	oh, ow := g.oh, g.ow
	colW, imgLen := oh*ow, g.c*g.h*g.w
	qz := newQuantizer(rq.OutScale, rq.OutZero, rq.Relu)
	bufs := qPackPool.Get().(*qPackBufs)
	plane := bufs.plane(j.f * colW)
	for i := lo; i < hi; i++ {
		b := qRight{u8: j.x[i*imgLen : (i+1)*imgLen], conv: g, zp: rq.InZero}
		gemmInt8Serial(plane, colW, 0, j.f, 0, colW, j.k, qLeft{packed: j.w}, b, bufs)
		for f := 0; f < j.f; f++ {
			s, corr, bias := rq.channel(f)
			acc := plane[f*colW : (f+1)*colW]
			switch {
			case j.u8 == nil:
				dst := j.real[(i*j.f+f)*colW : (i*j.f+f+1)*colW]
				for c, a := range acc {
					dst[c] = preact(a, s, corr, bias)
				}
			case j.pool:
				poh, pow := oh/2, ow/2
				for py := 0; py < poh; py++ {
					r0 := acc[2*py*ow : 2*py*ow+2*pow]
					r1 := acc[(2*py+1)*ow : (2*py+1)*ow+2*pow]
					dst := j.u8[((i*j.f+f)*poh+py)*pow : ((i*j.f+f)*poh+py+1)*pow]
					for px := range dst {
						a := max(r0[2*px], r0[2*px+1], r1[2*px], r1[2*px+1])
						dst[px] = qz.u8(preact(a, s, corr, bias))
					}
				}
			default:
				dst := j.u8[(i*j.f+f)*colW : (i*j.f+f+1)*colW]
				for c, a := range acc {
					dst[c] = qz.u8(preact(a, s, corr, bias))
				}
			}
		}
	}
	qPackPool.Put(bufs)
}

// DenseInferU8 computes the inference forward of a quantized dense layer
// over the batch x [N, In] of u8 activations, w holding its [In, Out]
// weights: into dst [N, Out] the requantized outputs, or, with dst nil,
// into dstReal [N, Out] the real-valued pre-activations — a logits head.
func DenseInferU8(dst []uint8, dstReal []float32, x []uint8, n int, w *PackedInt8B, rq Requant) {
	in, out := w.Dims()
	job := denseInferU8{x: x, u8: dst, real: dstReal, w: w, rq: rq, in: in, out: out}
	minChunk, serial := inferSerial(n, in*out)
	if serial {
		job.samples(0, n)
		return
	}
	shared := job
	ParallelForMin(n, minChunk, shared.samples)
}

// denseInferU8 is one DenseInferU8 call.
type denseInferU8 struct {
	x, u8   []uint8
	real    []float32
	w       *PackedInt8B
	rq      Requant
	in, out int
}

// samples computes samples [lo, hi), a row panel at a time so the
// accumulators the epilogue reads are the ones the GEMM just wrote.
func (j *denseInferU8) samples(lo, hi int) {
	rq, in, out := &j.rq, j.in, j.out
	qz := newQuantizer(rq.OutScale, rq.OutZero, rq.Relu)
	bufs := qPackPool.Get().(*qPackBufs)
	for i0 := lo; i0 < hi; i0 += qMC {
		rows := min(qMC, hi-i0)
		acc := bufs.plane(rows * out)
		x := qLeft{u8: j.x[i0*in : (i0+rows)*in], rs: in, cs: 1}
		gemmInt8Serial(acc, out, 0, rows, 0, out, in, x, qRight{packed: j.w}, bufs)
		for r := 0; r < rows; r++ {
			row := acc[r*out : (r+1)*out]
			if j.u8 == nil {
				dst := j.real[(i0+r)*out : (i0+r+1)*out]
				for o, a := range row {
					s, corr, bias := rq.channel(o)
					dst[o] = preact(a, s, corr, bias)
				}
				continue
			}
			dst := j.u8[(i0+r)*out : (i0+r+1)*out]
			for o, a := range row {
				s, corr, bias := rq.channel(o)
				dst[o] = qz.u8(preact(a, s, corr, bias))
			}
		}
	}
	qPackPool.Put(bufs)
}
