package tensor

// Training conv: a stride-1 conv trains without a column matrix.
//
// Conv2DForwardArena and Conv2DBackwardArena write the [C·KH·KW, N·OH·OW]
// column matrix of the batch, keep it from the forward to the backward,
// and scatter a second matrix of the same size, dcols, back into dx. A
// stride-1 conv — every conv of the 2D-CNN — needs neither:
//
//   - The forward is PackedConv's direct path (conv_infer.go) with the
//     weights packed into arena scratch once per step and a bias-only
//     epilogue.
//   - dW[f, p] gains dy[i, f, oy, ox] · x̂[i, p, oy, ox] over the batch,
//     where x̂ is the implicit column matrix: tap p = (ch, ky, kx) of
//     pixel (oy, ox) is one cell of the zero-padded input plane, at the
//     forward's tap offset. It is a GEMM whose right operand is packed
//     KC pixels × NR taps at a time straight from that plane
//     (packTapStrip) and multiplied by the GEMM's own micro-kernel.
//   - dx[i, ch, iy, ix] is a direct convolution of dy with flipped taps:
//     per valid tap (ky, kx), the chain over the filters of
//     W[f, (ch, ky, kx)] · dy[i, f, iy−ky+PadH, ix−kx+PadW]. The micro-kernel
//     (fmaConvBackTile4x16) computes it for four channels and NR
//     consecutive pixels of one input row and reads dy where it lies; lanes
//     whose tap falls outside dy are masked to +0.
//
// Bitwise neutrality. Each cell keeps the column path's chain:
//   - dW starts from its old value and folds one fma32 per (i, oy, ox) in
//     ascending order — the GEMM's k order over the batch column matrix.
//     The padding cells are real zeros, so a padded tap is multiplied, as
//     im2col's zeros are.
//   - dB sums each filter's dy over (i, oy, ox) in the same order from +0,
//     then adds the sum, as the column path sums its permuted copy.
//   - dx starts at col2im's +0 and adds, taps (ky, kx) ascending, one
//     fma32 chain per tap from +0 with f ascending — dcols' cell, then
//     col2im's `+=`. A tap col2im skips adds +0 here instead, which leaves
//     every value unchanged: the sum starts at +0 and a sum of floats is −0
//     only when both terms are, so it is never −0.
// The tests compare both paths bit for bit (FuzzTrainConvDirect).

// ConvTrain is one conv layer's training forward and backward. A
// stride-1 conv runs both without a column matrix (see the file comment);
// any other stride multiplies the batch column matrix, which Forward
// keeps for Backward. It holds what the last Forward saved — a reference
// to its input, or the column matrix — and is not safe for concurrent
// use.
type ConvTrain struct {
	// fwd is the geometry and, at stride 1, the forward's tap table;
	// Forward checks its filter strips out of the arena for one call.
	fwd PackedConv

	// Stride 1: the input gradient's tables.
	dyLead int      // floats of slack before dy in the kernel's copy, so every row's base is in range
	dxTaps []int32  // per tap (ky, kx): its dy offset from a row's base, then kx·NR, its row of masks
	masks  []uint32 // per NR-wide tile of an input row, per kx: all ones on the lanes whose tap lands in dy

	x, cols *Tensor // what the last Forward saved: its input (stride 1) or its column matrix
}

// NewConvTrain prepares the training kernels of a conv with f filters
// over [C,H,W] images.
func NewConvTrain(f, c, h, w int, spec ConvSpec) *ConvTrain {
	oh, ow := spec.OutDims(h, w)
	t := &ConvTrain{fwd: PackedConv{geom: convGeom{c: c, h: h, w: w, spec: spec, oh: oh, ow: ow}, f: f, k: c * spec.KH * spec.KW}}
	if spec.Stride != 1 {
		return t
	}
	t.fwd.taps = t.fwd.geom.tapTable()
	kh, kw := spec.KH, spec.KW
	t.dyLead = (kh-1)*ow + kw - 1
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			t.dxTaps = append(t.dxTaps, int32((kh-1-ky)*ow+kw-1-kx), int32(kx*gemmNR))
		}
	}
	tiles := (w + gemmNR - 1) / gemmNR
	t.masks = make([]uint32, tiles*kw*gemmNR)
	for i := range t.masks {
		tile, kx, s := i/(kw*gemmNR), i/gemmNR%kw, i%gemmNR
		ix := tile*gemmNR + s
		if ox := ix - kx + spec.PadW; ix < w && ox >= 0 && ox < ow {
			t.masks[i] = ^uint32(0)
		}
	}
	return t
}

// Forward computes y = conv(x) + bias, bitwise equal to
// Conv2DForwardArena's y, and saves what Backward needs. y is a check-out
// from the default arena, the caller's to Put once dead.
func (t *ConvTrain) Forward(x, weights, bias *Tensor) *Tensor {
	g := &t.fwd.geom
	defaultArena.Put(t.cols) // a Forward that no Backward consumed
	if g.spec.Stride != 1 {
		var y *Tensor
		y, t.cols = Conv2DForwardArena(nil, x, weights, bias, g.c, g.h, g.w, g.spec)
		return y
	}
	t.x, t.cols = x, nil
	strips := defaultArena.Get(alignUp(t.fwd.f, gemmMR) * t.fwd.k)
	packAPanel(strips.Data, gemmView{data: weights.Data, rs: t.fwd.k, cs: 1}, 0, 0, t.fwd.f, t.fwd.k)
	t.fwd.strips = strips.Data
	y := t.fwd.Infer(x, bias, false, nil)
	t.fwd.strips = nil
	defaultArena.Put(strips)
	return y
}

// Backward accumulates the gradients of the last Forward's output dy
// [N, F, OH, OW] into dW [F, C·KH·KW] and dB [F], and returns dx
// [N, C, H, W] — an arena check-out, the caller's — or, without wantDx,
// nil. The bits are Conv2DBackwardArena's for any worker count and with
// or without the assembly kernels.
func (t *ConvTrain) Backward(dy, weights, dW, dB *Tensor, wantDx bool) *Tensor {
	g := &t.fwd.geom
	if t.cols != nil {
		dx := convBackwardCols(defaultArena, dy, weights, t.cols, dW, dB, g.c, g.h, g.w, g.spec, wantDx)
		defaultArena.Put(t.cols)
		t.cols = nil
		return dx
	}
	if t.x == nil {
		panic("tensor: ConvTrain.Backward without a Forward")
	}
	n := dy.Shape[0]
	if dB != nil {
		biasGrad(dB.Data, dy.Data, n, t.fwd.f, g.oh*g.ow)
	}
	t.weightGrad(dW.Data, dy.Data, n)
	if !wantDx {
		return nil
	}
	return t.inputGrad(dy.Data, weights.Data, n)
}

// biasGrad adds to each dB[f] the sum, from +0 and in (i, pixel) order,
// of filter f's gradient plane in every sample of dy [N, F, colW].
func biasGrad(dB, dy []float32, n, f, colW int) {
	for fi := 0; fi < f; fi++ {
		var s float32
		for i := 0; i < n; i++ {
			for _, v := range dy[(i*f+fi)*colW : (i*f+fi+1)*colW] {
				s += v
			}
		}
		dB[fi] += s
	}
}

// weightGrad folds the batch into dW: the GEMM dW += dy · x̂ᵀ over the
// zero-padded input planes, split among workers by NR-wide strips of
// taps, each of which owns its dW columns for the whole batch.
func (t *ConvTrain) weightGrad(dW, dy []float32, n int) {
	g := &t.fwd.geom
	ph, pw := g.paddedDims()
	planeLen, imgLen := g.c*ph*pw, g.c*g.h*g.w
	padded := defaultArena.Get(n * planeLen)
	clear(padded.Data)
	for i := 0; i < n; i++ {
		g.padInto(padded.Data[i*planeLen:], t.x.Data[i*imgLen:])
	}
	job := convWeightGrad{t: t, dW: dW, dy: dy, padded: padded.Data, n: n}
	strips := (t.fwd.k + gemmNR - 1) / gemmNR
	if minChunk, serial := inferSerial(strips, t.fwd.f*gemmNR*n*g.oh*g.ow); serial {
		job.strips(0, strips)
	} else {
		shared := job
		ParallelForMin(strips, minChunk, shared.strips)
	}
	defaultArena.Put(padded)
}

// convWeightGrad is one weightGrad call.
type convWeightGrad struct {
	t              *ConvTrain
	dW, dy, padded []float32
	n              int
}

// strips folds the batch into the dW columns of tap strips [lo, hi): per
// sample and KC-deep panel of its pixels, the dy panel packed into MR-tall
// filter strips, then per tap strip the x̂ panel packed from the padded
// plane and multiplied into every filter strip's tile. Each tile loads
// its dW cells and stores them back, so every cell's chain runs on over
// panels and samples.
func (j *convWeightGrad) strips(lo, hi int) {
	p := &j.t.fwd
	g := &p.geom
	ph, pw := g.paddedDims()
	colW := g.oh * g.ow
	pa := defaultArena.Get(alignUp(p.f, gemmMR) * gemmKC)
	pb := defaultArena.Get(gemmKC * gemmNR)
	for i := 0; i < j.n; i++ {
		plane := j.padded[i*g.c*ph*pw:]
		dyi := gemmView{data: j.dy[i*p.f*colW : (i+1)*p.f*colW], rs: colW, cs: 1}
		for p0 := 0; p0 < colW; p0 += gemmKC {
			kc := min(gemmKC, colW-p0)
			packAPanel(pa.Data, dyi, 0, p0, p.f, kc)
			for s := lo; s < hi; s++ {
				k0 := s * gemmNR
				nr := min(gemmNR, p.k-k0)
				packTapStrip(pb.Data, plane, p.taps[k0:k0+nr], pw, g.ow, p0, kc)
				for fs := 0; fs < p.f; fs += gemmMR {
					microTile(kc, pa.Data[fs*kc:], pb.Data, j.dW[fs*p.k+k0:], p.k, false, min(gemmMR, p.f-fs), nr)
				}
			}
		}
	}
	defaultArena.Put(pb)
	defaultArena.Put(pa)
}

// packTapStrip packs the implicit column matrix's rows for pixels
// [p0, p0+kc) (in row-major output order, ow to a row) and the given taps
// (at most NR) as one NR-wide B strip: row p holds, per tap, the padded
// plane's cell under pixel p0+p; lanes past the taps are zero.
func packTapStrip(dst, plane []float32, taps []int32, pw, ow, p0, kc int) {
	oy, ox := p0/ow, p0%ow
	for p := 0; p < kc; p++ {
		row := dst[p*gemmNR : (p+1)*gemmNR]
		at := oy*pw + ox
		for s, tap := range taps {
			row[s] = plane[at+int(tap)]
		}
		clear(row[len(taps):])
		if ox++; ox == ow {
			oy, ox = oy+1, 0
		}
	}
}

// inputGrad computes dx from dy [N, F, OH·OW] by the flipped-tap direct
// convolution, split among workers by samples.
func (t *ConvTrain) inputGrad(dy, weights []float32, n int) *Tensor {
	p := &t.fwd
	g := &p.geom
	taps := g.spec.KH * g.spec.KW
	// The kernel's copy of dy: every lane of every tap reads inside it,
	// the ones its mask drops included.
	buf := defaultArena.Get(t.dyLead + len(dy) + t.dyLead + g.w + g.spec.PadW + gemmNR)
	copy(buf.Data[t.dyLead:], dy)
	// Per MR channels, tap and filter: the channels' weights, zero past C.
	packed := defaultArena.Get(alignUp(g.c, gemmMR) * taps * p.f)
	idx := 0
	for c0 := 0; c0 < g.c; c0 += gemmMR {
		for tp := 0; tp < taps; tp++ {
			for fi := 0; fi < p.f; fi++ {
				for r := 0; r < gemmMR; r++ {
					var v float32
					if c0+r < g.c {
						v = weights[fi*p.k+(c0+r)*taps+tp]
					}
					packed.Data[idx] = v
					idx++
				}
			}
		}
	}
	dx := defaultArena.Get(n, g.c, g.h, g.w) // every cell is written below
	job := convInputGrad{t: t, dx: dx.Data, dy: buf.Data, w: packed.Data}
	if minChunk, serial := inferSerial(n, g.c*taps*p.f*g.h*g.w); serial {
		job.samples(0, n)
	} else {
		shared := job
		ParallelForMin(n, minChunk, shared.samples)
	}
	defaultArena.Put(packed)
	defaultArena.Put(buf)
	return dx
}

// convInputGrad is one inputGrad call.
type convInputGrad struct {
	t         *ConvTrain
	dx, dy, w []float32
}

// samples computes dx for samples [lo, hi): per MR-channel strip, input
// row and NR-wide tile, one kernel call over the row's valid taps — ky
// such that iy−ky+PadH is a row of dy, every kx, in (ky, kx) order.
func (j *convInputGrad) samples(lo, hi int) {
	t := j.t
	p := &t.fwd
	g := &p.geom
	kh, kw := g.spec.KH, g.spec.KW
	colW, plane := g.oh*g.ow, g.h*g.w
	for i := lo; i < hi; i++ {
		dxi := j.dx[i*g.c*plane : (i+1)*g.c*plane]
		for c0 := 0; c0 < g.c; c0 += gemmMR {
			mr := min(gemmMR, g.c-c0)
			w := j.w[c0*kh*kw*p.f:]
			for iy := 0; iy < g.h; iy++ {
				kyLo, kyHi := max(0, iy+g.spec.PadH-g.oh+1), min(kh-1, iy+g.spec.PadH)
				if kyLo > kyHi {
					for r := 0; r < mr; r++ {
						clear(dxi[(c0+r)*plane+iy*g.w : (c0+r)*plane+(iy+1)*g.w])
					}
					continue
				}
				// Tap (ky, kx) of lane s reads dy at base + its offset + s.
				base := t.dyLead + i*p.f*colW + (iy+g.spec.PadH-kh+1)*g.ow + g.spec.PadW - kw + 1
				for tile, ix := 0, 0; ix < g.w; tile, ix = tile+1, ix+gemmNR {
					convBackTile((kyHi-kyLo+1)*kw, p.f, w[kyLo*kw*p.f*gemmMR:], j.dy[base+ix:], t.dxTaps[2*kyLo*kw:], colW,
						t.masks[tile*kw*gemmNR:], dxi[c0*plane+iy*g.w+ix:], plane, mr, min(gemmNR, g.w-ix))
				}
			}
		}
	}
}

// convBackTile is the input gradient's micro-kernel call: the MR×NR dx
// tile at row stride ldc from n taps. A ragged tile round-trips through a
// scratch tile, as convTile's does.
func convBackTile(n, f int, pw, dy []float32, taps []int32, fstride int, masks []uint32, dst []float32, ldc, mrEff, nrEff int) {
	asm := useFMAKernel.Load()
	if asm && mrEff == gemmMR && nrEff == gemmNR {
		fmaConvBackTile4x16(int64(n), int64(f), &pw[0], &dy[0], &taps[0], int64(fstride), &masks[0], &dst[0], int64(ldc))
		return
	}
	var tile [gemmMR * gemmNR]float32
	if asm {
		fmaConvBackTile4x16(int64(n), int64(f), &pw[0], &dy[0], &taps[0], int64(fstride), &masks[0], &tile[0], gemmNR)
	} else {
		fmaConvBackTileGeneric(n, f, pw, dy, taps, fstride, masks, &tile)
	}
	for r := 0; r < mrEff; r++ {
		copy(dst[r*ldc:r*ldc+nrEff], tile[r*gemmNR:r*gemmNR+nrEff])
	}
}
