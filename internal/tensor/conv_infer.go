package tensor

import "math"

// Inference conv forward: a direct convolution with a fused epilogue.
//
// Conv2DForwardArena runs a conv as five passes over memory — im2col
// writes the [C·KH·KW, N·OH·OW] column matrix, the GEMM's B packer
// re-reads it, the GEMM writes a [F, N·OH·OW] product, a scatter permutes
// that to [N,F,OH,OW] adding bias — and the layer stack adds a ReLU pass
// and a pool pass. Inference needs none of it, and at PRIONN's filter
// counts (4–24, so a packed K×NR strip would feed one to six
// micro-tiles) not even packed strips of it; neither does a stride-1
// training conv, whose forward is this one without the ReLU and pool
// (conv_train.go). PackedConv.Infer copies each sample's image once into a
// zero-padded plane and, for a stride-1 conv, hands the micro-kernel that
// plane and a tap table: row p of the implicit column matrix, for the NR
// consecutive pixels of one output row, is the NR floats at a fixed
// offset from the strip's first cell, so the kernel reads it where it
// lies. The kernel stores into the sample's [F, OH·OW] plane at row
// stride OH·OW — already the final layout — and bias, ReLU and the
// following max-pool run over that plane while it is still in cache. A
// strided conv (the 1D-CNN's) has no such fixed offset between lanes: it
// writes the sample's [K, OH·OW] column matrix into arena scratch with
// im2colInto, as its training forward does, and multiplies it through
// the blocked GEMM, with the same epilogue.
//
// Bitwise neutrality. The padding cells are real zeros, so the kernel
// folds in exactly the values im2col would have written — a padded tap
// is multiplied, not skipped, and an Inf weight on it yields NaN as in
// the column-matrix path — and each output cell is the same ascending-k
// fma32 chain from zero (gemm.go: tiling and striping never change a
// cell's chain, and neither does walking k in one pass instead of
// KC-deep panels). The epilogue then applies, per cell and in this
// order, `+ bias` (one float32 add, as convScatterOut), `v <= 0 → 0`
// (the ReLU layer's test, so −0 becomes +0 and NaN passes), and the
// window maximum in maxPoolPlanes' scan order — the operations of the
// layer-by-layer path in the order the layers apply them.

// inferParallelMin is the multiply-add count a worker must be handed
// before fan-out pays on the inference path. A batch-1 forward is a
// chain of GEMMs of 10⁵ multiply-adds — tens of microseconds each,
// about what waking a second thread costs — so gemmParallelMin, sized
// for training batches, makes a lone request slower on two cores than
// on one.
const inferParallelMin = 1 << 20

// inferSerial reports whether a job over n items (samples, rows, tap
// strips) of work multiply-adds each runs inline, and otherwise the
// fewest items a worker is handed: workers take whole items, and only
// when each gets inferParallelMin multiply-adds. A batch-1 forward starts
// no goroutine, and neither does a training step at PRIONN's batch
// sizes: there the fan-out costs more than it saves.
func inferSerial(n, work int) (minChunk int, serial bool) {
	minChunk = (inferParallelMin + work - 1) / max(work, 1)
	return minChunk, MaxWorkers() == 1 || n < 2*minChunk
}

// convGeom is the geometry of one conv layer's input and output.
type convGeom struct {
	c, h, w int
	spec    ConvSpec
	oh, ow  int
}

// PackedConv is a conv layer's geometry and [F, C·KH·KW] weights in the
// form the inference forward consumes. For a stride-1 conv that is the
// direct convolution's two tables, both copies that go stale when the
// weights change: the filters as MR-tall A strips over the whole of K
// (no KC panels) and the K-entry tap table. For any other stride it is
// a view of the weights in place. Immutable once built and safe for
// concurrent use.
type PackedConv struct {
	geom convGeom
	f, k int

	strips []float32 // strip s holds, per tap p, filters s·MR … s·MR+MR−1 at p; zero past F
	taps   []int32   // tap p = (ch, ky, kx) lies ch·PH·PW + ky·PW + kx past a strip's first padded-plane cell

	weights gemmView // stride ≠ 1: the filters where they lie, packed per call by gemmSerial
}

// PackConv prepares weights [F, C·KH·KW] of a conv over [C,H,W] images
// for PackedConv.Infer.
func PackConv(weights *Tensor, c, h, w int, spec ConvSpec) *PackedConv {
	f, k := weights.Shape[0], weights.Shape[1]
	oh, ow := spec.OutDims(h, w)
	p := &PackedConv{geom: convGeom{c: c, h: h, w: w, spec: spec, oh: oh, ow: ow}, f: f, k: k}
	view := gemmView{data: weights.Data, rs: k, cs: 1}
	if spec.Stride != 1 {
		p.weights = view
		return p
	}
	p.strips = make([]float32, alignUp(f, gemmMR)*k)
	packAPanel(p.strips, view, 0, 0, f, k)
	p.taps = p.geom.tapTable()
	return p
}

// tapTable returns the stride-1 tap table: tap p = (ch, ky, kx) lies
// ch·PH·PW + ky·PW + kx past an output pixel's first padded-plane cell.
func (g *convGeom) tapTable() []int32 {
	ph, pw := g.paddedDims()
	taps := make([]int32, 0, g.c*g.spec.KH*g.spec.KW)
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.spec.KH; ky++ {
			for kx := 0; kx < g.spec.KW; kx++ {
				taps = append(taps, int32(ch*ph*pw+ky*pw+kx))
			}
		}
	}
	return taps
}

// paddedDims returns the extent of one channel of the zero-padded plane.
func (g *convGeom) paddedDims() (ph, pw int) {
	return g.h + 2*g.spec.PadH, g.w + 2*g.spec.PadW
}

// Conv2DInfer computes the inference forward of a conv layer and the
// ReLU and max-pool that follow it, in one pass per sample (see the
// file comment):
//
//	x: [N, C, H, W], weights: [F, C*KH*KW], bias: [F] (may be nil)
//	returns pool(relu(conv(x)+bias)): [N, F, OH, OW], or
//	[N, F, OH', OW'] with pool, whose padding must be zero
//
// relu false and pool nil skip the respective stage. The result is
// bitwise identical to Conv2DForwardArena followed by the separate ReLU
// and MaxPool2DForward passes, for any worker count and with or without
// the assembly kernel. It is a check-out from the default arena, the
// caller's to Put once read or to keep (an unreturned check-out is
// ordinary garbage); scratch is returned before the call ends. The
// weights are prepared once per call; a caller whose weights are final
// keeps the PackedConv and calls Infer.
func Conv2DInfer(x, weights, bias *Tensor, c, h, w int, spec ConvSpec, relu bool, pool *ConvSpec) *Tensor {
	return PackConv(weights, c, h, w, spec).Infer(x, bias, relu, pool)
}

// Infer is Conv2DInfer on prepared weights.
func (p *PackedConv) Infer(x, bias *Tensor, relu bool, pool *ConvSpec) *Tensor {
	g := &p.geom
	n := x.Shape[0]
	poh, pow := g.oh, g.ow
	if pool != nil {
		if pool.PadH != 0 || pool.PadW != 0 {
			panic("tensor: Conv2DInfer does not support pool padding")
		}
		poh, pow = pool.OutDims(g.oh, g.ow)
	}
	out := defaultArena.Get(n, p.f, poh, pow) // every cell is written below
	job := convInfer{
		w: p, x: x.Data, out: out.Data,
		bias: bias, relu: relu, pool: pool,
		outLen: p.f * poh * pow,
	}
	// Workers take whole samples, and only when each gets enough of them
	// to pay for the fan-out; a sample's plane is never split. The
	// inline case — every batch-1 forward — calls samples directly: a
	// func value handed to ParallelForMin would put job on the heap.
	minChunk, serial := inferSerial(n, p.f*p.k*g.oh*g.ow)
	if serial {
		job.samples(0, n)
		return out
	}
	shared := job
	ParallelForMin(n, minChunk, shared.samples)
	return out
}

// convInfer is one PackedConv.Infer call: what every sample shares.
type convInfer struct {
	w      *PackedConv
	x, out []float32
	bias   *Tensor
	relu   bool
	pool   *ConvSpec
	outLen int // one sample's share of out
}

// samples computes out[lo:hi]: per sample the conv into its [F, OH·OW]
// plane — direct from a zero-padded copy of the image at stride 1, else
// one GEMM over the image's column matrix — then the epilogue over the
// plane. Without a pool the micro-kernel stores straight into
// out; with one the plane is arena scratch and the pool writes out.
func (j *convInfer) samples(lo, hi int) {
	p := j.w
	g := &p.geom
	colW, imgLen := g.oh*g.ow, g.c*g.h*g.w
	ar := defaultArena
	var scratch, padded, cols *Tensor
	if j.pool != nil {
		scratch = ar.Get(p.f * colW)
	}
	if p.taps != nil {
		// The padding, and the NR floats of slack the last ragged
		// strip's surplus lanes reach into, are zeroed once; every
		// sample overwrites the interior alone.
		ph, pw := g.paddedDims()
		padded = ar.Get(g.c*ph*pw + gemmNR)
		clear(padded.Data)
	} else {
		cols = ar.Get(p.k, colW) // im2colInto writes every cell
	}
	for i := lo; i < hi; i++ {
		dst := j.out[i*j.outLen : (i+1)*j.outLen]
		plane := dst
		if j.pool != nil {
			plane = scratch.Data
		}
		img := j.x[i*imgLen : (i+1)*imgLen]
		if padded != nil {
			g.padInto(padded.Data, img)
			p.direct(plane, padded.Data)
		} else {
			im2colInto(cols.Data, colW, img, g.c, g.h, g.w, g.spec)
			gemmSerial(plane, colW, 0, p.f, 0, colW, p.k, p.weights, gemmView{data: cols.Data, rs: colW, cs: 1}, false, ar)
		}
		biasReLURows(plane, p.f, colW, j.bias, j.relu)
		if j.pool != nil {
			maxPoolPlanes(dst, plane, 0, p.f, g.oh, g.ow, *j.pool, nil)
		}
	}
	ar.Put(cols)
	ar.Put(padded)
	ar.Put(scratch)
}

// padInto copies image x [C,H,W] into the interior of the padded plane
// dst [C, H+2·PadH, W+2·PadW], leaving the padding as it is.
func (g *convGeom) padInto(dst, x []float32) {
	ph, pw := g.paddedDims()
	for ch := 0; ch < g.c; ch++ {
		for y := 0; y < g.h; y++ {
			at := (ch*ph+y+g.spec.PadH)*pw + g.spec.PadW
			copy(dst[at:at+g.w], x[(ch*g.h+y)*g.w:])
		}
	}
}

// direct computes one sample's [F, OH·OW] conv plane from its padded
// image: per strip of NR consecutive pixels of one output row and per
// MR-tall filter strip, one micro-kernel call over all K taps.
func (p *PackedConv) direct(plane, padded []float32) {
	g := &p.geom
	_, pw := g.paddedDims()
	colW := g.oh * g.ow
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox += gemmNR {
			x := padded[oy*pw+ox:]
			at := oy*g.ow + ox
			for fs := 0; fs < p.f; fs += gemmMR {
				convTile(p.k, p.strips[fs*p.k:], x, p.taps, plane[fs*colW+at:], colW,
					min(gemmMR, p.f-fs), min(gemmNR, g.ow-ox))
			}
		}
	}
}

// convTile is microTile for the direct convolution: A strip pa against
// the B rows x[taps[p]:], every chain from zero, into the dst tile at row
// stride ldc. A ragged tile (the last filters, the end of an output row)
// round-trips through a scratch tile, and its surplus lanes — which read
// the next row's cells or the plane's slack — are dropped with it.
func convTile(k int, pa, x []float32, taps []int32, dst []float32, ldc, mrEff, nrEff int) {
	asm := useFMAKernel.Load()
	if asm && mrEff == gemmMR && nrEff == gemmNR {
		fmaConvTile4x16(int64(k), &pa[0], &x[0], &taps[0], &dst[0], int64(ldc))
		return
	}
	var tile [gemmMR * gemmNR]float32
	if asm {
		fmaConvTile4x16(int64(k), &pa[0], &x[0], &taps[0], &tile[0], gemmNR)
	} else {
		fmaConvTileGeneric(k, pa, x, taps, &tile)
	}
	for r := 0; r < mrEff; r++ {
		copy(dst[r*ldc:r*ldc+nrEff], tile[r*gemmNR:r*gemmNR+nrEff])
	}
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
