package main

import (
	"fmt"
	"math/rand"

	"prionn/internal/nn"
	"prionn/internal/tensor"
)

// blockBatch is the batch the block table and the kernels are timed at.
const blockBatch = 32

// blockCost is a block's computed work for one sample: multiply-adds
// and tensor elements moved, from the layer shapes alone.
type blockCost struct {
	macs    float64
	in, out float64 // activation elements read and written
	cols    float64 // im2col matrix elements (written, then read by the GEMM)
	acc     float64 // GEMM output elements before the permute/requant pass
	weights float64
}

func (c blockCost) flops() float64 { return 2 * c.macs }

// bytes is what the block moves for a batch of n at the given element
// size; accumulators are 4 bytes in both kernels, weights are read once
// per batch.
func (c blockCost) bytes(n int, elem float64) float64 {
	return float64(n)*(elem*(c.in+2*c.cols+c.out)+4*2*c.acc) + elem*c.weights
}

// block is one row of the table: a conv or dense layer with the ReLU
// and pool that follow it.
type block struct {
	name   string
	layers []nn.Layer
	qops   []nn.QOp
	cost   blockCost
	conv   *nn.Conv2D // nil for dense blocks
}

// twinBlocks builds a shape-identical twin of one head (the runtime
// head: the IO heads differ only in fc4's width) and cuts it, and its
// quantization, into blocks.
func twinBlocks(arch nn.ArchConfig, calib *tensor.Tensor) (*nn.Sequential, nn.QParams, []block, error) {
	twin := nn.NewCNN2D(rand.New(rand.NewSource(modelSeed)), arch)
	qm, err := nn.Quantize(twin, calib)
	if err != nil {
		return nil, nn.QParams{}, nil, err
	}

	var blocks []block
	afterFlatten := false
	for _, l := range twin.Layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			oh, ow := t.OutDims()
			k := float64(t.InC * t.Spec.KH * t.Spec.KW)
			px := float64(oh * ow)
			f := float64(t.Filters)
			blocks = append(blocks, block{conv: t, cost: blockCost{
				macs: f * k * px, in: float64(t.InC * t.InH * t.InW), out: f * px,
				cols: k * px, acc: f * px, weights: f * k,
			}})
		case *nn.Flatten:
			blocks = append(blocks, block{})
			afterFlatten = true
		case *nn.Dense:
			if !afterFlatten {
				blocks = append(blocks, block{})
			}
			afterFlatten = false
			in, out := float64(t.W.Dim(0)), float64(t.W.Dim(1))
			blocks[len(blocks)-1].cost = blockCost{macs: in * out, in: in, out: out, acc: out, weights: in * out}
		case *nn.MaxPool2D:
			oh, ow := t.OutDims()
			blocks[len(blocks)-1].cost.out = float64(t.InC * oh * ow)
		}
		if len(blocks) == 0 {
			return nil, nn.QParams{}, nil, fmt.Errorf("twin starts with a %s layer, not a conv", l.Name())
		}
		b := &blocks[len(blocks)-1]
		b.layers = append(b.layers, l)
	}
	if len(blocks) != len(blockNames) {
		return nil, nn.QParams{}, nil, fmt.Errorf("twin has %d blocks, the table names %d", len(blocks), len(blockNames))
	}
	for i := range blocks {
		blocks[i].name = blockNames[i]
	}

	// The quantized chain folds ReLU into its conv/dense op and drops
	// Flatten; a pool op belongs to the conv before it.
	i := -1
	for _, op := range qm.Ops {
		if _, pool := op.(*nn.QMaxPool2D); !pool {
			i++
		}
		if i < 0 || i >= len(blocks)-1 {
			return nil, nn.QParams{}, nil, fmt.Errorf("quantized twin has more ops than the %d hidden blocks", len(blocks)-1)
		}
		blocks[i].qops = append(blocks[i].qops, op)
	}
	// The logits head dequantizes where hidden layers requantize; QForward
	// times the same GEMM with a requant epilogue of the same size.
	head := *qm.Head
	head.OutQ = nn.QParams{Scale: 1}
	blocks[len(blocks)-1].qops = []nn.QOp{&head}
	return twin, qm.InQ, blocks, nil
}

// blocks fills the nn and tensor metrics: each block at batch 32 in both
// kernels, the kernels below the largest conv, and the computed counts.
func (l *ladder) blocks(x32 *tensor.Tensor, parents map[string]int) error {
	cfg, reps := l.e.sz.model, l.e.sz.reps
	arch := nn.ArchConfig{Rows: cfg.Rows, Cols: cfg.Cols, Channels: x32.Dim(1), Classes: cfg.RuntimeClasses, Width: cfg.Width}
	twin, inQ, blocks, err := twinBlocks(arch, x32)
	if err != nil {
		return err
	}

	// tensor: peak GEMM and streaming copy set the roofline.
	n := l.e.sz.peakGemm
	a, b, dst := tensor.New(n, n).Fill(1), tensor.New(n, n).Fill(1), tensor.New(n, n)
	_, d := l.medianOf(0, "tensor.MatMul.peak", reps, func() { tensor.MatMul(dst, a, b) })
	peak := 2 * float64(n) * float64(n) * float64(n) / d.Seconds() / 1e9
	l.m.put("tensor.gemm_f32_gflops.peak", peak)

	src, cp := make([]float32, 4<<20), make([]float32, 4<<20)
	_, d = l.medianOf(0, "tensor.copy", reps, func() { copy(cp, src) })
	copyGBps := 2 * 4 * float64(len(src)) / d.Seconds() / 1e9 // bytes read + written
	l.m.put("tensor.copy_gbps", copyGBps)

	// nn: the block table. Inputs are chained once so each block sees the
	// activations it would see in a forward.
	x := x32
	xq := make([]uint8, x32.Len())
	for i, v := range x32.Data {
		xq[i] = inQ.Quantize(v)
	}
	var largest *block
	for i := range blocks {
		b := &blocks[i]
		in, inq := x, xq
		id, d := l.medianOf(parents["f32"], "nn.block.f32."+b.name, reps, func() {
			x = in
			for _, ly := range b.layers {
				x = ly.Forward(x, false)
			}
		})
		l.m.put("nn.block_ms.f32."+b.name, ms(d))
		ideal := max(b.cost.flops()*blockBatch/(peak*1e9), b.cost.bytes(blockBatch, 4)/(copyGBps*1e9))
		l.m.put("nn.roofline_frac.f32."+b.name, ideal/d.Seconds())

		qid, d := l.medianOf(parents["int8"], "nn.block.int8."+b.name, reps, func() {
			xq = inq
			for _, op := range b.qops {
				xq = op.QForward(xq, blockBatch)
			}
		})
		l.m.put("nn.block_ms.int8."+b.name, ms(d))
		if b.conv != nil && (largest == nil || b.cost.macs > largest.cost.macs) {
			largest = b
			parents["conv.f32"], parents["conv.int8"] = id, qid
		}
	}

	labels := make([]int, 8)
	x8 := tensor.FromSlice(x32.Data[:8*x32.Len()/blockBatch], 8, x32.Dim(1), x32.Dim(2), x32.Dim(3))
	opt := nn.NewAdam(cfg.LR)
	_, d = l.medianOf(0, "nn.TrainBatch", reps, func() { twin.TrainBatch(x8, labels, opt) })
	l.m.put("nn.train_step_ms", ms(d))

	l.kernels(largest, parents)

	// Computed, not measured: work per request over the three heads (the
	// IO heads' fc4 is narrower; the difference is below 1%).
	var flops, bf32, bi8 float64
	for _, b := range blocks {
		flops += b.cost.flops()
		bf32 += b.cost.bytes(1, 4)
		bi8 += b.cost.bytes(1, 1)
	}
	heads := 1.0
	if cfg.PredictIO {
		heads = 3
	}
	l.m.put("tensor.fwd_mflop_per_req", heads*flops/1e6)
	l.m.put("tensor.fwd_mb_per_req.f32", heads*bf32/1e6)
	l.m.put("tensor.fwd_mb_per_req.int8", heads*bi8/1e6)
	return nil
}

// kernels times the tensor kernels at the largest conv's shapes.
func (l *ladder) kernels(b *block, parents map[string]int) {
	reps, c := l.e.sz.reps, b.conv
	oh, ow := c.OutDims()
	k, px := c.InC*c.Spec.KH*c.Spec.KW, blockBatch*oh*ow
	flop := 2 * float64(c.Filters) * float64(k) * float64(px)

	x := tensor.New(blockBatch, c.InC, c.InH, c.InW).Fill(0.5)
	cols := tensor.New(k, px)
	_, d := l.medianOf(parents["conv.f32"], "tensor.Im2ColBatch", reps, func() { tensor.Im2ColBatch(cols, x, c.InC, c.InH, c.InW, c.Spec) })
	l.m.put("tensor.im2col_f32_gbps", 4*float64(x.Len()+cols.Len())/d.Seconds()/1e9)

	w, y := tensor.New(c.Filters, k).Fill(0.25), tensor.New(c.Filters, px)
	_, d = l.medianOf(parents["conv.f32"], "tensor.MatMul.conv", reps, func() { tensor.MatMul(y, w, cols) })
	l.m.put("tensor.gemm_f32_gflops.conv", flop/d.Seconds()/1e9)

	xq, colsq := make([]uint8, x.Len()), make([]uint8, cols.Len())
	_, d = l.medianOf(parents["conv.int8"], "tensor.Im2ColBatchU8", reps, func() {
		tensor.Im2ColBatchU8(colsq, xq, blockBatch, c.InC, c.InH, c.InW, c.Spec, 128)
	})
	l.m.put("tensor.im2col_u8_gbps", float64(len(xq)+len(colsq))/d.Seconds()/1e9)

	wq, acc := make([]int8, c.Filters*k), make([]int32, c.Filters*px)
	_, d = l.medianOf(parents["conv.int8"], "tensor.GemmInt8.conv", reps, func() {
		tensor.GemmInt8(acc, px, c.Filters, px, k, wq, k, 1, colsq, px, 1)
	})
	l.m.put("tensor.gemm_int8_gops.conv", flop/d.Seconds()/1e9)

	// A 2×2 pool over an input-sized activation with this conv's channel
	// count: the 2D-CNN pools only after its first conv, and only above
	// 16×16, but the bandwidth figure should exist for every model size.
	cfg, f1 := l.e.sz.model, c.Filters
	pin := make([]uint8, blockBatch*f1*cfg.Rows*cfg.Cols)
	pout := make([]uint8, len(pin)/4)
	spec := tensor.ConvSpec{KH: 2, KW: 2, Stride: 2}
	_, d = l.medianOf(parents["conv.int8"], "tensor.MaxPool2DForwardU8", reps, func() {
		tensor.MaxPool2DForwardU8(pout, pin, blockBatch, f1, cfg.Rows, cfg.Cols, spec)
	})
	l.m.put("tensor.pool_u8_gbps", float64(len(pin)+len(pout))/d.Seconds()/1e9)
}
