package nn

import (
	"fmt"
	"math"

	"prionn/internal/tensor"
)

// Post-training int8 quantization of a trained Sequential, activations
// included: the u8 forward. Nothing serves it — a quantized snapshot is
// float32 weights rounded through int8 (int8w.go) on the float32
// forward — but cmd/prionnbench times its ops one at a time (Quantize,
// QParams, QOp.QForward) down to the tensor package's int8 kernels
// (GemmInt8, Im2ColBatchU8, MaxPool2DForwardU8), so this file and those
// kernels stay until ROADMAP item 1(a) retires those metrics, and go
// with them.
//
// Scheme. Weights are quantized per output channel with symmetric int8
// scales (quantizeChannel, int8w.go); activations are quantized per
// tensor with an asymmetric uint8 scale and zero point calibrated from
// the min/max observed on a held-out calibration batch. The zero point makes real
// 0.0 exactly representable, which keeps conv padding and the folded
// ReLU exact. Between layers activations stay uint8; each layer
// accumulates in int32 via the tensor package's int8 GEMM and
// requantizes its output with the calibrated parameters of the NEXT
// activation, so the only dequantization to float happens at the
// logits.
//
// The int32 → real mapping uses the standard zero-point correction:
// with x_q = x/s_x + z_x and w_q = w/s_w[ch],
//
//	Σ_p w·x = s_x·s_w[ch]·(Σ_p w_q·x_q − z_x·Σ_p w_q)
//
// where Σ_p w_q (WSum) is precomputed per channel. The correction is
// exact integer arithmetic; the surrounding scale multiplications are
// elementwise float32 in a fixed expression order, so requantization is
// deterministic for any worker count and identical across the asm and
// pure-Go GEMM kernels (whose int32 accumulators are bitwise equal).
//
// A quantized op is immutable and its QForward allocates its output, so
// one QModel may serve concurrent callers.

// QParams is a per-tensor asymmetric uint8 quantization: real = (q − Zero)·Scale.
type QParams struct {
	Scale float32
	Zero  uint8
}

// Quantize maps a real value to its uint8 representation, rounding to
// nearest and saturating at the type bounds.
func (p QParams) Quantize(x float32) uint8 {
	return tensor.QuantizeU8(x, p.Scale, p.Zero, false)
}

// Dequantize maps a uint8 representation back to its real value.
func (p QParams) Dequantize(q uint8) float32 {
	return (float32(q) - float32(p.Zero)) * p.Scale
}

// calibShrinkFactors are the candidate range-clip factors the MSE
// search in calibrateQParams sweeps. Factor 1 is pure min/max; smaller
// factors shrink the range (tightening the quantization step for
// typical values at the cost of saturating the tail). The factor with
// the least squared reconstruction error on the calibration data wins —
// a deterministic, data-driven version of percentile clipping.
var calibShrinkFactors = []float32{1, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5}

// calibrateQParams derives activation quantization parameters from the
// observed value range, widened to include 0 so the zero point is a
// valid uint8 and real 0.0 round-trips exactly, with the range clip
// chosen by MSE search (see calibShrinkFactors).
func calibrateQParams(data []float32) QParams {
	var lo, hi float32
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mk := func(lo, hi float32) QParams {
		scale := (hi - lo) / 255
		if scale <= 0 {
			scale = 1
		}
		zp := int32(math.Round(float64(-lo / scale)))
		if zp < 0 {
			zp = 0
		}
		if zp > 255 {
			zp = 255
		}
		return QParams{Scale: scale, Zero: uint8(zp)}
	}
	best := mk(lo, hi)
	if len(data) == 0 {
		return best
	}
	bestErr := math.Inf(1)
	for _, f := range calibShrinkFactors {
		p := mk(lo*f, hi*f)
		var sse float64
		for _, v := range data {
			d := float64(p.Dequantize(p.Quantize(v)) - v)
			sse += d * d
		}
		if sse < bestErr {
			best, bestErr = p, sse
		}
	}
	return best
}

// QOp is one stage of a quantized forward pass: uint8 activations in,
// uint8 activations out, batch size n. Implementations are immutable
// after construction and QForward allocates its output per call, so a
// QOp is safe for concurrent use.
type QOp interface {
	QForward(x []uint8, n int) []uint8
}

// qDims returns op's per-sample input and output lengths.
func qDims(op QOp) (in, out int) {
	switch l := op.(type) {
	case *QConv2D:
		oh, ow := l.Spec.OutDims(l.InH, l.InW)
		return l.InC * l.InH * l.InW, l.Filters * oh * ow
	case *QMaxPool2D:
		oh, ow := l.Spec.OutDims(l.InH, l.InW)
		return l.InC * l.InH * l.InW, l.InC * oh * ow
	case *QDense:
		return l.In, l.Out
	}
	panic(fmt.Sprintf("nn: unknown quantized op %T", op))
}

// QConv2D is the quantized twin of Conv2D (with an optionally folded
// following ReLU). Weights are [Filters, InC*KH*KW] row-major int8.
type QConv2D struct {
	InC, InH, InW int
	Filters       int
	Spec          tensor.ConvSpec
	W             []int8
	WScale        []float32 // per-filter symmetric weight scale
	WSum          []int32   // per-filter Σ w_q, the zero-point correction term
	Bias          []float32
	InQ, OutQ     QParams
	Relu          bool

	// packedW is W packed into the int8 GEMM's panel layout once, by
	// quantizeConv: the weights never change afterwards.
	packedW *tensor.PackedInt8A
}

// QForward implements QOp (tensor.Conv2DInferU8).
func (c *QConv2D) QForward(x []uint8, n int) []uint8 {
	_, outLen := qDims(c)
	out := make([]uint8, n*outLen)
	tensor.Conv2DInferU8(out, x, n, c.packedW, c.InC, c.InH, c.InW, c.Spec, tensor.Requant{
		InScale: c.InQ.Scale, InZero: c.InQ.Zero,
		WScale: c.WScale, WSum: c.WSum, Bias: c.Bias,
		OutScale: c.OutQ.Scale, OutZero: c.OutQ.Zero, Relu: c.Relu,
	})
	return out
}

// QMaxPool2D is the quantized twin of MaxPool2D. Max pooling commutes
// with (monotonic) quantization, so it runs directly on uint8 and the
// activation parameters pass through unchanged.
type QMaxPool2D struct {
	InC, InH, InW int
	Spec          tensor.ConvSpec
}

// QForward implements QOp.
func (p *QMaxPool2D) QForward(x []uint8, n int) []uint8 {
	_, outLen := qDims(p)
	out := make([]uint8, n*outLen)
	tensor.MaxPool2DForwardU8(out, x, n, p.InC, p.InH, p.InW, p.Spec)
	return out
}

// QDense is the quantized twin of Dense (with an optionally folded
// following ReLU). Weights are stored output-major [Out, In] — the
// transpose of Dense's [In, Out] — so each output unit's row is one
// quantization channel.
type QDense struct {
	In, Out   int
	W         []int8
	WScale    []float32
	WSum      []int32
	Bias      []float32
	InQ, OutQ QParams
	Relu      bool

	// packedW is W as the GEMM's right operand, 16 output units per
	// strip, so a batch of 1–4 wastes no vector lanes; packed once, by
	// quantizeDense.
	packedW *tensor.PackedInt8B
}

// forward is the block forward (tensor.DenseInferU8): into dst
// [N, Out] the requantized outputs, or with dst nil into real the
// pre-activations — the logits, when d is a head.
func (d *QDense) forward(dst []uint8, real []float32, x []uint8, n int) {
	tensor.DenseInferU8(dst, real, x, n, d.packedW, tensor.Requant{
		InScale: d.InQ.Scale, InZero: d.InQ.Zero,
		WScale: d.WScale, WSum: d.WSum, Bias: d.Bias,
		OutScale: d.OutQ.Scale, OutZero: d.OutQ.Zero, Relu: d.Relu,
	})
}

// QForward implements QOp (hidden layers: requantize to uint8).
func (d *QDense) QForward(x []uint8, n int) []uint8 {
	out := make([]uint8, n*d.Out)
	d.forward(out, nil, x, n)
	return out
}

// realForward returns the real-valued pre-activation outputs [N, Out]:
// the logits, when d is a head.
func (d *QDense) realForward(x []uint8, n int) []float32 {
	out := make([]float32, n*d.Out)
	d.forward(nil, out, x, n)
	return out
}

// QModel is Quantize's result: an input quantization, a chain of uint8
// ops, and the logits head, whose output is real (realForward) and whose
// OutQ is therefore unset. See the file comment for who still runs it.
type QModel struct {
	InQ  QParams
	Ops  []QOp
	Head *QDense
}

// quantizeConv builds the QConv2D for a float Conv2D.
func quantizeConv(l *Conv2D, inQ, outQ QParams, relu bool) *QConv2D {
	fanIn := l.W.Shape[1]
	q := &QConv2D{
		InC: l.InC, InH: l.InH, InW: l.InW,
		Filters: l.Filters,
		Spec:    l.Spec,
		W:       make([]int8, l.Filters*fanIn),
		WScale:  make([]float32, l.Filters),
		WSum:    make([]int32, l.Filters),
		Bias:    append([]float32(nil), l.B.Data...),
		InQ:     inQ, OutQ: outQ,
		Relu: relu,
	}
	for f := 0; f < l.Filters; f++ {
		row := q.W[f*fanIn : (f+1)*fanIn]
		q.WScale[f] = quantizeChannel(row, l.W.Data[f*fanIn:(f+1)*fanIn])
		var sum int32
		for _, v := range row {
			sum += int32(v)
		}
		q.WSum[f] = sum
	}
	q.packedW = tensor.PackInt8A(q.W, fanIn, 1, l.Filters, fanIn)
	return q
}

// quantizeDense builds the QDense for a float Dense, transposing the
// weights to output-major layout.
func quantizeDense(l *Dense, inQ, outQ QParams, relu bool) *QDense {
	q := &QDense{
		In: l.In, Out: l.Out,
		W:      make([]int8, l.Out*l.In),
		WScale: make([]float32, l.Out),
		WSum:   make([]int32, l.Out),
		Bias:   append([]float32(nil), l.B.Data...),
		InQ:    inQ, OutQ: outQ,
		Relu: relu,
	}
	col := make([]float32, l.In)
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			col[i] = l.W.Data[i*l.Out+o]
		}
		row := q.W[o*l.In : (o+1)*l.In]
		q.WScale[o] = quantizeChannel(row, col)
		var sum int32
		for _, v := range row {
			sum += int32(v)
		}
		q.WSum[o] = sum
	}
	q.packedW = tensor.PackInt8B(q.W, 1, l.In, l.In, l.Out)
	return q
}

// Quantize builds the int8 inference twin of a trained Sequential using
// calib — a batch of already-mapped model inputs — to calibrate every
// activation scale. It recognizes the layer grammar of the three PRIONN
// architectures (Conv2D/Dense each optionally followed by ReLU, plus
// MaxPool2D, Flatten, and Dropout) and returns an error for anything
// else.
//
// The walk runs the float model over the calibration batch block by
// block (nextBlock — the cut the float inference forward uses) and
// calibrates each op's output quantization on the float activations.
// The source model is only read: its parameters are not written and the
// calibration forwards are inference forwards, so Quantize may run
// beside other readers of the model.
func Quantize(m *Sequential, calib *tensor.Tensor) (*QModel, error) {
	if calib == nil || calib.Dim(0) == 0 {
		return nil, fmt.Errorf("nn: quantization requires a non-empty calibration batch")
	}
	qm := &QModel{InQ: calibrateQParams(calib.Data)}
	curQ := qm.InQ
	x := calib
	pool := func(l *MaxPool2D) {
		x = l.Forward(x, false)
		qm.Ops = append(qm.Ops, &QMaxPool2D{InC: l.InC, InH: l.InH, InW: l.InW, Spec: l.Spec})
	}
	layers := m.Layers
	for i := 0; i < len(layers); {
		var b block
		b, i = nextBlock(layers, i)
		switch l := b.layer.(type) {
		case *Flatten, *Dropout:
			// Identity at inference over the flat row-major buffer: the
			// quantized chain tracks geometry per op, so neither needs a
			// quantized counterpart.
			x = l.Forward(x, false)
		case *MaxPool2D:
			pool(l)
		case *Conv2D:
			y := l.Forward(x, false)
			if b.relu != nil {
				y = b.relu.Forward(y, false)
			}
			q := quantizeConv(l, curQ, calibrateQParams(y.Data), b.relu != nil)
			qm.Ops = append(qm.Ops, q)
			curQ = q.OutQ
			x = y
			if b.pool != nil {
				pool(b.pool)
			}
		case *Dense:
			if i == len(layers) && b.relu == nil {
				// The logits head: dequantized output, no requantization.
				qm.Head = quantizeDense(l, curQ, QParams{}, false)
				return qm, nil
			}
			y := l.Forward(x, false)
			if b.relu != nil {
				y = b.relu.Forward(y, false)
			}
			q := quantizeDense(l, curQ, calibrateQParams(y.Data), b.relu != nil)
			qm.Ops = append(qm.Ops, q)
			curQ = q.OutQ
			x = y
		default:
			return nil, fmt.Errorf("nn: cannot quantize layer %q", l.Name())
		}
	}
	return nil, fmt.Errorf("nn: model does not end in a Dense logits head")
}
