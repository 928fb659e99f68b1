package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"prionn/internal/tensor"
)

// Post-training int8 quantization of a trained Sequential.
//
// Scheme. Weights are quantized per output channel with symmetric int8
// scales (one scale per conv filter / dense output unit, range
// [-127, 127]); activations are quantized per tensor with an
// asymmetric uint8 scale and zero point calibrated from the min/max
// observed on a held-out calibration batch. The zero point makes real
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
// A quantized model is immutable and its forwards are stateless, so one
// QModel may serve concurrent callers without cloning (as may a
// Sequential that nothing trains: only its train-mode forwards cache).

// QParams is a per-tensor asymmetric uint8 quantization: real = (q − Zero)·Scale.
type QParams struct {
	Scale float32
	Zero  uint8
}

// roundI32 is int32(math.Round(v)) for the magnitudes quantization
// produces: round half away from zero via biased truncation. For any v
// whose significand fits float64 exactly after adding ±0.5 (always true
// here — inputs are float32-valued and far below 2^52), the result is
// bit-identical to the library routine, which is pure-Go bit twiddling
// and dominates the requantization profile otherwise.
func roundI32(v float64) int32 {
	if v >= 0 {
		return int32(v + 0.5)
	}
	return int32(v - 0.5)
}

// Quantize maps a real value to its uint8 representation, rounding to
// nearest and saturating at the type bounds.
func (p QParams) Quantize(x float32) uint8 {
	v := roundI32(float64(x/p.Scale)) + int32(p.Zero)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
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

// quantizeChannel quantizes one output channel's weights symmetrically
// into [-127, 127] and returns the per-channel scale. The dequantized
// error per weight is at most scale/2 (the rounding half-step); the
// property test pins this bound.
func quantizeChannel(dst []int8, w []float32) (scale float32) {
	var maxAbs float32
	for _, v := range w {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale = maxAbs / 127
	if scale == 0 { //prionnvet:ignore float-eq -- exact zero (an all-zero weight channel) is the only degenerate input; any tolerance would misquantize real near-zero channels
		scale = 1
	}
	for i, v := range w {
		q := int32(math.Round(float64(v / scale)))
		if q < -127 {
			q = -127
		}
		if q > 127 {
			q = 127
		}
		dst[i] = int8(q)
	}
	return scale
}

// requantU8 maps one real-valued accumulator result to the next
// activation's uint8 domain. With relu the low clamp sits at the zero
// point — the quantized image of real 0 — which folds the ReLU into
// requantization exactly.
func requantU8(real float32, p QParams, relu bool) uint8 {
	v := roundI32(float64(real/p.Scale)) + int32(p.Zero)
	lo := int32(0)
	if relu {
		lo = int32(p.Zero)
	}
	if v < lo {
		v = lo
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// QOp is one stage of a quantized forward pass: uint8 activations in,
// uint8 activations out, batch size n. Implementations are immutable
// after construction and allocate their outputs per call, so a QOp is
// safe for concurrent use.
type QOp interface {
	QForward(x []uint8, n int) []uint8
}

// qScratch holds a forward pass's internal column and accumulator
// buffers. They never escape a single QForward call, every byte is
// overwritten before it is read (im2col fills the whole column matrix,
// the GEMM writes every destination cell), and conv scratch at serving
// batch sizes runs to megabytes — so the buffers are pooled unzeroed
// rather than allocated per call. The pool lives at package level,
// keeping QModel itself stateless and safe to share across goroutines.
type qScratch struct {
	u8  []uint8
	i32 []int32
}

var qScratchPool = sync.Pool{New: func() any { return new(qScratch) }}

// getQScratch returns a scratch pair with at least the requested
// lengths. Contents are unspecified.
func getQScratch(u8n, i32n int) *qScratch {
	s := qScratchPool.Get().(*qScratch)
	if cap(s.u8) < u8n {
		s.u8 = make([]uint8, u8n)
	}
	if cap(s.i32) < i32n {
		s.i32 = make([]int32, i32n)
	}
	s.u8, s.i32 = s.u8[:u8n], s.i32[:i32n]
	return s
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

	// packedW is W pre-packed into the int8 GEMM's panel layout, built
	// once at quantization (or load) time because the weights never
	// change afterwards. Unexported, so gob skips it; LoadQModel
	// rebuilds it after decoding.
	packedW *tensor.PackedInt8A
}

// prepack builds the frozen GEMM panels from W. Must run after the
// weights are final (they are written once, at construction).
func (c *QConv2D) prepack() {
	colRows := c.InC * c.Spec.KH * c.Spec.KW
	c.packedW = tensor.PackInt8A(c.W, colRows, 1, c.Filters, colRows)
}

// gemm runs the layer GEMM acc[F, N·OH·OW] = W · cols, through the
// pre-packed panels when available.
func (c *QConv2D) gemm(acc []int32, cols []uint8, n, colW, colRows int) {
	if c.packedW != nil {
		tensor.GemmInt8PackedA(acc, n*colW, n*colW, c.packedW, cols, n*colW, 1)
		return
	}
	tensor.GemmInt8(acc, n*colW, c.Filters, n*colW, colRows, c.W, colRows, 1, cols, n*colW, 1)
}

// QForward implements QOp: u8 im2col (padding with the input zero
// point), one int8 GEMM for the whole batch, then a sample-parallel
// requantizing scatter from the [F, N*OH*OW] accumulator layout into
// [N, F, OH, OW] — the quantized mirror of Conv2DForwardArena.
func (c *QConv2D) QForward(x []uint8, n int) []uint8 {
	oh, ow := c.Spec.OutDims(c.InH, c.InW)
	colW := oh * ow
	colRows := c.InC * c.Spec.KH * c.Spec.KW
	sc := getQScratch(colRows*n*colW, c.Filters*n*colW)
	cols, acc := sc.u8, sc.i32
	tensor.Im2ColBatchU8(cols, x, n, c.InC, c.InH, c.InW, c.Spec, c.InQ.Zero)
	c.gemm(acc, cols, n, colW, colRows)
	out := make([]uint8, n*c.Filters*colW)
	zx := int32(c.InQ.Zero)
	tensor.ParallelForMin(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for f := 0; f < c.Filters; f++ {
				s := c.InQ.Scale * c.WScale[f]
				corr := zx * c.WSum[f]
				bias := c.Bias[f]
				src := acc[f*n*colW+i*colW : f*n*colW+(i+1)*colW]
				dst := out[(i*c.Filters+f)*colW : (i*c.Filters+f+1)*colW]
				for j, a := range src {
					dst[j] = requantU8(s*float32(a-corr)+bias, c.OutQ, c.Relu)
				}
			}
		}
	})
	qScratchPool.Put(sc)
	return out
}

// realForward computes the layer's real-valued pre-activation outputs
// in the float layout [N, F, OH, OW] — the dequantized view of the
// accumulator before requantization. Quantize uses it to measure each
// filter's mean quantization-induced drift on the calibration batch
// (bias correction); the serving path never calls it.
func (c *QConv2D) realForward(x []uint8, n int) []float32 {
	oh, ow := c.Spec.OutDims(c.InH, c.InW)
	colW := oh * ow
	colRows := c.InC * c.Spec.KH * c.Spec.KW
	sc := getQScratch(colRows*n*colW, c.Filters*n*colW)
	cols, acc := sc.u8, sc.i32
	tensor.Im2ColBatchU8(cols, x, n, c.InC, c.InH, c.InW, c.Spec, c.InQ.Zero)
	c.gemm(acc, cols, n, colW, colRows)
	out := make([]float32, n*c.Filters*colW)
	zx := int32(c.InQ.Zero)
	for f := 0; f < c.Filters; f++ {
		s := c.InQ.Scale * c.WScale[f]
		corr := zx * c.WSum[f]
		bias := c.Bias[f]
		for i := 0; i < n; i++ {
			src := acc[f*n*colW+i*colW : f*n*colW+(i+1)*colW]
			dst := out[(i*c.Filters+f)*colW : (i*c.Filters+f+1)*colW]
			for j, a := range src {
				dst[j] = s*float32(a-corr) + bias
			}
		}
	}
	qScratchPool.Put(sc)
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
	oh, ow := p.Spec.OutDims(p.InH, p.InW)
	out := make([]uint8, n*p.InC*oh*ow)
	tensor.MaxPool2DForwardU8(out, x, n, p.InC, p.InH, p.InW, p.Spec)
	return out
}

// QDense is the quantized twin of Dense (with an optionally folded
// following ReLU). Weights are stored output-major [Out, In] — the
// transpose of Dense's [In, Out] — so each output unit's row is the
// contiguous per-channel GEMM operand.
type QDense struct {
	In, Out   int
	W         []int8
	WScale    []float32
	WSum      []int32
	Bias      []float32
	InQ, OutQ QParams
	Relu      bool

	packedW *tensor.PackedInt8A // see QConv2D.packedW
}

// prepack builds the frozen GEMM panels from W (see QConv2D.prepack).
func (d *QDense) prepack() {
	d.packedW = tensor.PackInt8A(d.W, d.In, 1, d.Out, d.In)
}

// matmul runs the head GEMM transposed — yT[out, N] = W[Out,In] ·
// xᵀ[In, N], with xᵀ expressed as a strided view of the row-major
// batch — so the weight matrix is operand A regardless of batch size.
func (d *QDense) matmul(x []uint8, n int) []int32 {
	yT := make([]int32, d.Out*n)
	if d.packedW != nil {
		tensor.GemmInt8PackedA(yT, n, n, d.packedW, x, 1, d.In)
	} else {
		tensor.GemmInt8(yT, n, d.Out, n, d.In, d.W, d.In, 1, x, 1, d.In)
	}
	return yT
}

// QForward implements QOp (hidden layers: requantize to uint8).
func (d *QDense) QForward(x []uint8, n int) []uint8 {
	yT := d.matmul(x, n)
	out := make([]uint8, n*d.Out)
	zx := int32(d.InQ.Zero)
	for o := 0; o < d.Out; o++ {
		s := d.InQ.Scale * d.WScale[o]
		corr := zx * d.WSum[o]
		bias := d.Bias[o]
		row := yT[o*n : (o+1)*n]
		for j, a := range row {
			out[j*d.Out+o] = requantU8(s*float32(a-corr)+bias, d.OutQ, d.Relu)
		}
	}
	return out
}

// realForward is QConv2D.realForward's dense twin: real-valued
// pre-activation outputs in the float layout [N, Out].
func (d *QDense) realForward(x []uint8, n int) []float32 {
	yT := d.matmul(x, n)
	out := make([]float32, n*d.Out)
	zx := int32(d.InQ.Zero)
	for o := 0; o < d.Out; o++ {
		s := d.InQ.Scale * d.WScale[o]
		corr := zx * d.WSum[o]
		bias := d.Bias[o]
		row := yT[o*n : (o+1)*n]
		for j, a := range row {
			out[j*d.Out+o] = s*float32(a-corr) + bias
		}
	}
	return out
}

// forwardLogits is the head-layer path: dequantize straight to float32
// logits, skipping output requantization entirely.
func (d *QDense) forwardLogits(x []uint8, n int) *tensor.Tensor {
	yT := d.matmul(x, n)
	logits := tensor.New(n, d.Out)
	zx := int32(d.InQ.Zero)
	for o := 0; o < d.Out; o++ {
		s := d.InQ.Scale * d.WScale[o]
		corr := zx * d.WSum[o]
		bias := d.Bias[o]
		row := yT[o*n : (o+1)*n]
		for j, a := range row {
			logits.Data[j*d.Out+o] = s*float32(a-corr) + bias
		}
	}
	return logits
}

// QModel is a quantized inference-only model: an input quantization, a
// chain of uint8 ops, and a float32-logits head. It is immutable and
// safe for concurrent use (see the package comment on statelessness).
type QModel struct {
	InQ  QParams
	Ops  []QOp
	Head *QDense
}

func init() {
	// The op chain is serialized through a gob interface slice; register
	// every concrete op type once.
	gob.Register(&QConv2D{})
	gob.Register(&QMaxPool2D{})
	gob.Register(&QDense{})
}

// Predict quantizes the float input batch and returns the float32
// logits, matching Sequential.Predict's shape contract.
func (m *QModel) Predict(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	q := make([]uint8, x.Len())
	for i, v := range x.Data {
		q[i] = m.InQ.Quantize(v)
	}
	for _, op := range m.Ops {
		q = op.QForward(q, n)
	}
	return m.Head.forwardLogits(q, n)
}

// PredictClasses returns the argmax class per sample.
func (m *QModel) PredictClasses(x *tensor.Tensor) []int {
	logits := m.Predict(x)
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.ArgMaxRow(i)
	}
	return out
}

// Save writes the quantized model to w with gob.
func (m *QModel) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m)
}

// LoadQModel restores a quantized model saved by Save and validates its
// internal shape consistency, so a decoded-but-nonsensical payload is
// rejected here instead of panicking inside a forward pass.
func LoadQModel(r io.Reader) (*QModel, error) {
	var m QModel
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// The packed GEMM panels are derived state gob does not carry;
	// rebuild them now that shapes are known-consistent.
	for _, op := range m.Ops {
		switch l := op.(type) {
		case *QConv2D:
			l.prepack()
		case *QDense:
			l.prepack()
		}
	}
	m.Head.prepack()
	return &m, nil
}

// Validate checks structural invariants: every op's weight and scale
// slices match its declared geometry.
func (m *QModel) Validate() error {
	if m.Head == nil {
		return fmt.Errorf("nn: quantized model has no head layer")
	}
	check := func(op QOp) error {
		switch l := op.(type) {
		case *QConv2D:
			fanIn := l.InC * l.Spec.KH * l.Spec.KW
			if l.Filters <= 0 || fanIn <= 0 {
				return fmt.Errorf("nn: quantized conv has empty geometry")
			}
			if err := l.Spec.Validate(l.InH, l.InW); err != nil {
				return err
			}
			if len(l.W) != l.Filters*fanIn || len(l.WScale) != l.Filters ||
				len(l.WSum) != l.Filters || len(l.Bias) != l.Filters {
				return fmt.Errorf("nn: quantized conv weight shapes inconsistent")
			}
			if l.OutQ.Scale <= 0 || l.InQ.Scale <= 0 {
				return fmt.Errorf("nn: quantized conv has non-positive activation scale")
			}
		case *QMaxPool2D:
			if err := l.Spec.Validate(l.InH, l.InW); err != nil {
				return err
			}
			if l.InC <= 0 {
				return fmt.Errorf("nn: quantized pool has empty geometry")
			}
		case *QDense:
			if l.In <= 0 || l.Out <= 0 {
				return fmt.Errorf("nn: quantized dense has empty geometry")
			}
			if len(l.W) != l.Out*l.In || len(l.WScale) != l.Out ||
				len(l.WSum) != l.Out || len(l.Bias) != l.Out {
				return fmt.Errorf("nn: quantized dense weight shapes inconsistent")
			}
			if l.InQ.Scale <= 0 {
				return fmt.Errorf("nn: quantized dense has non-positive activation scale")
			}
		default:
			return fmt.Errorf("nn: unknown quantized op %T", op)
		}
		return nil
	}
	for _, op := range m.Ops {
		if err := check(op); err != nil {
			return err
		}
	}
	if err := check(m.Head); err != nil {
		return err
	}
	if m.InQ.Scale <= 0 {
		return fmt.Errorf("nn: quantized model has non-positive input scale")
	}
	return nil
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
	q.prepack()
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
	q.prepack()
	return q
}

// correctBias folds each channel's mean calibration drift into its
// bias: want and got are the float and dequantized-quantized
// pre-activation outputs in [N, chans, chanW] layout (chanW = 1 for
// dense). Per-tensor activation rounding and range clipping accumulate
// a small systematic per-channel offset across layers; measuring it on
// the calibration batch and subtracting it from the bias removes the
// drift's mean component without touching the weights.
func correctBias(bias []float32, n, chanW int, want, got []float32) {
	chans := len(bias)
	for f := 0; f < chans; f++ {
		var sum float64
		for i := 0; i < n; i++ {
			base := (i*chans + f) * chanW
			for j := 0; j < chanW; j++ {
				sum += float64(want[base+j] - got[base+j])
			}
		}
		bias[f] += float32(sum / float64(n*chanW))
	}
}

// Quantize builds the int8 inference twin of a trained Sequential using
// calib — a batch of already-mapped model inputs — to calibrate every
// activation scale and correct every channel bias. It recognizes the
// layer grammar of the three PRIONN architectures (Conv2D/Dense each
// optionally followed by ReLU, plus MaxPool2D, Flatten, and Dropout)
// and returns an error for anything else.
//
// The walk runs the float model and the growing quantized chain side by
// side over the calibration batch, block by block (nextBlock — the cut
// the float inference forward uses): each new quantized layer's bias is
// corrected against the float layer's pre-activation output (see
// correctBias) before its output quantization is calibrated on the
// float activations. The source model is only read: its parameters are
// not written and the calibration forwards are inference forwards, so
// Quantize may run beside other readers of the model.
func Quantize(m *Sequential, calib *tensor.Tensor) (*QModel, error) {
	if calib == nil || calib.Dim(0) == 0 {
		return nil, fmt.Errorf("nn: quantization requires a non-empty calibration batch")
	}
	qm := &QModel{InQ: calibrateQParams(calib.Data)}
	curQ := qm.InQ
	x := calib
	n := calib.Dim(0)
	// qx is the calibration batch as the quantized chain sees it — the
	// reference for per-layer drift measurement.
	qx := make([]uint8, calib.Len())
	for i, v := range calib.Data {
		qx[i] = qm.InQ.Quantize(v)
	}
	pool := func(l *MaxPool2D) {
		x = l.Forward(x, false)
		op := &QMaxPool2D{InC: l.InC, InH: l.InH, InW: l.InW, Spec: l.Spec}
		qm.Ops = append(qm.Ops, op)
		qx = op.QForward(qx, n)
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
			q := quantizeConv(l, curQ, QParams{}, b.relu != nil)
			oh, ow := l.Spec.OutDims(l.InH, l.InW)
			correctBias(q.Bias, n, oh*ow, y.Data, q.realForward(qx, n))
			if b.relu != nil {
				y = b.relu.Forward(y, false)
			}
			q.OutQ = calibrateQParams(y.Data)
			qm.Ops = append(qm.Ops, q)
			qx = q.QForward(qx, n)
			curQ = q.OutQ
			x = y
			if b.pool != nil {
				pool(b.pool)
			}
		case *Dense:
			if i == len(layers) && b.relu == nil {
				// The logits head: dequantized output, no requantization.
				q := quantizeDense(l, curQ, QParams{}, false)
				correctBias(q.Bias, n, 1, l.Forward(x, false).Data, q.realForward(qx, n))
				qm.Head = q
				return qm, nil
			}
			y := l.Forward(x, false)
			q := quantizeDense(l, curQ, QParams{}, b.relu != nil)
			correctBias(q.Bias, n, 1, y.Data, q.realForward(qx, n))
			if b.relu != nil {
				y = b.relu.Forward(y, false)
			}
			q.OutQ = calibrateQParams(y.Data)
			qm.Ops = append(qm.Ops, q)
			qx = q.QForward(qx, n)
			curQ = q.OutQ
			x = y
		default:
			return nil, fmt.Errorf("nn: cannot quantize layer %q", l.Name())
		}
	}
	return nil, fmt.Errorf("nn: model does not end in a Dense logits head")
}
