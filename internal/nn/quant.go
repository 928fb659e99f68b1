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
// Forward. QModel.Predict cuts the op chain into conv→[pool] and dense
// blocks — the cut nextBlock gives the float path, a pool op folding
// into the conv before it when it is 2×2 stride 2, unpadded, over that
// conv's output — and runs each as one fused pass of the tensor package
// (tensor.Conv2DInferU8, tensor.DenseInferU8): strips packed straight
// from the u8 image or from weights packed once per snapshot, the 2×2
// window maximum taken on the int32 accumulators, then zero-point
// correction, requantization and the ReLU clamp once per surviving cell.
// Activations ping-pong between two pooled buffers; a batch-1 forward
// starts no goroutine. A lone op's QForward is the same code with
// nothing folded and a fresh output.
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
// pure-Go GEMM kernels (whose int32 accumulators are bitwise equal);
// every step is weakly increasing in the accumulator, so pooling before
// it yields the bytes pooling after it would (tensor/infer_int8.go).
//
// A quantized model is immutable and its forwards are stateless, so one
// QModel may serve concurrent callers without cloning (as may a
// Sequential that nothing trains: only its train-mode forwards cache).

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

// QOp is one stage of a quantized forward pass: uint8 activations in,
// uint8 activations out, batch size n. Implementations are immutable
// after construction and QForward allocates its output per call, so a
// QOp is safe for concurrent use. QModel.Predict does not call QForward:
// it runs the ops it knows as fused blocks into pooled buffers.
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

// qScratch is the pair of activation buffers one QModel.Predict
// ping-pongs between. They never outlive the call and every byte is
// written before it is read, so they are pooled unzeroed — per call, at
// package level: QModel itself stays stateless and safe to share across
// goroutines.
type qScratch struct {
	a, b []uint8
}

var qScratchPool = sync.Pool{New: func() any { return new(qScratch) }}

// buffers returns the two buffers with at least size bytes each.
// Contents are unspecified.
func (s *qScratch) buffers(size int) (a, b []uint8) {
	if cap(s.a) < size {
		s.a = make([]uint8, size)
	}
	if cap(s.b) < size {
		s.b = make([]uint8, size)
	}
	return s.a[:size], s.b[:size]
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

// panels returns W in the int8 GEMM's panel layout: packedW, or, for an
// op built by hand rather than by Quantize or LoadQModel, a fresh pack.
func (c *QConv2D) panels() *tensor.PackedInt8A {
	if c.packedW != nil {
		return c.packedW
	}
	colRows := c.InC * c.Spec.KH * c.Spec.KW
	return tensor.PackInt8A(c.W, colRows, 1, c.Filters, colRows)
}

// prepack builds the frozen GEMM panels from W. Must run after the
// weights are final (they are written once, at construction).
func (c *QConv2D) prepack() { c.packedW = c.panels() }

// folds reports whether next is a pool the conv's forward can take into
// its epilogue: 2×2 stride 2, unpadded, over exactly this conv's output.
func (c *QConv2D) folds(next QOp) bool {
	p, ok := next.(*QMaxPool2D)
	oh, ow := c.Spec.OutDims(c.InH, c.InW)
	return ok && p.Spec == tensor.ConvSpec{KH: 2, KW: 2, Stride: 2} &&
		p.InC == c.Filters && p.InH == oh && p.InW == ow
}

// forward is the fused block forward (tensor.Conv2DInferU8): into dst the
// requantized outputs, max-pooled 2×2 with pool, or with dst nil into
// real the pre-activations.
func (c *QConv2D) forward(dst []uint8, real []float32, x []uint8, n int, pool bool) {
	tensor.Conv2DInferU8(dst, real, x, n, c.panels(), c.InC, c.InH, c.InW, c.Spec, tensor.Requant{
		InScale: c.InQ.Scale, InZero: c.InQ.Zero,
		WScale: c.WScale, WSum: c.WSum, Bias: c.Bias,
		OutScale: c.OutQ.Scale, OutZero: c.OutQ.Zero, Relu: c.Relu,
	}, pool)
}

// QForward implements QOp: the block forward with nothing folded.
func (c *QConv2D) QForward(x []uint8, n int) []uint8 {
	_, outLen := qDims(c)
	out := make([]uint8, n*outLen)
	c.forward(out, nil, x, n, false)
	return out
}

// realForward computes the layer's real-valued pre-activation outputs
// in the float layout [N, F, OH, OW] — the dequantized view of the
// accumulator before requantization. Quantize uses it to measure each
// filter's mean quantization-induced drift on the calibration batch
// (bias correction); the serving path never calls it.
func (c *QConv2D) realForward(x []uint8, n int) []float32 {
	_, outLen := qDims(c)
	out := make([]float32, n*outLen)
	c.forward(nil, out, x, n, false)
	return out
}

// QMaxPool2D is the quantized twin of MaxPool2D. Max pooling commutes
// with (monotonic) quantization, so it runs directly on uint8 and the
// activation parameters pass through unchanged. In a QModel it is its
// own op — the snapshot format — and at forward time folds into the conv
// before it when QConv2D.folds says so.
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
	// strip, so a batch of 1–4 wastes no vector lanes (see
	// QConv2D.packedW for its lifetime).
	packedW *tensor.PackedInt8B
}

// panels and prepack are QConv2D's.
func (d *QDense) panels() *tensor.PackedInt8B {
	if d.packedW != nil {
		return d.packedW
	}
	return tensor.PackInt8B(d.W, 1, d.In, d.In, d.Out)
}

func (d *QDense) prepack() { d.packedW = d.panels() }

// forward is the fused block forward (tensor.DenseInferU8): into dst
// [N, Out] the requantized outputs, or with dst nil into real the
// pre-activations — the logits, when d is a head.
func (d *QDense) forward(dst []uint8, real []float32, x []uint8, n int) {
	tensor.DenseInferU8(dst, real, x, n, d.panels(), tensor.Requant{
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

// realForward is QConv2D.realForward's dense twin: real-valued
// pre-activation outputs in the float layout [N, Out].
func (d *QDense) realForward(x []uint8, n int) []float32 {
	out := make([]float32, n*d.Out)
	d.forward(nil, out, x, n)
	return out
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
	sc := qScratchPool.Get().(*qScratch)
	act := m.hidden(sc, x, len(m.Ops))
	logits := tensor.New(n, m.Head.Out)
	m.Head.forward(nil, logits.Data, act, n)
	qScratchPool.Put(sc)
	return logits
}

// hidden quantizes the float batch x into one of sc's buffers and runs
// ops [0, upTo) over it block by block, each block reading one buffer
// and writing the other; the result is the last block's output, in sc.
func (m *QModel) hidden(sc *qScratch, x *tensor.Tensor, upTo int) []uint8 {
	n := x.Dim(0)
	size := x.Len()
	for _, op := range m.Ops[:upTo] {
		_, out := qDims(op)
		size = max(size, n*out)
	}
	cur, next := sc.buffers(size)
	cur = cur[:x.Len()]
	for i, v := range x.Data {
		cur[i] = m.InQ.Quantize(v)
	}
	for i := 0; i < upTo; {
		op := m.Ops[i]
		i++
		_, out := qDims(op)
		switch l := op.(type) {
		case *QConv2D:
			pool := i < upTo && l.folds(m.Ops[i])
			if pool {
				_, out = qDims(m.Ops[i])
				i++
			}
			l.forward(next[:n*out], nil, cur, n, pool)
		case *QMaxPool2D:
			tensor.MaxPool2DForwardU8(next[:n*out], cur, n, l.InC, l.InH, l.InW, l.Spec)
		case *QDense:
			l.forward(next[:n*out], nil, cur, n)
		}
		cur, next = next[:n*out], cur[:cap(cur)]
	}
	return cur
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

// maxQLen bounds every activation length Validate accepts, so the
// products of decoded dimensions cannot overflow.
const maxQLen = 1 << 30

// positiveDims reports whether every dimension is positive and their
// product at most maxQLen.
func positiveDims(dims ...int) bool {
	n := 1
	for _, d := range dims {
		if d <= 0 || d > maxQLen/n {
			return false
		}
		n *= d
	}
	return true
}

// positiveScales reports whether every weight scale is positive (and not
// NaN) — what makes requantization increasing in the accumulator, which
// folding a pool into a conv relies on.
func positiveScales(scales []float32) bool {
	for _, s := range scales {
		if !(s > 0) {
			return false
		}
	}
	return true
}

// InputLen returns the per-sample input length the model's first op
// declares.
func (m *QModel) InputLen() int {
	if len(m.Ops) == 0 {
		return m.Head.In
	}
	in, _ := qDims(m.Ops[0])
	return in
}

// Validate checks structural invariants: every op's weight and scale
// slices match its declared geometry, and the chain is consistent — each
// op's input length is the previous op's output length, and the head's
// the last op's. The forward slices and packs activations by the declared
// geometry alone, so this is what stands between a tampered file and an
// out-of-range read.
func (m *QModel) Validate() error {
	if m.Head == nil {
		return fmt.Errorf("nn: quantized model has no head layer")
	}
	check := func(op QOp) error {
		switch l := op.(type) {
		case *QConv2D:
			fanIn := l.InC * l.Spec.KH * l.Spec.KW
			if err := l.Spec.Validate(l.InH, l.InW); err != nil {
				return err
			}
			oh, ow := l.Spec.OutDims(l.InH, l.InW)
			if !positiveDims(l.InC, l.InH, l.InW) || !positiveDims(l.Filters, oh, ow) || !positiveDims(l.Filters, fanIn) {
				return fmt.Errorf("nn: quantized conv has empty or oversized geometry")
			}
			if len(l.W) != l.Filters*fanIn || len(l.WScale) != l.Filters ||
				len(l.WSum) != l.Filters || len(l.Bias) != l.Filters {
				return fmt.Errorf("nn: quantized conv weight shapes inconsistent")
			}
			if !(l.OutQ.Scale > 0) || !(l.InQ.Scale > 0) || !positiveScales(l.WScale) {
				return fmt.Errorf("nn: quantized conv has a non-positive scale")
			}
		case *QMaxPool2D:
			if err := l.Spec.Validate(l.InH, l.InW); err != nil {
				return err
			}
			if l.Spec.PadH != 0 || l.Spec.PadW != 0 {
				return fmt.Errorf("nn: quantized pool has padding")
			}
			if !positiveDims(l.InC, l.InH, l.InW) {
				return fmt.Errorf("nn: quantized pool has empty or oversized geometry")
			}
		case *QDense:
			if !positiveDims(l.In, l.Out) {
				return fmt.Errorf("nn: quantized dense has empty or oversized geometry")
			}
			if len(l.W) != l.Out*l.In || len(l.WScale) != l.Out ||
				len(l.WSum) != l.Out || len(l.Bias) != l.Out {
				return fmt.Errorf("nn: quantized dense weight shapes inconsistent")
			}
			if !(l.InQ.Scale > 0) || !positiveScales(l.WScale) {
				return fmt.Errorf("nn: quantized dense has a non-positive scale")
			}
		default:
			return fmt.Errorf("nn: unknown quantized op %T", op)
		}
		return nil
	}
	have := 0 // the previous op's output length
	for i, op := range m.Ops {
		if err := check(op); err != nil {
			return err
		}
		in, out := qDims(op)
		if i > 0 && in != have {
			return fmt.Errorf("nn: quantized op %d (%T) takes %d values per sample, the op before it yields %d", i, op, in, have)
		}
		have = out
	}
	if err := check(m.Head); err != nil {
		return err
	}
	if len(m.Ops) > 0 && m.Head.In != have {
		return fmt.Errorf("nn: quantized head takes %d values per sample, the op before it yields %d", m.Head.In, have)
	}
	if !(m.InQ.Scale > 0) {
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
