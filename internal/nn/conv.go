package nn

import (
	"fmt"
	"math/rand"

	"prionn/internal/tensor"
)

// Conv2D is a 2D convolutional layer over [N, C, H, W] batches. Input
// channel count and spatial extent are fixed at construction so the layer
// can validate shapes and report its output size.
type Conv2D struct {
	InC, InH, InW int
	Filters       int
	Spec          tensor.ConvSpec
	W             *tensor.Tensor    // [F, C*KH*KW]
	B             *tensor.Tensor    // [F]
	dW, dB        *tensor.Tensor    // gradient accumulators, allocated by the first grads call
	train         *tensor.ConvTrain // training kernels and what the last train-mode Forward saved
	y, dx         *tensor.Tensor    // recycled train-time buffers

	// packedW is W prepared for the inference forward (filter strips and
	// tap table, see tensor.PackedConv), built and dropped on the same
	// road as Dense.packedW; an unpacked layer prepares W per call.
	packedW *tensor.PackedConv
}

// NewConv2D returns a Conv2D layer with He-initialized kernels — or, with
// a nil rng, zero ones, for a caller about to overwrite them. It panics
// if the spec is invalid for the declared input extent.
func NewConv2D(rng *rand.Rand, inC, inH, inW, filters int, spec tensor.ConvSpec) *Conv2D {
	if err := spec.Validate(inH, inW); err != nil {
		panic(fmt.Sprintf("nn: bad Conv2D spec: %v", err))
	}
	fanIn := inC * spec.KH * spec.KW
	return &Conv2D{
		InC: inC, InH: inH, InW: inW,
		Filters: filters,
		Spec:    spec,
		W:       heInit(tensor.New(filters, fanIn), rng, fanIn),
		B:       tensor.New(filters),
	}
}

// heInit He-initializes w from rng; a nil rng leaves it zero.
func heInit(w *tensor.Tensor, rng *rand.Rand, fanIn int) *tensor.Tensor {
	if rng == nil {
		return w
	}
	return w.HeInit(rng, fanIn)
}

// OutDims returns the spatial extent of the layer output.
func (c *Conv2D) OutDims() (oh, ow int) { return c.Spec.OutDims(c.InH, c.InW) }

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return c.infer(x, false, nil)
	}
	if x.Rank() != 4 {
		x = x.Reshape(x.Dim(0), c.InC, c.InH, c.InW)
	}
	// The previous step's output is dead once that TrainBatch returned;
	// recycling it makes the batched forward allocation-free at a steady
	// batch shape.
	c.packedW = nil // the step this forward starts will change W
	if c.train == nil {
		c.train = tensor.NewConvTrain(c.Filters, c.InC, c.InH, c.InW, c.Spec)
	}
	tensor.DefaultArena().Put(c.y)
	c.y = c.train.Forward(x, c.W, c.B)
	return c.y
}

// infer is the inference forward of the layer together with the ReLU
// (relu) and the max-pool (pool, nil for none) that follow it in the
// stack: one pass per sample with both folded into its epilogue
// (tensor.Conv2DInfer), through the prepared weights when the layer has
// them, bitwise equal to running the layers one after another. The
// output is a check-out from the default arena (see Sequential.infer).
func (c *Conv2D) infer(x *tensor.Tensor, relu bool, pool *MaxPool2D) *tensor.Tensor {
	if x.Rank() != 4 {
		x = x.Reshape(x.Dim(0), c.InC, c.InH, c.InW)
	}
	var ps *tensor.ConvSpec
	if pool != nil {
		ps = &pool.Spec
	}
	if c.packedW != nil {
		return c.packedW.Infer(x, c.B, relu, ps)
	}
	return tensor.Conv2DInfer(x, c.W, c.B, c.InC, c.InH, c.InW, c.Spec, relu, ps)
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backward implements paramLayer.
func (c *Conv2D) backward(dy *tensor.Tensor, wantDx bool) *tensor.Tensor {
	if c.train == nil {
		panic("nn: Conv2D.Backward without a train-mode Forward")
	}
	tensor.DefaultArena().Put(c.dx)
	dW, dB := c.grads()
	c.dx = c.train.Backward(dy, c.W, dW, dB, wantDx)
	return c.dx
}

// release implements releaser.
func (c *Conv2D) release() {
	ar := tensor.DefaultArena()
	ar.Put(c.y)
	ar.Put(c.dx)
	c.y, c.dx, c.train = nil, nil, nil
	c.dW, c.dB = nil, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor {
	dW, dB := c.grads()
	return []*tensor.Tensor{dW, dB}
}

// grads returns the gradient accumulators, allocating them on first
// use: a layer that only ever infers (a snapshot's) never holds them.
func (c *Conv2D) grads() (dW, dB *tensor.Tensor) {
	if c.dW == nil {
		c.dW, c.dB = tensor.New(c.W.Shape...), tensor.New(c.B.Shape...)
	}
	return c.dW, c.dB
}

// NewConv1D returns a 1D convolutional layer over [N, C, L] sequences,
// implemented as a Conv2D with unit height: kernel 1×k, input C×1×L.
func NewConv1D(rng *rand.Rand, inC, length, filters, k, stride, pad int) *Conv2D {
	return NewConv2D(rng, inC, 1, length, filters,
		tensor.ConvSpec{KH: 1, KW: k, Stride: stride, PadW: pad})
}

// MaxPool2D is a max-pooling layer over [N, C, H, W] batches.
type MaxPool2D struct {
	InC, InH, InW int
	Spec          tensor.ConvSpec
	argmax        []int32        // winners of the last train-mode Forward
	y, dx         *tensor.Tensor // recycled train-time buffers
}

// NewMaxPool2D returns a max-pooling layer with the given window and
// stride (no padding).
func NewMaxPool2D(inC, inH, inW, window, stride int) *MaxPool2D {
	spec := tensor.ConvSpec{KH: window, KW: window, Stride: stride}
	if err := spec.Validate(inH, inW); err != nil {
		panic(fmt.Sprintf("nn: bad MaxPool2D spec: %v", err))
	}
	return &MaxPool2D{InC: inC, InH: inH, InW: inW, Spec: spec}
}

// OutDims returns the spatial extent of the pooled output.
func (p *MaxPool2D) OutDims() (oh, ow int) { return p.Spec.OutDims(p.InH, p.InW) }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return "maxpool2d" }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		x = x.Reshape(x.Dim(0), p.InC, p.InH, p.InW)
	}
	if !train {
		y, _ := tensor.MaxPool2DForward(x, p.InC, p.InH, p.InW, p.Spec, false)
		return y
	}
	oh, ow := p.OutDims()
	p.y = tensor.DefaultArena().Reuse(p.y, x.Dim(0), p.InC, oh, ow)
	if cap(p.argmax) < p.y.Len() {
		p.argmax = make([]int32, p.y.Len())
	}
	p.argmax = p.argmax[:p.y.Len()]
	tensor.MaxPool2DForwardInto(p.y, p.argmax, x, p.InC, p.InH, p.InW, p.Spec)
	return p.y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.DefaultArena().Reuse(p.dx, p.y.Dim(0), p.InC, p.InH, p.InW)
	tensor.MaxPool2DBackwardInto(p.dx, dy, p.argmax)
	return p.dx
}

// release implements releaser.
func (p *MaxPool2D) release() {
	ar := tensor.DefaultArena()
	ar.Put(p.y)
	ar.Put(p.dx)
	p.y, p.dx, p.argmax = nil, nil, nil
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }
