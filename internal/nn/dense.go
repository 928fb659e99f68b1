package nn

import (
	"math/rand"

	"prionn/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b over batches
// [N, in] → [N, out].
type Dense struct {
	In, Out int
	W       *tensor.Tensor // [in, out]
	B       *tensor.Tensor // [out]
	dW, dB  *tensor.Tensor // gradient accumulators, allocated by the first grads call
	x       *tensor.Tensor // input of the last train-mode Forward
	y, dx   *tensor.Tensor // recycled train-time output and input-gradient buffers

	// packedW is W as the row kernel's operand (a reference and one
	// scan, no copy), so an inference forward skips the blocked GEMM's
	// per-call packing pass. Sequential.Prepack builds it for a model
	// whose weights are final (a snapshot); everything that rewrites W
	// through the layer or its model — a train-mode Forward, Load,
	// CopyParamsFrom — drops it, and a layer without one packs per call.
	packedW *tensor.PackedB
}

// NewDense returns a Dense layer with He-initialized weights, or, with a
// nil rng, zero ones (see NewConv2D).
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		W:   heInit(tensor.New(in, out), rng, in),
		B:   tensor.New(out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return d.infer(x, false)
	}
	if x.Rank() != 2 || x.Dim(1) != d.In {
		x = x.Reshape(x.Dim(0), -1)
	}
	d.x = x
	d.packedW = nil // the step this forward starts will change W
	// The previous step's output is dead once its TrainBatch returned,
	// so the layer cycles one arena buffer instead of allocating per
	// batch.
	d.y = tensor.DefaultArena().Reuse(d.y, x.Dim(0), d.Out)
	tensor.MatMul(d.y, x, d.W)
	d.y.AddRowVector(d.B)
	return d.y
}

// infer is the inference forward of the layer together with the ReLU
// that follows it in the stack (relu): the product through the row
// kernel when the layer is prepacked, then bias and ReLU in one
// sweep over the output — per cell the same `+ b` and `v <= 0 → 0` the
// separate layers apply, so the result is bitwise theirs. The output is
// a check-out from the default arena (see Sequential.infer).
func (d *Dense) infer(x *tensor.Tensor, relu bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		x = x.Reshape(x.Dim(0), -1)
	}
	y := tensor.DefaultArena().Get(x.Dim(0), d.Out)
	if d.packedW != nil {
		tensor.MatMulPackedB(y, x, d.packedW)
	} else {
		tensor.MatMul(y, x, d.W)
	}
	for i := 0; i < y.Dim(0); i++ {
		row := y.Data[i*d.Out : (i+1)*d.Out]
		for j, b := range d.B.Data {
			v := row[j] + b
			if relu && v <= 0 {
				v = 0
			}
			row[j] = v
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor { return d.backward(dy, true) }

// backward implements paramLayer.
func (d *Dense) backward(dy *tensor.Tensor, wantDx bool) *tensor.Tensor {
	// dW += xᵀ·dy ; dB += column sums of dy ; dx = dy·Wᵀ
	dW, dB := d.grads()
	tensor.MatMulTransAAcc(dW, d.x, dy)
	dy.SumRowsAcc(dB)
	if !wantDx {
		return nil
	}
	d.dx = tensor.DefaultArena().Reuse(d.dx, dy.Dim(0), d.In)
	return tensor.MatMulTransB(d.dx, dy, d.W)
}

// release implements releaser.
func (d *Dense) release() {
	ar := tensor.DefaultArena()
	ar.Put(d.y)
	ar.Put(d.dx)
	d.x, d.y, d.dx = nil, nil, nil
	d.dW, d.dB = nil, nil
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor {
	dW, dB := d.grads()
	return []*tensor.Tensor{dW, dB}
}

// grads is Conv2D.grads for a Dense layer.
func (d *Dense) grads() (dW, dB *tensor.Tensor) {
	if d.dW == nil {
		d.dW, d.dB = tensor.New(d.In, d.Out), tensor.New(d.Out)
	}
	return d.dW, d.dB
}

// ReLU applies the rectified linear unit elementwise.
type ReLU struct {
	mask  []bool         // sign of the last train-mode Forward's input
	y, dx *tensor.Tensor // recycled train-time buffers
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		y := tensor.New(x.Shape...)
		for i, v := range x.Data {
			if v <= 0 {
				y.Data[i] = 0
			} else {
				y.Data[i] = v
			}
		}
		return y
	}
	r.y = tensor.DefaultArena().Reuse(r.y, x.Shape...)
	y := r.y
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	for i, v := range x.Data {
		if v <= 0 {
			y.Data[i] = 0
			r.mask[i] = false
		} else {
			y.Data[i] = v
			r.mask[i] = true
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.DefaultArena().Reuse(r.dx, dy.Shape...)
	dx := r.dx
	for i, v := range dy.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// release implements releaser.
func (r *ReLU) release() {
	ar := tensor.DefaultArena()
	ar.Put(r.y)
	ar.Put(r.dx)
	r.y, r.dx, r.mask = nil, nil, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Flatten reshapes [N, ...] to [N, features], remembering the train-mode
// input shape so the gradient can be restored on the way back.
type Flatten struct {
	inShape []int
	y, dx   *tensor.Tensor // train-time views, their headers reused
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return x.Reshape(x.Dim(0), -1)
	}
	f.inShape = append(f.inShape[:0], x.Shape...)
	f.y = view(f.y, x.Data, x.Dim(0), x.Len()/max(x.Dim(0), 1))
	return f.y
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f.dx = view(f.dx, dy.Data, f.inShape...)
	return f.dx
}

// release implements releaser: the views would keep other layers'
// released buffers reachable.
func (f *Flatten) release() { f.y, f.dx = nil, nil }

// view points the header v — a new one when nil — at data with the given
// shape: Reshape for a train-time path, allocation-free once v exists.
func view(v *tensor.Tensor, data []float32, shape ...int) *tensor.Tensor {
	if v == nil {
		v = new(tensor.Tensor)
	}
	v.Shape = append(v.Shape[:0], shape...)
	v.Data = data
	return v
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Dropout randomly zeroes activations at train time with probability P and
// rescales survivors by 1/(1-P) (inverted dropout), acting as identity at
// inference time.
type Dropout struct {
	P     float64
	rng   *rand.Rand
	mask  []float32
	y, dx *tensor.Tensor // recycled train-time buffers
}

// NewDropout returns a Dropout layer with drop probability p in [0, 1).
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0, 1)")
	}
	return &Dropout{P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return x
	}
	if d.P == 0 {
		d.mask = nil
		return x
	}
	d.y = tensor.DefaultArena().Reuse(d.y, x.Shape...)
	y := d.y
	if cap(d.mask) < y.Len() {
		d.mask = make([]float32, y.Len())
	}
	d.mask = d.mask[:y.Len()]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	d.dx = tensor.DefaultArena().Reuse(d.dx, dy.Shape...)
	dx := d.dx
	for i, v := range dy.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// release implements releaser.
func (d *Dropout) release() {
	ar := tensor.DefaultArena()
	ar.Put(d.y)
	ar.Put(d.dx)
	d.y, d.dx, d.mask = nil, nil, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }
