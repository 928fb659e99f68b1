package tensor

import "math"

// Add computes t += o elementwise and returns t. Shapes must match in
// element count.
func (t *Tensor) Add(o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// Sub computes t -= o elementwise and returns t.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Sub size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Mul computes t *= o elementwise (Hadamard product) and returns t.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Mul size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] *= v
	}
	return t
}

// Scale multiplies every element by s and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled computes t += s*o elementwise and returns t (axpy).
func (t *Tensor) AddScaled(s float32, o *Tensor) *Tensor {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += s * v
	}
	return t
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMaxRow returns, for a rank-2 tensor, the column index of the maximum
// element in row i.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// SoftmaxRows applies a numerically stable softmax to every row of a
// rank-2 tensor in place and returns t. Rows are processed in parallel.
func (t *Tensor) SoftmaxRows() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SoftmaxRows requires a rank-2 tensor")
	}
	For(t.Shape[0], 64, softmaxRows{t})
	return t
}

// softmaxRows is one SoftmaxRows call.
type softmaxRows struct{ t *Tensor }

// Run is SoftmaxRows on rows [lo, hi).
func (j softmaxRows) Run(lo, hi int) {
	for r := lo; r < hi; r++ {
		row := j.t.Row(r)
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - m)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// ReLU applies max(0, x) in place and returns t.
func (t *Tensor) ReLU() *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i, v := range a.Data {
		s += float64(v) * float64(b.Data[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ClipNorm rescales t in place so its L2 norm does not exceed maxNorm and
// returns the norm observed before clipping. Gradient clipping keeps the
// online warm-start retraining loop stable across distribution shifts.
func (t *Tensor) ClipNorm(maxNorm float64) float64 {
	n := t.L2Norm()
	if maxNorm > 0 && n > maxNorm {
		t.Scale(float32(maxNorm / n))
	}
	return n
}
