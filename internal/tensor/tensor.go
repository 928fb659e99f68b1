// Package tensor provides dense float32 tensors and the parallel numerical
// kernels (matrix multiplication, im2col convolution, pooling, elementwise
// operations) that back the neural-network substrate used by PRIONN.
//
// Tensors are row-major and store their data in a flat []float32. The
// package is deliberately small: it implements exactly the operations the
// PRIONN models need (dense layers, 1D/2D convolutions, max pooling,
// softmax) with backward passes, and parallelizes the hot kernels across
// runtime.GOMAXPROCS(0) workers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or one of the initializers to create a usable one.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the flat row-major backing array; len(Data) == product(Shape).
	Data []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Keep the shape slice out of the message: referencing it
			// would make every caller's variadic argument escape to the
			// heap (see Arena.Get).
			panic(fmt.Sprintf("tensor: negative dimension %d in New", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (=%d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must be unchanged. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer, n := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// Fill sets every element of t to v and returns t.
func (t *Tensor) Fill(v float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Zero sets every element to zero and returns t.
func (t *Tensor) Zero() *Tensor {
	clear(t.Data)
	return t
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.Shape, len(t.Data))
}

// Row returns a view of row i of a rank-2 tensor as a slice (no copy).
func (t *Tensor) Row(i int) []float32 {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// RandN fills t with samples from N(0, std) using rng and returns t.
func (t *Tensor) RandN(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// HeInit fills t with He-normal initialization for a layer with the given
// fan-in, the standard initializer for ReLU networks.
func (t *Tensor) HeInit(rng *rand.Rand, fanIn int) *Tensor {
	if fanIn <= 0 {
		fanIn = 1
	}
	return t.RandN(rng, math.Sqrt(2.0/float64(fanIn)))
}

// XavierInit fills t with Glorot-uniform initialization for the given
// fan-in and fan-out.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	if fanIn+fanOut <= 0 {
		fanIn, fanOut = 1, 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * limit)
	}
	return t
}
