package tensor

import "fmt"

// MatMul computes C = A·B for rank-2 tensors A [m,k] and B [k,n], writing
// into dst [m,n] (allocated if nil) and returning it. The blocked GEMM
// core (gemm.go) writes every destination cell, so caller-provided dst is
// not pre-zeroed — its prior contents are simply overwritten.
func MatMul(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMul dst shape mismatch")
	}
	gemm(dst.Data, n, m, n, k,
		gemmView{data: a.Data, rs: k, cs: 1},
		gemmView{data: b.Data, rs: n, cs: 1},
		false)
	return dst
}

// MatMulTransA computes C = Aᵀ·B for A [k,m] and B [k,n] into dst [m,n].
// It is the kernel used for weight gradients (xᵀ·dy) and avoids forming
// the transpose explicitly.
func MatMulTransA(dst, a, b *Tensor) *Tensor {
	return matMulTransA(dst, a, b, false)
}

// MatMulTransAAcc computes dst += Aᵀ·B into a caller-provided dst [m,n].
// The accumulate form lets gradient updates (dW += xᵀ·dy) run as a single
// GEMM instead of a multiply into scratch followed by an Add.
func MatMulTransAAcc(dst, a, b *Tensor) *Tensor {
	if dst == nil {
		panic("tensor: MatMulTransAAcc requires a destination")
	}
	return matMulTransA(dst, a, b, true)
}

func matMulTransA(dst, a, b *Tensor, acc bool) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulTransA dst shape mismatch")
	}
	gemm(dst.Data, n, m, n, k,
		gemmView{data: a.Data, rs: 1, cs: m}, // Aᵀ: element (i,p) at a[p*m+i]
		gemmView{data: b.Data, rs: n, cs: 1},
		acc)
	return dst
}

// MatMulTransB computes C = A·Bᵀ for A [m,k] and B [n,k] into dst [m,n].
// It is the kernel used for input gradients (dy·Wᵀ).
func MatMulTransB(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	if dst == nil {
		dst = New(m, n)
	} else if dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulTransB dst shape mismatch")
	}
	gemm(dst.Data, n, m, n, k,
		gemmView{data: a.Data, rs: k, cs: 1},
		gemmView{data: b.Data, rs: 1, cs: k}, // Bᵀ: element (p,j) at b[j*k+p]
		false)
	return dst
}

// Transpose returns a new tensor holding the transpose of a rank-2 tensor.
func (t *Tensor) Transpose() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	r, c := t.Shape[0], t.Shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j*r+i] = v
		}
	}
	return out
}

// AddRowVector adds vector v (length n) to every row of a rank-2 tensor
// [m,n] in place and returns t. Used for bias addition.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: AddRowVector requires a rank-2 tensor")
	}
	n := t.Shape[1]
	if len(v.Data) != n {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < t.Shape[0]; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
	return t
}

// SumRows accumulates the rows of a rank-2 tensor [m,n] into dst (length
// n, allocated if nil) and returns dst. Used for bias gradients.
func (t *Tensor) SumRows(dst *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SumRows requires a rank-2 tensor")
	}
	n := t.Shape[1]
	if dst == nil {
		dst = New(n)
	} else {
		dst.Zero()
	}
	return t.SumRowsAcc(dst)
}

// SumRowsAcc adds the row sums of a rank-2 tensor [m,n] to dst (length n)
// and returns dst. The accumulate form serves bias-gradient updates
// (dB += Σ rows of dy) without intermediate scratch.
func (t *Tensor) SumRowsAcc(dst *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SumRowsAcc requires a rank-2 tensor")
	}
	n := t.Shape[1]
	if len(dst.Data) != n {
		panic("tensor: SumRowsAcc length mismatch")
	}
	for i := 0; i < t.Shape[0]; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
	return dst
}
