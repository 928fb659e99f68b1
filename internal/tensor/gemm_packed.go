package tensor

import (
	"fmt"
	"math"
	"sync"
)

// The inference Dense product: one row of the batch at a time against
// the [in, out] weights where they lie.
//
// An inference Dense layer multiplies every batch by the same weights,
// and at PRIONN's batch sizes the blocked GEMM's layout pass over them —
// packBPanel on a 3072×128 matrix — costs more than the multiply it
// prepares. MatMulPackedB packs nothing: each row of A goes through a
// kernel that reads W row-major, 64 columns at a time, and only the rows
// of W that A's row selects. A row's chains never depend on its
// neighbours, so the batch size is not a kernel boundary; every cell is
// MatMul's ascending-k chain, bit for bit.

// PackedB is a k×n float32 matrix prepared as the right operand of
// MatMulPackedB: a reference to the tensor's data — not a copy, so it
// must not change — and what one scan of it found. Safe for concurrent
// use by any number of products once built.
type PackedB struct {
	k, n   int
	w      []float32 // the [k, n] matrix where PackB found it
	finite bool      // no element of w is ±Inf or NaN: a zero in a may skip its row
}

// Dims returns the logical (k, n) shape of the matrix.
func (p *PackedB) Dims() (k, n int) { return p.k, p.n }

// PackB prepares the rank-2 tensor b [k, n]. Both dimensions must be
// positive.
func PackB(b *Tensor) *PackedB {
	if len(b.Shape) != 2 || b.Shape[0] <= 0 || b.Shape[1] <= 0 {
		panic(fmt.Sprintf("tensor: PackB requires a non-empty rank-2 tensor, got shape %v", b.Shape))
	}
	p := &PackedB{k: b.Shape[0], n: b.Shape[1], w: b.Data, finite: true}
	for _, v := range b.Data {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			p.finite = false
			break
		}
	}
	return p
}

// MatMulPackedB is MatMul with a prepared right operand: C = A·B for
// A [m,k] into dst [m,n] (allocated if nil). Bitwise identical to MatMul
// on the same matrix, for any worker count. Workers take whole rows, and
// only when each gets inferParallelMin multiply-adds (inferSerial); the
// inline case — every batch-1 product — calls rows directly: a func value
// handed to ParallelForMin would put job on the heap.
func MatMulPackedB(dst, a *Tensor, b *PackedB) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: MatMulPackedB requires a rank-2 left operand")
	}
	m, k := a.Shape[0], a.Shape[1]
	if k != b.k {
		panic(fmt.Sprintf("tensor: MatMulPackedB inner dimension mismatch %v x [%d %d]", a.Shape, b.k, b.n))
	}
	if dst == nil {
		dst = New(m, b.n)
	} else if dst.Shape[0] != m || dst.Shape[1] != b.n {
		panic("tensor: MatMulPackedB dst shape mismatch")
	}
	job := packedProduct{b: b, dst: dst.Data, a: a.Data}
	minChunk, serial := inferSerial(m, k*b.n)
	if serial {
		job.rows(0, m)
		return dst
	}
	shared := job
	ParallelForMin(m, minChunk, shared.rows)
	return dst
}

// packedProduct is one MatMulPackedB call.
type packedProduct struct {
	b      *PackedB
	dst, a []float32
}

// rows computes rows [lo, hi) of the product. The columns up to the last
// multiple of 64 go row by row through mulRow; the rest — fewer than 64,
// so at most k·63 floats of W to pack — are one blocked GEMM for all the
// rows over the plain view of W.
func (j *packedProduct) rows(lo, hi int) {
	p := j.b
	k, n := p.k, p.n
	n64 := n / rowGroup * rowGroup
	if n64 > 0 {
		buf := rowIdxPool.Get().(*[]int32)
		if len(*buf) < 2*k {
			*buf = make([]int32, 2*k)
		}
		for i := lo; i < hi; i++ {
			p.mulRow(j.dst[i*n:i*n+n64], j.a[i*k:(i+1)*k], *buf)
		}
		rowIdxPool.Put(buf)
	}
	if n64 < n {
		gemmSerial(j.dst, n, lo, hi, n64, n, k, gemmView{data: j.a, rs: k, cs: 1}, gemmView{data: p.w, rs: n, cs: 1}, false, defaultArena)
	}
}

// rowGroup is the columns one pass of the row kernel covers: its eight
// accumulators, in registers across all of k.
const rowGroup = 4 * gemmNR

// mulRow computes dst = a[0:k]·B over dst's columns, a multiple of
// rowGroup, reading the row-major matrix where it lies and only the rows
// a selects. The columns go 64 at a time through one kernel that folds
// a[p]·w[p, j:j+64] over an ascending list of positions p: those with
// a[p] != 0, listed once per call into buf (2k entries) and shared by
// every group. A post-ReLU row is mostly exact zeros, and each one
// skipped is 256 bytes of W not read.
//
// The bits are MatMul's. A skipped term is an exact ±0 (the weights are
// finite, or the list is the dense 0…k−1: 0·Inf must stay NaN) and
// x + ±0 = x for every x but one: a −0 accumulator meeting a +0 term
// becomes +0. An accumulator is ±0 only until the first term that
// leaves it nonzero, and from there the skipping chain and the dense one
// carry the same value; they can part only in the sign of a zero, and
// only a cell that ends as zero can show it: a group with such a cell is
// folded again, densely.
func (p *PackedB) mulRow(dst, a []float32, buf []int32) {
	k := p.k
	live, dense := buf[:k], buf[k:k]
	live = live[:listNonzero(live, a, !p.finite)]
	for j := 0; j < len(dst); j += rowGroup {
		c := dst[j : j+rowGroup]
		p.foldRow(live, a, c, j)
		if len(live) < k && hasZero(c) {
			if len(dense) == 0 {
				dense = dense[:listNonzero(dense[:k], a, true)]
			}
			p.foldRow(dense, a, c, j)
		}
	}
}

// rowIdxPool holds mulRow's position lists (the arena's free lists are
// typed []float32).
var rowIdxPool = sync.Pool{New: func() any { return new([]int32) }}

// foldRow sets c[0:64] to the chains of columns j … j+63 over the
// positions in idx, which may be empty but not the end of its buffer.
func (p *PackedB) foldRow(idx []int32, a, c []float32, j int) {
	if useFMAKernel.Load() {
		fmaRowIdx1x64(int64(len(idx)), &idx[:1][0], &a[0], &p.w[j], int64(p.n), &c[0])
	} else {
		fmaRowIdxGeneric(idx, a, p.w[j:], p.n, c)
	}
}

// nonzeroBit is 1 when v != 0 (NaN included) and 0 for ±0, by arithmetic
// on the bit pattern: zeros and non-zeros alternate unpredictably in an
// activation row, and a branch on them would mispredict.
func nonzeroBit(v float32) uint32 {
	return (math.Float32bits(v)&0x7fffffff + 0x7fffffff) >> 31
}

// listNonzero writes the positions p with a[p] != 0 — or, with all,
// every p — to idx in ascending order and returns how many.
func listNonzero(idx []int32, a []float32, all bool) int {
	n, keep := 0, uint32(0)
	if all {
		keep = 1
	}
	for p, v := range a {
		idx[n] = int32(p)
		n += int(nonzeroBit(v) | keep)
	}
	return n
}

// hasZero reports whether any element of c is ±0.
func hasZero(c []float32) bool {
	nonzero := uint32(1)
	for _, v := range c {
		nonzero &= nonzeroBit(v)
	}
	return nonzero == 0
}
