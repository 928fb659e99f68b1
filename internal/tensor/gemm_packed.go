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
// must not change — and what one scan of it found. Its int8 form
// (PackBCodes) holds the matrix as codes and column scales instead, each
// element float32(code)·scale. Safe for concurrent use by any number of
// products once built.
type PackedB struct {
	k, n   int
	w      []float32 // the [k, n] matrix where PackB found it; nil in the int8 form
	codes  []int8    // int8 form: the [k, n] codes where PackBCodes found them
	scales []float32 // int8 form: one per column
	tail   gemmView  // columns n/64·64 … n−1, for the blocked GEMM
	finite bool      // no element is ±Inf or NaN: a zero in a may skip its row
}

// Dims returns the logical (k, n) shape of the matrix.
func (p *PackedB) Dims() (k, n int) { return p.k, p.n }

// PackB prepares the rank-2 tensor b [k, n]. Both dimensions must be
// positive.
func PackB(b *Tensor) *PackedB {
	if len(b.Shape) != 2 || b.Shape[0] <= 0 || b.Shape[1] <= 0 {
		panic(fmt.Sprintf("tensor: PackB requires a non-empty rank-2 tensor, got shape %v", b.Shape))
	}
	k, n := b.Shape[0], b.Shape[1]
	p := &PackedB{k: k, n: n, w: b.Data, finite: true}
	p.tail = gemmView{data: b.Data[n/rowGroup*rowGroup:], rs: n, cs: 1}
	for _, v := range b.Data {
		if !isFinite(v) {
			p.finite = false
			break
		}
	}
	return p
}

// PackBCodes prepares the k×n matrix whose element (p, j) is
// float32(codes[p·n+j])·scales[j]. It keeps codes and scales — not
// copies, so they must not change — and only the columns past the last
// multiple of 64, fewer than 64, as float32. The matrix counts as finite
// when every column's scale stays finite times any code: a scale that
// might not only costs zero-skipping, never a bit.
func PackBCodes(codes []int8, scales []float32, k, n int) *PackedB {
	if k <= 0 || n <= 0 || len(codes) != k*n || len(scales) != n {
		panic(fmt.Sprintf("tensor: PackBCodes of %d codes and %d scales as [%d %d]", len(codes), len(scales), k, n))
	}
	n64 := n / rowGroup * rowGroup
	tail := make([]float32, k*(n-n64))
	p := &PackedB{k: k, n: n, codes: codes, scales: scales, tail: gemmView{data: tail, rs: n - n64, cs: 1}, finite: true}
	for _, s := range scales {
		p.finite = p.finite && isFinite(dequantS8(math.MinInt8, s))
	}
	for r := 0; r < k; r++ {
		for j := n64; j < n; j++ {
			tail[r*(n-n64)+j-n64] = dequantS8(codes[r*n+j], scales[j])
		}
	}
	return p
}

// dequantS8 is an int8 form's element, rounded to float32: the explicit
// conversion keeps the product from being fused into a later operation.
func dequantS8(q int8, scale float32) float32 { return float32(float32(q) * scale) }

func isFinite(v float32) bool { return math.Float32bits(v)&0x7f800000 != 0x7f800000 }

// MatMulPackedB is MatMul with a prepared right operand: C = A·B for
// A [m,k] into dst [m,n] (allocated if nil). Bitwise identical to MatMul
// on the same matrix, for any worker count. Workers take whole rows, and
// only when each gets inferParallelMin multiply-adds (workChunk).
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
	For(m, workChunk(k*b.n), packedProduct{b: b, dst: dst.Data, a: a.Data})
	return dst
}

// packedProduct is one MatMulPackedB call.
type packedProduct struct {
	b      *PackedB
	dst, a []float32
}

// Run computes rows [lo, hi) of the product. The columns up to the last
// multiple of 64 go row by row through mulRow; the rest — fewer than 64,
// so at most k·63 floats of W to pack — are one blocked GEMM for all the
// rows over the tail view. Every cell is one chain either way, so where
// the GEMM's column range starts moves no bit.
func (j packedProduct) Run(lo, hi int) {
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
		gemmSerial(j.dst[n64:], n, lo, hi, 0, n-n64, k, gemmView{data: j.a, rs: k, cs: 1}, p.tail, false)
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
// The int8 form widens each code and multiplies it by its column's
// scale, as dequantS8 does, before the same fused multiply-add.
func (p *PackedB) foldRow(idx []int32, a, c []float32, j int) {
	asm := useFMAKernel.Load()
	switch {
	case p.codes != nil && asm && avx2Available:
		fmaRowIdxS8x64(int64(len(idx)), &idx[:1][0], &a[0], &p.codes[j], &p.scales[j], int64(p.n), &c[0])
	case p.codes != nil:
		fmaRowIdxS8Generic(idx, a, p.codes[j:], p.scales[j:], p.n, c)
	case asm:
		fmaRowIdx1x64(int64(len(idx)), &idx[:1][0], &a[0], &p.w[j], int64(p.n), &c[0])
	default:
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
// every p — to idx, at least len(a) long, in ascending order and returns
// how many. Without all, the positions up to the last multiple of 8 are
// scanned eight at a time by listNonzero8 where the CPU has it.
func listNonzero(idx []int32, a []float32, all bool) int {
	if len(a) == 0 {
		return 0
	}
	_ = idx[len(a)-1] // listNonzero8 writes up to idx[len(a)−1] unchecked
	n, p0, keep := 0, 0, uint32(0)
	if all {
		keep = 1
	} else if m := len(a) &^ 7; m > 0 && useFMAKernel.Load() && avx2Available {
		n, p0 = int(listNonzero8(int64(m), &a[0], &idx[0], &nonzeroLanes[0])), m
	}
	for p := p0; p < len(a); p++ {
		idx[n] = int32(p)
		n += int(nonzeroBit(a[p]) | keep)
	}
	return n
}

// nonzeroLanes[m] lists the set bits of the byte m, ascending, one lane
// number per byte from the low end: listNonzero8's left-packing table.
var nonzeroLanes [256]uint64

func init() {
	for m := range nonzeroLanes {
		var lanes uint64
		n := 0
		for lane := 0; lane < 8; lane++ {
			if m>>lane&1 != 0 {
				lanes |= uint64(lane) << (8 * n)
				n++
			}
		}
		nonzeroLanes[m] = lanes
	}
}

// hasZero reports whether any element of c is ±0.
func hasZero(c []float32) bool {
	nonzero := uint32(1)
	for _, v := range c {
		nonzero &= nonzeroBit(v)
	}
	return nonzero == 0
}
