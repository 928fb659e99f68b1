package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Pre-packed right operand for the float32 GEMM — the twin of
// PackedInt8A. An inference Dense layer multiplies every batch by the
// same [in, out] weights, yet gemmSerial re-packs its B panel on every
// call: at batch 1 that layout pass over a 3072×128 matrix costs more
// than the multiply it prepares. PackB performs it once and
// MatMulPackedB consumes the frozen strips directly. The strips are
// exactly what packBPanel would have produced and every cell keeps its
// ascending-k chain, so results are bitwise identical to MatMul.
//
// The weights sit on the B side — NR = 16 columns per strip — and the
// batch on the A side, MR = 4 rows per strip: a batch of 2–4 fills one
// A strip and every B lane carries a real output unit. The other way
// round (weights as A, the int8 layout) a small batch would use few of
// sixteen lanes. A batch of one uses no strip at all (mulRow).

// PackedB is an immutable k×n float32 matrix stored in the panel layout
// gemmSerial consumes: for each NC-wide column block (outer) and each
// KC-deep k panel (inner), NR-wide strips zero-padded past the block
// edge. It also keeps the tensor it was packed from — referenced, not
// copied, so it must not change — for the one-row product to read in
// place. Safe for concurrent use by any number of GEMM calls once built.
type PackedB struct {
	k, n   int
	numPC  int       // k panels per column block
	offs   []int     // panel start offsets, indexed jcIdx*numPC + pcIdx
	data   []float32 // all panels
	w      []float32 // the [k, n] matrix where PackB found it
	finite bool      // no element of w is ±Inf or NaN: a zero in a may skip its row
}

// Dims returns the logical (k, n) shape of the packed matrix.
func (p *PackedB) Dims() (k, n int) { return p.k, p.n }

// PackB packs the rank-2 tensor b [k, n] into panel layout. Both
// dimensions must be positive.
func PackB(b *Tensor) *PackedB {
	if len(b.Shape) != 2 || b.Shape[0] <= 0 || b.Shape[1] <= 0 {
		panic(fmt.Sprintf("tensor: PackB requires a non-empty rank-2 tensor, got shape %v", b.Shape))
	}
	k, n := b.Shape[0], b.Shape[1]
	numPC := (k + gemmKC - 1) / gemmKC
	numJC := (n + gemmNC - 1) / gemmNC
	p := &PackedB{k: k, n: n, numPC: numPC, offs: make([]int, numJC*numPC), w: b.Data, finite: true}
	for _, v := range b.Data {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			p.finite = false
			break
		}
	}
	size := 0
	for jc := 0; jc < n; jc += gemmNC {
		strips := (min(gemmNC, n-jc) + gemmNR - 1) / gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			p.offs[(jc/gemmNC)*numPC+pc/gemmKC] = size
			size += strips * gemmNR * min(gemmKC, k-pc)
		}
	}
	p.data = make([]float32, size)
	view := gemmView{data: b.Data, rs: n, cs: 1}
	for jc := 0; jc < n; jc += gemmNC {
		for pc := 0; pc < k; pc += gemmKC {
			packBPanel(p.data[p.offs[(jc/gemmNC)*numPC+pc/gemmKC]:], view, pc, jc, min(gemmKC, k-pc), min(gemmNC, n-jc))
		}
	}
	return p
}

// strips returns the stored strips of k panel p0 (a multiple of KC)
// from column j0 (a multiple of NR) to the end of j0's column block.
func (p *PackedB) strips(p0, j0 int) []float32 {
	kc := min(gemmKC, p.k-p0)
	return p.data[p.offs[(j0/gemmNC)*p.numPC+p0/gemmKC]+(j0%gemmNC)/gemmNR*gemmNR*kc:]
}

// MatMulPackedB is MatMul with a pre-packed right operand: C = A·B for
// A [m,k] into dst [m,n] (allocated if nil). Bitwise identical to MatMul
// on the unpacked matrix, for any worker count.
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
	av, bv := gemmView{data: a.Data, rs: k, cs: 1}, gemmView{packed: b}
	switch {
	case m*b.n*k >= 2*inferParallelMin:
		gemm(dst.Data, b.n, m, b.n, k, av, bv, false, nil)
	case m == 1:
		b.mulRow(dst.Data, a.Data)
	default:
		gemmSerial(dst.Data, b.n, 0, m, 0, b.n, k, av, bv, false, defaultArena)
	}
	return dst
}

// mulRow computes dst[0:n] = a[0:k]·B, the batch-1 product, reading the
// row-major matrix where it lies and only the rows a selects. The
// columns go 64 at a time — the eight accumulators, in registers across
// all of k — through one kernel that folds a[p]·w[p, j:j+64] over an
// ascending list of positions p: those with a[p] != 0, listed once per
// call and shared by every group. A post-ReLU row is mostly exact zeros,
// and each one skipped is 256 bytes of W not read.
//
// The bits are MatMul's. A skipped term is an exact ±0 (the weights are
// finite, or the list is the dense 0…k−1: 0·Inf must stay NaN) and
// x + ±0 = x for every x but one: a −0 accumulator meeting a +0 term
// becomes +0. An accumulator is ±0 only until the first term that
// leaves it nonzero, and from there the skipping chain and the dense one
// carry the same value; they can part only in the sign of a zero, and
// only a cell that ends as zero can show it: a group with such a cell is
// folded again, densely. Columns past the last multiple of 64 take the tile.
func (p *PackedB) mulRow(dst, a []float32) {
	const group = 4 * gemmNR
	k, n64 := p.k, p.n/group*group
	if n64 > 0 {
		buf := rowIdxPool.Get().(*[]int32)
		if len(*buf) < 2*k {
			*buf = make([]int32, 2*k)
		}
		live, dense := (*buf)[:k], (*buf)[k:k]
		live = live[:listNonzero(live, a, !p.finite)]
		for j := 0; j < n64; j += group {
			c := dst[j : j+group]
			p.foldRow(live, a, c, j)
			if len(live) < k && hasZero(c) {
				if len(dense) == 0 {
					dense = dense[:listNonzero(dense[:k], a, true)]
				}
				p.foldRow(dense, a, c, j)
			}
		}
		rowIdxPool.Put(buf)
	}
	if n64 < p.n {
		gemmSerial(dst, p.n, 0, 1, n64, p.n, k, gemmView{data: a, rs: k, cs: 1}, gemmView{packed: p}, false, defaultArena)
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
