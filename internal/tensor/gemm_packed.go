package tensor

import "fmt"

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
// batch on the A side, MR = 4 rows per strip: a batch of 1–4 fills one
// A strip and every B lane carries a real output unit. The other way
// round (weights as A, the int8 layout) a batch of one would use one of
// sixteen lanes. A batch of exactly one skips the A strip altogether
// (mulRow).

// PackedB is an immutable k×n float32 matrix stored in the panel layout
// gemmSerial consumes: for each NC-wide column block (outer) and each
// KC-deep k panel (inner), NR-wide strips zero-padded past the block
// edge. Safe for concurrent use by any number of GEMM calls once built.
type PackedB struct {
	k, n  int
	numPC int       // k panels per column block
	offs  []int     // panel start offsets, indexed jcIdx*numPC + pcIdx
	data  []float32 // all panels
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
	p := &PackedB{k: k, n: n, numPC: numPC, offs: make([]int, numJC*numPC)}
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

// mulRow computes dst[0:n] = a[0:k]·B, the batch-1 product. The tile
// would pad the one row to an MR-tall A strip — MR·k floats written to
// carry k — and spend three quarters of its FMAs on the zero rows. The
// one-row kernel instead broadcasts a[p] from a where it lies against
// four stored strips at a time, 64 columns in the eight accumulators,
// k panel by k panel with dst carrying each chain across the panel
// boundary exactly as the tile does. Columns past the last multiple of
// 64 take the tile.
func (p *PackedB) mulRow(dst, a []float32) {
	const group = 4 * gemmNR
	asm := useFMAKernel.Load()
	n64 := p.n / group * group
	for jc := 0; jc < n64; jc += gemmNC {
		for pc := 0; pc < p.k; pc += gemmKC {
			kc := min(gemmKC, p.k-pc)
			for j := jc; j < min(jc+gemmNC, n64); j += group {
				pb := p.strips(pc, j)
				if asm {
					z := int64(0)
					if pc == 0 {
						z = 1
					}
					fmaRow1x64(int64(kc), &a[pc], &pb[0], int64(gemmNR*kc), &dst[j], z)
				} else {
					fmaRowGeneric(kc, a[pc:], pb, gemmNR*kc, dst[j:], pc == 0)
				}
			}
		}
	}
	if n64 < p.n {
		gemmSerial(dst, p.n, 0, 1, n64, p.n, p.k, gemmView{data: a, rs: p.k, cs: 1}, gemmView{packed: p}, false, defaultArena)
	}
}
