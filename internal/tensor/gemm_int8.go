package tensor

import (
	"sync"
	"sync/atomic"
)

// Blocked int8 GEMM core: the quantized-inference twin of gemm.go.
//
// The kernel computes C_i32[m,n] = A_s8[m,k] · B_u8[k,n] with int32
// accumulation, following the same Goto/BLIS decomposition as the
// float32 path: KC-deep k panels, B packed into NR-wide column strips,
// A into MR-tall row strips, and an MR×NR register-tiled micro-kernel.
// The k dimension is processed in quads of four bytes — the natural
// granule of the VPDPBUSD instruction, which accumulates four u8·s8
// products into one int32 lane per step — and panels are zero-padded up
// to the next quad boundary. Padding bytes are zero on both operands,
// so each pad contributes an exact 0 to its accumulator.
//
// Determinism. Integer addition is exact and associative: there is no
// rounding anywhere between the int8 operands and the int32 result, so
// any summation order over the same products yields identical bits. The
// asm kernel (gemm_int8_amd64.s) and the pure-Go twin below therefore
// agree bitwise by construction — unlike the float path, no reduction-
// order argument is needed. Worker partitioning assigns whole output
// cells (row or column stripes) to workers and never splits the k
// reduction, mirroring gemm.go, so results are also invariant under any
// worker count. Overflow cannot occur: |s8·u8| ≤ 127·255, and
// 2^31/(127·255) ≈ 66k exceeds any k this codebase produces by orders
// of magnitude.
const (
	// One packed B strip is KC×NR = 4KB of u8; one packed A panel is
	// MC×KC = 32KB of s8 — both smaller than their float32 counterparts,
	// so the float path's cache-driven blocking constants carry over.
	qMR = gemmMR
	qNR = gemmNR
	qKC = gemmKC // multiple of 4: whole quads per panel
	qMC = gemmMC
	qNC = gemmNC
)

// useVNNIKernel selects the assembly micro-kernel. It is set once at
// init on amd64 when the CPU supports AVX-512 VNNI at 256-bit width
// (gemm_int8_amd64.go) and left false elsewhere; tests flip it to prove
// the generic tile produces identical bytes.
var useVNNIKernel atomic.Bool

// vnniAvailable is what init found: whether useVNNIKernel may be set.
var vnniAvailable bool

// SetInt8Asm turns the int8 assembly kernels off, or back on where the
// CPU has them, and returns the previous setting. Like SetMaxWorkers it
// exists for tests: every int8 forward must produce the same bytes
// either way.
func SetInt8Asm(on bool) (prev bool) {
	return useVNNIKernel.Swap(on && vnniAvailable)
}

// qLeft is the int8 GEMM's left operand in one of three forms: s8
// values strided over s8 (logical element (i, p) at s8[i*rs+p*cs]), u8
// values strided likewise over u8 — a dense layer's activations, whose
// right operand is then the signed one — or s8 panels packed ahead of
// time.
type qLeft struct {
	s8     []int8
	u8     []uint8
	rs, cs int
	packed *PackedInt8A
}

// panel returns rows [i0, i0+mc) × k range [p0, p0+kc) as MR-tall strips
// in quad layout (packAPanel8's): packed into buf, or the stored strips
// themselves. Packed panels need i0 a multiple of MR and p0 of KC.
func (a qLeft) panel(buf []uint8, i0, p0, mc, kc, kq int) []uint8 {
	switch {
	case a.packed != nil:
		return a.packed.strips(i0, p0)
	case a.u8 != nil:
		packAPanel8(buf, a.u8, a.rs, a.cs, i0, p0, mc, kc, kq)
	default:
		packAPanel8(buf, a.s8, a.rs, a.cs, i0, p0, mc, kc, kq)
	}
	return buf
}

// qRight is the right operand: u8 values strided over u8, the implicit
// im2col matrix of the one [C,H,W] u8 image held in u8 (conv; taps in the
// padding read as zp), or s8 panels packed ahead of time — the only
// signed form, paired with a u8 left operand.
type qRight struct {
	u8     []uint8
	rs, cs int
	conv   *convGeom
	zp     uint8
	packed *PackedInt8B
}

// panel returns k range [p0, p0+kc) × columns [j0, j0+nc) as NR-wide
// strips in quad layout (packBPanel8's): packed into buf, or the stored
// strips themselves. Packed panels need j0 a multiple of NR, p0 of KC,
// and the range inside one NC block.
func (b qRight) panel(buf []uint8, p0, j0, kc, nc, kq int) []uint8 {
	switch {
	case b.packed != nil:
		return b.packed.strips(p0, j0)
	case b.conv != nil:
		b.conv.packPanelU8(buf, b.u8, b.zp, p0, j0, kc, nc, kq)
	case b.cs == 1:
		packBPanelU8RowMajor(buf, b.u8, b.rs, p0, j0, kc, nc, kq)
	default:
		packBPanel8(buf, b.u8, b.rs, b.cs, p0, j0, kc, nc, kq)
	}
	return buf
}

// qPackBufs is one worker's scratch. The buffers come from a sync.Pool
// rather than the float32 Arena: the arena's free lists are typed
// []float32 and these panels are byte-granular. Packed strips are bytes
// whichever operand is the signed one; the micro-kernel is told.
type qPackBufs struct {
	a   []uint8 // A panel: up to qMC × qKC bytes
	b   []uint8 // B panel: up to qKC × qNC bytes
	acc []int32 // a fused layer forward's accumulators, grown on demand
}

var qPackPool = sync.Pool{New: func() any {
	return &qPackBufs{
		a: make([]uint8, qMC*qKC),
		b: make([]uint8, qKC*qNC),
	}
}}

// plane returns n accumulators with unspecified contents.
func (b *qPackBufs) plane(n int) []int32 {
	if cap(b.acc) < n {
		b.acc = make([]int32, n)
	}
	return b.acc[:n]
}

// GemmInt8 computes dst[i,j] = Σ_p a(i,p)·b(p,j) for i < m, j < n,
// p < k, with int32 accumulation, dst rows ldc apart, a strided over
// aData by (ars, acs) and b over bData by (brs, bcs). Every cell of the
// m×n destination region is written (no pre-zeroing needed). The nn
// package's int8 layers run on the same blocked driver through
// Conv2DInferU8 and DenseInferU8.
func GemmInt8(dst []int32, ldc, m, n, k int, aData []int8, ars, acs int, bData []uint8, brs, bcs int) {
	gemmInt8(dst, ldc, m, n, k, qLeft{s8: aData, rs: ars, cs: acs}, qRight{u8: bData, rs: brs, cs: bcs})
}

func gemmInt8(dst []int32, ldc, m, n, k int, a qLeft, b qRight) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		for i := 0; i < m; i++ {
			clear(dst[i*ldc : i*ldc+n])
		}
		return
	}
	stripe(m, n, k, qMR, qNR, qRegion{dst: dst, ldc: ldc, k: k, a: a, b: b})
}

// qRegion is one gemmInt8 call, striped by stripe.
type qRegion struct {
	dst    []int32
	ldc, k int
	a      qLeft
	b      qRight
}

// Region runs gemmInt8Serial over [m0,m1)×[n0,n1) with pooled scratch.
func (q qRegion) Region(m0, m1, n0, n1 int) {
	bufs := qPackPool.Get().(*qPackBufs)
	gemmInt8Serial(q.dst, q.ldc, m0, m1, n0, n1, q.k, q.a, q.b, bufs)
	qPackPool.Put(bufs)
}

// gemmInt8Serial runs the blocked int8 GEMM over the output region
// [m0,m1)×[n0,n1) on one goroutine, with bufs as its scratch. Row and
// column blocks sit at absolute multiples of MC and NC, where packed
// operands store their panels; m0 must be a multiple of MR and n0 of NR
// when the respective operand is packed (stripe's stripes are).
func gemmInt8Serial(dst []int32, ldc, m0, m1, n0, n1, k int, a qLeft, b qRight, bufs *qPackBufs) {
	bSigned := b.packed != nil
	for jc, ncEff := n0, 0; jc < n1; jc += ncEff {
		ncEff = min(qNC-jc%qNC, n1-jc)
		for pc := 0; pc < k; pc += qKC {
			kcEff := min(qKC, k-pc)
			kq := (kcEff + 3) / 4
			// The first k-panel starts every accumulator chain at zero;
			// later panels fold into the stored int32 cells.
			zeroAcc := pc == 0
			pb := b.panel(bufs.b, pc, jc, kcEff, ncEff, kq)
			for ic := m0 - m0%qMC; ic < m1; ic += qMC {
				row0, row1 := max(m0, ic), min(m1, ic+qMC)
				pa := a.panel(bufs.a, row0, pc, row1-row0, kcEff, kq)
				for jr := 0; jr < ncEff; jr += qNR {
					nrEff := min(qNR, ncEff-jr)
					bStrip := pb[(jr/qNR)*qNR*kq*4:]
					for ir := row0; ir < row1; ir += qMR {
						aStrip := pa[(ir-row0)/qMR*qMR*kq*4:]
						microTileInt8(kq, aStrip, bStrip, dst[ir*ldc+jc+jr:], ldc,
							zeroAcc, bSigned, min(qMR, row1-ir), nrEff)
					}
				}
			}
		}
	}
}

// packAPanel8 packs the A sub-panel rows [i0, i0+mc) × cols [p0, p0+kc)
// of the matrix strided over data by (rs, cs) into MR-tall strips in quad
// layout: strip s holds, for each k-quad q, the 4 rows' 4 consecutive k
// bytes — row r's quad lands at byte offset (q·MR + r)·4, ready for one
// VPBROADCASTD. Rows past the panel edge and k bytes past kc pack as
// zero; zero operands contribute an exact 0. Bytes keep their bit
// pattern, s8 or u8.
func packAPanel8[T int8 | uint8](dst []uint8, data []T, rs, cs, i0, p0, mc, kc, kq int) {
	idx := 0
	for si := 0; si < mc; si += qMR {
		rows := min(qMR, mc-si)
		for q := 0; q < kq; q++ {
			for r := 0; r < qMR; r++ {
				d := dst[idx : idx+4]
				idx += 4
				if r >= rows {
					clear(d)
					continue
				}
				base := (i0+si+r)*rs + (p0+q*4)*cs
				if cs == 1 && q*4+4 <= kc {
					// A whole quad of a row-major operand: every quad of
					// a dense layer's activations.
					src := data[base : base+4]
					d[0], d[1], d[2], d[3] = uint8(src[0]), uint8(src[1]), uint8(src[2]), uint8(src[3])
					continue
				}
				for t := range d {
					if q*4+t < kc {
						d[t] = uint8(data[base+t*cs])
					} else {
						d[t] = 0
					}
				}
			}
		}
	}
}

// packBPanel8 packs the B sub-panel rows [p0, p0+kc) × cols [j0, j0+nc)
// of the matrix strided over data by (rs, cs) into NR-wide strips in
// quad layout: strip s holds, for each k-quad q, the 16 columns' 4
// consecutive k bytes — column j's quad lands at byte offset
// (q·NR + j)·4, so one quad is a 64-byte group read as two ymm
// registers of eight dword lanes (one lane per column). Columns past the
// panel edge and k bytes past kc pack as zero.
func packBPanel8[T int8 | uint8](dst []uint8, data []T, rs, cs, p0, j0, kc, nc, kq int) {
	idx := 0
	for sj := 0; sj < nc; sj += qNR {
		cols := min(qNR, nc-sj)
		for q := 0; q < kq; q++ {
			for j := 0; j < qNR; j++ {
				d := dst[idx : idx+4]
				idx += 4
				if j >= cols {
					clear(d)
					continue
				}
				base := (p0+q*4)*rs + (j0+sj+j)*cs
				for t := range d {
					if q*4+t < kc {
						d[t] = uint8(data[base+t*rs])
					} else {
						d[t] = 0
					}
				}
			}
		}
	}
}

// packBPanelU8RowMajor is packBPanel8 for a materialised row-major u8 B
// (cs == 1), such as an Im2ColBatchU8 column matrix. The strided path
// walks each column's k bytes at stride rs; for a column matrix rs is
// N·OH·OW (tens of kilobytes), so every packed byte would touch a fresh
// cache line. Here the four source k-rows of each quad are read as
// contiguous spans and scattered into the quad layout, whose writes for
// one quad stay inside a single 64-byte group. The packed bytes are
// identical to the strided path's.
func packBPanelU8RowMajor(dst []uint8, data []uint8, rs, p0, j0, kc, nc, kq int) {
	// Quads outer, column strips inner: for one quad the four source
	// k-rows are then consumed left to right as sequential streams
	// (strip order would instead hop rs ≈ tens-of-KB between 16-byte
	// reads — a fresh page per read). Writes land at stripBase+qOff,
	// which walks the panel at stride kq·64; the whole panel is at most
	// qKC·qNC bytes and stays cache-resident.
	asm := useVNNIKernel.Load()
	for q := 0; q < kq; q++ {
		base := (p0+q*4)*rs + j0
		qOff := q * qNR * 4
		if q*4+4 <= kc {
			r0 := data[base : base+nc]
			r1 := data[base+rs : base+rs+nc]
			r2 := data[base+2*rs : base+2*rs+nc]
			r3 := data[base+3*rs : base+3*rs+nc]
			for sj := 0; sj < nc; sj += qNR {
				cols := min(qNR, nc-sj)
				out := dst[sj*kq*4+qOff : sj*kq*4+qOff+qNR*4]
				if cols == qNR {
					interleaveQuad(asm, (*[4 * qNR]uint8)(out), (*[qNR]uint8)(r0[sj:]),
						(*[qNR]uint8)(r1[sj:]), (*[qNR]uint8)(r2[sj:]), (*[qNR]uint8)(r3[sj:]))
					continue
				}
				for j := 0; j < cols; j++ {
					out[j*4], out[j*4+1], out[j*4+2], out[j*4+3] = r0[sj+j], r1[sj+j], r2[sj+j], r3[sj+j]
				}
				fillU8(out[cols*4:], 0)
			}
		} else {
			// Ragged final quad: 1–3 valid k rows, rest packs zero.
			rem := kc - q*4
			for sj := 0; sj < nc; sj += qNR {
				cols := min(qNR, nc-sj)
				out := dst[sj*kq*4+qOff : sj*kq*4+qOff+qNR*4]
				for j := 0; j < cols; j++ {
					o := j * 4
					for t := 0; t < 4; t++ {
						if t < rem {
							out[o+t] = data[base+t*rs+sj+j]
						} else {
							out[o+t] = 0
						}
					}
				}
				if cols < qNR {
					fillU8(out[cols*4:], 0)
				}
			}
		}
	}
}

// microTileInt8 multiplies one packed MR-strip of A by one packed
// NR-strip of B, folding the int32 result into the dst tile at row
// stride ldc. One operand's bytes are s8 and the other's u8: B's are the
// signed ones when bSigned, A's otherwise. Full interior tiles go
// straight to the VNNI kernel; edge tiles round-trip through a
// fixed-size scratch tile so the kernel never writes past the valid
// region.
func microTileInt8(kq int, pa, pb []uint8, dst []int32, ldc int, zeroAcc, bSigned bool, mrEff, nrEff int) {
	vnni := useVNNIKernel.Load()
	flags := int64(0)
	if bSigned {
		flags = vnniBSigned
	}
	if mrEff == qMR && nrEff == qNR && vnni {
		if zeroAcc {
			flags |= vnniZeroAcc
		}
		vnniTile4x16(int64(kq), &pa[0], &pb[0], &dst[0], int64(ldc), flags)
		return
	}
	var tile [qMR * qNR]int32
	if !zeroAcc {
		for r := 0; r < mrEff; r++ {
			copy(tile[r*qNR:r*qNR+nrEff], dst[r*ldc:r*ldc+nrEff])
		}
	}
	if vnni {
		// The tile is pre-seeded (zeros or dst), so the kernel always
		// loads its accumulators.
		vnniTile4x16(int64(kq), &pa[0], &pb[0], &tile[0], qNR, flags)
	} else {
		vnniTileGeneric(kq, pa, pb, &tile, bSigned)
	}
	for r := 0; r < mrEff; r++ {
		copy(dst[r*ldc:r*ldc+nrEff], tile[r*qNR:r*qNR+nrEff])
	}
}

// vnniTile4x16's flags.
const (
	vnniZeroAcc = 1 // start the accumulators at zero instead of loading c
	vnniBSigned = 2 // pb holds the s8 operand and pa the u8 one
)

// vnniTileGeneric is the portable micro-kernel: the same MR×NR int32
// tile update as the assembly version. Each output cell folds kq quads
// of four u8·s8 products into its accumulator; because every operation
// is exact integer arithmetic, the result is bitwise identical to the
// VPDPBUSD kernel regardless of summation order.
func vnniTileGeneric(kq int, pa, pb []uint8, tile *[qMR * qNR]int32, bSigned bool) {
	aSign, bSign := uint8(0x80), uint8(0)
	if bSigned {
		aSign, bSign = 0, 0x80
	}
	for q := 0; q < kq; q++ {
		aOff := q * qMR * 4
		bOff := q * qNR * 4
		for r := 0; r < qMR; r++ {
			a0 := widen8(pa[aOff+r*4], aSign)
			a1 := widen8(pa[aOff+r*4+1], aSign)
			a2 := widen8(pa[aOff+r*4+2], aSign)
			a3 := widen8(pa[aOff+r*4+3], aSign)
			for s := 0; s < qNR; s++ {
				bo := bOff + s*4
				tile[r*qNR+s] += a0*widen8(pb[bo], bSign) +
					a1*widen8(pb[bo+1], bSign) +
					a2*widen8(pb[bo+2], bSign) +
					a3*widen8(pb[bo+3], bSign)
			}
		}
	}
}

// widen8 is the value of byte v read as s8 (sign 0x80) or u8 (sign 0).
func widen8(v, sign uint8) int32 { return int32(v) - int32(v&sign)<<1 }
