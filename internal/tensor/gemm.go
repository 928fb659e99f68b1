package tensor

import (
	"math"
	"sync/atomic"
)

// Blocked GEMM core.
//
// The kernel follows the classic Goto/BLIS decomposition: the k
// dimension is split into KC-deep panels, B panels are packed into
// contiguous NR-wide column strips, A panels into MR-tall row strips,
// and an MR×NR register-tiled micro-kernel accumulates the product of
// one A strip and one B strip. On amd64 with AVX+FMA the micro-kernel is
// a 4×16 assembly tile (gemm_amd64.s); elsewhere a pure-Go tile computes
// the identical arithmetic.
//
// Determinism. Every output cell C[i,j] is produced by a single
// accumulator that walks p = 0..k-1 in ascending order, applying one
// fused multiply-add per step:
//
//	acc = fma32(A[i,p], B[p,j], acc)
//
// The KC blocking does not change that order: the micro-kernel loads C,
// accumulates KC more steps, and stores C, so the chain is strictly
// sequential across panel boundaries. Worker partitioning assigns whole
// output cells (row or column stripes) to workers and never splits the
// k reduction, so results are bitwise identical for any worker count and
// any stripe geometry. The pure-Go tile emulates the fused operation
// exactly — float32 FMA equals float32(float64(a)*float64(b)+float64(c))
// because the float64 product is exact (24+24 < 53 mantissa bits) and
// double rounding of the sum is innocuous at 53 ≥ 2·24+2 bits — so the
// same bytes are produced with or without the assembly kernel, on every
// platform.
const (
	gemmMR = 4   // micro-tile rows
	gemmNR = 16  // micro-tile columns (two 8-float AVX lanes)
	gemmKC = 256 // k-panel depth: one packed B strip is KC×NR×4B = 16KB (L1)
	gemmMC = 128 // m-panel height: packed A panel is MC×KC×4B = 128KB (L2)
	gemmNC = 512 // n-panel width: packed B panel is KC×NC×4B = 512KB (L2/L3)

	// gemmParallelMin is the multiply-add count below which worker
	// fan-out costs more than it saves.
	gemmParallelMin = 1 << 15
)

// useFMAKernel selects the assembly micro-kernel. It is set once at init
// on amd64 when the CPU supports AVX and FMA3 (gemm_amd64.go) and left
// false elsewhere; tests flip it to prove the generic tile produces
// identical bytes.
var useFMAKernel atomic.Bool

// gemmView adapts a plain or transposed operand to the packing routines:
// logical element (i, j) lives at data[i*rs + j*cs].
type gemmView struct {
	data   []float32
	rs, cs int
}

// gemm computes dst[i,j] = (acc ? dst[i,j] : 0) + Σ_p a(i,p)·b(p,j) for
// i < m, j < n, p < k, with dst rows ldc apart. Pack buffers come from
// ar (nil selects the default arena). Every cell in the m×n destination
// region is written (no pre-zeroing needed); with acc the existing value
// seeds the reduction chain.
func gemm(dst []float32, ldc, m, n, k int, a, b gemmView, acc bool, ar *Arena) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if !acc {
			for i := 0; i < m; i++ {
				clear(dst[i*ldc : i*ldc+n])
			}
		}
		return
	}
	if ar == nil {
		ar = defaultArena
	}
	workers := MaxWorkers()
	if workers > 1 && m*n*k >= gemmParallelMin {
		if n >= m {
			// Column stripes, aligned to the micro-tile width so only
			// the rightmost stripe has a ragged edge.
			stripes := (n + gemmNR - 1) / gemmNR
			if stripes > workers {
				stripes = workers
			}
			per := alignUp((n+stripes-1)/stripes, gemmNR)
			ParallelForMin(stripes, 1, func(lo, hi int) {
				for s := lo; s < hi; s++ {
					n0, n1 := s*per, (s+1)*per
					if n1 > n {
						n1 = n
					}
					if n0 < n1 {
						gemmSerial(dst, ldc, 0, m, n0, n1, k, a, b, acc, ar)
					}
				}
			})
		} else {
			// Row stripes, aligned to the micro-tile height.
			stripes := (m + gemmMR - 1) / gemmMR
			if stripes > workers {
				stripes = workers
			}
			per := alignUp((m+stripes-1)/stripes, gemmMR)
			ParallelForMin(stripes, 1, func(lo, hi int) {
				for s := lo; s < hi; s++ {
					m0, m1 := s*per, (s+1)*per
					if m1 > m {
						m1 = m
					}
					if m0 < m1 {
						gemmSerial(dst, ldc, m0, m1, 0, n, k, a, b, acc, ar)
					}
				}
			})
		}
		return
	}
	gemmSerial(dst, ldc, 0, m, 0, n, k, a, b, acc, ar)
}

func alignUp(n, to int) int { return (n + to - 1) / to * to }

// gemmSerial runs the blocked GEMM over the output region
// [m0,m1)×[n0,n1) on one goroutine.
func gemmSerial(dst []float32, ldc, m0, m1, n0, n1, k int, a, b gemmView, acc bool, ar *Arena) {
	packA := ar.Get(gemmMC * gemmKC)
	packB := ar.Get(gemmKC * gemmNC)
	pa, pb := packA.Data, packB.Data
	for jc := n0; jc < n1; jc += gemmNC {
		ncEff := min(gemmNC, n1-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kcEff := min(gemmKC, k-pc)
			// The first k-panel either starts the chain at zero or, in
			// accumulate mode, seeds it with the existing destination.
			zeroAcc := pc == 0 && !acc
			packBPanel(pb, b, pc, jc, kcEff, ncEff)
			for ic := m0; ic < m1; ic += gemmMC {
				mcEff := min(gemmMC, m1-ic)
				packAPanel(pa, a, ic, pc, mcEff, kcEff)
				for jr := 0; jr < ncEff; jr += gemmNR {
					nrEff := min(gemmNR, ncEff-jr)
					bStrip := pb[(jr/gemmNR)*gemmNR*kcEff:]
					for ir := 0; ir < mcEff; ir += gemmMR {
						mrEff := min(gemmMR, mcEff-ir)
						aStrip := pa[(ir/gemmMR)*gemmMR*kcEff:]
						microTile(kcEff, aStrip, bStrip,
							dst[(ic+ir)*ldc+jc+jr:], ldc, zeroAcc, mrEff, nrEff)
					}
				}
			}
		}
	}
	ar.Put(packB)
	ar.Put(packA)
}

// packAPanel packs the A sub-panel rows [i0, i0+mc) × cols [p0, p0+kc)
// into MR-tall strips: strip s holds, for each p, the MR values
// a(i0+s·MR+0..MR-1, p0+p), zero-padded past the panel edge. Padded rows
// feed discarded accumulator lanes, so the zeros never reach a real cell.
func packAPanel(dst []float32, a gemmView, i0, p0, mc, kc int) {
	idx := 0
	for si := 0; si < mc; si += gemmMR {
		rows := min(gemmMR, mc-si)
		base := (i0+si)*a.rs + p0*a.cs
		for p := 0; p < kc; p++ {
			off := base + p*a.cs
			for r := 0; r < rows; r++ {
				dst[idx+r] = a.data[off+r*a.rs]
			}
			for r := rows; r < gemmMR; r++ {
				dst[idx+r] = 0
			}
			idx += gemmMR
		}
	}
}

// packBPanel packs the B sub-panel rows [p0, p0+kc) × cols [j0, j0+nc)
// into NR-wide strips: strip s holds, for each p, the NR values
// b(p0+p, j0+s·NR+0..NR-1), zero-padded past the panel edge.
func packBPanel(dst []float32, b gemmView, p0, j0, kc, nc int) {
	idx := 0
	for sj := 0; sj < nc; sj += gemmNR {
		colsN := min(gemmNR, nc-sj)
		base := p0*b.rs + (j0+sj)*b.cs
		if b.cs == 1 && colsN == gemmNR {
			// A full strip of contiguous rows (all but the ragged edge of
			// an untransposed operand), through a local array: two
			// inlined 64-byte moves, where copy — or an assignment between
			// two slices' arrays, which may overlap — calls memmove.
			for p := 0; p < kc; p++ {
				row := *(*[gemmNR]float32)(b.data[base+p*b.rs:])
				*(*[gemmNR]float32)(dst[idx:]) = row
				idx += gemmNR
			}
			continue
		}
		for p := 0; p < kc; p++ {
			off := base + p*b.rs
			for j := 0; j < colsN; j++ {
				dst[idx+j] = b.data[off+j*b.cs]
			}
			for j := colsN; j < gemmNR; j++ {
				dst[idx+j] = 0
			}
			idx += gemmNR
		}
	}
}

// microTile multiplies one packed MR-strip of A by one packed NR-strip
// of B, folding the result into the dst tile at row stride ldc. Full
// interior tiles go straight to the FMA kernel; edge tiles round-trip
// through a fixed-size scratch tile so the kernel never writes past the
// valid region.
func microTile(kc int, pa, pb, dst []float32, ldc int, zeroAcc bool, mrEff, nrEff int) {
	if mrEff == gemmMR && nrEff == gemmNR && useFMAKernel.Load() {
		z := int64(0)
		if zeroAcc {
			z = 1
		}
		fmaTile4x16(int64(kc), &pa[0], &pb[0], &dst[0], int64(ldc), z)
		return
	}
	var tile [gemmMR * gemmNR]float32
	if !zeroAcc {
		for r := 0; r < mrEff; r++ {
			copy(tile[r*gemmNR:r*gemmNR+nrEff], dst[r*ldc:r*ldc+nrEff])
		}
	}
	if useFMAKernel.Load() {
		// The tile is pre-seeded (zeros or dst), so the kernel always
		// loads its accumulators.
		fmaTile4x16(int64(kc), &pa[0], &pb[0], &tile[0], gemmNR, 0)
	} else {
		fmaTileGeneric(kc, pa, pb, &tile)
	}
	for r := 0; r < mrEff; r++ {
		copy(dst[r*ldc:r*ldc+nrEff], tile[r*gemmNR:r*gemmNR+nrEff])
	}
}

// fmaTileGeneric is the portable micro-kernel: the same MR×NR tile
// update as the assembly version, one emulated float32 FMA per step.
// fma32(a, b, c) = float32(float64(a)*float64(b) + float64(c)) is exact:
// the product is representable exactly in float64 and the double
// rounding of the sum is innocuous (53 ≥ 2·24+2 bits), so this matches
// hardware float32 FMA bit for bit.
func fmaTileGeneric(kc int, pa, pb []float32, tile *[gemmMR * gemmNR]float32) {
	for r := 0; r < gemmMR; r++ {
		for s := 0; s < gemmNR; s++ {
			acc := float64(tile[r*gemmNR+s])
			ai := r
			bi := s
			for p := 0; p < kc; p++ {
				acc = float64(float32(float64(pa[ai])*float64(pb[bi]) + acc))
				ai += gemmMR
				bi += gemmNR
			}
			tile[r*gemmNR+s] = float32(acc)
		}
	}
}

// fmaConvTileGeneric is fmaConvTile4x16's portable twin: fmaTileGeneric
// with B row p read at x[taps[p]:] and every chain started at zero.
func fmaConvTileGeneric(k int, pa, x []float32, taps []int32, tile *[gemmMR * gemmNR]float32) {
	for r := 0; r < gemmMR; r++ {
		for s := 0; s < gemmNR; s++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc = float64(float32(float64(pa[p*gemmMR+r])*float64(x[int(taps[p])+s]) + acc))
			}
			tile[r*gemmNR+s] = float32(acc)
		}
	}
}

// fmaConvBackTileGeneric is fmaConvBackTile4x16's portable twin: the tile
// from +0, then per listed tap (dy offset, mask row) the chain over the f
// filters of pw's four channel rows times the 16 floats of dy at the
// offset plus i·fstride, masked, added to the tile.
func fmaConvBackTileGeneric(n, f int, pw, dy []float32, taps []int32, fstride int, masks []uint32, tile *[gemmMR * gemmNR]float32) {
	*tile = [gemmMR * gemmNR]float32{}
	for t := 0; t < n; t++ {
		off, mask := int(taps[2*t]), masks[taps[2*t+1]:]
		a := pw[t*f*gemmMR:]
		for r := 0; r < gemmMR; r++ {
			for s := 0; s < gemmNR; s++ {
				var acc float64
				for i := 0; i < f; i++ {
					acc = float64(float32(float64(a[i*gemmMR+r])*float64(dy[off+i*fstride+s]) + acc))
				}
				tile[r*gemmNR+s] += math.Float32frombits(math.Float32bits(float32(acc)) & mask[s])
			}
		}
	}
}

// fmaRowIdxGeneric is fmaRowIdx1x64's portable twin: cell j of c's 64
// folds a[p]·w[p·ldw+j] from zero over the positions p in idx, one
// emulated FMA each.
func fmaRowIdxGeneric(idx []int32, a, w []float32, ldw int, c []float32) {
	for j := range c[:4*gemmNR] {
		var acc float64
		for _, p := range idx {
			acc = float64(float32(float64(a[p])*float64(w[int(p)*ldw+j]) + acc))
		}
		c[j] = float32(acc)
	}
}
