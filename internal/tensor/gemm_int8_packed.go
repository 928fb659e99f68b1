package tensor

// Pre-packed weight operands for the int8 GEMM. Quantized weights are
// immutable after calibration, so their panel layout is built exactly
// once, at quantization (or load) time, and the blocked driver consumes
// the frozen strips by offset arithmetic (qLeft.panel, qRight.panel). The
// packed bytes are byte-for-byte what packAPanel8 / packBPanel8 produce
// per call, so results are bitwise identical to GemmInt8 on the unpacked
// matrix.
//
// Which side the weights sit on is the layer's choice. A conv layer's
// [F, C·KH·KW] filters are the left operand (PackedInt8A) against the
// image's NR-wide column strips. A dense layer's weights are the right
// operand (PackedInt8B) — NR = 16 output units per strip — and the batch
// the left, MR = 4 rows per strip: a batch of 1–4 fills one row strip
// and every vector lane carries a real output unit, where weights on the
// left would use one lane of sixteen.

// PackedInt8A is an immutable m×k int8 matrix stored as left-operand
// panels: for each qKC-deep k panel (outer) and each qMC-tall row panel
// (inner), qMR-tall strips in quad layout. Safe for concurrent use by
// any number of GEMM calls once built.
type PackedInt8A struct {
	m, k  int
	numIC int     // row panels per k panel
	offs  []int   // panel start offsets, indexed pcIdx*numIC + icIdx
	data  []uint8 // all panels (s8 bit patterns), zero-padded to quad and strip boundaries
}

// Dims returns the logical (m, k) shape of the packed matrix.
func (p *PackedInt8A) Dims() (m, k int) { return p.m, p.k }

// PackInt8A packs the m×k matrix a — logical element (i, p) at
// aData[i*ars+p*acs] — into panel layout. m and k must be positive.
func PackInt8A(aData []int8, ars, acs, m, k int) *PackedInt8A {
	if m <= 0 || k <= 0 {
		panic("tensor: PackInt8A requires positive dimensions")
	}
	numIC := (m + qMC - 1) / qMC
	p := &PackedInt8A{m: m, k: k, numIC: numIC, offs: make([]int, (k+qKC-1)/qKC*numIC)}
	size := 0
	for pc := 0; pc < k; pc += qKC {
		kq := (min(qKC, k-pc) + 3) / 4
		for ic := 0; ic < m; ic += qMC {
			p.offs[pc/qKC*numIC+ic/qMC] = size
			size += alignUp(min(qMC, m-ic), qMR) * kq * 4
		}
	}
	p.data = make([]uint8, size)
	for pc := 0; pc < k; pc += qKC {
		kc := min(qKC, k-pc)
		for ic := 0; ic < m; ic += qMC {
			packAPanel8(p.data[p.offs[pc/qKC*numIC+ic/qMC]:], aData, ars, acs, ic, pc, min(qMC, m-ic), kc, (kc+3)/4)
		}
	}
	return p
}

// strips returns the stored strips of k panel p0 (a multiple of KC) from
// row i0 (a multiple of MR) to the end of i0's row panel.
func (p *PackedInt8A) strips(i0, p0 int) []uint8 {
	kq := (min(qKC, p.k-p0) + 3) / 4
	return p.data[p.offs[p0/qKC*p.numIC+i0/qMC]+i0%qMC*kq*4:]
}

// PackedInt8B is an immutable k×n int8 matrix stored as right-operand
// panels: for each qNC-wide column block (outer) and each qKC-deep k
// panel (inner), qNR-wide strips in quad layout. Safe for concurrent use
// once built.
type PackedInt8B struct {
	k, n  int
	numPC int     // k panels per column block
	offs  []int   // panel start offsets, indexed jcIdx*numPC + pcIdx
	data  []uint8 // all panels (s8 bit patterns), zero-padded to quad and strip boundaries
}

// Dims returns the logical (k, n) shape of the packed matrix.
func (p *PackedInt8B) Dims() (k, n int) { return p.k, p.n }

// PackInt8B packs the k×n matrix b — logical element (p, j) at
// bData[p*brs+j*bcs] — into panel layout. k and n must be positive.
func PackInt8B(bData []int8, brs, bcs, k, n int) *PackedInt8B {
	if k <= 0 || n <= 0 {
		panic("tensor: PackInt8B requires positive dimensions")
	}
	numPC := (k + qKC - 1) / qKC
	p := &PackedInt8B{k: k, n: n, numPC: numPC, offs: make([]int, (n+qNC-1)/qNC*numPC)}
	size := 0
	for jc := 0; jc < n; jc += qNC {
		for pc := 0; pc < k; pc += qKC {
			p.offs[jc/qNC*numPC+pc/qKC] = size
			size += alignUp(min(qNC, n-jc), qNR) * ((min(qKC, k-pc) + 3) / 4) * 4
		}
	}
	p.data = make([]uint8, size)
	for jc := 0; jc < n; jc += qNC {
		for pc := 0; pc < k; pc += qKC {
			kc := min(qKC, k-pc)
			packBPanel8(p.data[p.offs[jc/qNC*numPC+pc/qKC]:], bData, brs, bcs, pc, jc, kc, min(qNC, n-jc), (kc+3)/4)
		}
	}
	return p
}

// strips returns the stored strips of k panel p0 (a multiple of KC) from
// column j0 (a multiple of NR) to the end of j0's column block.
func (p *PackedInt8B) strips(p0, j0 int) []uint8 {
	kq := (min(qKC, p.k-p0) + 3) / 4
	return p.data[p.offs[j0/qNC*p.numPC+p0/qKC]+j0%qNC*kq*4:]
}
