package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// requireMulRow checks MatMulPackedB on the rows a [m, k] against w —
// through the assembly kernel when the host has it and through its Go
// twin, on one, two and eight workers — against MatMul run on the same
// micro-kernel, bit for bit, and returns MatMul's answer.
func requireMulRow(t *testing.T, label string, a, w *Tensor) *Tensor {
	t.Helper()
	asm := useFMAKernel.Load()
	defer useFMAKernel.Store(asm)
	defer SetMaxWorkers(SetMaxWorkers(1))
	m, k, n := a.Shape[0], w.Shape[0], w.Shape[1]
	packed := PackB(w)
	var want *Tensor
	for _, fma := range []bool{false, asm} {
		useFMAKernel.Store(fma)
		SetMaxWorkers(1)
		want = MatMul(nil, a, w)
		for _, workers := range []int{1, 2, 8} {
			SetMaxWorkers(workers)
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = float32(math.NaN()) // every cell must be written
			}
			MatMulPackedB(got, a, packed)
			requireBitwise(t, fmt.Sprintf("%s m=%d k=%d n=%d workers=%d fma=%v", label, m, k, n, workers, fma), got, want)
		}
	}
	return want
}

// stackRows returns the [m, k] matrix whose row i is rows[i%len(rows)].
func stackRows(m int, rows ...[]float32) *Tensor {
	k := len(rows[0])
	a := New(m, k)
	for i := 0; i < m; i++ {
		copy(a.Data[i*k:(i+1)*k], rows[i%len(rows)])
	}
	return a
}

// TestMulRowSkipsOnlyExactZeros is the differential proof of the
// index-list kernel on the inputs where leaving a term out could show:
// rows of every zero share built from +0, −0, NaN, denormals and
// ordinary values; non-finite weights facing a zero activation; and a
// chain that underflows to −0 before a skipped +0 term — each row alone
// and stacked in batches whose rows differ, so a batch that shared one
// row's index list would show.
func TestMulRowSkipsOnlyExactZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	denormal := math.Float32frombits(1)
	batches := []int{2, 5, 33}
	for _, k := range []int{1, 257, 3072} {
		for _, n := range []int{64, 80, 128, 960} {
			w := randTensor(rng, k, n)
			for i := 0; i < len(w.Data); i += 97 {
				w.Data[i] = [...]float32{0, negZero, denormal, -denormal}[i/97%4]
			}
			var rows [][]float32
			for _, zeros := range []int{100, 50, 0, 99} {
				a := make([]float32, k)
				for p := range a {
					switch {
					case rng.Intn(100) < zeros:
						a[p] = [...]float32{0, negZero}[rng.Intn(2)]
					case rng.Intn(8) == 0:
						a[p] = [...]float32{denormal, -denormal, 1e-30, -1e-30}[rng.Intn(4)]
					default:
						a[p] = float32(rng.NormFloat64())
					}
				}
				rows = append(rows, a)
				requireMulRow(t, fmt.Sprintf("%d%% zeros", zeros), stackRows(1, a), w)
				if k > 1 {
					withNaN := append([]float32(nil), a...)
					withNaN[k/2] = nan
					rows = append(rows, withNaN)
					requireMulRow(t, fmt.Sprintf("%d%% zeros + NaN", zeros), stackRows(1, withNaN), w)
				}
			}
			for _, m := range batches {
				requireMulRow(t, "mixed zero shares", stackRows(m, rows...), w)
			}
		}
	}

	// 0·Inf and 0·NaN are NaN: a non-finite weight anywhere in W keeps
	// every row in the fold, whatever its activation.
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), nan} {
		w := randTensor(rng, 257, 128)
		w.Data[100*128+70] = bad
		a := make([]float32, 257)
		for p := range a {
			if p%4 == 1 {
				a[p] = float32(rng.NormFloat64())
			}
		}
		want := requireMulRow(t, fmt.Sprintf("weight %v on a zero activation", bad), stackRows(1, a), w)
		if v := want.Data[70]; v == v {
			t.Fatalf("weight %v against activation 0 left cell 70 at %v; the case proves nothing", bad, v)
		}
		for _, m := range batches {
			requireMulRow(t, fmt.Sprintf("weight %v, one row all zero", bad), stackRows(m, a, make([]float32, 257)), w)
		}
	}

	// 1e-30·−1e-30 underflows to −0 and the +0 term after it turns the
	// accumulator +0; a fold that only skipped would answer −0. In a
	// batch the row sits between an all-zero one and a dense one.
	w := New(2, 80)
	for j := 0; j < 80; j++ {
		w.Data[j], w.Data[80+j] = -1e-30, 5
	}
	underflow := []float32{1e-30, 0}
	for _, m := range append([]int{1}, batches...) {
		want := requireMulRow(t, "underflow to -0 then a skipped +0", stackRows(m, underflow, []float32{0, negZero}, []float32{1, 2}), w)
		if bits := math.Float32bits(want.Data[0]); bits != 0 {
			t.Fatalf("the dense chain ends with bits %08x, want +0; the case proves nothing", bits)
		}
	}
}

// requireMulRowS8 is requireMulRow for the int8 form. Its reference is
// the FMA3 kernel over the dequantized matrix: for each row and 64-column
// group, over its nonzero positions and over all of them,
// fmaRowIdxS8x64 (where the host has AVX2) and its Go twin must give
// fmaRowIdx1x64's bits — mulRow's dense refold would hide a difference
// in the sign of a zero — and MatMulPackedB over PackBCodes(codes,
// scales) must give MatMul's on every kernel setting and worker count.
// The f32 twins are no reference: they round a·w + acc twice, and for
// 0·±Inf meeting a NaN accumulator answer the default NaN where
// VFMADD231PS keeps the accumulator's, so the int8 twin, which rounds as
// the instruction does, is held to them only in the tail columns, which
// both forms fold with fmaTileGeneric. A host without the FMA3 kernel
// checks only the dequantized matrix.
func requireMulRowS8(t *testing.T, label string, a *Tensor, codes []int8, scales []float32) {
	t.Helper()
	m, k, n := a.Shape[0], a.Shape[1], len(scales)
	wq := New(k, n)
	for i, q := range codes {
		wq.Data[i] = dequantS8(q, scales[i%n])
	}
	want := requireMulRow(t, label+" dequantized", a, wq)
	asm := useFMAKernel.Load()
	if !asm {
		return
	}
	defer useFMAKernel.Store(asm)
	defer SetMaxWorkers(SetMaxWorkers(1))
	useFMAKernel.Store(false)
	twin := MatMul(nil, a, wq)
	for i := 0; i < m; i++ {
		copy(twin.Data[i*n:i*n+n/rowGroup*rowGroup], want.Data[i*n:])
	}
	packed := PackBCodes(codes, scales, k, n)
	for fma, ref := range map[bool]*Tensor{true: want, false: twin} {
		useFMAKernel.Store(fma)
		for _, workers := range []int{1, 2, 8} {
			SetMaxWorkers(workers)
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			MatMulPackedB(got, a, packed)
			requireBitwise(t, fmt.Sprintf("%s int8 m=%d k=%d n=%d workers=%d fma=%v", label, m, k, n, workers, fma), got, ref)
		}
	}
	idx := make([]int32, k)
	ref, got := New(1, rowGroup), New(1, rowGroup)
	for r := 0; r < m; r++ {
		row := a.Data[r*k : (r+1)*k]
		for _, all := range []bool{false, true} {
			live := int64(listNonzero(idx, row, all))
			for j := 0; j+rowGroup <= n; j += rowGroup {
				at := fmt.Sprintf("%s row %d cols %d… all=%v", label, r, j, all)
				fmaRowIdx1x64(live, &idx[0], &row[0], &wq.Data[j], int64(n), &ref.Data[0])
				fmaRowIdxS8Generic(idx[:live], row, codes[j:], scales[j:], n, got.Data)
				requireBitwise(t, at+" twin", got, ref)
				if avx2Available {
					fmaRowIdxS8x64(live, &idx[0], &row[0], &codes[j], &scales[j], int64(n), &got.Data[0])
					requireBitwise(t, at+" fmaRowIdxS8x64", got, ref)
				}
			}
		}
	}
}

// mulRowFuzzInput decodes fuzz bytes: k, n and m, then 32-bit patterns
// that a and W cycle through, a[r,p] = word[(r+1)·p] and W[p,j] =
// word[k+p+j] (indices mod the word count), so a handful of words places
// any float32 — NaN payloads, infinities, denormals, either zero — on
// both sides, and each row of a batch strides through them differently.
// The int8 form takes W[p,j]'s top byte as its code and word[j] as
// column j's scale.
func mulRowFuzzInput(data []byte) (a, w *Tensor, codes []int8, scales []float32) {
	if len(data) < 8 {
		return nil, nil, nil, nil
	}
	k := 1 + int(binary.LittleEndian.Uint16(data))%300
	n := 64*(1+int(data[2])%2) + 16*(int(data[3])%2)
	m := 1 + int(data[3]>>1)%5
	words := data[4:]
	word := func(i int) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(words[i%(len(words)/4)*4:]))
	}
	a = New(m, k)
	for r := 0; r < m; r++ {
		for p := 0; p < k; p++ {
			a.Data[r*k+p] = word((r + 1) * p)
		}
	}
	w = New(k, n)
	codes, scales = make([]int8, k*n), make([]float32, n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			w.Data[p*n+j] = word(k + p + j)
			codes[p*n+j] = int8(math.Float32bits(w.Data[p*n+j]) >> 24)
		}
	}
	for j := range scales {
		scales[j] = word(j)
	}
	return a, w, codes, scales
}

func FuzzMulRow(f *testing.F) {
	seed := func(k, nSel, tail int, words ...float32) {
		data := []byte{byte(k - 1), byte((k - 1) >> 8), byte(nSel), byte(tail)}
		for _, v := range words {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
		f.Add(data)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	seed(2, 0, 0, 1e-30, 0, -1e-30, 5)                       // underflow to −0, then a skipped +0
	seed(3, 1, 1, 0, 1, 1, inf, 2)                           // Inf weight on a zero activation, no zero among the results
	seed(3, 0, 1, negZero, 1, 1, nan, -inf)                  // NaN weight on a −0 activation, likewise
	seed(7, 1, 0, 0, negZero)                                // an all-zero row
	seed(257, 1, 1, 0, 0, 0, 1.5, negZero, -2.25, 0, nan, 3) // mostly zeros, a NaN activation
	seed(300, 0, 0, math.Float32frombits(1), 0, -math.Float32frombits(3), 1e-30, 0, -1e-30, 0.5)
	seed(33, 1, 0, 1, -2, 3, -4, 5)                       // no zeros at all
	seed(2, 0, 2, 1e-30, 0, -1e-30, 5)                    // the underflow row first in a batch of two
	seed(257, 1, 9, 0, 1.5, 0, -2.25, negZero, nan, 0, 3) // five rows of different zero shares, tail columns
	// For the int8 form: 1e-30·(code −1 · scale 1e-30) underflows to −0
	// and the skipped +0 term after it (code 5) turns the cell +0; then
	// the same in a batch of two with 16 tail columns.
	bits := math.Float32frombits
	seed(2, 0, 0, 1e-30, 0, bits(0xff000000), bits(0x05000000))
	seed(2, 0, 3, 1e-30, 0, bits(0xff000000), bits(0x05000000))
	seed(130, 1, 1, 0.5, 0, bits(0x81000000), 1e-39, bits(0x7f000000), inf) // zero, negative, denormal, huge and infinite scales
	f.Fuzz(func(t *testing.T, data []byte) {
		a, w, codes, scales := mulRowFuzzInput(data)
		if w == nil {
			t.Skip()
		}
		requireMulRow(t, "fuzz", a, w)
		requireMulRowS8(t, "fuzz", a, codes, scales)
	})
}

// BenchmarkMulRowDense is the one-row kernel on the input it cannot
// shorten — no zero among the activations, as ModelNN's first layer sees
// raw embeddings — at fc1's shape.
func BenchmarkMulRowDense(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	w := randTensor(rng, 3072, 128)
	a := randTensor(rng, 1, 3072)
	packed := PackB(w)
	dst := New(1, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulPackedB(dst, a, packed)
	}
}

// FuzzListNonzero pins listNonzero's vector scan against the scalar loop,
// switched through SetFMAAsm, on raw bit patterns: the positions of
// exactly the elements that are not ±0, NaN included, in order. The
// input is the length, then the words the row cycles through.
func FuzzListNonzero(f *testing.F) {
	seed := func(n byte, words ...float32) { f.Add(appendFloats([]byte{n}, words...)) }
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	bits := math.Float32frombits
	seed(8, 0, negZero, nan, bits(0x7f800001), 1e-45, -1e-45, inf, -inf)
	seed(13, bits(0xffc00003), 0, 0, negZero, 1, 0, negZero, 0, 2, bits(1), bits(0x80000001))
	seed(31, 0, 0, 0, 0, 0, 0, 0, 5) // one nonzero in eight
	seed(7, 1, 2, 3)                 // shorter than one vector step
	seed(64, negZero)                // all zeros
	seed(200, 1.5, -2.25, 3e38, bits(0x007fffff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		a := make([]float32, int(data[0]))
		for i := range a {
			a[i] = fuzzFloat(data[1:], i)
		}
		var want []int32
		for p, v := range a {
			if v != 0 || v != v {
				want = append(want, int32(p))
			}
		}
		for _, on := range []bool{false, true} {
			prev := SetFMAAsm(on)
			idx := make([]int32, len(a))
			n := listNonzero(idx, a, false)
			SetFMAAsm(prev)
			if n != len(want) || fmt.Sprint(idx[:n]) != fmt.Sprint(want) {
				t.Fatalf("len %d asm=%v: listed %v, want %v", len(a), on, idx[:n], want)
			}
		}
	})
}
