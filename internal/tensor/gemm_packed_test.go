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

// mulRowFuzzInput decodes fuzz bytes: k, n and m, then 32-bit patterns
// that a and W cycle through, a[r,p] = word[(r+1)·p] and W[p,j] =
// word[k+p+j] (indices mod the word count), so a handful of words places
// any float32 — NaN payloads, infinities, denormals, either zero — on
// both sides, and each row of a batch strides through them differently.
func mulRowFuzzInput(data []byte) (a, w *Tensor) {
	if len(data) < 8 {
		return nil, nil
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
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			w.Data[p*n+j] = word(k + p + j)
		}
	}
	return a, w
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
	f.Fuzz(func(t *testing.T, data []byte) {
		a, w := mulRowFuzzInput(data)
		if w == nil {
			t.Skip()
		}
		requireMulRow(t, "fuzz", a, w)
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
