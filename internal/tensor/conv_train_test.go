package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzTrainConvDirect is the stride-1 training conv's identity proof: on
// random geometries — C, H, W and F, kernels 1–5 on a side, padding 0–2,
// batches 1–9 — the direct forward and backward return the column path's
// bytes: y, dW and dB accumulated onto random values, and dx; with the
// assembly kernels and without, at 1, 2 and 8 workers. Without wantDx
// the gradients are the same and no dx is built.
func FuzzTrainConvDirect(f *testing.F) {
	// A 3×3 "same" conv at batch 8; a 5×5 kernel over a 17-wide row (one
	// lane in the second tile); padding wider than the kernel, and than
	// the image; a 1×1 conv; and a batch large enough that every stage
	// fans out.
	f.Add(int64(1), uint8(3), uint8(31), uint8(31), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(7))
	f.Add(int64(2), uint8(1), uint8(8), uint8(16), uint8(4), uint8(4), uint8(4), uint8(2), uint8(2), uint8(2))
	f.Add(int64(3), uint8(4), uint8(5), uint8(6), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add(int64(93), uint8(3), uint8(0), uint8(3), uint8(7), uint8(4), uint8(0), uint8(2), uint8(0), uint8(5))
	f.Add(int64(4), uint8(2), uint8(9), uint8(12), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(4))
	f.Add(int64(5), uint8(7), uint8(23), uint8(47), uint8(11), uint8(2), uint8(2), uint8(1), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, c, h, w, nf, kh, kw, padH, padW, n uint8) {
		spec := ConvSpec{KH: 1 + int(kh)%5, KW: 1 + int(kw)%5, Stride: 1, PadH: int(padH) % 3, PadW: int(padW) % 3}
		ci, hi, wi, fi, ni := 1+int(c)%8, 1+int(h)%24, 1+int(w)%48, 1+int(nf)%12, 1+int(n)%9
		if spec.Validate(hi, wi) != nil {
			return
		}
		checkTrainConvDirect(t, rand.New(rand.NewSource(seed)), ni, ci, hi, wi, fi, spec)
	})
}

func checkTrainConvDirect(t *testing.T, rng *rand.Rand, n, c, h, w, f int, spec ConvSpec) {
	t.Helper()
	k := c * spec.KH * spec.KW
	x := randTensor(rng, n, c, h, w)
	wt := randTensor(rng, f, k)
	bias := randTensor(rng, f)
	oh, ow := spec.OutDims(h, w)
	dy := randTensor(rng, n, f, oh, ow)
	dW0, dB0 := randTensor(rng, f, k), randTensor(rng, f)

	asm := useFMAKernel.Load()
	defer useFMAKernel.Store(asm)
	defer SetMaxWorkers(SetMaxWorkers(1))
	wantY, cols := Conv2DForward(x, wt, bias, c, h, w, spec)
	wantDW, wantDB := dW0.Clone(), dB0.Clone()
	wantDx := Conv2DBackward(dy, wt, cols, wantDW, wantDB, c, h, w, spec)

	kernels := []bool{false}
	if asm {
		kernels = append(kernels, true)
	}
	geom := fmt.Sprintf("n=%d c=%d h=%d w=%d f=%d %+v", n, c, h, w, f, spec)
	for _, fma := range kernels {
		useFMAKernel.Store(fma)
		for _, workers := range []int{1, 2, 8} {
			SetMaxWorkers(workers)
			label := fmt.Sprintf("%s fma=%v workers=%d", geom, fma, workers)
			tr := NewConvTrain(f, c, h, w, spec)
			y := tr.Forward(x, wt, bias)
			requireBitwise(t, label+" y", y, wantY)
			dW, dB := dW0.Clone(), dB0.Clone()
			dx := tr.Backward(dy, wt, dW, dB, true)
			requireBitwise(t, label+" dW", dW, wantDW)
			requireBitwise(t, label+" dB", dB, wantDB)
			requireBitwise(t, label+" dx", dx, wantDx)

			dW, dB = dW0.Clone(), dB0.Clone()
			if none := tr.Backward(dy, wt, dW, dB, false); none != nil {
				t.Fatalf("%s: Backward without wantDx returned a dx", label)
			}
			requireBitwise(t, label+" dW, no dx", dW, wantDW)
			requireBitwise(t, label+" dB, no dx", dB, wantDB)
			defaultArena.Put(dx)
			defaultArena.Put(y)
		}
	}
}

// TestTrainConvStridedKeepsColumnPath: a strided conv trains through the
// column matrix, and Backward returns it to the arena — without wantDx
// too, and without building dx.
func TestTrainConvStridedKeepsColumnPath(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	spec := ConvSpec{KH: 1, KW: 5, Stride: 2, PadW: 2}
	const n, c, w, f = 3, 4, 40, 5
	x := randTensor(rng, n, c, 1, w)
	wt, bias := randTensor(rng, f, c*5), randTensor(rng, f)
	_, ow := spec.OutDims(1, w)
	dy := randTensor(rng, n, f, 1, ow)
	wantY, cols := Conv2DForward(x, wt, bias, c, 1, w, spec)
	wantDW, wantDB := New(f, c*5), New(f)
	wantDx := Conv2DBackward(dy, wt, cols, wantDW, wantDB, c, 1, w, spec)

	tr := NewConvTrain(f, c, 1, w, spec)
	for _, wantsDx := range []bool{true, false} {
		before := defaultArena.Outstanding()
		y := tr.Forward(x, wt, bias)
		requireBitwise(t, "strided y", y, wantY)
		dW, dB := New(f, c*5), New(f)
		dx := tr.Backward(dy, wt, dW, dB, wantsDx)
		requireBitwise(t, "strided dW", dW, wantDW)
		requireBitwise(t, "strided dB", dB, wantDB)
		if wantsDx {
			requireBitwise(t, "strided dx", dx, wantDx)
		} else if dx != nil {
			t.Fatal("strided Backward without wantDx returned a dx")
		}
		defaultArena.Put(y)
		defaultArena.Put(dx)
		if got := defaultArena.Outstanding(); got != before {
			t.Fatalf("wantDx=%v: Outstanding went %d → %d over a strided Forward+Backward", wantsDx, before, got)
		}
	}
}

// TestConvBackTileGenericMatchesAsm: the input-gradient kernel and its Go
// twin produce the same bytes on random operands and masks, tap counts
// from none to a 5×5 kernel's, one filter to many, into a strided tile.
func TestConvBackTileGenericMatchesAsm(t *testing.T) {
	if !useFMAKernel.Load() {
		t.Skip("FMA kernel not available on this CPU")
	}
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct{ taps, f int }{{0, 3}, {1, 1}, {9, 4}, {9, 13}, {25, 7}} {
		const fstride, ldc = 53, 37
		dy := randTensor(rng, tc.f*fstride+64).Data
		pw := randTensor(rng, max(tc.taps*tc.f*gemmMR, 1)).Data
		taps := make([]int32, 2*max(tc.taps, 1))
		masks := make([]uint32, 5*gemmNR)
		for i := range masks {
			if rng.Intn(4) != 0 {
				masks[i] = ^uint32(0)
			}
		}
		for i := 0; i < tc.taps; i++ {
			taps[2*i], taps[2*i+1] = int32(rng.Intn(48)), int32(rng.Intn(5)*gemmNR)
		}
		var gen [gemmMR * gemmNR]float32
		fmaConvBackTileGeneric(tc.taps, tc.f, pw, dy, taps, fstride, masks, &gen)
		got := New(gemmMR * ldc).Fill(float32(math.NaN()))
		fmaConvBackTile4x16(int64(tc.taps), int64(tc.f), &pw[0], &dy[0], &taps[0], fstride, &masks[0], &got.Data[0], ldc)
		want := New(gemmMR * ldc).Fill(float32(math.NaN()))
		for r := 0; r < gemmMR; r++ {
			copy(want.Data[r*ldc:], gen[r*gemmNR:(r+1)*gemmNR])
		}
		requireBitwise(t, fmt.Sprintf("taps=%d f=%d", tc.taps, tc.f), got, want)
	}
}
