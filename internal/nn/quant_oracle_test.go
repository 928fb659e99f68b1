package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prionn/internal/tensor"
)

// The graph-level oracle for the int8 forward: every op of a quantized
// chain computed the slow, obvious way — one output cell at a time, no
// blocking, no packing, no fusion, requantize first and pool after —
// against QModel's fused forward.

// naiveRequant is the requantization expression of the package comment
// with the library's rounding.
func naiveRequant(real float32, p QParams, relu bool) uint8 {
	v := int64(math.Round(float64(real/p.Scale))) + int64(p.Zero)
	lo := int64(0)
	if relu {
		lo = int64(p.Zero)
	}
	return uint8(min(max(v, lo), 255))
}

// naivePreact maps an accumulator to the real pre-activation: zero-point
// correction, the two scales, the bias.
func naivePreact(acc int32, inQ QParams, wScale float32, wSum int32, bias float32) float32 {
	s := inQ.Scale * wScale
	return float32(s*float32(acc-int32(inQ.Zero)*wSum)) + bias
}

func naiveConv(c *QConv2D, x []uint8, n int) []uint8 {
	oh, ow := c.Spec.OutDims(c.InH, c.InW)
	fanIn := c.InC * c.Spec.KH * c.Spec.KW
	out := make([]uint8, n*c.Filters*oh*ow)
	for i := 0; i < n; i++ {
		img := x[i*c.InC*c.InH*c.InW:]
		for f := 0; f < c.Filters; f++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc int32
					for ch := 0; ch < c.InC; ch++ {
						for ky := 0; ky < c.Spec.KH; ky++ {
							for kx := 0; kx < c.Spec.KW; kx++ {
								iy, ix := oy*c.Spec.Stride+ky-c.Spec.PadH, ox*c.Spec.Stride+kx-c.Spec.PadW
								v := int32(c.InQ.Zero) // padding is real 0.0
								if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
									v = int32(img[(ch*c.InH+iy)*c.InW+ix])
								}
								acc += int32(c.W[f*fanIn+(ch*c.Spec.KH+ky)*c.Spec.KW+kx]) * v
							}
						}
					}
					real := naivePreact(acc, c.InQ, c.WScale[f], c.WSum[f], c.Bias[f])
					out[((i*c.Filters+f)*oh+oy)*ow+ox] = naiveRequant(real, c.OutQ, c.Relu)
				}
			}
		}
	}
	return out
}

func naivePool(p *QMaxPool2D, x []uint8, n int) []uint8 {
	oh, ow := p.Spec.OutDims(p.InH, p.InW)
	out := make([]uint8, n*p.InC*oh*ow)
	for pl := 0; pl < n*p.InC; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var best uint8
				for ky := 0; ky < p.Spec.KH; ky++ {
					for kx := 0; kx < p.Spec.KW; kx++ {
						if iy, ix := oy*p.Spec.Stride+ky, ox*p.Spec.Stride+kx; iy < p.InH && ix < p.InW {
							best = max(best, x[(pl*p.InH+iy)*p.InW+ix])
						}
					}
				}
				out[(pl*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

// naiveDense returns the layer's real pre-activations and their
// requantization.
func naiveDense(d *QDense, x []uint8, n int) ([]float32, []uint8) {
	real, out := make([]float32, n*d.Out), make([]uint8, n*d.Out)
	for i := 0; i < n; i++ {
		for o := 0; o < d.Out; o++ {
			var acc int32
			for p := 0; p < d.In; p++ {
				acc += int32(d.W[o*d.In+p]) * int32(x[i*d.In+p])
			}
			real[i*d.Out+o] = naivePreact(acc, d.InQ, d.WScale[o], d.WSum[o], d.Bias[o])
			out[i*d.Out+o] = naiveRequant(real[i*d.Out+o], d.OutQ, d.Relu)
		}
	}
	return real, out
}

// quantOracleStacks are the three PRIONN architectures — the 2D-CNN also
// at the 32×32 extent whose strips the packer takes as windows — plus
// ragged stacks: odd extents under a folded pool, 1×k and strided
// kernels, a conv without ReLU before a folded pool, pools that must not
// fold (declared over another view of the conv's output; overlapping
// 3×3/2; 2×2/1), dropout, k crossing KC, columns crossing NC. folds is
// how many pools the forward must take into a conv's epilogue.
func quantOracleStacks(rng *rand.Rand) []struct {
	name  string
	m     *Sequential
	input []int // one sample's shape
	folds int
} {
	same3 := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	arch := ArchConfig{Rows: 20, Cols: 20, Channels: 2, Classes: 7, Width: 0.25}
	arch32 := ArchConfig{Rows: 32, Cols: 32, Channels: 3, Classes: 9, Width: 0.5}
	return []struct {
		name  string
		m     *Sequential
		input []int
		folds int
	}{
		{"nn", NewFullyConnected(rng, arch), []int{2, 20, 20}, 0},
		{"1d-cnn", NewCNN1D(rng, arch), []int{2, 1, 400}, 0},
		{"2d-cnn", NewCNN2D(rng, arch), []int{2, 20, 20}, 1},
		{"2d-cnn-32", NewCNN2D(rng, arch32), []int{3, 32, 32}, 1},
		{"ragged", NewSequential(
			NewConv2D(rng, 5, 17, 23, 6, same3), NewReLU(), NewMaxPool2D(6, 17, 23, 2, 2),
			NewConv2D(rng, 6, 8, 11, 13, same3), NewReLU(),
			NewConv2D(rng, 13, 8, 11, 3, same3),
			NewConv2D(rng, 3, 8, 11, 4, tensor.ConvSpec{KH: 3, KW: 3, Stride: 2}), NewMaxPool2D(4, 3, 5, 2, 1),
			NewFlatten(), NewDense(rng, 4*2*4, 9), NewReLU(), NewDropout(rng, 0.5), NewDense(rng, 9, 5),
		), []int{5, 17, 23}, 1},
		{"unfit-pool", NewSequential(
			NewConv2D(rng, 1, 9, 9, 1, same3), NewReLU(),
			// Declared over a 1×3×27 view of the conv's 1×9×9 output.
			&MaxPool2D{InC: 1, InH: 3, InW: 27, Spec: tensor.ConvSpec{KH: 2, KW: 2, Stride: 2}},
			NewFlatten(), NewDense(rng, 13, 4),
		), []int{1, 9, 9}, 0},
		{"overlap-pool", NewSequential(
			NewConv2D(rng, 2, 12, 12, 3, same3), NewReLU(), NewMaxPool2D(3, 12, 12, 3, 2),
			NewConv2D(rng, 3, 5, 5, 4, same3), NewMaxPool2D(4, 5, 5, 2, 2), // no ReLU, folded
			NewFlatten(), NewDense(rng, 4*2*2, 5),
		), []int{2, 12, 12}, 1},
		{"deep-k-wide-n", NewSequential(
			NewConv2D(rng, 30, 24, 24, 3, same3), NewReLU(), NewMaxPool2D(3, 24, 24, 2, 2), // k = 270, 576 columns
			NewFlatten(), NewDense(rng, 3*12*12, 6), NewReLU(), NewDropout(rng, 0.3), NewDense(rng, 6, 3),
		), []int{30, 24, 24}, 1},
		{"conv1d-1xk", NewSequential(
			NewConv1D(rng, 4, 70, 3, 9, 1, 4), NewReLU(), NewDropout(rng, 0.5),
			NewFlatten(), NewDense(rng, 3*70, 6), NewReLU(), NewDense(rng, 6, 3),
		), []int{4, 1, 70}, 0},
	}
}

// TestQuantForwardBitwiseMatchesNaive: for every stack, batch size,
// worker count and micro-kernel, QModel's fused forward reproduces the
// naive op-by-op reference byte for byte — the logits and the u8
// activation after every op (running the chain up to an op inside a
// conv→pool pair checks the conv alone, nothing folded; up to the pool
// checks the fold).
func TestQuantForwardBitwiseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	defer tensor.SetInt8Asm(tensor.SetInt8Asm(false))
	for _, st := range quantOracleStacks(rng) {
		calib := tensor.New(append([]int{6}, st.input...)...).RandN(rng, 1)
		qm, err := Quantize(st.m, calib)
		if err != nil {
			t.Fatalf("%s: Quantize: %v", st.name, err)
		}
		folds := 0
		for i, op := range qm.Ops[:len(qm.Ops)-1] {
			if c, ok := op.(*QConv2D); ok && c.folds(qm.Ops[i+1]) {
				folds++
			}
		}
		if folds != st.folds {
			t.Fatalf("%s: the forward folds %d pools, the stack was built for %d", st.name, folds, st.folds)
		}
		for _, n := range []int{1, 3, 9, 32} {
			x := tensor.New(append([]int{n}, st.input...)...).RandN(rng, 1)
			act := make([]uint8, x.Len())
			for i, v := range x.Data {
				act[i] = naiveRequant(v, qm.InQ, false)
			}
			var want [][]uint8 // the activation after each op
			for _, op := range qm.Ops {
				switch l := op.(type) {
				case *QConv2D:
					act = naiveConv(l, act, n)
				case *QMaxPool2D:
					act = naivePool(l, act, n)
				case *QDense:
					_, act = naiveDense(l, act, n)
				}
				want = append(want, act)
			}
			logits, _ := naiveDense(qm.Head, act, n)

			for _, asm := range []bool{false, true} {
				tensor.SetInt8Asm(asm)
				if on := tensor.SetInt8Asm(asm); on != asm {
					continue // no assembly kernel on this CPU
				}
				for _, workers := range []int{1, 2, 4, 8} {
					tensor.SetMaxWorkers(workers)
					label := fmt.Sprintf("%s n=%d workers=%d asm=%v", st.name, n, workers, asm)
					sc := new(qScratch)
					for upTo := 1; upTo <= len(qm.Ops); upTo++ {
						got := qm.hidden(sc, x, upTo)
						if len(got) != len(want[upTo-1]) {
							t.Fatalf("%s: %d values after op %d (%T), want %d", label, len(got), upTo-1, qm.Ops[upTo-1], len(want[upTo-1]))
						}
						for i, b := range want[upTo-1] {
							if got[i] != b {
								t.Fatalf("%s: byte %d after op %d (%T) = %d, want %d", label, i, upTo-1, qm.Ops[upTo-1], got[i], b)
							}
						}
					}
					got := qm.Predict(x)
					for i, v := range logits {
						if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
							t.Fatalf("%s: logit %d = %v, want %v", label, i, got.Data[i], v)
						}
					}
				}
			}
		}
	}
}
