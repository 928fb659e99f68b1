package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prionn/internal/tensor"
)

func requireSameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Shape) != len(want.Shape) || got.Len() != want.Len() {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// layerwise is the forward the fused path replaces: every layer's own
// inference Forward, one after another.
func layerwise(m *Sequential, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, false)
	}
	return x
}

// fusedTestStacks are the three PRIONN architectures plus stacks that
// hit every branch of the block grammar on ragged shapes: odd extents,
// filter counts off the micro-tile, a strided unpadded conv, 1×k
// kernels, a pool over odd extents, conv without ReLU, ReLU without
// pool, pool without ReLU, a pool that does not fit the conv before it
// (never folded), a ReLU after a pool, and a dense chain.
func fusedTestStacks(rng *rand.Rand) []struct {
	name  string
	m     *Sequential
	input []int // one sample's shape
} {
	same3 := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	arch := ArchConfig{Rows: 20, Cols: 20, Channels: 2, Classes: 7, Width: 0.25}
	return []struct {
		name  string
		m     *Sequential
		input []int
	}{
		{"nn", NewFullyConnected(rng, arch), []int{2, 20, 20}},
		{"1d-cnn", NewCNN1D(rng, arch), []int{2, 1, 400}},
		{"2d-cnn", NewCNN2D(rng, arch), []int{2, 20, 20}},
		{"ragged", NewSequential(
			NewConv2D(rng, 5, 17, 23, 6, same3), NewReLU(), NewMaxPool2D(6, 17, 23, 2, 2),
			NewConv2D(rng, 6, 8, 11, 13, same3), NewReLU(),
			NewConv2D(rng, 13, 8, 11, 3, same3),
			NewConv2D(rng, 3, 8, 11, 4, tensor.ConvSpec{KH: 3, KW: 3, Stride: 2}), NewMaxPool2D(4, 3, 5, 2, 1),
			NewReLU(),
			NewFlatten(), NewDense(rng, 4*2*4, 9), NewReLU(), NewDense(rng, 9, 5),
		), []int{5, 17, 23}},
		{"one-filter-unfit-pool", NewSequential(
			NewConv2D(rng, 1, 9, 9, 1, same3), NewReLU(),
			// Declared over a 1×3×27 view of the conv's 1×9×9 output:
			// MaxPool2D.Forward reshapes, the fused epilogue must not.
			&MaxPool2D{InC: 1, InH: 3, InW: 27, Spec: tensor.ConvSpec{KH: 2, KW: 2, Stride: 2}},
			NewFlatten(), NewDense(rng, 13, 4),
		), []int{1, 9, 9}},
		{"conv1d-dropout", NewSequential(
			NewConv1D(rng, 4, 70, 3, 9, 1, 4), NewReLU(),
			NewDropout(rng, 0.5),
			NewFlatten(), NewDense(rng, 3*70, 6), NewReLU(), NewDense(rng, 6, 3), NewReLU(),
		), []int{4, 1, 70}},
	}
}

// TestFusedForwardBitwiseMatchesLayerwise: the block-fused inference
// forward returns the bytes of the layer-by-layer forward — packed or
// not, for every worker count and batch size on both sides of it — and,
// on a dropout-free stack, the bytes of the train-mode forward.
func TestFusedForwardBitwiseMatchesLayerwise(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(51))
	for _, tc := range fusedTestStacks(rng) {
		for _, n := range []int{1, 3, 9} {
			x := tensor.New(append([]int{n}, tc.input...)...).RandN(rng, 1)
			tensor.SetMaxWorkers(1)
			want := layerwise(tc.m, x)
			for _, packed := range []bool{false, true} {
				if packed {
					tc.m.Prepack()
				}
				for _, workers := range []int{1, 2, 4, 8} {
					tensor.SetMaxWorkers(workers)
					label := fmt.Sprintf("%s n=%d workers=%d packed=%v", tc.name, n, workers, packed)
					requireSameBits(t, label+": fused vs layerwise", tc.m.Forward(x, false), want)
					requireSameBits(t, label+": layerwise", layerwise(tc.m, x), want)
				}
			}
			if tc.name != "conv1d-dropout" {
				// Last: a train-mode forward drops the packed panels.
				requireSameBits(t, fmt.Sprintf("%s n=%d: train-mode forward", tc.name, n), tc.m.Forward(x, true), want)
			}
		}
	}
}

// TestInferenceForwardReturnsCheckOuts pins who owns an inference
// activation: PredictClasses returns every check-out, the logits
// included; Predict leaves exactly its logits' storage out — theirs to
// keep, so later forwards must not recycle it — and neither ever hands
// the caller's x (or a view of it) to the arena. The stacks include
// unfused ReLUs and pools, whose heap outputs sit between check-outs.
func TestInferenceForwardReturnsCheckOuts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ar := tensor.DefaultArena()
	stacks := append(fusedTestStacks(rng), struct {
		name  string
		m     *Sequential
		input []int
	}{"views-only", NewSequential(NewFlatten(), NewDropout(rng, 0.5)), []int{2, 8}})
	for _, tc := range stacks {
		for _, n := range []int{1, 4} {
			label := fmt.Sprintf("%s n=%d", tc.name, n)
			x := tensor.New(append([]int{n}, tc.input...)...).RandN(rng, 1)
			input, want := x.Clone(), layerwise(tc.m, x)
			before := ar.Outstanding()
			classes := tc.m.PredictClasses(x)
			if got := ar.Outstanding(); got != before {
				t.Fatalf("%s: Outstanding went %d → %d over PredictClasses", label, before, got)
			}
			for i, c := range classes {
				if c != want.ArgMaxRow(i) {
					t.Fatalf("%s: sample %d class %d, layerwise argmax %d", label, i, c, want.ArgMaxRow(i))
				}
			}
			logits := tc.m.Predict(x)
			kept := 1
			if tc.name == "views-only" {
				kept = 0
			}
			if got := ar.Outstanding(); got != before+kept {
				t.Fatalf("%s: Outstanding went %d → %d over Predict, want %d kept", label, before, got, kept)
			}
			tc.m.PredictClasses(x)
			tc.m.Predict(x)
			requireSameBits(t, label+": kept logits after later forwards", logits, want)
			requireSameBits(t, label+": caller's input", x, input)
		}
	}
}

// TestNextBlockGrammar pins the cut both the fused forward and Quantize
// rely on.
func TestNextBlockGrammar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	spec := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	conv := func() *Conv2D { return NewConv2D(rng, 1, 8, 8, 2, spec) }
	fits, unfit := NewMaxPool2D(2, 8, 8, 2, 2), NewMaxPool2D(2, 4, 4, 2, 2)
	cases := []struct {
		name       string
		layers     []Layer
		relu, pool bool
		next       int
	}{
		{"conv relu pool", []Layer{conv(), NewReLU(), fits, NewFlatten()}, true, true, 3},
		{"conv relu", []Layer{conv(), NewReLU(), NewFlatten()}, true, false, 2},
		{"conv pool", []Layer{conv(), fits}, false, true, 2},
		{"conv alone", []Layer{conv(), conv()}, false, false, 1},
		{"conv last", []Layer{conv()}, false, false, 1},
		{"conv relu unfit pool", []Layer{conv(), NewReLU(), unfit}, true, false, 2},
		{"dense relu", []Layer{NewDense(rng, 3, 2), NewReLU(), fits}, true, false, 2},
		{"dense alone", []Layer{NewDense(rng, 3, 2)}, false, false, 1},
		{"pool relu", []Layer{fits, NewReLU()}, false, false, 1},
		{"relu alone", []Layer{NewReLU(), NewReLU()}, false, false, 1},
	}
	for _, tc := range cases {
		b, next := nextBlock(tc.layers, 0)
		if b.layer != tc.layers[0] || (b.relu != nil) != tc.relu || (b.pool != nil) != tc.pool || next != tc.next {
			t.Errorf("%s: block relu=%v pool=%v next=%d, want relu=%v pool=%v next=%d",
				tc.name, b.relu != nil, b.pool != nil, next, tc.relu, tc.pool, tc.next)
		}
	}
}

// TestTrainForwardDropsPackedPanels: what Prepack builds — dense
// panels, conv filter strips — is a copy of W, so everything that
// rewrites W through the model must drop it — a training step, Load,
// CopyParamsFrom — or inference would go on answering from the old
// weights.
func TestTrainForwardDropsPackedPanels(t *testing.T) {
	arch := ArchConfig{Rows: 8, Cols: 8, Channels: 1, Classes: 5, Width: 0.25}
	rng := rand.New(rand.NewSource(53))
	x := tensor.New(4, 1, 8, 8).RandN(rng, 1)
	labels := []int{0, 1, 2, 3}

	for archName, newModel := range map[string]func(*rand.Rand, ArchConfig) *Sequential{
		"nn": NewFullyConnected, "2d-cnn": NewCNN2D,
	} {
		build := func(seed int64) *Sequential { return newModel(rand.New(rand.NewSource(seed)), arch) }
		rewrites := map[string]func(m *Sequential){
			"TrainBatch": func(m *Sequential) { m.TrainBatch(x, labels, NewAdam(0.1)) },
			"CopyParamsFrom": func(m *Sequential) {
				if err := m.CopyParamsFrom(build(99)); err != nil {
					t.Fatal(err)
				}
			},
			"Load": func(m *Sequential) {
				var buf bytes.Buffer
				if err := build(98).Save(&buf); err != nil {
					t.Fatal(err)
				}
				if err := m.Load(&buf); err != nil {
					t.Fatal(err)
				}
			},
		}
		for name, rewrite := range rewrites {
			name = archName + " " + name
			m := build(1)
			m.Prepack()
			before := m.Forward(x, false).Clone()
			rewrite(m)
			// The reference never had panels: same parameters, fresh model.
			ref := build(2)
			if err := ref.CopyParamsFrom(m); err != nil {
				t.Fatal(err)
			}
			got := m.Forward(x, false)
			requireSameBits(t, name+": forward after rewrite", got, ref.Forward(x, false))
			same := true
			for i := range got.Data {
				same = same && math.Float32bits(got.Data[i]) == math.Float32bits(before.Data[i])
			}
			if same {
				t.Fatalf("%s: logits did not move; the rewrite did not change the weights and the test proves nothing", name)
			}
		}
	}
}
