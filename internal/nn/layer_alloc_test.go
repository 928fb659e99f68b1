package nn

import (
	"math/rand"
	"testing"

	"prionn/internal/tensor"
)

// TestDenseTrainStepZeroAlloc proves the dense forward+backward training
// path performs no steady-state heap allocation once its arena-recycled
// buffers are warm.
func TestDenseTrainStepZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 64, 32)
	x := tensor.New(8, 64).RandN(rng, 1)
	dy := tensor.New(8, 32).RandN(rng, 1)
	step := func() {
		d.Forward(x, true)
		d.Backward(dy)
	}
	step() // warm the arena
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("dense train step allocates %.1f times per run in steady state", avg)
	}
}

// TestConvLayerTrainStepZeroAlloc proves the conv layer's batched
// forward+backward cycle is allocation-free in steady state.
func TestConvLayerTrainStepZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	spec := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	c := NewConv2D(rng, 3, 16, 16, 8, spec)
	x := tensor.New(4, 3, 16, 16).RandN(rng, 1)
	oh, ow := c.OutDims()
	dy := tensor.New(4, 8, oh, ow).RandN(rng, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(dy)
	}
	step() // warm the arena
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("conv train step allocates %.1f times per run in steady state", avg)
	}
}

// TestMaxPoolTrainStepZeroAlloc covers the pool's recycled output,
// argmax table and input gradient.
func TestMaxPoolTrainStepZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(4))
	p := NewMaxPool2D(4, 16, 16, 2, 2)
	x := tensor.New(8, 4, 16, 16).RandN(rng, 1)
	dy := tensor.New(8, 4, 8, 8).RandN(rng, 1)
	step := func() {
		p.Forward(x, true)
		p.Backward(dy)
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("maxpool train step allocates %.1f times per run in steady state", avg)
	}
}

// TestCNN2DTrainBatchZeroAlloc: a whole optimization step of the 2D-CNN
// — every layer's forward and backward, the loss, Adam — allocates
// nothing once the first step has sized its buffers, and the first conv
// builds no input gradient.
func TestCNN2DTrainBatchZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(5))
	m := NewCNN2D(rng, ArchConfig{Rows: 32, Cols: 32, Channels: 4, Classes: 32, Width: 0.5})
	x := tensor.New(8, 4, 32, 32).RandN(rng, 1)
	labels := []int{0, 3, 7, 1, 31, 2, 2, 9}
	opt := NewAdam(1e-3)
	step := func() { m.TrainBatch(x, labels, opt) }
	step()
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Fatalf("2D-CNN TrainBatch allocates %.1f times per run in steady state", avg)
	}
	if dx := m.Layers[0].(*Conv2D).dx; dx != nil {
		t.Fatalf("the first conv built an input gradient of shape %v", dx.Shape)
	}
}

// TestReLUTrainStepZeroAlloc covers the recycled activation buffers.
func TestReLUTrainStepZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(3))
	r := NewReLU()
	x := tensor.New(8, 128).RandN(rng, 1)
	dy := tensor.New(8, 128).RandN(rng, 1)
	step := func() {
		r.Forward(x, true)
		r.Backward(dy)
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("relu train step allocates %.1f times per run in steady state", avg)
	}
}
