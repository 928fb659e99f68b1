package nn

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"prionn/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 3)
	d.W = tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	d.B = tensor.FromSlice([]float32{10, 20, 30}, 3)
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := d.Forward(x, false)
	want := []float32{1 + 4 + 10, 2 + 5 + 20, 3 + 6 + 30}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("y[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

// lossOf computes the scalar loss for gradient checking.
func lossOf(m *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, false)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// checkGradients numerically verifies a few parameter gradients of m.
func checkGradients(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	params, grads := m.collect()
	for _, g := range grads {
		g.Zero()
	}
	logits := m.Forward(x, true)
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	m.Backward(dlogits)
	const eps = 1e-2
	for pi, p := range params {
		// Check a spread of indices per tensor.
		idxs := []int{0, p.Len() / 2, p.Len() - 1}
		for _, i := range idxs {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			up := lossOf(m, x, labels)
			p.Data[i] = orig - eps
			down := lossOf(m, x, labels)
			p.Data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(grads[pi].Data[i])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d idx %d: analytic %v vs numeric %v", pi, i, got, num)
			}
		}
	}
}

func TestDenseNetworkGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSequential(
		NewDense(rng, 6, 8),
		NewReLU(),
		NewDense(rng, 8, 4),
	)
	x := tensor.New(3, 6).RandN(rng, 1)
	checkGradients(t, m, x, []int{1, 3, 0}, 0.15)
}

func TestConvNetworkGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D(rng, 1, 6, 6, 2, tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1})
	pool := NewMaxPool2D(2, 6, 6, 2, 2)
	m := NewSequential(
		conv,
		NewReLU(),
		pool,
		NewFlatten(),
		NewDense(rng, 2*3*3, 4),
	)
	x := tensor.New(2, 1, 6, 6).RandN(rng, 1)
	checkGradients(t, m, x, []int{2, 1}, 0.15)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over K classes → loss = ln K.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient: (0.25 - onehot)/N.
	if math.Abs(float64(grad.At(0, 0))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad(0,0) = %v", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.25/2) > 1e-6 {
		t.Fatalf("grad(0,1) = %v", grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(6), 2+rng.Intn(8)
		logits := tensor.New(n, k).RandN(rng, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		loss, grad := SoftmaxCrossEntropy(logits, labels)
		if loss < 0 {
			return false
		}
		// Each row of the gradient sums to zero: sum(softmax) - 1 = 0.
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range grad.Row(i) {
				s += float64(v)
			}
			if math.Abs(s) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		0, 1, 0,
		5, 1, 0,
		0, 0, 9,
	}, 3, 3)
	if a := Accuracy(logits, []int{1, 0, 2}); a != 1 {
		t.Fatalf("accuracy = %v, want 1", a)
	}
	if a := Accuracy(logits, []int{0, 0, 2}); math.Abs(a-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v, want 2/3", a)
	}
}

func TestFitLearnsSeparableProblem(t *testing.T) {
	// Two Gaussian blobs in 2D; a tiny dense net should reach high
	// training accuracy quickly.
	rng := rand.New(rand.NewSource(4))
	n := 200
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		cx := float64(c)*4 - 2
		x.Set(float32(cx+rng.NormFloat64()*0.5), i, 0)
		x.Set(float32(cx+rng.NormFloat64()*0.5), i, 1)
	}
	m := NewSequential(
		NewDense(rng, 2, 16),
		NewReLU(),
		NewDense(rng, 16, 2),
	)
	opt := NewAdam(0.01)
	m.Fit(x, labels, opt, FitOptions{Epochs: 30, BatchSize: 32, Shuffle: rng})
	acc := Accuracy(m.Predict(x), labels)
	if acc < 0.95 {
		t.Fatalf("training accuracy %v < 0.95 on separable data", acc)
	}
}

func TestFitLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	x := tensor.New(n, 4).RandN(rng, 1)
	labels := make([]int, n)
	for i := range labels {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	m := NewSequential(NewDense(rng, 4, 8), NewReLU(), NewDense(rng, 8, 2))
	opt := NewSGD(0.1, 0.9)
	var losses []float64
	m.Fit(x, labels, opt, FitOptions{
		Epochs: 10, BatchSize: 16, Shuffle: rng,
		Verbose: func(e int, l float64) { losses = append(losses, l) },
	})
	if len(losses) != 10 {
		t.Fatalf("want 10 epoch losses, got %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v → %v", losses[0], losses[len(losses)-1])
	}
}

func TestSGDMomentumMatchesManual(t *testing.T) {
	p := tensor.FromSlice([]float32{1}, 1)
	g := tensor.FromSlice([]float32{2}, 1)
	opt := NewSGD(0.1, 0.5)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// v = -0.1*2 = -0.2; p = 1 - 0.2 = 0.8
	if math.Abs(float64(p.Data[0])-0.8) > 1e-6 {
		t.Fatalf("step1 p = %v, want 0.8", p.Data[0])
	}
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// v = 0.5*(-0.2) - 0.2 = -0.3; p = 0.8 - 0.3 = 0.5
	if math.Abs(float64(p.Data[0])-0.5) > 1e-6 {
		t.Fatalf("step2 p = %v, want 0.5", p.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (p-3)^2 via its gradient 2(p-3).
	p := tensor.FromSlice([]float32{0}, 1)
	g := tensor.New(1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g.Data[0] = 2 * (p.Data[0] - 3)
		opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	}
	if math.Abs(float64(p.Data[0])-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want 3", p.Data[0])
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := tensor.New(1, 1000).Fill(1)
	yTrain := d.Forward(x, true)
	zeros := 0
	var sum float64
	for _, v := range yTrain.Data {
		if v == 0 {
			zeros++
		}
		sum += float64(v)
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout zeroed %d of 1000, expected ≈500", zeros)
	}
	// Inverted dropout keeps the expected activation scale.
	if sum < 700 || sum > 1300 {
		t.Fatalf("dropout train-mode sum %v, expected ≈1000", sum)
	}
	yEval := d.Forward(x, false)
	for _, v := range yEval.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at eval time")
		}
	}
}

func TestDropoutBackwardMasksGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(rng, 0.5)
	x := tensor.New(1, 100).Fill(1)
	y := d.Forward(x, true)
	dy := tensor.New(1, 100).Fill(1)
	dx := d.Backward(dy)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("gradient mask does not match forward mask")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := func(r *rand.Rand) *Sequential {
		return NewSequential(NewDense(r, 4, 8), NewReLU(), NewDense(r, 8, 3))
	}
	m1 := build(rng)
	x := tensor.New(5, 4).RandN(rng, 1)
	want := m1.Predict(x).Clone()

	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := build(rand.New(rand.NewSource(999))) // different init
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := m2.Predict(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("prediction differs after Load at %d", i)
		}
	}
}

func TestLoadSizeMismatchError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m1 := NewSequential(NewDense(rng, 4, 8))
	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewSequential(NewDense(rng, 4, 9))
	if err := m2.Load(&buf); err == nil {
		t.Fatal("expected error loading mismatched snapshot")
	}
}

func TestCopyParamsFromWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m1 := NewSequential(NewDense(rng, 3, 5), NewReLU(), NewDense(rng, 5, 2))
	m2 := NewSequential(NewDense(rng, 3, 5), NewReLU(), NewDense(rng, 5, 2))
	if err := m2.CopyParamsFrom(m1); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3).RandN(rng, 1)
	a, b := m1.Predict(x), m2.Predict(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("warm-started model differs from source")
		}
	}
}

func TestArchBuildersShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := ArchConfig{Rows: 16, Cols: 16, Channels: 4, Classes: 10, Width: 0.25}
	for name, build := range map[string]func(*rand.Rand, ArchConfig) *Sequential{
		"NN":     NewFullyConnected,
		"1D-CNN": NewCNN1D,
		"2D-CNN": NewCNN2D,
	} {
		m := build(rng, cfg)
		x := tensor.New(3, cfg.Channels, cfg.Rows, cfg.Cols).RandN(rng, 1)
		var logits *tensor.Tensor
		switch name {
		case "NN":
			logits = m.Predict(x)
		case "1D-CNN":
			logits = m.Predict(x.Reshape(3, cfg.Channels, 1, cfg.Rows*cfg.Cols))
		default:
			logits = m.Predict(x)
		}
		if logits.Dim(0) != 3 || logits.Dim(1) != cfg.Classes {
			t.Fatalf("%s: logits shape %v, want [3 %d]", name, logits.Shape, cfg.Classes)
		}
		if m.NumParams() == 0 {
			t.Fatalf("%s: no parameters", name)
		}
	}
}

func TestCNN2DTrainsOnSyntheticImages(t *testing.T) {
	// Class 0: bright top half. Class 1: bright bottom half. The 2D-CNN
	// must learn this spatial pattern.
	rng := rand.New(rand.NewSource(12))
	cfg := ArchConfig{Rows: 8, Cols: 8, Channels: 1, Classes: 2, Width: 0.5}
	n := 60
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		for r := 0; r < 8; r++ {
			for col := 0; col < 8; col++ {
				v := rng.Float64() * 0.2
				if (c == 0 && r < 4) || (c == 1 && r >= 4) {
					v += 1
				}
				x.Set(float32(v), i, 0, r, col)
			}
		}
	}
	m := NewCNN2D(rng, cfg)
	opt := NewAdam(0.005)
	m.Fit(x, labels, opt, FitOptions{Epochs: 8, BatchSize: 16, Shuffle: rng})
	if acc := Accuracy(m.Predict(x), labels); acc < 0.9 {
		t.Fatalf("2D-CNN training accuracy %v < 0.9", acc)
	}
}

func TestFitEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewSequential(NewDense(rng, 2, 2))
	loss := m.Fit(tensor.New(0, 2), nil, NewSGD(0.1, 0), FitOptions{Epochs: 3})
	if loss != 0 {
		t.Fatalf("Fit on empty dataset returned %v, want 0", loss)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dy := tensor.New(2, 60)
	dx := f.Backward(dy)
	if dx.Rank() != 4 || dx.Dim(3) != 5 {
		t.Fatalf("flatten backward shape %v", dx.Shape)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	d := StepDecay{Base: 1.0, Factor: 0.5, Every: 2}
	want := map[int]float64{0: 1, 1: 1, 2: 0.5, 3: 0.5, 4: 0.25}
	for e, w := range want {
		if got := d.At(e); math.Abs(got-w) > 1e-12 {
			t.Fatalf("At(%d) = %v, want %v", e, got, w)
		}
	}
	// Every <= 0 disables decay.
	if (StepDecay{Base: 2, Factor: 0.1}).At(100) != 2 {
		t.Fatal("zero-Every schedule decayed")
	}
}

func TestLRAdjusters(t *testing.T) {
	for _, opt := range []LRAdjuster{NewSGD(0.1, 0), NewAdam(0.01)} {
		orig := opt.LearningRate()
		StepDecay{Base: orig, Factor: 0.5, Every: 1}.Apply(opt, 2)
		if got := opt.LearningRate(); math.Abs(got-orig*0.25) > 1e-12 {
			t.Fatalf("adjusted LR %v, want %v", got, orig*0.25)
		}
	}
}

func TestDescribe(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := NewSequential(
		NewConv2D(rng, 1, 8, 8, 2, tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}),
		NewReLU(),
		NewFlatten(),
		NewDense(rng, 128, 4),
	)
	desc := m.Describe()
	for _, want := range []string{"conv2d", "dense", "128 -> 4", "total"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestGradientNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewSequential(NewDense(rng, 4, 8), NewReLU(), NewDense(rng, 8, 2))
	x := tensor.New(4, 4).RandN(rng, 1)
	m.TrainBatch(x, []int{0, 1, 0, 1}, NewSGD(0.01, 0))
	norms := m.GradientNorms()
	if len(norms) != 4 { // W1, b1, W2, b2
		t.Fatalf("%d gradient norms", len(norms))
	}
	nonzero := 0
	for _, n := range norms {
		if n > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all gradients zero after a training step")
	}
}

// TestInferenceForwardLeavesBackwardAlone pins the read-only inference
// forward layer by layer: a train-mode Forward, then an inference
// Forward on a different batch, then Backward must produce the same
// input and parameter gradients as without the inference call. (Conv2D
// never cached on the inference path; the other five layers did.)
func TestInferenceForwardLeavesBackwardAlone(t *testing.T) {
	cases := []struct {
		name  string
		build func() Layer
		train []int // train-mode batch shape
		infer []int // inference batch shape (same element count)
	}{
		{"dense", func() Layer { return NewDense(rand.New(rand.NewSource(1)), 6, 4) }, []int{3, 6}, []int{3, 6}},
		{"relu", func() Layer { return NewReLU() }, []int{3, 6}, []int{3, 6}},
		{"maxpool2d", func() Layer { return NewMaxPool2D(2, 4, 4, 2, 2) }, []int{3, 2, 4, 4}, []int{3, 2, 4, 4}},
		{"flatten", func() Layer { return NewFlatten() }, []int{3, 2, 4, 4}, []int{3, 4, 2, 4}},
		{"dropout", func() Layer { return NewDropout(rand.New(rand.NewSource(2)), 0.5) }, []int{3, 6}, []int{3, 6}},
	}
	for _, tc := range cases {
		run := func(interleave bool) (dx *tensor.Tensor, grads [][]float32) {
			rng := rand.New(rand.NewSource(3))
			l := tc.build()
			y := l.Forward(tensor.New(tc.train...).RandN(rng, 1), true)
			dy := tensor.New(y.Shape...).RandN(rng, 1)
			if interleave {
				l.Forward(tensor.New(tc.infer...).RandN(rng, 1), false)
			}
			dx = l.Backward(dy).Clone()
			for _, g := range l.Grads() {
				grads = append(grads, append([]float32(nil), g.Data...))
			}
			return dx, grads
		}
		wantDx, wantGrads := run(false)
		gotDx, gotGrads := run(true)
		if !slices.Equal(gotDx.Shape, wantDx.Shape) || !slices.Equal(gotDx.Data, wantDx.Data) {
			t.Errorf("%s: input gradient changed by an interleaved inference forward:\n got %v %v\nwant %v %v",
				tc.name, gotDx.Shape, gotDx.Data, wantDx.Shape, wantDx.Data)
		}
		for i := range wantGrads {
			if !slices.Equal(gotGrads[i], wantGrads[i]) {
				t.Errorf("%s: parameter gradient %d changed by an interleaved inference forward", tc.name, i)
			}
		}
	}
}

// TestSaveLoadBitExact: the record format moves bit patterns, not
// values — parameters, Adam moments and the step counter come back
// exactly, including a NaN with a payload and a negative zero, which a
// conversion through arithmetic would not keep.
func TestSaveLoadBitExact(t *testing.T) {
	for name, plant := range map[string]uint32{
		"nan-payload":   0x7fc12345,
		"negative-zero": 0x80000000,
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			build := func() *Sequential {
				return NewSequential(NewDense(rng, 6, 5), NewReLU(), NewDense(rng, 5, 3))
			}
			m1, opt1 := build(), NewAdam(1e-2)
			x := tensor.New(4, 6).RandN(rng, 1)
			for i := 0; i < 3; i++ {
				m1.TrainBatch(x, []int{0, 1, 2, 0}, opt1)
			}
			// Plant the pattern in a parameter and in both moments of it.
			w := m1.Params()[0]
			w.Data[1] = math.Float32frombits(plant)
			opt1.states[w].m.Data[2] = math.Float32frombits(plant)
			opt1.states[w].v.Data[3] = math.Float32frombits(plant)

			var buf bytes.Buffer
			if err := m1.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := opt1.SaveState(m1.Params(), &buf); err != nil {
				t.Fatal(err)
			}
			m2, opt2 := build(), NewAdam(1e-2)
			if err := m2.Load(&buf); err != nil {
				t.Fatal(err)
			}
			if err := opt2.LoadState(m2.Params(), &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 {
				t.Fatalf("%d bytes left unread", buf.Len())
			}
			if opt2.t != opt1.t {
				t.Fatalf("step counter %d, want %d", opt2.t, opt1.t)
			}
			same := func(what string, a, b []float32) {
				t.Helper()
				for i := range a {
					if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
						t.Fatalf("%s differs at %d: %x vs %x", what, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
					}
				}
			}
			p1, p2 := m1.Params(), m2.Params()
			for k := range p1 {
				same("parameter", p1[k].Data, p2[k].Data)
				same("first moment", opt1.states[p1[k]].m.Data, opt2.states[p2[k]].m.Data)
				same("second moment", opt1.states[p1[k]].v.Data, opt2.states[p2[k]].v.Data)
			}
			if got := math.Float32bits(opt2.states[p2[0]].v.Data[3]); got != plant {
				t.Fatalf("planted %x came back as %x", plant, got)
			}
		})
	}
}

// TestLoadStateRejectsMismatch: optimizer state saved for one model does
// not load onto a model of another shape, and short input is reported as
// end of input.
func TestLoadStateRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m1, opt := NewSequential(NewDense(rng, 4, 8)), NewAdam(1e-2)
	m1.TrainBatch(tensor.New(2, 4).RandN(rng, 1), []int{0, 1}, opt)
	var buf bytes.Buffer
	if err := opt.SaveState(m1.Params(), &buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	other := NewSequential(NewDense(rng, 4, 9))
	if err := NewAdam(1e-2).LoadState(other.Params(), bytes.NewReader(saved)); err == nil {
		t.Fatal("state loaded onto a model of another shape")
	}
	err := NewAdam(1e-2).LoadState(m1.Params(), bytes.NewReader(saved[:len(saved)-5]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short input: got %v, want io.ErrUnexpectedEOF", err)
	}
}
