package nn

import (
	"math"
	"math/rand"
	"testing"

	"prionn/internal/tensor"
)

// TestQuantizeChannelErrorBound is the per-channel round-trip property
// test: for every channel, dequantizing the int8 weights reproduces the
// float weights to within half a quantization step of that channel's
// scale — the tightest bound round-to-nearest can promise.
func TestQuantizeChannelErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		w := make([]float32, n)
		mag := float32(math.Exp(rng.Float64()*10 - 5)) // spans ~e^-5..e^5
		for i := range w {
			w[i] = (rng.Float32()*2 - 1) * mag
		}
		q := make([]int8, n)
		scale := quantizeChannel(q, w)
		if scale <= 0 {
			t.Fatalf("trial %d: non-positive scale %v", trial, scale)
		}
		// Half-step bound with a float32 slack factor for the scale
		// division itself.
		bound := scale * 0.5001
		for i := range w {
			deq := float32(q[i]) * scale
			if err := float32(math.Abs(float64(w[i] - deq))); err > bound {
				t.Fatalf("trial %d weight %d: |%v - %v| = %v exceeds scale/2 = %v",
					trial, i, w[i], deq, err, scale/2)
			}
			if q[i] < -127 || q[i] > 127 {
				t.Fatalf("trial %d: quantized weight %d outside symmetric range", trial, q[i])
			}
		}
	}
}

// TestQuantizeChannelZeroChannel pins the degenerate all-zero channel:
// scale falls back to 1 and every weight quantizes to exactly 0.
func TestQuantizeChannelZeroChannel(t *testing.T) {
	w := make([]float32, 16)
	q := make([]int8, 16)
	scale := quantizeChannel(q, w)
	if scale != 1 {
		t.Fatalf("zero channel scale = %v, want 1", scale)
	}
	for i, v := range q {
		if v != 0 {
			t.Fatalf("zero channel quantized weight %d = %d, want 0", i, v)
		}
	}
}

// TestQParamsZeroExact pins the asymmetric scheme's core invariant:
// real 0.0 is exactly representable, so conv zero padding and the
// folded ReLU clamp are exact.
func TestQParamsZeroExact(t *testing.T) {
	data := []float32{-3.7, 0.2, 11.9, 4.4}
	p := calibrateQParams(data)
	if got := p.Dequantize(p.Quantize(0)); got != 0 {
		t.Fatalf("0.0 round-trips to %v", got)
	}
}

// qLogits runs m's op chain op by op (QForward) over the float batch x
// and returns the head's real-valued logits.
func qLogits(m *QModel, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	act := make([]uint8, x.Len())
	for i, v := range x.Data {
		act[i] = m.InQ.Quantize(v)
	}
	for _, op := range m.Ops {
		act = op.QForward(act, n)
	}
	return tensor.FromSlice(m.Head.realForward(act, n), n, m.Head.Out)
}

// qClasses is qLogits' argmax per sample.
func qClasses(m *QModel, x *tensor.Tensor) []int {
	logits := qLogits(m, x)
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = logits.ArgMaxRow(i)
	}
	return out
}

// quantTestModel builds a small trained-ish CNN2D (random but fixed
// weights) plus a calibration batch for the structural tests.
func quantTestModel(t *testing.T) (*Sequential, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	arch := ArchConfig{Rows: 18, Cols: 18, Channels: 3, Classes: 10, Width: 0.25}
	m := NewCNN2D(rng, arch)
	calib := tensor.New(6, 3, 18, 18).RandN(rng, 1)
	return m, calib
}

// TestQuantizedModelClassParity checks end-to-end behaviour: on the
// calibration distribution, the quantized model's argmax classes agree
// with the float model's on the overwhelming majority of samples. With
// random (untrained) weights logits are near-tied, so this is a
// smoke-level parity check; the serving-accuracy gate on trained heads
// lives in internal/prionn.
func TestQuantizedModelClassParity(t *testing.T) {
	m, calib := quantTestModel(t)
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	rng := rand.New(rand.NewSource(33))
	x := tensor.New(32, 3, 18, 18).RandN(rng, 1)
	want := m.PredictClasses(x)
	got := qClasses(qm, x)
	agree := 0
	for i := range want {
		if got[i] == want[i] {
			agree++
		}
	}
	if agree < len(want)*3/4 {
		t.Fatalf("quantized model agrees on only %d/%d random samples", agree, len(want))
	}
}

// TestQuantizedModelDeterministicAcrossWorkers pins bitwise-identical
// quantized logits for every worker count.
func TestQuantizedModelDeterministicAcrossWorkers(t *testing.T) {
	m, calib := quantTestModel(t)
	qm, err := Quantize(m, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	rng := rand.New(rand.NewSource(34))
	x := tensor.New(8, 3, 18, 18).RandN(rng, 1)
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	base := qLogits(qm, x)
	for _, workers := range []int{2, 4, 8} {
		tensor.SetMaxWorkers(workers)
		got := qLogits(qm, x)
		for i := range base.Data {
			if got.Data[i] != base.Data[i] {
				t.Fatalf("workers=%d: logit %d = %v, want %v (bitwise)", workers, i, got.Data[i], base.Data[i])
			}
		}
	}
}

// TestQuantizeAllArchitectures proves the quantizer recognizes the
// layer grammar of all three PRIONN model families, and that RoundInt8
// rounds each family's conv and dense layers — and only those — through
// int8: every weight is its code times its channel's scale, no code
// leaves [−127, 127], and the biases do not move.
func TestQuantizeAllArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	arch := ArchConfig{Rows: 16, Cols: 16, Channels: 2, Classes: 8, Width: 0.25}
	build := map[string]*Sequential{
		"nn":     NewFullyConnected(rng, arch),
		"1d-cnn": NewCNN1D(rng, arch),
		"2d-cnn": NewCNN2D(rng, arch),
	}
	for name, m := range build {
		var calib *tensor.Tensor
		if name == "1d-cnn" {
			calib = tensor.New(4, 2, 1, 16*16).RandN(rng, 1)
		} else {
			calib = tensor.New(4, 2, 16, 16).RandN(rng, 1)
		}
		qm, err := Quantize(m, calib)
		if err != nil {
			t.Fatalf("%s: Quantize: %v", name, err)
		}
		if got := qClasses(qm, calib); len(got) != 4 {
			t.Fatalf("%s: %d predictions for 4 samples", name, len(got))
		}

		var biases [][]float32
		for _, c := range m.int8Layers() {
			biases = append(biases, append([]float32(nil), c.b.Data...))
		}
		q := m.RoundInt8()
		layers := m.int8Layers()
		if len(q) != len(layers) || len(layers) < 2 {
			t.Fatalf("%s: %d int8 layers for %d conv/dense layers", name, len(q), len(layers))
		}
		for i, c := range layers {
			for ch, s := range q[i].Scales {
				for j := 0; j < c.per; j++ {
					at := ch*c.cs + j*c.es
					if code := q[i].Codes[at]; code < -127 || c.w.Data[at] != float32(code)*s {
						t.Fatalf("%s layer %d: weight %d = %v, code %d × scale %v", name, i, at, c.w.Data[at], code, s)
					}
				}
			}
			for j, b := range c.b.Data {
				if b != biases[i][j] {
					t.Fatalf("%s layer %d: bias %d moved %v → %v", name, i, j, biases[i][j], b)
				}
			}
		}
	}
}

// TestQuantizeRejectsEmptyCalibration pins the error contract.
func TestQuantizeRejectsEmptyCalibration(t *testing.T) {
	m, _ := quantTestModel(t)
	if _, err := Quantize(m, nil); err == nil {
		t.Fatal("Quantize(nil calibration) must fail")
	}
	if _, err := Quantize(m, tensor.New(0, 3, 18, 18)); err == nil {
		t.Fatal("Quantize(empty calibration) must fail")
	}
}
