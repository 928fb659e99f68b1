package prionn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sync"
	"testing"

	"prionn/internal/nn"
	"prionn/internal/trace"
)

// quantFixture trains one TinyConfig 2D-CNN predictor and takes both a
// float32 snapshot and an int8 snapshot (calibrated on a held-out slice
// of the trace), shared by every quantization test in the package.
type quantFixture struct {
	pred  *Predictor
	f32   *Inference
	int8v *Inference
	jobs  []trace.Job // the full generated trace; [:200] trained, [200:280] calibration
}

var (
	quantOnce sync.Once
	quantFix  quantFixture
)

func quantizedFixture(t *testing.T) *quantFixture {
	t.Helper()
	quantOnce.Do(func() {
		cfg := TinyConfig()
		cfg.Seed = 7
		cfg.Epochs = 10
		cfg.TrainWindow = 200
		jobs := trace.Completed(trace.Generate(trace.Config{Seed: 7, Jobs: 600}))
		scripts := make([]string, 200)
		for i, j := range jobs[:200] {
			scripts[i] = j.Script
		}
		p, err := New(cfg, scripts)
		if err != nil {
			panic(err)
		}
		if _, err := p.Train(jobs[:200]); err != nil {
			panic(err)
		}
		f32, err := p.Snapshot()
		if err != nil {
			panic(err)
		}
		q, err := p.SnapshotQuantized(jobs[200:280])
		if err != nil {
			panic(err)
		}
		quantFix = quantFixture{pred: p, f32: f32, int8v: q, jobs: jobs}
	})
	if quantFix.int8v == nil {
		t.Fatal("quantized fixture failed to build")
	}
	return &quantFix
}

// TestQuantizedSnapshotKernelKind pins the kernel identity every serving
// layer keys caches and stats on.
func TestQuantizedSnapshotKernelKind(t *testing.T) {
	fix := quantizedFixture(t)
	if k := fix.f32.Kernel(); k != KernelF32 {
		t.Fatalf("float snapshot kernel = %q, want %q", k, KernelF32)
	}
	if k := fix.int8v.Kernel(); k != KernelInt8 {
		t.Fatalf("quantized snapshot kernel = %q, want %q", k, KernelInt8)
	}
	if !fix.int8v.Trained() {
		t.Fatal("quantized snapshot of a trained predictor must report Trained")
	}
}

// TestQuantizedSnapshotAccuracyGate is the serving accuracy gate the
// int8 path ships behind, on the in-distribution evaluation the paper's
// figures use: jobs from the same workload stream as the training
// window, disjoint from both it and the calibration slice.
//
// Two criteria, both per head:
//
//  1. Accuracy parity — the fraction of jobs whose predicted runtime
//     class / IO bin matches the job's actual class may degrade by at
//     most 0.5 percentage points relative to float32. This is the gate
//     that matters for serving: the int8 model must predict the
//     workload as well as the float model.
//  2. Agreement floor — int8 and f32 must pick the same class on ≥95%
//     of jobs. The residual flips sit on bin-boundary ties where the
//     float logit gap is below the int8 path's quantization noise
//     (≈0.5% relative activation error per layer — see DESIGN.md §11),
//     so they are coin flips between equally-supported bins; parity
//     (criterion 1) verifies they are accuracy-neutral.
func TestQuantizedSnapshotAccuracyGate(t *testing.T) {
	fix := quantizedFixture(t)
	eval := trace.Completed(trace.Generate(trace.Config{Seed: 7, Jobs: 2000}))[280:]
	scripts := make([]string, len(eval))
	for i, j := range eval {
		scripts[i] = fix.f32.InputText(j.Script, j.InputDeck)
	}
	want := fix.f32.Predict(scripts)
	got := fix.int8v.Predict(scripts)
	n := len(eval)
	v := fix.f32
	type head struct {
		name             string
		accF, accQ, flip int
	}
	heads := []*head{{name: "runtime"}, {name: "read"}, {name: "write"}}
	for i, j := range eval {
		actual := [3]int{
			v.rbins.Class(j.ActualMin()),
			v.iobin.Class(float64(j.ReadBytes)),
			v.iobin.Class(float64(j.WriteBytes)),
		}
		predF := [3]int{
			v.rbins.Class(want[i].RuntimeMin),
			v.iobin.Class(want[i].ReadBytes),
			v.iobin.Class(want[i].WriteBytes),
		}
		predQ := [3]int{
			v.rbins.Class(got[i].RuntimeMin),
			v.iobin.Class(got[i].ReadBytes),
			v.iobin.Class(got[i].WriteBytes),
		}
		for h := range heads {
			if predF[h] == actual[h] {
				heads[h].accF++
			}
			if predQ[h] == actual[h] {
				heads[h].accQ++
			}
			if predF[h] != predQ[h] {
				heads[h].flip++
			}
		}
	}
	for _, h := range heads {
		delta := float64(h.accF-h.accQ) / float64(n)
		flipRate := float64(h.flip) / float64(n)
		t.Logf("%s head: f32 acc %.4f, int8 acc %.4f (delta %+.4f), flip rate %.4f",
			h.name, float64(h.accF)/float64(n), float64(h.accQ)/float64(n), -delta, flipRate)
		if delta > 0.005 {
			t.Errorf("%s head: int8 accuracy degrades by %.2f pp on %d jobs (gate: 0.5 pp)",
				h.name, 100*delta, n)
		}
		if flipRate > 0.05 {
			t.Errorf("%s head: int8 disagrees with f32 on %.1f%% of %d jobs (gate: 5%%)",
				h.name, 100*flipRate, n)
		}
	}
}

// TestQuantizedSnapshotDeterministicAcrossClones pins the cluster
// contract: a clone of an int8 snapshot shares its immutable quantized
// heads and predicts bitwise identically.
func TestQuantizedSnapshotDeterministicAcrossClones(t *testing.T) {
	fix := quantizedFixture(t)
	clone, err := fix.int8v.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.qruntime != fix.int8v.qruntime {
		t.Fatal("clone of an int8 snapshot must share its immutable quantized heads")
	}
	for _, j := range fix.jobs[80:100] {
		want := fix.int8v.PredictOne(j.Script)
		if got := clone.PredictOne(j.Script); got != want {
			t.Fatalf("clone prediction %+v differs from original %+v", got, want)
		}
	}
}

// TestQuantizedSnapshotPersistRoundTrip proves the frameVersionQuant
// wire format reproduces bitwise-identical predictions, and that the
// quantized artifact is dramatically smaller than the float checkpoint
// (int8 weights, no Adam moments) — the size win the serving switch is
// partly for.
func TestQuantizedSnapshotPersistRoundTrip(t *testing.T) {
	fix := quantizedFixture(t)
	var qbuf, fbuf bytes.Buffer
	if err := fix.int8v.SaveQuantized(&qbuf); err != nil {
		t.Fatal(err)
	}
	if err := fix.pred.Save(&fbuf); err != nil {
		t.Fatal(err)
	}
	if max := fbuf.Len() * 3 / 10; qbuf.Len() > max {
		t.Errorf("quantized frame is %d bytes; want ≤30%% of the %d-byte float frame (%d)",
			qbuf.Len(), fbuf.Len(), max)
	}
	loaded, err := LoadQuantized(bytes.NewReader(qbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kernel() != KernelInt8 {
		t.Fatalf("loaded snapshot kernel = %q", loaded.Kernel())
	}
	for _, j := range fix.jobs[100:120] {
		want := fix.int8v.PredictOne(j.Script)
		if got := loaded.PredictOne(j.Script); got != want {
			t.Fatalf("loaded prediction %+v differs from original %+v", got, want)
		}
	}
}

// TestQuantizedSnapshotFileRoundTrip drives the crash-safe file pair.
func TestQuantizedSnapshotFileRoundTrip(t *testing.T) {
	fix := quantizedFixture(t)
	path := t.TempDir() + "/snap.prionn8"
	if err := fix.int8v.SaveQuantizedFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQuantizedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fix.int8v.PredictOne(fix.jobs[0].Script)
	if got := loaded.PredictOne(fix.jobs[0].Script); got != want {
		t.Fatalf("file round trip: %+v vs %+v", got, want)
	}
}

// TestQuantizedFrameVersionSeparation pins the format-version byte: the
// float loader rejects quantized frames and vice versa, both with
// ErrCorrupt — mixing the two artifact kinds is detected at the header.
func TestQuantizedFrameVersionSeparation(t *testing.T) {
	fix := quantizedFixture(t)
	var qbuf, fbuf bytes.Buffer
	if err := fix.int8v.SaveQuantized(&qbuf); err != nil {
		t.Fatal(err)
	}
	if err := fix.pred.Save(&fbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(qbuf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(quantized frame) = %v, want ErrCorrupt", err)
	}
	if _, err := LoadQuantized(bytes.NewReader(fbuf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadQuantized(float frame) = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotQuantizedContracts pins the error paths: an untrained
// predictor and an empty calibration slice are rejected, and
// SaveQuantized on a float view is an error.
func TestSnapshotQuantizedContracts(t *testing.T) {
	cfg := TinyConfig()
	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotQuantized(testJobs(10)); err == nil {
		t.Fatal("SnapshotQuantized on an untrained predictor must fail")
	}
	fix := quantizedFixture(t)
	if _, err := fix.pred.SnapshotQuantized(nil); err == nil {
		t.Fatal("SnapshotQuantized with no calibration jobs must fail")
	}
	if err := fix.f32.SaveQuantized(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveQuantized on a float32 snapshot must fail")
	}
}

// rewriteQuantized decodes the well-formed quantized snapshot frame
// valid, lets edit change the runtime head's op chain, and returns the
// re-encoded, correctly checksummed frame: a file that is damaged only
// in what it says.
func rewriteQuantized(tb testing.TB, valid []byte, edit func(pq *persistedQuant, runtime *nn.QModel)) []byte {
	tb.Helper()
	payload, err := readFrameV(bytes.NewReader(valid), frameVersionQuant)
	if err != nil {
		tb.Fatal(err)
	}
	var pq persistedQuant
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pq); err != nil {
		tb.Fatal(err)
	}
	runtime, err := nn.LoadQModel(bytes.NewReader(pq.Runtime))
	if err != nil {
		tb.Fatal(err)
	}
	edit(&pq, runtime)
	var head, body, frame bytes.Buffer
	if err := runtime.Save(&head); err != nil {
		tb.Fatal(err)
	}
	pq.Runtime = head.Bytes()
	if err := gob.NewEncoder(&body).Encode(pq); err != nil {
		tb.Fatal(err)
	}
	if err := writeFrameV(&frame, frameVersionQuant, body.Bytes()); err != nil {
		tb.Fatal(err)
	}
	return frame.Bytes()
}

// enlargeFirstConv declares the first conv's input taller than the
// activation it will be handed. Its weight length does not depend on the
// extent, so the op is consistent with itself.
func enlargeFirstConv(_ *persistedQuant, runtime *nn.QModel) {
	runtime.Ops[0].(*nn.QConv2D).InH += 8
}

// TestLoadQModelRejectsBrokenChain: a well-framed quantized snapshot
// whose ops are each self-consistent but do not chain — which the
// forward would index past its activation buffers for — fails to load
// with ErrCorrupt instead of panicking at the first prediction.
func TestLoadQModelRejectsBrokenChain(t *testing.T) {
	fix := quantizedFixture(t)
	var buf bytes.Buffer
	if err := fix.int8v.SaveQuantized(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := LoadQuantized(bytes.NewReader(rewriteQuantized(t, valid, func(*persistedQuant, *nn.QModel) {}))); err != nil {
		t.Fatalf("an unedited rewrite must load: %v", err)
	}

	// A fully connected head over the same 16×16 image, for splicing.
	cfg := TinyConfig()
	cfg.Model = ModelNN
	cfg.Seed = 7
	cfg.Epochs = 1
	scripts := make([]string, 40)
	for i, j := range fix.jobs[:40] {
		scripts[i] = j.Script
	}
	other, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Train(fix.jobs[:40]); err != nil {
		t.Fatal(err)
	}
	dense, err := other.SnapshotQuantized(fix.jobs[200:220])
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(pq *persistedQuant, runtime *nn.QModel){
		"first conv input enlarged": enlargeFirstConv,
		"inner conv input enlarged": func(_ *persistedQuant, m *nn.QModel) {
			m.Ops[1].(*nn.QConv2D).InW += 3
		},
		"heads of two architectures spliced": func(_ *persistedQuant, m *nn.QModel) {
			// The 2D-CNN's convs, then the NN's dense layers, which
			// expect the flattened input image rather than conv4's output.
			m.Ops = append(m.Ops[:4:4], dense.qruntime.Ops...)
			m.Head = dense.qruntime.Head
		},
		"head input width": func(_ *persistedQuant, m *nn.QModel) {
			h := *m.Head
			h.In++
			h.W = make([]int8, h.In*h.Out)
			m.Head = &h
		},
		"config maps to another image": func(pq *persistedQuant, _ *nn.QModel) {
			pq.Config.Rows += 4
		},
	}
	for name, edit := range cases {
		v, err := LoadQuantized(bytes.NewReader(rewriteQuantized(t, valid, edit)))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if v != nil {
			t.Errorf("%s: LoadQuantized returned a snapshot", name)
		}
	}
}
