package prionn

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"prionn/internal/nn"
	"prionn/internal/trace"
)

// quantFixture trains one TinyConfig 2D-CNN predictor and takes both a
// float32 snapshot and an int8 snapshot (checked on a held-out slice of
// the trace), shared by every quantization test in the package.
type quantFixture struct {
	pred  *Predictor
	f32   *Inference
	int8v *Inference
	jobs  []trace.Job // the full generated trace; [:200] trained, [200:280] the agreement check
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

// TestQuantizedSnapshotAccuracyGate is the serving accuracy gate int8
// weights ship behind, on the in-distribution evaluation the paper's
// figures use: jobs from the same workload stream as the training
// window, disjoint from both it and the check slice.
//
// Two criteria, both per head:
//
//  1. Accuracy parity — the fraction of jobs whose predicted runtime
//     class / IO bin matches the job's actual class may degrade by at
//     most 0.5 percentage points relative to float32. This is the gate
//     that matters for serving: the int8 model must predict the
//     workload as well as the float model.
//  2. Agreement floor — int8 and f32 must pick the same class on ≥95%
//     of jobs (SnapshotQuantized's own check, on many more jobs). The
//     residual flips sit on bin-boundary ties where the float logit gap
//     is below the weight rounding's noise (at most half a step of a
//     channel's scale per weight — see DESIGN.md §11), so they are coin
//     flips between equally-supported bins; parity (criterion 1)
//     verifies they are accuracy-neutral.
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
// contract: a clone of an int8 snapshot keeps its kind, shares its
// immutable codes and scales, and predicts bitwise identically.
func TestQuantizedSnapshotDeterministicAcrossClones(t *testing.T) {
	fix := quantizedFixture(t)
	clone, err := fix.int8v.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Kernel() != KernelInt8 {
		t.Fatalf("clone of an int8 snapshot has kernel %q", clone.Kernel())
	}
	if &clone.int8[0][0].Codes[0] != &fix.int8v.int8[0][0].Codes[0] {
		t.Fatal("clone of an int8 snapshot must share its immutable codes")
	}
	for _, j := range fix.jobs[80:100] {
		want := fix.int8v.PredictOne(j.Script)
		if got := clone.PredictOne(j.Script); got != want {
			t.Fatalf("clone prediction %+v differs from original %+v", got, want)
		}
	}
}

// requireSameLogits fails unless every head of a and b yields the same
// logits, bit for bit, on the scripts of jobs.
func requireSameLogits(t *testing.T, a, b *Inference, jobs []trace.Job) {
	t.Helper()
	texts := make([]string, len(jobs))
	for i, j := range jobs {
		texts[i] = j.Script
	}
	x := a.MapTexts(texts)
	names, ha := a.heads()
	_, hb := b.heads()
	if len(ha) != len(hb) {
		t.Fatalf("%d heads against %d", len(ha), len(hb))
	}
	for h := range ha {
		if !sameBits(ha[h].Forward(x, false), hb[h].Forward(x, false)) {
			t.Fatalf("%s head: logits differ", names[h])
		}
	}
}

// TestQuantizedSnapshotPersistRoundTrip proves the v4 frame reproduces
// the snapshot bitwise — every head's logits — and that the artifact is
// at most a tenth of the float checkpoint (int8 weights, no Adam
// moments), the size win -quant is for.
func TestQuantizedSnapshotPersistRoundTrip(t *testing.T) {
	fix := quantizedFixture(t)
	var qbuf, fbuf bytes.Buffer
	if err := fix.int8v.SaveQuantized(&qbuf); err != nil {
		t.Fatal(err)
	}
	if err := fix.pred.Save(&fbuf); err != nil {
		t.Fatal(err)
	}
	if max := fbuf.Len() / 10; qbuf.Len() > max {
		t.Errorf("quantized frame is %d bytes; want ≤10%% of the %d-byte float frame (%d)",
			qbuf.Len(), fbuf.Len(), max)
	}
	t.Logf("quantized frame %d bytes, %.3f× the float frame", qbuf.Len(), float64(qbuf.Len())/float64(fbuf.Len()))
	loaded, err := LoadQuantized(bytes.NewReader(qbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kernel() != KernelInt8 || !loaded.Trained() {
		t.Fatalf("loaded snapshot: kernel %q, trained %v", loaded.Kernel(), loaded.Trained())
	}
	requireSameLogits(t, fix.int8v, loaded, fix.jobs[100:120])
	for _, j := range fix.jobs[100:120] {
		want := fix.int8v.PredictOne(j.Script)
		if got := loaded.PredictOne(j.Script); got != want {
			t.Fatalf("loaded prediction %+v differs from original %+v", got, want)
		}
	}
	var again bytes.Buffer
	if err := loaded.SaveQuantized(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), qbuf.Bytes()) {
		t.Fatal("a loaded snapshot saves to other bytes than it was loaded from")
	}
}

// TestQuantizeAllArchitectures: SnapshotQuantized rounds the conv and
// dense weights of the NN, the 1D-CNN and the 2D-CNN alike — the int8
// heads' logits move off the float ones — and each snapshot survives
// the v4 frame bit for bit.
func TestQuantizeAllArchitectures(t *testing.T) {
	for _, model := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		p, jobs := trainedModelPredictor(t, model, 37)
		f32, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		q, err := p.SnapshotQuantized(heldOutJobs())
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		t.Logf("%s: %d check jobs, flip rate %s", model, q.Agreement().Jobs, q.Agreement())
		x := q.MapTexts([]string{jobs[50].Script, jobs[51].Script})
		names, heads := q.heads()
		_, floats := f32.heads()
		for h, m := range heads {
			if sameBits(m.Forward(x, false), floats[h].Forward(x, false)) {
				t.Errorf("%s %s head: int8 logits equal the float ones; nothing was rounded", model, names[h])
			}
		}
		var buf bytes.Buffer
		if err := q.SaveQuantized(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadQuantized(&buf)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		requireSameLogits(t, q, loaded, jobs[50:60])
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
	requireSameLogits(t, fix.int8v, loaded, fix.jobs[:20])
}

// TestQuantizedFrameVersionSeparation pins the format-version byte: the
// float loader rejects quantized frames and vice versa, both with
// ErrCorrupt — mixing the two artifact kinds is detected at the header —
// and a version-2 frame, the quantized snapshot's former gob payload, is
// refused at the header alone.
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
	v2 := append([]byte(nil), qbuf.Bytes()[:frameHeaderLen]...)
	v2[7] = 2
	if v, err := LoadQuantized(bytes.NewReader(v2)); !errors.Is(err, ErrCorrupt) || v != nil {
		t.Fatalf("LoadQuantized(v2 header) = %v, %v; want no snapshot and ErrCorrupt", v != nil, err)
	}
}

// TestSnapshotQuantizedContracts pins the error paths: an untrained
// predictor and an empty check slice are rejected, and SaveQuantized on
// a float view is an error.
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
		t.Fatal("SnapshotQuantized with no check jobs must fail")
	}
	if err := fix.f32.SaveQuantized(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveQuantized on a float32 snapshot must fail")
	}
}

// TestSnapshotQuantizedRejectsOutliers: one outlier weight per filter of
// each head's first conv — 1000× the filter's largest weight, on the
// one-hot channel of a byte no script contains — leaves every float
// prediction where it was, since its input is always zero, but sets the
// filter's int8 scale so high that every other weight rounds to zero.
// The int8 heads then answer one class for every job, and the agreement
// check must refuse the snapshot.
func TestSnapshotQuantizedRejectsOutliers(t *testing.T) {
	cfg := TinyConfig()
	cfg.Transform = TransformOneHot
	cfg.Seed = 47
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 47, Jobs: 160}))
	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:cfg.TrainWindow]); err != nil {
		t.Fatal(err)
	}
	check := jobs[len(jobs)-64:]
	if _, err := p.SnapshotQuantized(check); err != nil {
		t.Fatalf("the trained predictor fails the check before any outlier: %v", err)
	}
	before := p.PredictJobs(check)
	const silent = 1 // the one-hot channel of byte 0x01
	for _, h := range p.heads() {
		conv := h.model.Layers[0].(*nn.Conv2D)
		taps := conv.Spec.KH * conv.Spec.KW
		k := conv.W.Dim(1)
		for f := 0; f < conv.Filters; f++ {
			row := conv.W.Data[f*k : (f+1)*k]
			var big float32
			for _, w := range row {
				big = max(big, float32(math.Abs(float64(w))))
			}
			row[silent*taps] = 1000 * big
		}
	}
	after := p.PredictJobs(check)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("job %d: the outliers moved a float prediction %+v → %+v; the test proves nothing", i, before[i], after[i])
		}
	}
	v, err := p.SnapshotQuantized(check)
	if err == nil || v != nil {
		t.Fatalf("SnapshotQuantized with outlier weights: snapshot %v, err %v; want none and the agreement error", v != nil, err)
	}
	t.Log(err)
}
