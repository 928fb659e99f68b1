package prionn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"prionn/internal/nn"
)

// TestLoadInferenceMatchesSnapshot: for the NN, the 1D-CNN and the
// 2D-CNN, the weights-only view of a checkpoint predicts bit for bit as
// Load followed by Snapshot does — every head's logits, and
// PredictMapped's decoded answers — and carries the checkpoint's config,
// trained flag and event count.
func TestLoadInferenceMatchesSnapshot(t *testing.T) {
	for _, model := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		p, jobs := trainedModelPredictor(t, model, 23)
		var ckpt bytes.Buffer
		if err := p.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := loaded.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		v, events, err := LoadInference(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if v.Kernel() != KernelF32 || !v.Trained() || events != p.Events() || v.Config() != p.Config {
			t.Fatalf("%s: kernel %q, trained %v, events %d, config %+v; want f32, trained, %d, %+v",
				model, v.Kernel(), v.Trained(), events, v.Config(), p.Events(), p.Config)
		}
		requireSameLogits(t, want, v, jobs[50:60])
		texts := make([]string, 10)
		for i, j := range jobs[50:60] {
			texts[i] = v.InputText(j.Script, j.InputDeck)
		}
		x := v.MapTexts(texts)
		got, wantP := v.PredictMapped(x), want.PredictMapped(x)
		for i := range got {
			if got[i] != wantP[i] {
				t.Fatalf("%s job %d: weights-only view predicts %+v, Load+Snapshot %+v", model, i, got[i], wantP[i])
			}
		}
	}
}

// TestLoadInferenceQuantizedMatchesSnapshotQuantized: on one checkpoint
// and one check slice, rounding the weights-only view in place builds the
// snapshot Load followed by SnapshotQuantized builds — the same
// SaveQuantized bytes and the same Agreement. An untrained checkpoint is
// refused, as SnapshotQuantized refuses an untrained predictor.
func TestLoadInferenceQuantizedMatchesSnapshotQuantized(t *testing.T) {
	fix := quantizedFixture(t)
	var ckpt bytes.Buffer
	if err := fix.pred.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	check := fix.jobs[200:280]
	loaded, err := Load(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := loaded.SnapshotQuantized(check)
	if err != nil {
		t.Fatal(err)
	}
	got, events, err := LoadInferenceQuantized(bytes.NewReader(ckpt.Bytes()), check)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel() != KernelInt8 || events != fix.pred.Events() {
		t.Fatalf("kernel %q, events %d; want int8, %d", got.Kernel(), events, fix.pred.Events())
	}
	var wb, gb bytes.Buffer
	if err := want.SaveQuantized(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.SaveQuantized(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("SaveQuantized bytes differ: %d bytes from LoadInferenceQuantized, %d from Load+SnapshotQuantized", gb.Len(), wb.Len())
	}
	wa, ga := want.Agreement(), got.Agreement()
	if ga.Jobs != wa.Jobs || ga.String() != wa.String() || len(ga.Flip) != len(wa.Flip) {
		t.Fatalf("agreement %d jobs (%s), want %d jobs (%s)", ga.Jobs, ga, wa.Jobs, wa)
	}
	for h := range wa.Flip {
		if math.Float64bits(ga.Flip[h]) != math.Float64bits(wa.Flip[h]) {
			t.Fatalf("%s flip rate %v, want %v", wa.Heads[h], ga.Flip[h], wa.Flip[h])
		}
	}
	t.Logf("%d-byte int8 snapshot, %d check jobs, flip rate %s", gb.Len(), ga.Jobs, ga)

	untrained, err := New(fix.pred.Config, []string{check[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Reset()
	if err := untrained.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if v, _, err := LoadInferenceQuantized(&ckpt, check); err == nil || v != nil {
		t.Fatalf("untrained checkpoint: snapshot %v, err %v; want none and an error", v != nil, err)
	}
}

// frameOf writes p's v3 frame with body in place of Save's: the frame
// is well formed whatever body writes, checksums included.
func frameOf(t *testing.T, p *Predictor, body func(*bufio.Writer) error) []byte {
	t.Helper()
	cm := checkpointMeta{Config: p.Config, Embedding: p.emb, Trained: p.trained, Events: p.events}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameVersion, cm, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadInferenceRejectsOptimizerMismatch: a well-framed checkpoint
// whose optimizer records disagree with the model — a moment-tensor count
// or the first moment record's length off by one, checksums intact — is
// refused with ErrCorrupt by the weights-only reader, as by Load. The
// same frame with the records as saved is Save's bytes and loads, so the
// counts are what is refused.
func TestLoadInferenceRejectsOptimizerMismatch(t *testing.T) {
	p := trainedPredictor(t, 40)
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	// Adam's state is its step counter (8 bytes), the moment-tensor
	// count (4), then the first moment record's length (4).
	withState := func(edit func([]byte)) []byte {
		return frameOf(t, p, func(bw *bufio.Writer) error {
			for _, h := range p.heads() {
				if err := h.model.Save(bw); err != nil {
					return err
				}
				var st bytes.Buffer
				if err := h.opt.(nn.StatefulOptimizer).SaveState(h.model.Params(), &st); err != nil {
					return err
				}
				edit(st.Bytes())
				_ = bw.WriteByte(1)
				_, _ = bw.Write(st.Bytes())
			}
			return nil
		})
	}
	if b := withState(func([]byte) {}); !bytes.Equal(b, saved.Bytes()) {
		t.Fatal("the unedited frame is not Save's; the test builds frames wrongly")
	}
	for _, tc := range []struct {
		name string
		at   int
	}{{"moment-count", 8}, {"moment-record-length", 12}} {
		b := withState(func(st []byte) {
			binary.LittleEndian.PutUint32(st[tc.at:], binary.LittleEndian.Uint32(st[tc.at:])+1)
		})
		if v, _, err := LoadInference(bytes.NewReader(b)); v != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: LoadInference gave view %v, err %v; want none and ErrCorrupt", tc.name, v != nil, err)
		}
		if q, err := Load(bytes.NewReader(b)); q != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load gave predictor %v, err %v; want none and ErrCorrupt", tc.name, q != nil, err)
		}
	}
}

// TestLoadInferenceWithoutOptimizerState: both ways a v3 frame holds no
// moments load through the weights-only reader and predict as Load's
// predictor does — heads saved with optimizer flag 0, and the checkpoint
// of an untrained predictor, whose Adam never stepped (step counter 0,
// no records).
func TestLoadInferenceWithoutOptimizerState(t *testing.T) {
	p := trainedPredictor(t, 40)
	flag0 := frameOf(t, p, func(bw *bufio.Writer) error {
		for _, h := range p.heads() {
			if err := h.model.Save(bw); err != nil {
				return err
			}
			_ = bw.WriteByte(0)
		}
		return nil
	})
	jobs := testJobs(10)
	untrained, err := New(p.Config, []string{jobs[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	var step0 bytes.Buffer
	if err := untrained.Save(&step0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{{"flag-0", flag0}, {"step-0", step0.Bytes()}} {
		q, err := Load(bytes.NewReader(tc.b))
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		want, err := q.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := LoadInference(bytes.NewReader(tc.b))
		if err != nil {
			t.Fatalf("%s: LoadInference: %v", tc.name, err)
		}
		if v.Trained() != want.Trained() {
			t.Fatalf("%s: trained %v, Load's %v", tc.name, v.Trained(), want.Trained())
		}
		requireSameLogits(t, want, v, jobs)
	}
}

// TestLoadInferenceAllocCeiling pins what the weights-only reader is for:
// loading a FastConfig checkpoint allocates at most the parameters'
// bytes plus 1 MiB — no Adam moment tensor and no second copy of the
// weights. Load followed by Snapshot, the path it replaces in a serving
// daemon, builds both and must not fit, or the ceiling tests nothing.
func TestLoadInferenceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("an allocation pin: the race detector's instrumentation adds nothing to it and slows the FastConfig training tenfold")
	}
	p := fastTrained(t)
	var ckpt bytes.Buffer
	if err := p.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	params := uint64(4 * p.NumParams())
	ceiling := params + 1<<20
	var v *Inference
	got := allocated(func() {
		var err error
		if v, _, err = LoadInference(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	old := allocated(func() {
		q, err := Load(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d B of parameters: LoadInference allocated %d B (%.2f×), Load+Snapshot %d B (%.2f×)",
		params, got, float64(got)/float64(params), old, float64(old)/float64(params))
	if got > ceiling {
		t.Errorf("LoadInference allocated %d B, over the parameters' %d B + 1 MiB", got, params)
	}
	if old <= ceiling {
		t.Fatalf("Load+Snapshot allocated %d B, within the %d B ceiling: the test proves nothing", old, ceiling)
	}
	runtime.KeepAlive(v)
}
