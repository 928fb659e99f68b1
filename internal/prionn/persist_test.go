package prionn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"prionn/internal/word2vec"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	jobs := testJobs(60)
	cfg := TinyConfig()
	cfg.PredictIO = true
	cfg.PredictPower = true
	cfg.IncludeDeck = true
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:40]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Trained() {
		t.Fatal("restored predictor lost trained state")
	}

	// Predictions must be bit-identical.
	for _, j := range jobs[:10] {
		a, b := p.PredictJob(j), restored.PredictJob(j)
		if a != b {
			t.Fatalf("prediction differs after restore: %+v vs %+v", a, b)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	jobs := testJobs(40)
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.Epochs = 1
	scripts := []string{jobs[0].Script}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:20]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.PredictJob(jobs[0]), p.PredictJob(jobs[0]); got != want {
		t.Fatalf("file round trip differs: %+v vs %+v", got, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/model.gob"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveLoadPreservesEmbedding(t *testing.T) {
	jobs := testJobs(30)
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	p.Train(jobs[:20])
	var buf bytes.Buffer
	p.Save(&buf)
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 128; c++ {
		va := p.emb.Vectors[c]
		vb := restored.emb.Vectors[c]
		for d := range va {
			if va[d] != vb[d] {
				t.Fatal("embedding changed across persistence")
			}
		}
	}
}

func TestWarmStartSurvivesPersistence(t *testing.T) {
	// Save → load → continue training must work (optimizer state is
	// rebuilt, parameters persist).
	jobs := testJobs(80)
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.Epochs = 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, _ := New(cfg, scripts)
	p.Train(jobs[:40])
	var buf bytes.Buffer
	p.Save(&buf)
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Train(jobs[40:]); err != nil {
		t.Fatalf("training after restore failed: %v", err)
	}
}

// requireSameState fails unless a and b hold the same state bit for bit:
// every head's parameters, the event counter, the embedding, and — read
// through the save format, which is deterministic and writes raw bit
// patterns — the Adam moments and step counts.
func requireSameState(t testing.TB, a, b *Predictor) {
	t.Helper()
	if a.Config != b.Config || a.trained != b.trained || a.events != b.events {
		t.Fatalf("config/trained/events differ: %+v %v %d vs %+v %v %d", a.Config, a.trained, a.events, b.Config, b.trained, b.events)
	}
	ha, hb := a.heads(), b.heads()
	for h := range ha {
		pa, pb := ha[h].model.Params(), hb[h].model.Params()
		for k := range pa {
			for i := range pa[k].Data {
				if math.Float32bits(pa[k].Data[i]) != math.Float32bits(pb[k].Data[i]) {
					t.Fatalf("head %d parameter %d differs at %d: %x vs %x", h, k, i, math.Float32bits(pa[k].Data[i]), math.Float32bits(pb[k].Data[i]))
				}
			}
		}
	}
	if (a.emb == nil) != (b.emb == nil) {
		t.Fatal("one predictor has an embedding, the other none")
	}
	if a.emb != nil {
		for c := range a.emb.Vectors {
			for d := range a.emb.Vectors[c] {
				if math.Float32bits(a.emb.Vectors[c][d]) != math.Float32bits(b.emb.Vectors[c][d]) {
					t.Fatalf("embedding differs at character %d dim %d", c, d)
				}
			}
		}
	}
	var sa, sb bytes.Buffer
	if err := a.Save(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("saved bytes differ: optimizer moments or step counts do not match")
	}
}

// TestCheckpointRoundTripBitExact: Save → Load restores parameters, Adam
// state, events and embedding bit for bit, including the two float32
// values a conversion through arithmetic would not keep — a NaN with a
// payload and a negative zero.
func TestCheckpointRoundTripBitExact(t *testing.T) {
	for name, plant := range map[string]uint32{
		"trained":       0,
		"nan-payload":   0x7fc12345,
		"negative-zero": 0x80000000,
	} {
		t.Run(name, func(t *testing.T) {
			p := trainedPredictor(t, 40)
			if plant != 0 {
				for _, h := range p.heads() {
					w := h.model.Params()[0].Data
					w[0], w[len(w)-1] = math.Float32frombits(plant), math.Float32frombits(plant)
				}
			}
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, p, restored)
			if plant != 0 {
				if got := math.Float32bits(restored.read.Params()[0].Data[0]); got != plant {
					t.Fatalf("planted %x came back as %x", plant, got)
				}
			}
		})
	}
}

// TestLoadOldMetaWithResumeField: until the v3 meta lost its Resume
// field (a position inside an interrupted training event, nil in every
// completed save), each checkpoint's gob carried that field in its type
// descriptor — every cached bench checkpoint and -retrain-ckpt file
// written before then. Such a frame, built here with that writer's
// field names and layout, still loads, to the same state, and re-saves
// as the current format. (gob also sends the type names, which no
// decoder compares; the old Resume type was named differently.)
func TestLoadOldMetaWithResumeField(t *testing.T) {
	type position struct {
		Head        int
		Epoch       int
		RuntimeLoss float64
		Window      int
	}
	type checkpointMeta struct {
		Config    Config
		Embedding *word2vec.Embedding
		Trained   bool
		Events    int
		Resume    *position
	}
	p := trainedPredictor(t, 40)
	var old, cur bytes.Buffer
	cm := checkpointMeta{Config: p.Config, Embedding: p.emb, Trained: p.trained, Events: p.events}
	if err := writeFrame(&old, frameVersion, cm, p.saveHeads); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&cur); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old.Bytes(), cur.Bytes()) {
		t.Fatal("the old meta encodes like the current one; nothing is being tested")
	}
	restored, err := Load(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatalf("checkpoint with a Resume field rejected: %v", err)
	}
	// requireSameState also re-saves restored and compares it with p's
	// save, which is cur.
	requireSameState(t, p, restored)
}

// countingWriter counts what is written through it and keeps none.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestCheckpointAllocCeiling pins what the streamed frame is for: a load
// allocates the model it returns and a save allocates its buffers —
// neither holds the file, or a re-encoding of it, in memory. (The
// gob-in-gob format allocated over ten times the file to load it.)
func TestCheckpointAllocCeiling(t *testing.T) {
	jobs := testJobs(40)
	cfg := FastConfig()
	cfg.TrainWindow, cfg.Epochs = 32, 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:32]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	const slack = 1 << 20

	saveFile := allocated(func() {
		if err := p.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	})
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	save := allocated(func() {
		if err := p.Save(&cw); err != nil {
			t.Fatal(err)
		}
	})
	loadFile := allocated(func() {
		if _, err := LoadFile(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte checkpoint: SaveFile allocated %d bytes, Save %d, LoadFile %d", fi.Size(), saveFile, save, loadFile)
	if cw.n != fi.Size() {
		t.Errorf("Save wrote %d bytes, SaveFile %d", cw.n, fi.Size())
	}
	if saveFile > frameBufLen+slack || save > frameBufLen+slack {
		t.Errorf("a save allocates more than its %d-byte buffer + %d", frameBufLen, slack)
	}
	if loadFile > 2*fi.Size()+slack {
		t.Errorf("LoadFile allocates more than twice the file + %d", slack)
	}
}
