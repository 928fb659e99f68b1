package prionn

import (
	"context"
	"math"
	"testing"

	"prionn/internal/metrics"
	"prionn/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := FastConfig().Validate(); err != nil {
		t.Fatalf("fast config invalid: %v", err)
	}
	if err := TinyConfig().Validate(); err != nil {
		t.Fatalf("tiny config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Model = "transformer"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown model accepted")
	}
	bad = DefaultConfig()
	bad.Rows = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny extent accepted")
	}
	bad = DefaultConfig()
	bad.MinIOBytes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative IO range accepted")
	}
}

func TestRuntimeBinsRoundTrip(t *testing.T) {
	// Paper setting: 960 classes over 960 minutes → one class per minute.
	b := runtimeBins{Classes: 960, MaxMin: 960}
	for _, m := range []int{0, 1, 44, 959, 960} {
		c := b.Class(m)
		back := b.Minutes(c)
		if int(math.Abs(float64(back-m))) > 1 {
			t.Fatalf("960-bin roundtrip: %d → class %d → %d", m, c, back)
		}
	}
	if b.Class(-5) != 0 {
		t.Fatal("negative runtime must clamp to class 0")
	}
	if b.Class(5000) != 959 {
		t.Fatal("over-cap runtime must clamp to last class")
	}
}

func TestRuntimeBinsCoarse(t *testing.T) {
	b := runtimeBins{Classes: 32, MaxMin: 960}
	// Round trip must stay within one bin width.
	w := 961.0 / 32.0
	for m := 0; m <= 960; m += 37 {
		back := b.Minutes(b.Class(m))
		if math.Abs(float64(back-m)) > w {
			t.Fatalf("coarse roundtrip: %d → %d (bin width %.1f)", m, back, w)
		}
	}
}

func TestIOBinsRoundTrip(t *testing.T) {
	b := ioBins{Classes: 64, Min: 1e3, Max: 1e14}
	for _, bytes := range []float64{0, 500, 1e4, 1e7, 1e10, 1e13, 1e15} {
		c := b.Class(bytes)
		if c < 0 || c >= 64 {
			t.Fatalf("class %d out of range for %g bytes", c, bytes)
		}
		back := b.Bytes(c)
		if bytes <= 1e3 {
			if c != 0 || back != 0 {
				t.Fatalf("small IO %g → class %d → %g, want class 0 → 0", bytes, c, back)
			}
			continue
		}
		// Log-scale round trip within one bin's span.
		span := (math.Log(1e14) - math.Log(1e3)) / 63
		ref := math.Min(bytes, 1e14)
		if math.Abs(math.Log(back)-math.Log(ref)) > span {
			t.Fatalf("IO roundtrip %g → class %d → %g", bytes, c, back)
		}
	}
}

func TestIOBinsMonotone(t *testing.T) {
	b := ioBins{Classes: 16, Min: 1e3, Max: 1e12}
	prev := -1
	for e := 2.0; e <= 13; e += 0.25 {
		c := b.Class(math.Pow(10, e))
		if c < prev {
			t.Fatalf("IO class not monotone at 10^%v", e)
		}
		prev = c
	}
}

func TestPredictionBandwidth(t *testing.T) {
	p := Prediction{RuntimeMin: 10, ReadBytes: 6000, WriteBytes: 1200}
	if bw := p.ReadBW(); math.Abs(bw-10) > 1e-9 {
		t.Fatalf("read BW %v, want 10 B/s", bw)
	}
	if bw := p.WriteBW(); math.Abs(bw-2) > 1e-9 {
		t.Fatalf("write BW %v, want 2 B/s", bw)
	}
	zero := Prediction{RuntimeMin: 0, ReadBytes: 100}
	if zero.ReadBW() != 0 {
		t.Fatal("zero-runtime prediction must give zero bandwidth")
	}
}

func testJobs(n int) []trace.Job {
	return trace.Completed(trace.Generate(trace.Config{Seed: 5, Jobs: n, Users: 20, Apps: 6, ConfigsPerUser: 4}))
}

func TestPredictorTrainPredict(t *testing.T) {
	jobs := testJobs(80)
	cfg := TinyConfig()
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trained() {
		t.Fatal("fresh predictor claims to be trained")
	}
	if _, err := p.Train(jobs[:40]); err != nil {
		t.Fatal(err)
	}
	if !p.Trained() {
		t.Fatal("predictor not marked trained")
	}
	preds := p.Predict(scripts[:10])
	if len(preds) != 10 {
		t.Fatalf("%d predictions", len(preds))
	}
	for _, pr := range preds {
		if pr.RuntimeMin < 0 || pr.RuntimeMin > cfg.MaxRuntimeMin {
			t.Fatalf("runtime prediction %d out of range", pr.RuntimeMin)
		}
		if pr.ReadBytes < 0 || pr.WriteBytes < 0 {
			t.Fatal("negative IO prediction")
		}
	}
}

func TestPredictorLearnsRepeatJobs(t *testing.T) {
	// Train and evaluate on the same heavily repeated scripts: PRIONN
	// must beat the trivial always-median predictor on data it has seen,
	// which is the mechanism behind the paper's ≈100% median accuracy.
	jobs := testJobs(150)
	cfg := TinyConfig()
	cfg.Epochs = 6
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs); err != nil {
		t.Fatal(err)
	}
	preds := p.Predict(scripts)
	var accSum float64
	for i, j := range jobs {
		accSum += metrics.RelativeAccuracy(float64(j.ActualMin()), float64(preds[i].RuntimeMin))
	}
	acc := accSum / float64(len(jobs))
	if acc < 0.35 {
		t.Fatalf("training-set runtime accuracy %.2f too low — model not learning", acc)
	}
}

func TestPredictorAllModelsRun(t *testing.T) {
	jobs := testJobs(50)
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	for _, m := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		cfg := TinyConfig()
		cfg.Model = m
		cfg.PredictIO = false
		cfg.Epochs = 1
		p, err := New(cfg, scripts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, err := p.Train(jobs[:30]); err != nil {
			t.Fatalf("%s train: %v", m, err)
		}
		if pr := p.PredictOne(scripts[0]); pr.RuntimeMin < 0 {
			t.Fatalf("%s: bad prediction", m)
		}
	}
}

func TestPredictorAllTransformsRun(t *testing.T) {
	jobs := testJobs(40)
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	for _, tr := range []TransformKind{TransformBinary, TransformSimple, TransformOneHot, TransformWord2Vec} {
		cfg := TinyConfig()
		cfg.Transform = tr
		cfg.PredictIO = false
		cfg.Epochs = 1
		p, err := New(cfg, scripts)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if _, err := p.Train(jobs[:25]); err != nil {
			t.Fatalf("%s train: %v", tr, err)
		}
		p.PredictOne(scripts[0])
	}
}

func TestTrainEmptyWindow(t *testing.T) {
	p, err := New(TinyConfig(), []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(nil); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestWarmStartRetainsKnowledge(t *testing.T) {
	// After training on window A then retraining on window B, predictions
	// must not be identical to a fresh model trained only on B — the warm
	// start carries state. We verify via Reinitialize producing different
	// outputs.
	jobs := testJobs(120)
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.Epochs = 2
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	warm, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	warm.Train(jobs[:60])
	warm.Train(jobs[60:])

	cold, err := New(cfg, scripts) // identical seed → identical init
	if err != nil {
		t.Fatal(err)
	}
	cold.Train(jobs[60:])

	// Training on window A first must leave a trace in the parameters:
	// compare raw logits, which differ unless no state was carried.
	x := warm.inf.MapTexts(scripts[:8])
	wl := warm.inf.runtime.Predict(x)
	cl := cold.inf.runtime.Predict(x)
	identical := true
	for i := range wl.Data {
		if wl.Data[i] != cl.Data[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("warm-start model identical to cold model — no state carried")
	}
}

func TestReinitializeClearsTraining(t *testing.T) {
	jobs := testJobs(40)
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.Epochs = 1
	p, err := New(cfg, []string{jobs[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	p.Train(jobs[:20])
	p.Reinitialize()
	if p.Trained() {
		t.Fatal("Reinitialize did not clear trained flag")
	}
}

func TestRunOnlineBasic(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 9, Jobs: 120, Users: 15, Apps: 5, ConfigsPerUser: 3})
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.RetrainEvery = 30
	cfg.TrainWindow = 30
	cfg.Epochs = 1
	trainEvents := 0
	recs, err := RunOnline(context.Background(), jobs, cfg, func(done, total int) { trainEvents++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("%d records for %d jobs", len(recs), len(jobs))
	}
	if trainEvents < 2 {
		t.Fatalf("only %d training events over 120 submissions at RetrainEvery=30", trainEvents)
	}
	pred := PredictedRecords(recs)
	if len(pred) == 0 {
		t.Fatal("no predicted records")
	}
	for _, r := range pred {
		if r.Job.Canceled {
			t.Fatal("canceled job carries a prediction")
		}
	}
	// Early jobs (before first training) must be unpredicted.
	if recs[0].Predicted {
		t.Fatal("first submission predicted before any training")
	}
}

func TestRunOnlineOnlyTrainsOnCompletedJobs(t *testing.T) {
	// All jobs submitted in a burst with long runtimes: nothing completes
	// during the trace, so no training can occur and nothing is
	// predicted.
	jobs := make([]trace.Job, 60)
	for i := range jobs {
		jobs[i] = trace.Job{
			ID:         i,
			Script:     "#SBATCH -N 1\nsrun ./x.exe 1 1\n",
			SubmitTime: int64(i),
			ActualSec:  1e9,
		}
	}
	cfg := TinyConfig()
	cfg.PredictIO = false
	cfg.RetrainEvery = 10
	recs, err := RunOnline(context.Background(), jobs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Predicted {
			t.Fatal("predicted a job although no training data could exist")
		}
	}
}
