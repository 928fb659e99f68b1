package prionn

import (
	"sync"
	"testing"

	"prionn/internal/trace"
)

func trainedSnapshotPredictor(t *testing.T, seed int64) (*Predictor, []trace.Job) {
	t.Helper()
	cfg := TinyConfig()
	cfg.Seed = seed
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: seed, Jobs: 120}))
	window := jobs
	if len(window) > cfg.TrainWindow {
		window = window[:cfg.TrainWindow]
	}
	scripts := make([]string, len(window))
	for i, j := range window {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(window); err != nil {
		t.Fatal(err)
	}
	return p, jobs
}

// TestSnapshotPredictsIdentically: a Snapshot must reproduce the
// predictor's own predictions bitwise — same mapping, same weights,
// same bins.
func TestSnapshotPredictsIdentically(t *testing.T) {
	p, jobs := trainedSnapshotPredictor(t, 7)
	v, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Trained() {
		t.Fatal("snapshot of a trained predictor must report Trained")
	}
	for _, j := range jobs[:20] {
		want := p.PredictOne(j.Script)
		got := v.PredictOne(j.Script)
		if got != want {
			t.Fatalf("snapshot prediction %+v differs from predictor %+v", got, want)
		}
	}
}

// TestSnapshotIsolatedFromRetraining: weights published in a snapshot
// must not move when the predictor trains again — the property the
// serve layer's atomic swap depends on.
func TestSnapshotIsolatedFromRetraining(t *testing.T) {
	p, jobs := trainedSnapshotPredictor(t, 11)
	v, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := v.Predict([]string{jobs[0].Script, jobs[1].Script, jobs[2].Script})
	if _, err := p.Train(jobs[:30]); err != nil {
		t.Fatal(err)
	}
	after := v.Predict([]string{jobs[0].Script, jobs[1].Script, jobs[2].Script})
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot prediction changed after retraining: %+v -> %+v", before[i], after[i])
		}
	}
}

// TestSnapshotDoesNotPerturbTraining: taking a snapshot mid-run must
// not consume the predictor's RNG stream — two runs, one with a
// snapshot taken between training events and one without, must end
// bitwise identical.
func TestSnapshotDoesNotPerturbTraining(t *testing.T) {
	run := func(snapshotBetween bool) []Prediction {
		p, jobs := trainedSnapshotPredictor(t, 13)
		if snapshotBetween {
			if _, err := p.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Train(jobs[:30]); err != nil {
			t.Fatal(err)
		}
		return p.Predict([]string{jobs[0].Script, jobs[5].Script})
	}
	plain := run(false)
	snapped := run(true)
	for i := range plain {
		if plain[i] != snapped[i] {
			t.Fatalf("snapshot perturbed training: %+v vs %+v", plain[i], snapped[i])
		}
	}
}

// TestSnapshotUntrained: an untrained predictor's snapshot must say so,
// which is what the serve layer keys its requested-runtime fallback on.
func TestSnapshotUntrained(t *testing.T) {
	cfg := TinyConfig()
	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.Trained() {
		t.Fatal("snapshot of an untrained predictor must report !Trained")
	}
}

// TestSharedViewConcurrentPredict pins the read-only inference forward
// (run it under -race): many goroutines call PredictMapped on ONE f32
// view and ONE int8 view, with batches of different sizes, and every
// answer must equal the serial answer bit for bit. The serving stack
// relies on it — every replica, the canary and the shadow evaluator
// hold the same *Inference.
func TestSharedViewConcurrentPredict(t *testing.T) {
	p, jobs := trainedSnapshotPredictor(t, 17)
	f32, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	int8v, err := p.SnapshotQuantized(jobs[40:72])
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 4
	for _, v := range []*Inference{f32, int8v} {
		batches := make([][]string, workers)
		want := make([][]Prediction, workers)
		for w := range batches {
			for _, j := range jobs[10*w : 10*w+w+1] {
				batches[w] = append(batches[w], j.Script)
			}
			want[w] = v.Predict(batches[w])
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					got := v.PredictMapped(v.MapTexts(batches[w]))
					for i := range got {
						if got[i] != want[w][i] {
							t.Errorf("%s worker %d round %d job %d: concurrent %+v, serial %+v",
								v.Kernel(), w, r, i, got[i], want[w][i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
