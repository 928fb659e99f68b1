package prionn

import (
	"math"
	"runtime"
	"testing"

	"prionn/internal/nn"
	"prionn/internal/tensor"
	"prionn/internal/trace"
)

// trainedModelPredictor is trainedSnapshotPredictor for a chosen
// architecture on 20×20 scripts, so the 2D-CNN has a pool to fold (at
// TinyConfig's 16×16 it has none).
func trainedModelPredictor(t *testing.T, model ModelKind, seed int64) (*Predictor, []trace.Job) {
	t.Helper()
	cfg := TinyConfig()
	cfg.Model = model
	cfg.Rows, cfg.Cols = 20, 20
	cfg.Seed = seed
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: seed, Jobs: 80}))
	window := jobs[:cfg.TrainWindow]
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

// heldOutJobs is the agreement check slice SnapshotQuantized gets in this
// file's tests: a trace of its own, long enough that one near-tied job of
// a barely trained TinyConfig head is not 5 % of it.
func heldOutJobs() []trace.Job {
	return trace.Completed(trace.Generate(trace.Config{Seed: 99, Jobs: 400}))
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestViewSnapshotTrainForwardLogitsBitwise: for each architecture the
// three roads to a head's logits agree bit for bit — the predictor's
// own zero-copy view (unpacked dense weights, packed per call), its
// Snapshot (pre-packed panels), and a train-mode Forward (every layer
// on its own, column-matrix conv). Predictions compare classes; this
// compares the numbers under them.
func TestViewSnapshotTrainForwardLogitsBitwise(t *testing.T) {
	for _, model := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		p, jobs := trainedModelPredictor(t, model, 23)
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 5} {
			texts := make([]string, n)
			for i := range texts {
				texts[i] = jobs[50+i].Script
			}
			x := p.view().MapTexts(texts)
			heads := []struct {
				name       string
				view, snap *nn.Sequential
			}{
				{"runtime", p.runtime, snap.runtime},
				{"read", p.read, snap.read},
				{"write", p.write, snap.write},
			}
			for _, h := range heads {
				view := h.view.Forward(x, false)
				if got := h.snap.Forward(x, false); !sameBits(got, view) {
					t.Errorf("%s %s n=%d: snapshot logits differ from the predictor's view", model, h.name, n)
				}
				if got := h.view.Forward(x, true); !sameBits(got, view) {
					t.Errorf("%s %s n=%d: train-mode logits differ from the inference forward", model, h.name, n)
				}
			}
		}
	}
}

// TestSnapshotLogitsBatchInvariant: one script's logits do not depend
// on the batch it rides in or its place there, in a float snapshot or an
// int8 one. Every dense row goes through the one-row kernel and every
// conv sample through its own plane, so no row's chain depends on its
// neighbours — the invariant prionnbench checks through HTTP, pinned
// here on the logits' bits for batches 1 to 5 at every position. (The
// int8 snapshot is of another seed's predictor: the agreement check
// refuses seed 43's barely trained NN.)
func TestSnapshotLogitsBatchInvariant(t *testing.T) {
	invariant := func(model ModelKind, snap *Inference, jobs []trace.Job) {
		names, heads := snap.heads()
		script := jobs[50].Script
		alone := snap.MapTexts([]string{script})
		for n := 2; n <= 5; n++ {
			for pos := 0; pos < n; pos++ {
				texts := make([]string, n)
				for i := range texts {
					texts[i] = jobs[60+i].Script
				}
				texts[pos] = script
				x := snap.MapTexts(texts)
				for h, m := range heads {
					want := m.Forward(alone, false)
					got := m.Forward(x, false)
					classes := want.Dim(1)
					row := tensor.FromSlice(got.Data[pos*classes:(pos+1)*classes], 1, classes)
					if !sameBits(row, want) {
						t.Errorf("%s %s %s: logits at position %d of a batch of %d differ from the batch of one", model, snap.Kernel(), names[h], pos, n)
					}
				}
			}
		}
	}
	for _, model := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		p, jobs := trainedModelPredictor(t, model, 43)
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		invariant(model, snap, jobs)
		p, jobs = trainedModelPredictor(t, model, 37)
		if snap, err = p.SnapshotQuantized(heldOutJobs()); err != nil {
			t.Fatal(err)
		}
		invariant(model, snap, jobs)
	}
}

// TestSnapshotPanelsPrivate: a snapshot's pre-packed dense panels are
// its own. Training the source predictor afterwards moves the source's
// logits and leaves every logit of the snapshot where it was.
func TestSnapshotPanelsPrivate(t *testing.T) {
	p, jobs := trainedModelPredictor(t, Model2DCNN, 29)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	x := snap.MapTexts([]string{jobs[50].Script, jobs[51].Script, jobs[52].Script})
	before := snap.runtime.Forward(x, false).Clone()
	source := p.runtime.Forward(x, false).Clone()
	if !sameBits(before, source) {
		t.Fatal("snapshot and source disagree before retraining")
	}
	if _, err := p.Train(jobs[10:50]); err != nil {
		t.Fatal(err)
	}
	if sameBits(p.runtime.Forward(x, false), source) {
		t.Fatal("retraining left the source's logits unchanged; the test proves nothing")
	}
	if !sameBits(snap.runtime.Forward(x, false), before) {
		t.Fatal("snapshot logits moved when its source predictor trained")
	}
}

// TestPredictMappedLeavesArenaFlat pins the inference half of the arena
// contract: serving checks nothing out of the default arena that it
// does not return, so Outstanding is a leak check a daemon can use —
// on a float view and on an int8 one, which runs the same forward.
// (The forward's activations are check-outs; see
// TestInferForwardReturnsActivations.)
func TestPredictMappedLeavesArenaFlat(t *testing.T) {
	p, jobs := trainedModelPredictor(t, Model2DCNN, 31)
	f32, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	int8v, err := p.SnapshotQuantized(heldOutJobs())
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*Inference{f32, int8v} {
		x1 := snap.MapTexts([]string{jobs[50].Script})
		x4 := snap.MapTexts([]string{jobs[51].Script, jobs[52].Script, jobs[53].Script, jobs[54].Script})
		snap.PredictMapped(x4)
		before := tensor.DefaultArena().Outstanding()
		for i := 0; i < 50; i++ {
			snap.PredictMapped(x1)
			snap.PredictMapped(x4)
		}
		if got := tensor.DefaultArena().Outstanding(); got != before {
			t.Fatalf("%s: Arena.Outstanding went %d → %d over 100 PredictMapped calls on a shared view", snap.Kernel(), before, got)
		}
	}
}

// TestTrainLeavesArenaFlat is the training half of the same contract:
// whatever a Train event checks out of the arena (column matrices,
// gradient scratch) it returns or keeps as layer state that the next
// event reuses, so once the first event has sized that state, further
// events — a ragged last batch included — a Snapshot and a Predict
// leave Outstanding where it was.
func TestTrainLeavesArenaFlat(t *testing.T) {
	p, jobs := trainedModelPredictor(t, Model2DCNN, 41) // one warm-up Train
	before := tensor.DefaultArena().Outstanding()
	for _, window := range [][]trace.Job{jobs[10:50], jobs[20:60], jobs[23:60]} {
		if _, err := p.Train(window); err != nil {
			t.Fatal(err)
		}
		if got := tensor.DefaultArena().Outstanding(); got != before {
			t.Fatalf("Arena.Outstanding went %d → %d over a Train event on %d jobs", before, got, len(window))
		}
	}
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.Predict([]string{jobs[60].Script, jobs[61].Script})
	if got := tensor.DefaultArena().Outstanding(); got != before {
		t.Fatalf("Arena.Outstanding went %d → %d over Snapshot + Predict after training", before, got)
	}
}

// TestPredictMappedAllocCeiling bounds the heap allocations of one
// batch-1 PredictMapped (three 2D-CNN heads, one worker) on a float view
// and an int8 one. The float32 layer-by-layer forward made 184 on this
// fixture: an output tensor per layer — conv, ReLU, pool — each with an
// escaping shape argument, and the discarded argmax table. The fused
// forward allocates one output per block (85 when written) and must stay
// under half the old count.
func TestPredictMappedAllocCeiling(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	p, jobs := trainedModelPredictor(t, Model2DCNN, 37)
	f32, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	int8v, err := p.SnapshotQuantized(heldOutJobs())
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 184 / 2
	for _, snap := range []*Inference{f32, int8v} {
		x := snap.MapTexts([]string{jobs[50].Script})
		snap.PredictMapped(x) // warm the pack buffers and the scratch pools
		if got := testing.AllocsPerRun(50, func() { snap.PredictMapped(x) }); got > ceiling {
			t.Fatalf("%s: batch-1 PredictMapped allocates %.0f times, ceiling %d", snap.Kernel(), got, ceiling)
		}
	}
}

// batchOf maps the scripts of n jobs.
func batchOf(v *Inference, jobs []trace.Job, n int) *tensor.Tensor {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = jobs[i%len(jobs)].Script
	}
	return v.MapTexts(texts)
}

// TestInferForwardReturnsActivations pins the arena's ownership rule on
// the serving forward: every block output is checked out and every one,
// the logits included, is back when PredictMapped returns — for a lone
// request and a full batch, inline and fanned out — so Outstanding stays
// flat in a process that only serves.
func TestInferForwardReturnsActivations(t *testing.T) {
	ar := tensor.DefaultArena()
	for _, model := range []ModelKind{ModelNN, Model1DCNN, Model2DCNN} {
		p, jobs := trainedModelPredictor(t, model, 29)
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		calls := 100
		if model == Model2DCNN && !raceEnabled {
			calls = 1000
		}
		for _, batch := range []int{1, 32} {
			x := batchOf(snap, jobs, batch)
			for _, workers := range []int{1, 2, 8} {
				prev := tensor.SetMaxWorkers(workers)
				before := ar.Outstanding()
				for i := 0; i < calls; i++ {
					snap.PredictMapped(x)
				}
				tensor.SetMaxWorkers(prev)
				if got := ar.Outstanding(); got != before {
					t.Fatalf("%s batch %d workers %d: Outstanding went %d → %d over %d PredictMapped calls",
						model, batch, workers, before, got, calls)
				}
			}
		}
	}
}

// TestInferForwardAllocCeiling: a forward takes its activations from
// the arena, so what is left on the heap is the answer and a few headers
// (before the arena a lone request allocated 85 times, 101 KB, per
// call) — and a small batch no more than a lone request: nothing is
// allocated per row.
func TestInferForwardAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops its contents under the race detector")
	}
	p, jobs := trainedModelPredictor(t, Model2DCNN, 31)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, tc := range []struct {
		batch         int
		allocs, bytes float64
	}{{1, 16, 2048}, {4, 16, 2048}, {32, 16, 4096}} {
		x := batchOf(snap, jobs, tc.batch)
		snap.PredictMapped(x) // fill the arena's free lists
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			snap.PredictMapped(x)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Fatalf("PredictMapped at batch %d allocates %.1f times, %.0f B per call; ceiling %.0f and %.0f", tc.batch, allocs, bytes, tc.allocs, tc.bytes)
		}
		t.Logf("PredictMapped at batch %d: %.1f allocs, %.0f B per call", tc.batch, allocs, bytes)
	}
}

// TestSnapshotHoldsWeightsOnce: a snapshot is one copy of the weights
// and small change — no second, kernel-shaped copy of the dense layers
// (the stored GEMM strips made it 2.0× the parameters).
func TestSnapshotHoldsWeightsOnce(t *testing.T) {
	p, err := New(FastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := p.Snapshot()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, params := float64(after.TotalAlloc-before.TotalAlloc), float64(4*p.NumParams())
	if got > 1.2*params {
		t.Fatalf("Snapshot allocated %.0f B for %.0f B of parameters (%.2f×), ceiling 1.2×", got, params, got/params)
	}
	t.Logf("Snapshot allocated %.2f× the parameters' %.0f B", got/params, params)
	runtime.KeepAlive(snap)
}
