package pilot

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"prionn/internal/prionn"
	"prionn/internal/serve"
)

// BenchmarkPipelineRetrain measures one full pipeline event — warm-
// start retrain, shadow evaluation, deploy decision — per iteration
// (checkpointing disabled so disk noise stays out of the number). This
// is the latency a completed-job stream pays every RetrainEvery jobs.
func BenchmarkPipelineRetrain(b *testing.B) {
	jobs := pipelineJobs(200)
	cfg := tinyModel()
	srv := serve.New(nil, fastServe())
	defer func() {
		if err := srv.Stop(context.Background()); err != nil {
			b.Fatal(err)
		}
	}()
	pl, err := New(Config{
		Model:        cfg,
		ShadowWindow: 32,
		Gate:         GateConfig{MaxMAPEIncrease: 1e9, MaxAccuracyDrop: 1e9, MaxPearsonDrop: 1e9},
	}, &DirectDeployer{Srv: srv})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	idx := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < cfg.RetrainEvery; k++ {
			if err := pl.Observe(ctx, jobs[idx%len(jobs)]); err != nil {
				b.Fatal(err)
			}
			idx++
		}
	}
}

// BenchmarkPipelineShadowEval measures one shadow evaluation — replay a
// 64-job window through both views, score every head, gate — per
// iteration; 1e9/ns_op is the shadow-eval throughput.
func BenchmarkPipelineShadowEval(b *testing.B) {
	jobs := pipelineJobs(160)
	cfg := tinyModel()
	scripts := make([]string, 80)
	for i := range scripts {
		scripts[i] = jobs[i].Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Train(jobs[:80]); err != nil {
		b.Fatal(err)
	}
	baseline, err := p.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Train(jobs[40:120]); err != nil {
		b.Fatal(err)
	}
	candidate, err := p.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	window := jobs[80:144]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(baseline, candidate, window, GateConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// checkpointFixture is the predictor the two checkpoint benchmarks
// persist: FastConfig (the daemon's default scale, three heads) after one
// training event, so Adam moments ride along as they do in the pilot's
// per-event save.
func checkpointFixture(b *testing.B) *prionn.Predictor {
	b.Helper()
	jobs := pipelineJobs(160)
	cfg := prionn.FastConfig()
	cfg.TrainWindow, cfg.Epochs = 96, 1
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Train(jobs[:cfg.TrainWindow]); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPipelineCheckpointSave measures one crash-safe SaveFile —
// stream, fsync, rename, directory fsync — per iteration: what every
// training event of a pilot with a CheckpointPath pays.
func BenchmarkPipelineCheckpointSave(b *testing.B) {
	p := checkpointFixture(b)
	path := filepath.Join(b.TempDir(), "model.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SaveFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCheckpointLoad measures one LoadFile of that
// checkpoint per iteration: the restart cost of a daemon or a pilot.
func BenchmarkPipelineCheckpointLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "model.ckpt")
	if err := checkpointFixture(b).SaveFile(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prionn.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
