package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// The quantized-serving pair behind BENCH_quant.json: the same 64
// concurrent coalesced clients, served from a float32 snapshot or its
// int8-weight twin, on the conv-dominated 2D-CNN at FastConfig scale
// (32×32 job images). Both run the same float32 forward (DESIGN.md §8
// "Inference forward"), so the pair's ns/op (per prediction) should
// match; what differs is what the snapshot costs on disk and what the
// rounding costs in answers.
//
// Each benchmark reports its snapshot's persisted byte size
// (snap-bytes); the int8 run additionally reports the class-level
// disagreement rate vs float32 over the bench scripts (disagree-rate —
// predictions are decoded class values, so two snapshots disagree iff
// some head picked a different class).
var (
	quantBenchOnce sync.Once
	quantBenchErr  error
	quantBenchF32  *prionn.Inference
	quantBenchInt8 *prionn.Inference
	quantBenchJobs []trace.Job
	quantF32Bytes  int
	quantInt8Bytes int
	quantDisagree  float64
)

func quantBenchViews(b *testing.B) (*prionn.Inference, *prionn.Inference) {
	b.Helper()
	quantBenchOnce.Do(func() {
		// One epoch over a short window: the benchmark measures forward
		// throughput, not accuracy, and FastConfig training is the setup
		// cost every quant benchmark in the package shares.
		cfg := prionn.FastConfig()
		cfg.Seed = 3
		cfg.Epochs = 1
		cfg.TrainWindow = 40
		jobs := trace.Completed(trace.Generate(trace.Config{Seed: 3, Jobs: 120}))
		scripts := make([]string, len(jobs))
		for i, j := range jobs {
			scripts[i] = j.Script
		}
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			quantBenchErr = err
			return
		}
		if _, err := p.Train(jobs[:40]); err != nil {
			quantBenchErr = err
			return
		}
		if quantBenchF32, err = p.Snapshot(); err != nil {
			quantBenchErr = err
			return
		}
		if quantBenchInt8, err = p.SnapshotQuantized(jobs[40:80]); err != nil {
			quantBenchErr = err
			return
		}
		var fbuf, qbuf bytes.Buffer
		if err := p.Save(&fbuf); err != nil {
			quantBenchErr = err
			return
		}
		if err := quantBenchInt8.SaveQuantized(&qbuf); err != nil {
			quantBenchErr = err
			return
		}
		quantF32Bytes, quantInt8Bytes = fbuf.Len(), qbuf.Len()
		quantBenchJobs = jobs
		disagree := 0
		for _, j := range jobs {
			if quantBenchF32.PredictOne(j.Script) != quantBenchInt8.PredictOne(j.Script) {
				disagree++
			}
		}
		quantDisagree = float64(disagree) / float64(len(jobs))
	})
	if quantBenchErr != nil {
		b.Fatal(quantBenchErr)
	}
	return quantBenchF32, quantBenchInt8
}

func quantBenchScripts(b *testing.B) []string {
	quantBenchViews(b)
	scripts := make([]string, 256)
	for i := range scripts {
		scripts[i] = quantBenchJobs[i%len(quantBenchJobs)].Script
	}
	return scripts
}

// benchQuantServe drives b.N predictions from 64 concurrent coalesced
// clients through a server over the given snapshot.
func benchQuantServe(b *testing.B, v *prionn.Inference, snapBytes int) {
	scripts := quantBenchScripts(b)
	s := New(v, Config{
		MaxBatch:   benchClients,
		MaxDelay:   500 * time.Microsecond,
		QueueDepth: 4 * benchClients,
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	runClients(b.N, benchClients, func(i int) {
		if _, err := s.Predict(ctx, Request{Script: scripts[i%len(scripts)]}); err != nil {
			b.Error(err)
		}
	})
	b.StopTimer()
	if err := s.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(snapBytes), "snap-bytes")
}

// BenchmarkQuantServeF32 is the float32 baseline on the conv-dominated
// fixture.
func BenchmarkQuantServeF32(b *testing.B) {
	f32, _ := quantBenchViews(b)
	benchQuantServe(b, f32, quantF32Bytes)
}

// BenchmarkQuantServeInt8 is the same load on the int8-weight snapshot:
// it is there for snapshot_bytes and class_disagree_rate
// (BENCH_quant.json).
func BenchmarkQuantServeInt8(b *testing.B) {
	_, int8v := quantBenchViews(b)
	benchQuantServe(b, int8v, quantInt8Bytes)
	b.ReportMetric(quantDisagree, "disagree-rate")
}

// benchInferForward times one PredictMapped — all three heads' forward
// passes, no mapping, no coalescer — on the given snapshot at the given
// batch size. B1 is what a lone submission waits for; B32 is a full
// coalesced batch; B2 and B4 are what a flush with company usually holds,
// and must cost no more per row than a lone request. scripts/bench.sh
// runs them all at -cpu 1,2: a batch-1 forward must not be slower with a
// second core to fan out to. There is no int8 twin: an int8 snapshot
// runs this same forward.
func benchInferForward(b *testing.B, v *prionn.Inference, batch int) {
	x := v.MapTexts(quantBenchScripts(b)[:batch])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.PredictMapped(x)
	}
}

func BenchmarkInferForwardF32B1(b *testing.B) {
	f32, _ := quantBenchViews(b)
	benchInferForward(b, f32, 1)
}

func BenchmarkInferForwardF32B2(b *testing.B) {
	f32, _ := quantBenchViews(b)
	benchInferForward(b, f32, 2)
}

func BenchmarkInferForwardF32B4(b *testing.B) {
	f32, _ := quantBenchViews(b)
	benchInferForward(b, f32, 4)
}

func BenchmarkInferForwardF32B32(b *testing.B) {
	f32, _ := quantBenchViews(b)
	benchInferForward(b, f32, 32)
}
