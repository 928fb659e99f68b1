package cluster

import (
	"context"
	"sync"
	"testing"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// The cluster entry of BENCH_quant.json: the conv-dominated FastConfig
// fixture from internal/serve's quant benchmarks, dispatched through a
// 4-replica round-robin cluster with the prediction cache off, so every
// request takes a real forward. An int8-weight snapshot runs the same
// forward, so it has no entry of its own.

var (
	quantBenchOnce sync.Once
	quantBenchErr  error
	quantBenchF32  *prionn.Inference
	quantBenchJobs []trace.Job
)

// quantBenchView trains the FastConfig 2D-CNN once and snapshots it
// (mirrors internal/serve's quant fixture).
func quantBenchView(b *testing.B) *prionn.Inference {
	b.Helper()
	quantBenchOnce.Do(func() {
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
		quantBenchJobs = jobs
	})
	if quantBenchErr != nil {
		b.Fatal(quantBenchErr)
	}
	return quantBenchF32
}

// benchQuantCluster drives b.N predictions from 64 concurrent clients
// through an uncached 4-replica cluster over the given snapshot.
func benchQuantCluster(b *testing.B, v *prionn.Inference) {
	scripts := make([]string, 256)
	for i := range scripts {
		scripts[i] = quantBenchJobs[i%len(quantBenchJobs)].Script
	}
	c, err := New(v, Config{
		Replicas: 4,
		Policy:   RoundRobin,
		Serve:    benchServeConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	runClients(b.N, benchClients, func(i int) {
		resp, err := c.Predict(ctx, Request{Script: scripts[i%len(scripts)]})
		if err != nil {
			b.Error(err)
		} else if resp.Degraded {
			b.Error("degraded response under zero faults")
		}
	})
	b.StopTimer()
	snap := c.Stats()
	if err := c.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(snap.P50Ns), "p50-ns")
	b.ReportMetric(float64(snap.P99Ns), "p99-ns")
}

// BenchmarkQuantCluster4F32NoCache is the uncached cluster on the conv
// fixture.
func BenchmarkQuantCluster4F32NoCache(b *testing.B) {
	benchQuantCluster(b, quantBenchView(b))
}
