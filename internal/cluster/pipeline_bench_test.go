package cluster

import (
	"context"
	"math"
	"testing"
)

// benchPipelineCanary prices the canary stage's request overhead: the
// same uncached 2-replica dispatch path with and without an active
// canary claiming its traffic fraction (each claimed request pays a
// canary forward plus a baseline mirror for disagreement scoring).
// BENCH_pipeline.json derives the on/off overhead ratio from the pair.
func benchPipelineCanary(b *testing.B, canary bool) {
	v, _ := benchTrainedView(b)
	scripts := benchScripts(b)
	c, err := New(v, Config{
		Replicas: 2, Policy: RoundRobin,
		Serve: benchServeConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if canary {
		// Thresholds parked at infinity: the canary stays Running for
		// the whole measurement instead of promoting or rolling back.
		if err := c.StartCanary(v, CanaryConfig{
			Frac:            0.2,
			MinObservations: math.MaxInt32,
			PromoteAfter:    math.MaxInt32,
		}); err != nil {
			b.Fatal(err)
		}
	}
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
	if canary {
		b.ReportMetric(float64(snap.CanaryRequests), "canary-reqs")
	}
}

func BenchmarkPipelineCanaryOff(b *testing.B) { benchPipelineCanary(b, false) }

func BenchmarkPipelineCanaryOn(b *testing.B) { benchPipelineCanary(b, true) }
