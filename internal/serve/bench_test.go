package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// The serving-throughput pair behind BENCH_serve.json: the same 64
// concurrent clients, served either one request at a time (the
// pre-serve deployment, where every consumer calls PredictOne and
// forwards are batch-1) or through the coalescer (requests ride the
// batched-GEMM path). ns/op is per prediction, so predictions/sec =
// 1e9 / ns_op and the coalescing speedup is the ratio of the two.
//
// The benchmark model is the paper's fully connected NN (§2.2), not
// the 2D-CNN the correctness tests use, because the dense architecture
// is where coalescing pays: a batch-1 dense forward is a matrix-vector
// product that streams the entire weight matrix from memory per
// sample, while a batch-64 forward reuses each weight panel across the
// whole batch in one GEMM (~7x per-sample on a single core). Conv
// forwards are already large weight-reusing GEMMs at batch 1 (im2col
// rows = output spatial positions), so they only gain the per-call
// overhead amortization (~1.7x) on a machine with no spare cores.

const benchClients = 64

// Separate fixture from trainedViews: same trace and training window,
// dense model.
var (
	benchOnce sync.Once
	benchErr  error
	benchView *prionn.Inference
	benchJobs []trace.Job
)

func benchTrainedView(b *testing.B) (*prionn.Inference, []trace.Job) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := prionn.TinyConfig()
		cfg.Model = prionn.ModelNN
		jobs := trace.Completed(trace.Generate(trace.Config{Seed: 3, Jobs: 120}))
		scripts := make([]string, len(jobs))
		for i, j := range jobs {
			scripts[i] = j.Script
		}
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			benchErr = err
			return
		}
		if _, err := p.Train(jobs[:40]); err != nil {
			benchErr = err
			return
		}
		if benchView, err = p.Snapshot(); err != nil {
			benchErr = err
			return
		}
		benchJobs = jobs
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchView, benchJobs
}

// runClients fans total calls of fn across the client pool and joins.
func runClients(total, clients int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func benchScripts(b *testing.B) []string {
	_, jobs := benchTrainedView(b)
	scripts := make([]string, 256)
	for i := range scripts {
		scripts[i] = jobs[i%len(jobs)].Script
	}
	return scripts
}

// BenchmarkServeSequential64Clients is the baseline: concurrent callers
// serialized over single-request forwards (batch 1), which is how every
// consumer used the predictor before the serving layer existed. The
// mutex models that deployment's one-forward-at-a-time predictor, not a
// contract: forwards on a published Inference write nothing and may run
// concurrently.
func BenchmarkServeSequential64Clients(b *testing.B) {
	v, _ := benchTrainedView(b)
	scripts := benchScripts(b)
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	runClients(b.N, benchClients, func(i int) {
		mu.Lock()
		_ = v.PredictOne(scripts[i%len(scripts)])
		mu.Unlock()
	})
}

// BenchmarkServeLoneRequest is what a lone submission waits: one client
// with one request outstanding through a default-config server (MaxDelay
// 2ms). A sequential client never sees company, so no request is held
// and ns/op is admission + batch-1 map+forward + wake-up — not MaxDelay.
func BenchmarkServeLoneRequest(b *testing.B) {
	v, _ := benchTrainedView(b)
	scripts := benchScripts(b)
	s := New(v, Config{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(ctx, Request{Script: scripts[i%len(scripts)]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Stop(ctx); err != nil {
		b.Fatal(err)
	}
	if held := s.Stats().HeldBatches; held != 0 {
		b.Fatalf("%d batches of a sequential client were held", held)
	}
}

// BenchmarkServeCoalesced64Clients routes the same concurrent load
// through the coalescer: requests group into minibatches (up to 64) and
// each flush is one batched map+forward on the blocked-GEMM core.
func BenchmarkServeCoalesced64Clients(b *testing.B) {
	v, _ := benchTrainedView(b)
	scripts := benchScripts(b)
	s := New(v, Config{
		MaxBatch: benchClients,
		MaxDelay: 500 * time.Microsecond,
		// Deep enough that 64 clients with one outstanding request each
		// can never trip backpressure — this benchmark measures
		// throughput, not shedding.
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
	snap := s.Stats()
	b.ReportMetric(snap.MeanBatch(), "batch-size")
}
