package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// Shared trained snapshots (training dominates test wall time, so every
// test reuses one setup). The two views come from different training
// points, so swap tests can observe a real weight change.
var (
	setupOnce sync.Once
	setupErr  error
	view1     *prionn.Inference
	view2     *prionn.Inference
	qview1    *prionn.Inference // int8 snapshot of view1's weights
	testJobs  []trace.Job
)

func trainedViews(t testing.TB) (*prionn.Inference, *prionn.Inference, []trace.Job) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := prionn.TinyConfig()
		jobs := trace.Completed(trace.Generate(trace.Config{Seed: 3, Jobs: 120}))
		scripts := make([]string, len(jobs))
		for i, j := range jobs {
			scripts[i] = j.Script
		}
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			setupErr = err
			return
		}
		if _, err := p.Train(jobs[:40]); err != nil {
			setupErr = err
			return
		}
		if view1, err = p.Snapshot(); err != nil {
			setupErr = err
			return
		}
		if qview1, err = p.SnapshotQuantized(jobs[80:]); err != nil {
			setupErr = err
			return
		}
		if _, err := p.Train(jobs[40:80]); err != nil {
			setupErr = err
			return
		}
		if view2, err = p.Snapshot(); err != nil {
			setupErr = err
			return
		}
		testJobs = jobs
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return view1, view2, testJobs
}

// fastServe keeps per-request latency low in tests.
func fastServe() serve.Config {
	return serve.Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueDepth: 64}
}

// mustStop drains a cluster at test end.
func mustStop(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Stop(context.Background()); err != nil {
		t.Fatalf("cluster stop: %v", err)
	}
}

// TestClusterPredictMatchesSingle: a routed, replicated prediction must
// be bitwise identical to a single-process PredictOne — replication is
// an availability mechanism, never an accuracy change — and round-robin
// must actually spread load over every replica.
func TestClusterPredictMatchesSingle(t *testing.T) {
	v, _, jobs := trainedViews(t)
	c, err := New(v, Config{Replicas: 3, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	for i := 0; i < 24; i++ {
		j := jobs[i%len(jobs)]
		want := v.PredictOne(j.Script)
		resp, err := c.Predict(context.Background(), Request{Script: j.Script, RequestedMin: j.RequestedMin})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.FromModel || resp.Degraded {
			t.Fatalf("request %d not served from model: %+v", i, resp)
		}
		if resp.Pred != want {
			t.Fatalf("request %d: cluster %+v != single %+v", i, resp.Pred, want)
		}
	}
	snap := c.Stats()
	if snap.Requests != 24 || snap.Degraded != 0 {
		t.Fatalf("stats %+v: want 24 requests, 0 degraded", snap)
	}
	for _, r := range snap.Replicas {
		if r.Dispatched == 0 {
			t.Fatalf("round-robin left replica %d idle: %+v", r.ID, snap.Replicas)
		}
	}
}

// TestClusterFallbackUntrained: with no snapshot published anywhere,
// every reply is the requested-runtime fallback (paper §2.3), and a
// cluster-wide Swap switches all replicas to model serving.
func TestClusterFallbackUntrained(t *testing.T) {
	v, _, jobs := trainedViews(t)
	c, err := New(nil, Config{Replicas: 2, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	resp, err := c.Predict(context.Background(), Request{Script: jobs[0].Script, RequestedMin: 240})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FromModel || resp.Pred.RuntimeMin != 240 {
		t.Fatalf("untrained cluster must fall back to the request: %+v", resp)
	}
	if resp.Degraded {
		t.Fatalf("untrained fallback is not degradation: %+v", resp)
	}

	if err := c.Swap(v); err != nil {
		t.Fatal(err)
	}
	want := v.PredictOne(jobs[0].Script)
	for i := 0; i < 4; i++ { // hit both replicas
		resp, err = c.Predict(context.Background(), Request{Script: jobs[0].Script})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.FromModel || resp.Pred != want {
			t.Fatalf("post-swap response %+v, want model %+v", resp, want)
		}
	}
}

// TestClusterAffinityCache: identical scripts route to the same home
// replica and the second request is a cache hit, bitwise identical to
// the computed answer.
func TestClusterAffinityCache(t *testing.T) {
	v, _, jobs := trainedViews(t)
	c, err := New(v, Config{
		Replicas: 4, Serve: fastServe(), Policy: ScriptAffinity,
		CacheSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	script := jobs[0].Script
	want := v.PredictOne(script)
	first, err := c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	second, err := c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request must hit the cache")
	}
	if first.Pred != want || second.Pred != want {
		t.Fatalf("cached %+v / computed %+v != single %+v", second.Pred, first.Pred, want)
	}
	if second.Replica != first.Replica {
		t.Fatalf("affinity: computed on %d but cached on %d", first.Replica, second.Replica)
	}
	snap := c.Stats()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache hits %d misses %d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestClusterCacheInvalidatedOnSwap: a swap must invalidate every cache
// shard — the next identical request recomputes under the new snapshot.
func TestClusterCacheInvalidatedOnSwap(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	c, err := New(v1, Config{
		Replicas: 2, Serve: fastServe(), Policy: ScriptAffinity,
		CacheSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	script := jobs[1].Script
	if _, err := c.Predict(context.Background(), Request{Script: script}); err != nil {
		t.Fatal(err)
	}
	if err := c.Swap(v2); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("post-swap request served a stale cache entry")
	}
	if want := v2.PredictOne(script); resp.Pred != want {
		t.Fatalf("post-swap prediction %+v, want v2's %+v", resp.Pred, want)
	}
}

// TestClusterSwapKernelInvalidatesCache: publishing an int8 snapshot
// over a float32 one (and back) must never serve a memoized prediction
// computed by the other kernel — the two paths agree on classes but not
// on bitwise prediction values, and the cluster's purity contract is
// that every response is bitwise-pure to exactly one published
// snapshot. The cache stamp carries the kernel kind, so the f32-era
// entry can never satisfy an int8-era lookup.
func TestClusterSwapKernelInvalidatesCache(t *testing.T) {
	v1, _, jobs := trainedViews(t)
	c, err := New(v1, Config{
		Replicas: 2, Serve: fastServe(), Policy: ScriptAffinity,
		CacheSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	if got := c.Stats().Kernel; got != string(prionn.KernelF32) {
		t.Fatalf("stats kernel = %q before any swap, want %q", got, prionn.KernelF32)
	}

	script := jobs[1].Script
	// Warm the f32-era cache entry, and prove it is warm.
	if _, err := c.Predict(context.Background(), Request{Script: script}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("second identical request under the f32 snapshot must hit the cache")
	}

	if err := c.Swap(qview1); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Kernel; got != string(prionn.KernelInt8) {
		t.Fatalf("stats kernel = %q after int8 swap, want %q", got, prionn.KernelInt8)
	}
	resp, err = c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("post-swap request served a float32-era cache entry on the int8 snapshot")
	}
	if want := qview1.PredictOne(script); resp.Pred != want {
		t.Fatalf("post-swap prediction %+v, want the int8 snapshot's %+v", resp.Pred, want)
	}

	// And the reverse direction: swapping back to f32 must not serve the
	// int8-era entry the predict above memoized.
	if err := c.Swap(v1); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Predict(context.Background(), Request{Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("swap back to f32 served an int8-era cache entry")
	}
	if want := v1.PredictOne(script); resp.Pred != want {
		t.Fatalf("post-swap-back prediction %+v, want the f32 snapshot's %+v", resp.Pred, want)
	}
}

// TestClusterRetryFailover: a persistently failing replica is routed
// around via retries; the request still gets a model answer.
func TestClusterRetryFailover(t *testing.T) {
	v, _, jobs := trainedViews(t)
	defer fault.DisarmAll()
	fault.Arm(ReplicaFailpoint(0), fault.Failure{Err: errors.New("injected replica fault")})

	c, err := New(v, Config{Replicas: 2, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	for i := 0; i < 8; i++ {
		j := jobs[i%len(jobs)]
		resp, err := c.Predict(context.Background(), Request{Script: j.Script, RequestedMin: j.RequestedMin})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.FromModel {
			t.Fatalf("request %d degraded with a healthy replica available: %+v", i, resp)
		}
		if resp.Replica != 1 {
			t.Fatalf("request %d answered by failing replica %d", i, resp.Replica)
		}
		if want := v.PredictOne(j.Script); resp.Pred != want {
			t.Fatalf("request %d: %+v != %+v", i, resp.Pred, want)
		}
	}
	snap := c.Stats()
	if snap.Retries == 0 {
		t.Fatalf("round-robin over a failing replica must retry: %+v", snap)
	}
	if snap.Replicas[0].Failed == 0 {
		t.Fatalf("replica 0 never saw its injected faults: %+v", snap.Replicas[0])
	}
}

// TestClusterBreakerOpensAndRecovers drives the full
// closed → open → half-open → closed cycle end to end: injected errors
// trip replica 0's breaker, the cool-down (advanced via the injected
// clock) admits probes, and probe successes close it again.
func TestClusterBreakerOpensAndRecovers(t *testing.T) {
	v, _, jobs := trainedViews(t)
	defer fault.DisarmAll()
	fault.Arm(ReplicaFailpoint(0), fault.Failure{Err: errors.New("injected")})

	c, err := New(v, Config{
		Replicas: 2, Serve: fastServe(),
		Breaker: BreakerConfig{ConsecutiveFailures: 3, OpenFor: time.Hour, HalfOpenProbes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	// Fake clock on replica 0's breaker so the cool-down is advanced
	// deterministically instead of slept through.
	var nowNs int64
	br := c.replicas[0].br
	br.mu.Lock()
	br.nowNs = func() int64 { return nowNs }
	br.mu.Unlock()

	predict := func() Response {
		t.Helper()
		j := jobs[0]
		resp, err := c.Predict(context.Background(), Request{Script: j.Script, RequestedMin: j.RequestedMin})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Three consecutive injected failures (round-robin sends every other
	// request to replica 0) trip the breaker.
	for i := 0; i < 12 && br.State() != BreakerOpen; i++ {
		predict()
	}
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("breaker state %v after sustained failures, want open", got)
	}
	// While open, replica 0 is never picked: every request dispatches
	// cleanly to replica 1 with no retries consumed.
	failedBefore := c.replicas[0].failed.Load()
	for i := 0; i < 6; i++ {
		if resp := predict(); !resp.FromModel || resp.Replica != 1 {
			t.Fatalf("open breaker must shield replica 0: %+v", resp)
		}
	}
	if got := c.replicas[0].failed.Load(); got != failedBefore {
		t.Fatalf("open breaker leaked %d dispatches to replica 0", got-failedBefore)
	}

	// Heal the replica and elapse the cool-down: the next picks admit
	// half-open probes, and two successes close the breaker.
	fault.DisarmAll()
	nowNs += int64(2 * time.Hour)
	for i := 0; i < 12 && br.State() != BreakerClosed; i++ {
		predict()
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("breaker state %v after recovery traffic, want closed", got)
	}
	opens, halfOpens, closes := br.counters()
	if opens < 1 || halfOpens < 1 || closes < 1 {
		t.Fatalf("transition counters opens=%d halfOpens=%d closes=%d, want all >= 1", opens, halfOpens, closes)
	}
}

// TestClusterRetryBudgetExhaustion: with every replica failing, retries
// stop at the budget instead of amplifying the outage, and requests
// degrade to the fallback.
func TestClusterRetryBudgetExhaustion(t *testing.T) {
	defer fault.DisarmAll()
	fault.Arm(ReplicaFailpoint(0), fault.Failure{Err: errors.New("injected")})
	fault.Arm(ReplicaFailpoint(1), fault.Failure{Err: errors.New("injected")})

	c, err := New(nil, Config{
		Replicas: 2, Serve: fastServe(),
		MaxAttempts: 4, MinRetries: 3, RetryBudget: 0.05,
		RetryBackoff: 10 * time.Microsecond,
		// A generous breaker so the budget, not the breaker, is what
		// stops the retries in this test.
		Breaker: BreakerConfig{ConsecutiveFailures: 1 << 30, ErrorRate: 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	const n = 40
	for i := 0; i < n; i++ {
		resp, err := c.Predict(context.Background(), Request{Script: "x", RequestedMin: 9})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.Degraded || resp.Pred.RuntimeMin != 9 {
			t.Fatalf("request %d must degrade to the requested runtime: %+v", i, resp)
		}
	}
	snap := c.Stats()
	if snap.BudgetExhausted == 0 {
		t.Fatalf("40 failing requests with a 5%% budget must exhaust it: %+v", snap)
	}
	// Budget math: retries ≤ MinRetries + ceil(ratio·requests).
	if limit := int64(3) + int64(0.05*float64(n)) + 1; snap.Retries > limit {
		t.Fatalf("retries %d exceed the budget limit %d", snap.Retries, limit)
	}
	if snap.Degraded != n {
		t.Fatalf("degraded %d, want %d", snap.Degraded, n)
	}
}

// TestClusterFullyDegradedFallback: with every replica's failpoint
// armed the router still answers — from the requested-runtime fallback
// — and once they are disarmed and the cool-down has elapsed the model
// answers again.
func TestClusterFullyDegradedFallback(t *testing.T) {
	v, _, jobs := trainedViews(t)
	defer fault.DisarmAll()
	c, err := New(v, Config{
		Replicas: 2, Serve: fastServe(),
		Breaker: BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour, HalfOpenProbes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	var nowNs int64
	for _, r := range c.replicas {
		r.br.mu.Lock()
		r.br.nowNs = func() int64 { return nowNs }
		r.br.mu.Unlock()
	}

	for id := 0; id < 2; id++ {
		fault.Arm(ReplicaFailpoint(id), fault.Failure{Err: errors.New("injected")})
	}
	// The first request trips both breakers on its way down; the second
	// finds nothing dispatchable. Both must get the fallback.
	for i := 0; i < 2; i++ {
		resp, err := c.Predict(context.Background(), Request{Script: jobs[0].Script, RequestedMin: 77})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || resp.Pred.RuntimeMin != 77 || resp.FromModel {
			t.Fatalf("request %d: fully-failing cluster must serve the fallback: %+v", i, resp)
		}
	}
	for _, r := range c.replicas {
		if got := r.br.State(); got != BreakerOpen {
			t.Fatalf("replica %d breaker %v, want open", r.id, got)
		}
	}

	fault.DisarmAll()
	nowNs += int64(2 * time.Hour)
	want := v.PredictOne(jobs[0].Script)
	resp, err := c.Predict(context.Background(), Request{Script: jobs[0].Script})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.FromModel || resp.Pred != want {
		t.Fatalf("healed replica must serve the published snapshot: %+v want %+v", resp, want)
	}
}

// TestClusterSwapNeverMixesBatches extends the PR 5 invariant
// cluster-wide: under concurrent cluster Swaps, every model response
// from any replica equals one snapshot's prediction wholly — never a
// blend, never a third value.
func TestClusterSwapNeverMixesBatches(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	script := jobs[0].Script
	want1 := v1.PredictOne(script)
	want2 := v2.PredictOne(script)

	c, err := New(v1, Config{
		Replicas: 3, Serve: fastServe(), Policy: ScriptAffinity,
		CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		views := [2]*prionn.Inference{v1, v2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Swap(views[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := c.Predict(context.Background(), Request{Script: script, RequestedMin: 5})
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				if resp.Degraded {
					continue // overload shedding mid-swap is legal; values are what matter
				}
				if resp.Pred != want1 && resp.Pred != want2 {
					t.Errorf("prediction %+v matches neither snapshot (%+v / %+v)", resp.Pred, want1, want2)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapDone
}

// TestClusterLeastLoaded: the policy prefers the replica with fewer
// in-flight dispatches.
func TestClusterLeastLoaded(t *testing.T) {
	c, err := New(nil, Config{Replicas: 3, Serve: fastServe(), Policy: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	c.replicas[0].inflight.Add(5)
	c.replicas[2].inflight.Add(2)
	if r := c.pick(0, 0); r == nil || r.id != 1 {
		t.Fatalf("least-loaded picked %+v, want replica 1", r)
	}
	c.replicas[1].inflight.Add(9)
	if r := c.pick(0, 0); r == nil || r.id != 2 {
		t.Fatalf("least-loaded picked %+v, want replica 2", r)
	}
}

// TestClusterCallerContextError: the one case Predict errors — the
// caller's own context dying — must surface that error, counted.
func TestClusterCallerContextError(t *testing.T) {
	defer fault.DisarmAll()
	fault.Arm(ReplicaFailpoint(0), fault.Failure{Sleep: 100 * time.Millisecond})

	c, err := New(nil, Config{Replicas: 1, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Predict(ctx, Request{Script: "x"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the caller's DeadlineExceeded", err)
	}
	if snap := c.Stats(); snap.CallerCanceled != 1 {
		t.Fatalf("caller-canceled %d, want 1", snap.CallerCanceled)
	}
}

// TestClusterCallerCancelDoesNotOpenBreaker: callers that hang up say
// nothing about the replica. Five in a row (ConsecutiveFailures'
// default) must leave the breaker closed and the next caller served
// from the model, not degraded.
func TestClusterCallerCancelDoesNotOpenBreaker(t *testing.T) {
	v, _, jobs := trainedViews(t)
	defer fault.DisarmAll()
	c, err := New(v, Config{Replicas: 1, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	fault.Arm(serve.FailpointFlush, fault.Failure{Sleep: 20 * time.Millisecond})
	req := Request{Script: jobs[0].Script, RequestedMin: 5}
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := c.Predict(ctx, req)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hung-up caller %d got %v, want its own DeadlineExceeded", i, err)
		}
	}
	resp, err := c.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || !resp.FromModel {
		t.Fatalf("five hung-up callers took the replica out of service: %+v", resp)
	}
	snap := c.Stats()
	r := snap.Replicas[0]
	if r.Breaker != BreakerClosed.String() || r.BreakerOpens != 0 || r.Failed != 0 {
		t.Fatalf("breaker %s, opens %d, failed %d; want closed, 0, 0", r.Breaker, r.BreakerOpens, r.Failed)
	}
	if snap.CallerCanceled != 5 {
		t.Fatalf("caller-canceled %d, want 5", snap.CallerCanceled)
	}
}

// TestClusterIdleRunsNoForward: an idle cluster computes nothing. The
// serve loops are the only goroutines New starts, and with no traffic
// none of them flushes a batch.
func TestClusterIdleRunsNoForward(t *testing.T) {
	v, _, _ := trainedViews(t)
	// Let goroutines of earlier tests finish exiting before counting.
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	c, err := New(v, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	if got := runtime.NumGoroutine() - before; got != c.Replicas() {
		t.Fatalf("New started %d goroutines, want %d (one serve loop per replica)", got, c.Replicas())
	}
	time.Sleep(350 * time.Millisecond)
	for _, r := range c.Stats().Replicas {
		if r.Serve.Batches != 0 {
			t.Fatalf("idle replica %d flushed %d batches", r.ID, r.Serve.Batches)
		}
	}
}

// TestClusterDeadlineDegrades: the cluster's own per-request deadline
// converts a slow replica into a fallback answer, not an error — the
// bounded-latency contract.
func TestClusterDeadlineDegrades(t *testing.T) {
	defer fault.DisarmAll()
	fault.Arm(ReplicaFailpoint(0), fault.Failure{Sleep: 200 * time.Millisecond})

	c, err := New(nil, Config{
		Replicas: 1, Serve: fastServe(),
		RequestTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	resp, err := c.Predict(context.Background(), Request{Script: "x", RequestedMin: 33})
	if err != nil {
		t.Fatalf("deadline must degrade, not error: %v", err)
	}
	if !resp.Degraded || resp.Pred.RuntimeMin != 33 {
		t.Fatalf("want requested-runtime fallback, got %+v", resp)
	}
	snap := c.Stats()
	if snap.DeadlineDegraded != 1 {
		t.Fatalf("deadline-degraded %d, want 1", snap.DeadlineDegraded)
	}
	// Unlike a caller hanging up, the cluster's own deadline is the
	// replica's failure.
	if got := snap.Replicas[0].Failed; got != 1 {
		t.Fatalf("replica failed %d after its deadline expired, want 1", got)
	}
}

// TestParsePolicy pins the CLI spellings.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"round-robin", RoundRobin}, {"least-loaded", LeastLoaded}, {"affinity", ScriptAffinity}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Policy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestBreakerStateMachine unit-tests the transitions with a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Second, HalfOpenProbes: 2})
	var now int64
	b.nowNs = func() int64 { return now }

	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
	b.Record(false)
	if !b.Allow() {
		t.Fatal("one failure must not open")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after 2 consecutive failures, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker inside cool-down must refuse")
	}
	now += int64(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cool-down elapsed: first probe must pass")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("second probe slot must pass")
	}
	if b.Allow() {
		t.Fatal("probe slots exhausted: third concurrent probe must refuse")
	}
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v after %d probe successes, want closed", got, 2)
	}

	// A half-open probe failure re-opens immediately.
	b.Record(false)
	b.Record(false)
	now += int64(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe after second cool-down must pass")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after probe failure, want open", got)
	}

	// Release hands a probe slot back without an outcome.
	now += int64(2 * time.Second)
	if !b.Allow() || !b.Allow() || b.Allow() {
		t.Fatal("half-open must admit exactly 2 probes")
	}
	b.Release()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %v after a released probe, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("released probe slot must be admissible again")
	}
}

// TestBreakerErrorRate: the windowed error-rate threshold trips without
// consecutive failures.
func TestBreakerErrorRate(t *testing.T) {
	b := newBreaker(BreakerConfig{
		ConsecutiveFailures: 1 << 30, // rate only
		ErrorRate:           0.5, MinSamples: 10, OpenFor: time.Second,
	})
	var now int64
	b.nowNs = func() int64 { return now }
	for i := 0; i < 10; i++ {
		b.Record(i%2 == 0) // alternate: never 2 consecutive failures
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v at 50%% error rate over 10 samples, want open", got)
	}
}

// TestPredCache pins stamp validity ({version, kernel}) and FIFO
// eviction.
func TestPredCache(t *testing.T) {
	c := newPredCache(2)
	p := func(min int) prionn.Prediction { return prionn.Prediction{RuntimeMin: min} }
	st := func(ver int64, k prionn.KernelKind) cacheStamp { return cacheStamp{version: ver, kernel: k} }
	f0 := st(0, prionn.KernelF32)
	c.put(1, f0, p(1))
	c.put(2, f0, p(2))
	if got, ok := c.get(1, f0); !ok || got != p(1) {
		t.Fatalf("get(1) = %+v, %v", got, ok)
	}
	if _, ok := c.get(1, st(9, prionn.KernelF32)); ok {
		t.Fatal("wrong-version get must miss")
	}
	if _, ok := c.get(1, st(0, prionn.KernelInt8)); ok {
		t.Fatal("same version, different kernel must miss: int8 and f32 answers are not interchangeable")
	}
	c.put(3, f0, p(3)) // evicts key 1 (FIFO)
	if _, ok := c.get(1, f0); ok {
		t.Fatal("FIFO eviction must drop the oldest key")
	}
	if _, ok := c.get(3, f0); !ok {
		t.Fatal("newest key must survive eviction")
	}
	q5 := st(5, prionn.KernelInt8)
	c.put(9, q5, p(9)) // stamp mismatch: dropped
	if _, ok := c.get(9, q5); ok {
		t.Fatal("put under a non-current stamp must be dropped")
	}
	c.invalidate(q5)
	if c.size() != 0 {
		t.Fatalf("invalidate left %d entries", c.size())
	}
	c.put(9, q5, p(9))
	if got, ok := c.get(9, q5); !ok || got != p(9) {
		t.Fatalf("post-invalidate put/get = %+v, %v", got, ok)
	}
	var nilCache *predCache
	if _, ok := nilCache.get(1, f0); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.put(1, f0, p(1)) // must not panic
	nilCache.invalidate(f0)
}

// TestBackoff pins the jittered-exponential bounds.
func TestBackoff(t *testing.T) {
	base, max := time.Millisecond, 50*time.Millisecond
	for attempt := 1; attempt <= 10; attempt++ {
		for _, j := range []float64{0, 0.5, 0.999999} {
			d := backoff(base, attempt, j, max)
			lo := base << uint(attempt-1) / 2
			if lo > max/2 {
				lo = max / 2
			}
			if d < lo || d > max {
				t.Fatalf("backoff(attempt=%d, jitter=%v) = %v outside [%v, %v]", attempt, j, d, lo, max)
			}
		}
	}
	// Overflow-proof: a huge attempt count caps at max.
	if d := backoff(base, 60, 0.5, max); d > max {
		t.Fatalf("overflowed backoff %v", d)
	}
}

// TestPercentile pins nearest-rank percentile math.
func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %d", got)
	}
	ns := []int64{50, 10, 40, 20, 30}
	if got := percentile(ns, 0.5); got != 30 {
		t.Fatalf("p50 = %d, want 30", got)
	}
	if got := percentile(ns, 0.99); got != 40 {
		t.Fatalf("p99 = %d, want 40 (nearest rank below)", got)
	}
	if got := percentile(ns, 1); got != 50 {
		t.Fatalf("p100 = %d, want 50", got)
	}
	if got := percentile(ns, 0); got != 10 {
		t.Fatalf("p0 = %d, want 10", got)
	}
}

// TestRetryBudgetMath pins the floor + ratio accounting.
func TestRetryBudgetMath(t *testing.T) {
	b := retryBudget{ratio: 0.5, minRetries: 2}
	if !b.allow() || !b.allow() {
		t.Fatal("floor retries must be allowed with zero requests")
	}
	if b.allow() {
		t.Fatal("third retry exceeds the floor")
	}
	for i := 0; i < 4; i++ {
		b.request()
	}
	if !b.allow() || !b.allow() {
		t.Fatal("4 requests at ratio 0.5 fund 2 more retries")
	}
	if b.allow() {
		t.Fatal("budget must be exhausted again")
	}
	if b.exhausted.Load() != 2 {
		t.Fatalf("exhausted %d, want 2", b.exhausted.Load())
	}
}
