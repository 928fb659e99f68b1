package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
)

// The chaos harness: client goroutines push a fixed request set through
// the cluster while a seeded schedule injects faults — latency and
// errors through the per-replica failpoints (an armed failpoint is a
// failing in-process replica), snapshot churn through Swap. The
// invariants asserted afterwards are the tentpole's contract:
//
//  1. exactly-once: every submitted request returns exactly one
//     response, none error (the callers' contexts stay alive);
//  2. snapshot purity: every model-path answer is bitwise equal to one
//     published snapshot's single-process prediction for that script —
//     never a blend, never a stale cache entry;
//  3. degradation: every degraded answer echoes the request's own
//     requested runtime (the paper-§2.3 fallback), so the scheduler is
//     never stalled and never handed a fabricated number.
//
// The schedule is driven by a seeded PRNG, so a failure reproduces
// under `-run TestClusterChaos... -count=1` with the same seed.

// chaosConfig turns every resilience mechanism on at once with
// aggressive timing, so mechanisms interact during the run instead of
// idling: fast breakers, caching over affinity routing, and a generous
// retry budget.
func chaosConfig() Config {
	return Config{
		Replicas:     4,
		Serve:        fastServe(),
		Policy:       ScriptAffinity,
		CacheSize:    256,
		MaxAttempts:  4,
		RetryBackoff: 100 * time.Microsecond,
		MaxBackoff:   2 * time.Millisecond,
		RetryBudget:  0.5,
		MinRetries:   50,
		Breaker: BreakerConfig{
			ConsecutiveFailures: 3,
			OpenFor:             10 * time.Millisecond,
			HalfOpenProbes:      2,
		},
		Seed: 7,
	}
}

// chaosAction is one step kind in the seeded schedule.
type chaosAction int

const (
	chaosLatency chaosAction = iota // arm Sleep on a random replica
	chaosError                      // arm Err on a random replica
	chaosHeal                       // disarm a random replica's failpoint
	chaosSwap                       // publish the other snapshot
)

// runChaos drives the harness: 6 clients x 50 requests against a
// 4-replica cluster under the seeded schedule, allowing only the given
// action kinds. It returns the final stats snapshot after asserting the
// three invariants above.
func runChaos(t *testing.T, seed int64, allowed []chaosAction) Snapshot {
	t.Helper()
	v1, v2, jobs := trainedViews(t)

	// Reference answers, computed single-process before the cluster
	// exists: purity means every model answer matches one of these.
	want1 := make(map[string]prionn.Prediction, len(jobs))
	want2 := make(map[string]prionn.Prediction, len(jobs))
	for _, j := range jobs {
		if _, ok := want1[j.Script]; !ok {
			want1[j.Script] = v1.PredictOne(j.Script)
			want2[j.Script] = v2.PredictOne(j.Script)
		}
	}

	c, err := New(v1, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	const clients, perClient = 6, 50
	total := clients * perClient
	type outcome struct {
		script    string
		requested int
		resp      Response
		err       error
	}
	outcomes := make([]outcome, total)
	var answered atomic.Int64

	clientsDone := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := g*perClient + i
				j := jobs[idx%len(jobs)]
				// A per-request requested runtime so a degraded answer is
				// checkably *this* request's fallback, not another's.
				req := Request{Script: j.Script, RequestedMin: 1000 + idx}
				resp, err := c.Predict(context.Background(), req)
				outcomes[idx] = outcome{j.Script, req.RequestedMin, resp, err}
				answered.Add(1)
			}
		}(g)
	}
	go func() {
		wg.Wait()
		close(clientsDone)
	}()

	// The seeded chaos schedule. Everything it arms it also disarms
	// before returning, so the final drain runs on a healthy cluster.
	rng := rand.New(rand.NewSource(seed))
	views := [2]*prionn.Inference{v1, v2}
	nextView := 1
	steps := 0
	for done := false; !done; {
		select {
		case <-clientsDone:
			done = true
			continue
		default:
		}
		steps++
		id := rng.Intn(c.Replicas())
		switch allowed[rng.Intn(len(allowed))] {
		case chaosLatency:
			fault.Arm(ReplicaFailpoint(id), fault.Failure{
				Sleep: time.Duration(1+rng.Intn(4)) * time.Millisecond,
			})
		case chaosError:
			fault.Arm(ReplicaFailpoint(id), fault.Failure{Err: errors.New("chaos: injected dispatch error")})
		case chaosHeal:
			fault.Disarm(ReplicaFailpoint(id))
		case chaosSwap:
			if err := c.Swap(views[nextView]); err != nil {
				t.Errorf("chaos swap: %v", err)
			}
			nextView = 1 - nextView
		}
		time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
	}
	fault.DisarmAll()
	wg.Wait()

	// Invariant 1: exactly-once, no errors.
	if got := answered.Load(); got != int64(total) {
		t.Fatalf("answered %d of %d requests", got, total)
	}
	var model, cached, degraded int
	for idx, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d returned an error despite a live caller: %v", idx, o.err)
		}
		switch {
		// Invariant 2: snapshot purity for every model-path answer.
		case o.resp.FromModel:
			model++
			if o.resp.Cached {
				cached++
			}
			if o.resp.Pred != want1[o.script] && o.resp.Pred != want2[o.script] {
				t.Fatalf("request %d: prediction %+v matches neither snapshot (%+v / %+v)",
					idx, o.resp.Pred, want1[o.script], want2[o.script])
			}
		// Invariant 3: degraded answers echo this request's fallback.
		case o.resp.Degraded:
			degraded++
			if o.resp.Pred.RuntimeMin != o.requested {
				t.Fatalf("request %d: degraded answer %d != requested %d",
					idx, o.resp.Pred.RuntimeMin, o.requested)
			}
			if o.resp.Replica != -1 {
				t.Fatalf("request %d: degraded answer claims replica %d", idx, o.resp.Replica)
			}
		default:
			// Trained snapshots are published the whole run, so a
			// non-degraded fallback (untrained replica) is impossible.
			t.Fatalf("request %d: response neither model-path nor degraded: %+v", idx, o.resp)
		}
	}
	snap := c.Stats()
	if snap.Requests < int64(total) {
		t.Fatalf("cluster saw %d requests, clients sent %d", snap.Requests, total)
	}
	t.Logf("chaos seed %d: %d steps; %d model (%d cached), %d degraded; stats:\n%s",
		seed, steps, model, cached, degraded, snap)
	return snap
}

// TestClusterChaosLatency: pure latency injection. Nothing errors, so
// nothing may degrade for breaker reasons — every answer must be a
// model answer.
func TestClusterChaosLatency(t *testing.T) {
	snap := runChaos(t, 11, []chaosAction{chaosLatency, chaosHeal})
	if snap.Degraded > snap.DeadlineDegraded {
		t.Fatalf("latency-only chaos degraded %d requests beyond the %d deadline degradations",
			snap.Degraded, snap.DeadlineDegraded)
	}
}

// TestClusterChaosErrors: error injection with healing. Failed
// dispatches must be retried or degraded, never surfaced to callers.
func TestClusterChaosErrors(t *testing.T) {
	runChaos(t, 22, []chaosAction{chaosError, chaosHeal})
}

// TestClusterChaosMixed: everything at once, including snapshot churn —
// the full robustness claim of the PR.
func TestClusterChaosMixed(t *testing.T) {
	runChaos(t, 44, []chaosAction{chaosLatency, chaosError, chaosHeal, chaosSwap})
}

// TestClusterChaosBreakerTransitions pins the breaker behavior the
// random schedules can't assert deterministically: sustained injected
// errors on half the fleet open exactly those breakers mid-traffic, and
// healing closes them again while traffic continues.
func TestClusterChaosBreakerTransitions(t *testing.T) {
	_, _, jobs := trainedViews(t)
	defer fault.DisarmAll()

	cfg := chaosConfig()
	cfg.CacheSize = 0 // cache hits bypass dispatch and would starve the breakers
	c, err := New(view1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			j := jobs[i%len(jobs)]
			if _, err := c.Predict(context.Background(), Request{Script: j.Script, RequestedMin: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}

	fault.Arm(ReplicaFailpoint(0), fault.Failure{Err: errors.New("chaos: injected")})
	fault.Arm(ReplicaFailpoint(1), fault.Failure{Err: errors.New("chaos: injected")})
	deadline := time.Now().Add(10 * time.Second)
	for c.replicas[0].br.State() != BreakerOpen || c.replicas[1].br.State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never opened: %v / %v", c.replicas[0].br.State(), c.replicas[1].br.State())
		}
		push(8)
	}

	fault.DisarmAll()
	for c.replicas[0].br.State() != BreakerClosed || c.replicas[1].br.State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed: %v / %v", c.replicas[0].br.State(), c.replicas[1].br.State())
		}
		push(8)
		time.Sleep(2 * time.Millisecond) // let the 10ms cool-down elapse
	}
	snap := c.Stats()
	for _, id := range []int{0, 1} {
		r := snap.Replicas[id]
		if r.BreakerOpens < 1 || r.BreakerHalfOpens < 1 || r.BreakerCloses < 1 {
			t.Fatalf("replica %d transitions opens=%d halfOpens=%d closes=%d, want all >= 1",
				id, r.BreakerOpens, r.BreakerHalfOpens, r.BreakerCloses)
		}
	}
	for _, id := range []int{2, 3} {
		if got := snap.Replicas[id].BreakerOpens; got != 0 {
			t.Fatalf("healthy replica %d opened its breaker %d times", id, got)
		}
	}
}
