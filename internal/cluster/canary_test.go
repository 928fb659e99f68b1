package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
)

// TestClusterSharesOneView: replicas and the canary server hold the
// published *Inference itself, never a copy — after New, Swap and
// StartCanary, every server's View() is pointer-identical to
// Cluster.View() (the canary's to the candidate).
func TestClusterSharesOneView(t *testing.T) {
	v1, v2, _ := trainedViews(t)
	c, err := New(v1, Config{Replicas: 3, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	check := func(stage string, want *prionn.Inference) {
		t.Helper()
		if got := c.View(); got != want {
			t.Fatalf("%s: Cluster.View() = %p, want %p", stage, got, want)
		}
		for _, r := range c.replicas {
			if got := r.srv.View(); got != want {
				t.Fatalf("%s: replica %d holds %p, want the shared %p", stage, r.id, got, want)
			}
		}
	}
	check("New", v1)
	if err := c.Swap(v2); err != nil {
		t.Fatal(err)
	}
	check("Swap", v2)
	if err := c.StartCanary(v1, CanaryConfig{}); err != nil {
		t.Fatal(err)
	}
	check("StartCanary", v2)
	if got := c.canary.Load().srv.View(); got != v1 {
		t.Fatalf("canary server holds %p, want the candidate %p", got, v1)
	}
}

// TestCanaryPromotion drives the happy path: a healthy candidate takes
// its traffic fraction, meets the observation budget, becomes
// PromoteReady, and is promoted atomically — one version bump, caches
// invalidated exactly once, every replica then serving the candidate.
func TestCanaryPromotion(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	c, err := New(v1, Config{
		Replicas: 2, Serve: fastServe(), Policy: ScriptAffinity,
		CacheSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	ccfg := CanaryConfig{Frac: 0.5, MinObservations: 5, PromoteAfter: 10, MaxDisagreeRate: 1}
	if err := c.StartCanary(v2, ccfg); err != nil {
		t.Fatal(err)
	}
	if err := c.StartCanary(v2, ccfg); !errors.Is(err, ErrCanaryActive) {
		t.Fatalf("second StartCanary returned %v, want ErrCanaryActive", err)
	}
	if err := c.PromoteCanary(context.Background()); !errors.Is(err, ErrNotPromoteReady) {
		t.Fatalf("early PromoteCanary returned %v, want ErrNotPromoteReady", err)
	}

	// Drive traffic until the healthy budget is met. Canary answers must
	// be the candidate's bitwise predictions; non-canary answers the old
	// view's; and canary answers must never enter the cache.
	sawCanary := 0
	for i := 0; i < 200 && c.CanaryStatus().Phase != CanaryPromoteReady.String(); i++ {
		script := jobs[i%8].Script
		resp, err := c.Predict(context.Background(), Request{Script: script})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Canary {
			sawCanary++
			if resp.Cached {
				t.Fatal("canary answer served from cache")
			}
			if want := v2.PredictOne(script); resp.Pred != want {
				t.Fatalf("canary answer %+v, want candidate's %+v", resp.Pred, want)
			}
		} else if !resp.Cached {
			if want := v1.PredictOne(script); resp.Pred != want {
				t.Fatalf("baseline answer %+v, want published view's %+v", resp.Pred, want)
			}
		}
	}
	if sawCanary == 0 {
		t.Fatal("no request was routed to the canary")
	}
	st := c.CanaryStatus()
	if st.Phase != CanaryPromoteReady.String() {
		t.Fatalf("canary phase %q after healthy budget, want promote-ready (%+v)", st.Phase, st)
	}

	v0 := c.version.Load()
	if err := c.PromoteCanary(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.version.Load(); got != v0+1 {
		t.Fatalf("promotion bumped version %d → %d, want exactly one bump", v0, got)
	}
	if c.CanaryStatus().Phase != CanaryNone.String() {
		t.Fatal("canary stage still deployed after promotion")
	}
	// Post-promotion: every answer is the candidate's, none canary.
	for i := 0; i < 8; i++ {
		script := jobs[i].Script
		resp, err := c.Predict(context.Background(), Request{Script: script})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Canary {
			t.Fatal("canary answer after promotion")
		}
		if want := v2.PredictOne(script); resp.Pred != want {
			t.Fatalf("post-promotion answer %+v, want candidate's %+v", resp.Pred, want)
		}
	}
	sn := c.Stats()
	if sn.CanaryPromotions != 1 || sn.CanaryStarts != 1 {
		t.Fatalf("stats: %d starts, %d promotions, want 1 and 1", sn.CanaryStarts, sn.CanaryPromotions)
	}
}

// TestCanaryAutoRollback: a candidate whose canary server errors past
// the rate threshold is rolled back automatically — it stops taking
// traffic, never serves non-canary answers, and the published view is
// untouched (version unchanged, baseline answers bitwise-pure to it).
func TestCanaryAutoRollback(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	c, err := New(v1, Config{Replicas: 2, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	if err := c.StartCanary(v2, CanaryConfig{Frac: 0.5, MinObservations: 4, PromoteAfter: 100}); err != nil {
		t.Fatal(err)
	}
	// Kill the canary server: every claimed request then errors with
	// ErrStopped, deterministically, without touching the baseline
	// replicas (serve.FailpointFlush would hit them too).
	cs := c.canary.Load()
	if cs == nil {
		t.Fatal("no canary deployed")
	}
	if err := cs.srv.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	v0 := c.version.Load()
	want := make(map[string]struct{})
	for i := 0; i < 40; i++ {
		script := jobs[i%8].Script
		resp, err := c.Predict(context.Background(), Request{Script: script})
		if err != nil {
			t.Fatal(err)
		}
		// The canary path errors on every claim, so the caller always
		// falls through to the published view.
		if resp.Canary {
			t.Fatal("dead canary served an answer")
		}
		if w := v1.PredictOne(script); resp.Pred != w {
			t.Fatalf("baseline answer %+v, want published view's %+v", resp.Pred, w)
		}
		want[script] = struct{}{}
	}
	st := c.CanaryStatus()
	if st.Phase != CanaryRolledBack.String() {
		t.Fatalf("canary phase %q, want rolled-back (%+v)", st.Phase, st)
	}
	if st.Errors == 0 {
		t.Fatal("rollback with zero recorded errors")
	}
	if got := c.version.Load(); got != v0 {
		t.Fatalf("rolled-back canary bumped version %d → %d", v0, got)
	}
	if err := c.PromoteCanary(context.Background()); !errors.Is(err, ErrNotPromoteReady) {
		t.Fatalf("PromoteCanary on rolled-back canary returned %v, want ErrNotPromoteReady", err)
	}
	if err := c.StopCanary(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.CanaryStatus().Phase != CanaryNone.String() {
		t.Fatal("canary stage still deployed after StopCanary")
	}
	if sn := c.Stats(); sn.CanaryRollbacks != 1 {
		t.Fatalf("stats: %d rollbacks, want 1", sn.CanaryRollbacks)
	}
}

// TestCanaryCallerCancelIsNotAnObservation: a claimed request whose
// caller hangs up before the canary answers says nothing about the
// candidate — it is neither an error nor an observation, so hung-up
// callers cannot roll a healthy canary back.
func TestCanaryCallerCancelIsNotAnObservation(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	defer fault.DisarmAll()
	c, err := New(v1, Config{Replicas: 1, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)
	if err := c.StartCanary(v2, CanaryConfig{Frac: 0.5, MinObservations: 2, PromoteAfter: 100}); err != nil {
		t.Fatal(err)
	}

	fault.Arm(serve.FailpointFlush, fault.Failure{Sleep: 20 * time.Millisecond})
	const n = 8 // every second one is claimed by the canary
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := c.Predict(ctx, Request{Script: jobs[0].Script})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("hung-up caller %d got %v, want its own DeadlineExceeded", i, err)
		}
	}
	st := c.CanaryStatus()
	if st.Phase != CanaryRunning.String() || st.Errors != 0 || st.Observations != 0 {
		t.Fatalf("hung-up callers were scored against the canary: %+v", st)
	}
	if got := c.Stats().CallerCanceled; got != n {
		t.Fatalf("caller-canceled %d, want %d", got, n)
	}
}

// TestCanaryDisagreementRollback: a candidate that diverges from the
// baseline on too many answers is rolled back on the disagreement rate
// alone — no errors involved.
func TestCanaryDisagreementRollback(t *testing.T) {
	v1, v2, jobs := trainedViews(t)
	// v1 vs v2 disagree on most scripts (different training points);
	// MaxDisagreeRate below the natural divergence trips the rollback.
	diverging := 0
	for i := 0; i < 8; i++ {
		if v1.PredictOne(jobs[i].Script) != v2.PredictOne(jobs[i].Script) {
			diverging++
		}
	}
	if diverging == 0 {
		t.Skip("views agree on every probe script; disagreement unobservable")
	}
	c, err := New(v1, Config{Replicas: 2, Serve: fastServe()})
	if err != nil {
		t.Fatal(err)
	}
	defer mustStop(t, c)

	if err := c.StartCanary(v2, CanaryConfig{
		Frac: 0.5, MinObservations: 8, PromoteAfter: 1000,
		MaxDisagreeRate: 0.01, MaxErrorRate: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && c.CanaryStatus().Phase == CanaryRunning.String(); i++ {
		if _, err := c.Predict(context.Background(), Request{Script: jobs[i%8].Script}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CanaryStatus()
	if st.Phase != CanaryRolledBack.String() {
		t.Fatalf("canary phase %q, want rolled-back (%+v)", st.Phase, st)
	}
	if st.Disagreements == 0 {
		t.Fatal("rollback with zero recorded disagreements")
	}
	if err := c.StopCanary(context.Background()); err != nil {
		t.Fatal(err)
	}
}
