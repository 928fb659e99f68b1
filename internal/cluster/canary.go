package cluster

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"prionn/internal/prionn"
	"prionn/internal/serve"
)

// The canary stage is the cluster half of the online-learning pipeline
// (paper §2.3's continuous retrain loop, hardened for production): a
// candidate snapshot that survived shadow evaluation is not swapped in
// blind. StartCanary routes a configured fraction of live traffic to a
// dedicated canary server holding the candidate, mirrors each canary
// request to a baseline replica, and compares the decoded predictions.
// Error-rate or disagreement-rate spikes roll the canary back
// automatically — the candidate never touches non-canary traffic — and
// a healthy observation budget makes it PromoteReady, at which point
// PromoteCanary publishes it cluster-wide through Swap.

// CanaryConfig tunes one canary deployment. The zero value of every
// field gets a sensible default from withDefaults.
type CanaryConfig struct {
	// Frac is the fraction of Predict traffic routed to the canary
	// (default 0.1, clamped to (0, 0.5]). Routing is deterministic —
	// every round(1/Frac)-th request — so tests need no statistics.
	Frac float64
	// MinObservations is how many canary observations must accumulate
	// before health verdicts (rollback or promote-ready) are rendered
	// (default 20).
	MinObservations int
	// MaxErrorRate rolls the canary back when its error rate exceeds it
	// (default 0.1).
	MaxErrorRate float64
	// MaxDisagreeRate rolls the canary back when the fraction of canary
	// answers that disagree with the baseline's exceeds it (default
	// 0.5). Disagreement is expected at a healthy rate — the candidate
	// was retrained — but a spike means the candidate diverged wildly.
	MaxDisagreeRate float64
	// PromoteAfter is the healthy observation budget: once this many
	// observations accumulate with both rates in bounds, the canary
	// becomes PromoteReady (default 50).
	PromoteAfter int
}

// withDefaults fills zero fields.
func (c CanaryConfig) withDefaults() CanaryConfig {
	if c.Frac <= 0 {
		c.Frac = 0.1
	}
	if c.Frac > 0.5 {
		c.Frac = 0.5
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 20
	}
	if c.MaxErrorRate <= 0 {
		c.MaxErrorRate = 0.1
	}
	if c.MaxDisagreeRate <= 0 {
		c.MaxDisagreeRate = 0.5
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 50
	}
	return c
}

// CanaryPhase is the lifecycle state of the canary stage.
type CanaryPhase int32

const (
	// CanaryNone: no canary is deployed.
	CanaryNone CanaryPhase = iota
	// CanaryRunning: the candidate is taking its traffic fraction.
	CanaryRunning
	// CanaryPromoteReady: the healthy budget is met; the candidate
	// stopped taking traffic and awaits PromoteCanary.
	CanaryPromoteReady
	// CanaryRolledBack: a rate spike tripped auto-rollback; the
	// candidate stopped taking traffic and awaits StopCanary.
	CanaryRolledBack
)

// String renders the phase for /stats.
func (p CanaryPhase) String() string {
	switch p {
	case CanaryRunning:
		return "running"
	case CanaryPromoteReady:
		return "promote-ready"
	case CanaryRolledBack:
		return "rolled-back"
	}
	return "none"
}

// CanaryStatus is the point-in-time canary state as /stats reports it.
type CanaryStatus struct {
	Phase         string `json:"phase"`
	Observations  int64  `json:"observations"`
	Errors        int64  `json:"errors"`
	Disagreements int64  `json:"disagreements"`
}

// canaryState is one canary deployment. The phase advances through
// atomic CAS from the serving path (Running → RolledBack,
// Running → PromoteReady) and from the ctl-locked control plane, so a
// rollback decided mid-request wins over a concurrent promotion check.
type canaryState struct {
	cfg CanaryConfig
	srv *serve.Server // holds the candidate; PromoteCanary swaps its view in

	phase         atomic.Int32
	seq           atomic.Uint64
	observations  atomic.Int64
	errors        atomic.Int64
	disagreements atomic.Int64
	every         uint64 // route every N-th request to the canary
}

// running reports whether the canary is taking traffic.
func (cs *canaryState) running() bool {
	return CanaryPhase(cs.phase.Load()) == CanaryRunning
}

// take deterministically claims every N-th request for the canary.
func (cs *canaryState) take() bool {
	return cs.seq.Add(1)%cs.every == 0
}

// verdict renders the health verdict after each observation: rate
// spikes roll back, a met healthy budget arms promotion. CAS from
// Running only — a rollback is never overturned.
func (cs *canaryState) verdict() {
	obs := cs.observations.Load()
	if obs < int64(cs.cfg.MinObservations) {
		return
	}
	errRate := float64(cs.errors.Load()) / float64(obs)
	disRate := float64(cs.disagreements.Load()) / float64(obs)
	if errRate > cs.cfg.MaxErrorRate || disRate > cs.cfg.MaxDisagreeRate {
		cs.phase.CompareAndSwap(int32(CanaryRunning), int32(CanaryRolledBack))
		return
	}
	if obs >= int64(cs.cfg.PromoteAfter) {
		cs.phase.CompareAndSwap(int32(CanaryRunning), int32(CanaryPromoteReady))
	}
}

// status snapshots the canary counters.
func (cs *canaryState) status() CanaryStatus {
	return CanaryStatus{
		Phase:         CanaryPhase(cs.phase.Load()).String(),
		Observations:  cs.observations.Load(),
		Errors:        cs.errors.Load(),
		Disagreements: cs.disagreements.Load(),
	}
}

// ErrCanaryActive is returned by StartCanary while a canary is already
// deployed (any phase: a rolled-back canary must be StopCanary'd —
// and its verdict read — before the next candidate goes out).
var ErrCanaryActive = errors.New("cluster: canary already deployed")

// ErrNoCanary is returned by the canary control plane when no canary
// is deployed.
var ErrNoCanary = errors.New("cluster: no canary deployed")

// ErrNotPromoteReady is returned by PromoteCanary unless the canary
// reached its healthy budget.
var ErrNotPromoteReady = errors.New("cluster: canary is not promote-ready")

// StartCanary deploys a candidate snapshot to the canary stage: a
// dedicated serve.Server holds it, and cfg.Frac of Predict traffic
// starts routing to it. Only one canary exists at a time.
func (c *Cluster) StartCanary(v *prionn.Inference, cfg CanaryConfig) error {
	if v == nil || !v.Trained() {
		return errors.New("cluster: canary candidate must be a trained snapshot")
	}
	cfg = cfg.withDefaults()
	cs := &canaryState{
		cfg:   cfg,
		every: uint64(math.Max(1, math.Round(1/cfg.Frac))),
	}
	cs.phase.Store(int32(CanaryRunning))
	c.ctl.Lock()
	if c.canary.Load() != nil {
		c.ctl.Unlock()
		return ErrCanaryActive
	}
	cs.srv = serve.New(v, c.cfg.Serve)
	c.canary.Store(cs)
	c.ctl.Unlock()
	c.st.canaryStarts.Add(1)
	return nil
}

// CanaryStatus reports the deployed canary's phase and counters; with
// no canary deployed the phase is "none".
func (c *Cluster) CanaryStatus() CanaryStatus {
	cs := c.canary.Load()
	if cs == nil {
		return CanaryStatus{Phase: CanaryNone.String()}
	}
	return cs.status()
}

// PromoteCanary publishes a PromoteReady candidate cluster-wide via
// Swap and dismantles the canary stage: after it returns nil, every
// replica serves the candidate and the caches were invalidated exactly
// once (one version bump). The context bounds the canary server's
// drain.
func (c *Cluster) PromoteCanary(ctx context.Context) error {
	c.ctl.Lock()
	cs := c.canary.Load()
	if cs == nil {
		c.ctl.Unlock()
		return ErrNoCanary
	}
	if CanaryPhase(cs.phase.Load()) != CanaryPromoteReady {
		c.ctl.Unlock()
		return ErrNotPromoteReady
	}
	c.swapLocked(cs.srv.View())
	c.canary.Store(nil)
	c.ctl.Unlock()
	c.st.canaryPromotions.Add(1)
	// Outside ctl: draining blocks on the canary server's loop.
	return cs.srv.Stop(ctx)
}

// StopCanary dismantles the canary stage without promoting — the
// explicit rollback lever, and the cleanup step after an auto-rollback.
// It is a no-op when no canary is deployed. The context bounds the
// canary server's drain.
func (c *Cluster) StopCanary(ctx context.Context) error {
	c.ctl.Lock()
	cs := c.canary.Load()
	if cs == nil {
		c.ctl.Unlock()
		return nil
	}
	c.canary.Store(nil)
	c.ctl.Unlock()
	c.st.canaryRollbacks.Add(1)
	return cs.srv.Stop(ctx)
}

// canaryPredict serves one claimed request from the canary server and
// mirrors it to a baseline replica for disagreement scoring. Canary
// answers are never cached: the candidate is not the published
// snapshot, so a cached canary prediction would outlive a rollback.
// Reported back: (response, true) on a canary answer; (zero, false)
// when the canary path failed and the caller must fall through to the
// normal path — a canary fault degrades the canary, never the request.
// A claim whose caller (parent) left before the canary answered is not
// an observation: it says nothing about the candidate.
func (c *Cluster) canaryPredict(ctx, parent context.Context, cs *canaryState, req Request, key uint64) (Response, bool) {
	resp, err := cs.srv.Predict(ctx, req)
	if err != nil {
		if parent.Err() != nil {
			return Response{}, false
		}
		cs.errors.Add(1)
		cs.observations.Add(1)
		c.st.canaryRequests.Add(1)
		cs.verdict()
		return Response{}, false
	}
	// Mirror to a baseline replica: same request, normal pick/dispatch.
	// Both answers decode through identical bin layouts, so any
	// divergence is a real model-output difference.
	if r := c.pick(key, 0); r != nil {
		if base, err := c.attempt(ctx, parent, r, req); err == nil && base.FromModel && resp.FromModel {
			if base.Pred != resp.Pred {
				cs.disagreements.Add(1)
			}
		}
	}
	cs.observations.Add(1)
	c.st.canaryRequests.Add(1)
	cs.verdict()
	return Response{Pred: resp.Pred, FromModel: resp.FromModel, Replica: -1, Canary: true}, true
}
