// Package cluster shards PRIONN's serving layer across N replicas: it
// runs N internal/serve coalescing servers — all holding the same
// immutable model snapshot, which inference forwards only read —
// behind a router with pluggable policies, per-request deadlines,
// budgeted retries with jittered exponential backoff, per-replica
// circuit breakers, a memoizing prediction cache, a canary stage, and
// atomic cluster-wide snapshot publication.
//
// The design contract comes from the paper's deployment (§2.3):
// predictions feed the scheduler at job-submission time, so a failing
// or slow replica must degrade a prediction, never stall a submission.
// Concretely, Predict returns an error only when the *caller's* context
// dies; every infrastructure failure — replicas erroring, breakers
// open, retry budget exhausted, per-request deadline exceeded — ends in
// the requested-runtime fallback (Response.Degraded), the same answer
// the paper's system gives before its first training event.
//
// Replicas are goroutines in one process sharing one view, so none can
// crash alone, be sick while idle, or be slower than its identical
// twin: the breaker on real traffic is the only health signal. There is
// no active prober, no replica kill/restart and no request hedging, and
// an idle cluster computes nothing.
//
// The layer is proven by a chaos harness (chaos_test.go) driving
// latency injection, error injection and snapshot churn through
// fault.Arm/fault.Here failpoints mid-traffic — an armed
// ReplicaFailpoint is a failing in-process replica — asserting that no
// request is lost or double-answered, that breakers open and recover,
// and that every model-path response stays bitwise-pure to exactly one
// published snapshot.
package cluster

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
)

// Request is one job to predict; it is exactly the serving layer's
// request shape.
type Request = serve.Request

// Response is the cluster's answer for one request.
type Response struct {
	Pred prionn.Prediction
	// FromModel is false when the prediction is the requested-runtime
	// fallback (untrained snapshot, or Degraded).
	FromModel bool
	// Cached is true when the prediction came from the memoizing
	// prediction cache instead of a forward pass.
	Cached bool
	// Degraded is true when the cluster could not obtain a model answer
	// (every replica open or erroring, retry budget exhausted, or
	// the per-request deadline expired) and answered from the
	// requested-runtime fallback instead of erroring.
	Degraded bool
	// Replica is the id of the replica that answered (the cache's home
	// replica for cached responses), or -1 for degraded and canary
	// responses.
	Replica int
	// Canary is true when the answer came from the canary stage's
	// candidate snapshot rather than the published one.
	Canary bool
}

// Policy selects how the router spreads requests over replicas.
type Policy int

const (
	// RoundRobin rotates over the replicas.
	RoundRobin Policy = iota
	// LeastLoaded prefers the replica with the fewest in-flight
	// dispatches (ties broken by lowest id).
	LeastLoaded
	// ScriptAffinity routes by script hash, so identical scripts hit the
	// same replica — and therefore its warm prediction cache shard.
	ScriptAffinity
)

// ParsePolicy maps the CLI spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin":
		return RoundRobin, nil
	case "least-loaded":
		return LeastLoaded, nil
	case "affinity":
		return ScriptAffinity, nil
	}
	return 0, errors.New("cluster: unknown policy " + strconv.Quote(s) + " (round-robin, least-loaded, affinity)")
}

// String renders the CLI spelling.
func (p Policy) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case ScriptAffinity:
		return "affinity"
	}
	return "round-robin"
}

// maxReplicas bounds the cluster size: the retry path tracks attempted
// replicas in a 64-bit mask.
const maxReplicas = 64

// Failpoint names compiled into the cluster path; the chaos harness
// arms them for latency injection (Sleep), error injection (Err), and
// deterministic schedules (After).
const (
	// FailpointRoute fires in Predict before routing. An injected error
	// here degrades the request to the fallback (the router itself
	// failing must not stall a submission); Sleep injects admission
	// latency.
	FailpointRoute = "cluster/route"
)

// ReplicaFailpoint names the per-replica dispatch failpoint: it fires
// in the dispatch path of exactly that replica, so chaos schedules can
// take down replica 2 while 0, 1, and 3 keep serving.
func ReplicaFailpoint(id int) string {
	return "cluster/replica/" + strconv.Itoa(id)
}

// Config tunes the cluster. The zero value of every field gets a
// sensible default from withDefaults; Replicas defaults to 1.
type Config struct {
	// Replicas is the number of in-process serving replicas (1..64).
	Replicas int
	// Serve configures each replica's coalescing server.
	Serve serve.Config
	// Policy is the routing policy (default RoundRobin).
	Policy Policy
	// RequestTimeout is the per-request deadline. When it expires the
	// request degrades to the requested-runtime fallback instead of
	// erroring. 0 disables.
	RequestTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per request, including the
	// first (default 3).
	MaxAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts (default 500µs), capped at MaxBackoff (default
	// 50ms).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// RetryBudget caps cluster-wide retries at this fraction of requests
	// (default 0.1), with MinRetries as an absolute floor (default 10).
	RetryBudget float64
	MinRetries  int
	// Breaker tunes each replica's circuit breaker.
	Breaker BreakerConfig
	// CacheSize is the per-replica memoizing prediction cache capacity
	// in entries; 0 disables caching. The cache is sharded by script
	// hash: an entry lives on its script's home replica, which the
	// ScriptAffinity policy routes to.
	CacheSize int
	// Seed seeds the backoff jitter stream (default 1).
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > maxReplicas {
		c.Replicas = maxReplicas
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Microsecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 50 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.1
	}
	if c.MinRetries <= 0 {
		c.MinRetries = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// replica is one serving replica plus its routing state. srv is set
// once in New and never replaced.
type replica struct {
	id  int
	srv *serve.Server

	inflight atomic.Int64

	br    *breaker
	cache *predCache

	dispatched atomic.Int64 // successful dispatches
	failed     atomic.Int64 // failed dispatches (injected, stopped, overloaded)
	cacheHits  atomic.Int64 // hits served from this replica's cache shard
}

// Cluster is N serving replicas behind a fault-tolerant router. Create
// with New; all methods are safe for concurrent use.
type Cluster struct {
	cfg Config

	replicas []*replica

	// version counts published snapshots; cache entries are only valid
	// under the cacheStamp — {version, kernel kind} — they were computed
	// at. Bumped by Swap *after* every replica has the new snapshot (see
	// Swap for the ordering argument).
	version atomic.Int64
	// view is the published snapshot: the one every replica's server
	// holds.
	view atomic.Pointer[prionn.Inference]

	// ctl serializes the control plane (Swap, canary start/promote/stop)
	// so publications and canary transitions never interleave.
	ctl sync.Mutex

	// canary is the active canary deployment, nil when none. Stored
	// under ctl; loaded lock-free on the serving path.
	canary atomic.Pointer[canaryState]

	rr     atomic.Uint64 // round-robin cursor
	jitter jitterSource
	budget retryBudget
	lat    latencyTracker

	st clusterStats
}

// New builds the cluster: each replica gets its own serve.Server over
// the shared view (nil is allowed — every replica serves the
// requested-runtime fallback until Swap publishes a trained snapshot).
// The serve loops are the only goroutines it starts. The error is
// always nil; the signature predates the shared view.
func New(view *prionn.Inference, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		jitter: jitterSource{seed: uint64(cfg.Seed)},
		budget: retryBudget{ratio: cfg.RetryBudget, minRetries: int64(cfg.MinRetries)},
	}
	c.view.Store(view)
	st0 := cacheStamp{version: 0, kernel: viewKernel(view)}
	for i := 0; i < cfg.Replicas; i++ {
		r := &replica{
			id:    i,
			srv:   serve.New(view, cfg.Serve),
			br:    newBreaker(cfg.Breaker),
			cache: newPredCache(cfg.CacheSize),
		}
		r.cache.invalidate(st0) // install the initial {version, kernel} stamp
		c.replicas = append(c.replicas, r)
	}
	return c, nil
}

// viewKernel names the kernel kind a snapshot serves with; the nil
// (fallback-only) view reports the float32 default.
func viewKernel(v *prionn.Inference) prionn.KernelKind {
	if v == nil {
		return prionn.KernelF32
	}
	return v.Kernel()
}

// stamp is the cluster's current cache-validity stamp. The version and
// view are separate atomics, so a read racing a Swap can observe a
// mixed {old version, new kernel} pair — which matches neither the old
// nor the new cache stamp, so the race degrades to a cache miss, never
// a stale hit.
func (c *Cluster) stamp() cacheStamp {
	return cacheStamp{version: c.version.Load(), kernel: viewKernel(c.view.Load())}
}

// Replicas returns the cluster size.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Predict answers one job-submission prediction. It routes to a
// replica by policy, memoizes deterministic model answers, retries
// transient failures within the retry budget, and — when no replica
// can answer — degrades to the requested-runtime fallback. The only
// error it returns is the caller's own context error; infrastructure
// failure never stalls a submission.
func (c *Cluster) Predict(ctx context.Context, req Request) (Response, error) {
	c.st.requests.Add(1)
	c.budget.request()
	if err := fault.Here(FailpointRoute); err != nil {
		c.st.routeFaults.Add(1)
		return c.degrade(req), nil
	}

	parent := ctx
	if c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}

	key := scriptKey(req.Script, req.InputDeck)

	// Canary claim: before the cache, so canary traffic always exercises
	// the candidate (a cache hit would silently starve the canary of
	// observations). A failed canary path falls through to the normal
	// route — canary faults never degrade the caller's request.
	if cs := c.canary.Load(); cs != nil && cs.running() && cs.take() {
		if resp, ok := c.canaryPredict(ctx, parent, cs, req, key); ok {
			return resp, nil
		}
		if parent.Err() != nil {
			c.st.callerCanceled.Add(1)
			return Response{}, parent.Err()
		}
	}

	st := c.stamp()
	if home := c.home(key); home.cache != nil {
		if pred, ok := home.cache.get(key, st); ok {
			home.cacheHits.Add(1)
			return Response{Pred: pred, FromModel: true, Cached: true, Replica: home.id}, nil
		}
		c.st.cacheMisses.Add(1)
	}

	var tried uint64
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		r := c.pick(key, tried)
		if r == nil {
			break // nothing dispatchable: degrade
		}
		tried |= 1 << uint(r.id)
		resp, err := c.attempt(ctx, parent, r, req)
		if err == nil {
			if resp.FromModel {
				c.home(key).cache.put(key, st, resp.Pred)
			}
			return Response{Pred: resp.Pred, FromModel: resp.FromModel, Replica: r.id}, nil
		}
		if parent.Err() != nil {
			// The caller itself is gone; an answer has no reader.
			c.st.callerCanceled.Add(1)
			return Response{}, parent.Err()
		}
		if ctx.Err() != nil {
			// Our per-request deadline fired: the bounded-latency contract
			// says answer now, from the fallback.
			c.st.deadlineDegraded.Add(1)
			break
		}
		if attempt+1 >= c.cfg.MaxAttempts {
			break
		}
		if !c.budget.allow() {
			break
		}
		c.st.retries.Add(1)
		d := backoff(c.cfg.RetryBackoff, attempt+1, c.jitter.next(), c.cfg.MaxBackoff)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return c.degrade(req), nil
}

// degrade mints the requested-runtime fallback response (the paper's
// §2.3 pre-first-training contract, reused as the cluster's bottom
// rung: a submission always gets *an* answer within its deadline).
func (c *Cluster) degrade(req Request) Response {
	c.st.degraded.Add(1)
	return Response{
		Pred:     prionn.Prediction{RuntimeMin: req.RequestedMin},
		Degraded: true,
		Replica:  -1,
	}
}

// home returns the replica owning a script's cache shard.
func (c *Cluster) home(key uint64) *replica {
	return c.replicas[int(key%uint64(len(c.replicas)))]
}

// pick selects the next replica to try, honoring the routing policy,
// the tried-mask, and each candidate's circuit breaker. Every non-nil
// pick consumes one breaker Allow, which the subsequent attempt pairs
// with exactly one Record or Release. Returns nil when no replica is
// dispatchable.
func (c *Cluster) pick(key uint64, tried uint64) *replica {
	n := len(c.replicas)
	var order [maxReplicas]int
	switch c.cfg.Policy {
	case LeastLoaded:
		// Selection sort by (inflight, id); n is at most 64 and typically
		// single digits.
		var load [maxReplicas]int64
		for i := 0; i < n; i++ {
			order[i] = i
			load[i] = c.replicas[i].inflight.Load()
		}
		for i := 0; i < n; i++ {
			min := i
			for j := i + 1; j < n; j++ {
				if load[order[j]] < load[order[min]] ||
					(load[order[j]] == load[order[min]] && order[j] < order[min]) {
					min = j
				}
			}
			order[i], order[min] = order[min], order[i]
		}
	case ScriptAffinity:
		start := int(key % uint64(n))
		for i := 0; i < n; i++ {
			order[i] = (start + i) % n
		}
	default: // RoundRobin
		start := int((c.rr.Add(1) - 1) % uint64(n))
		for i := 0; i < n; i++ {
			order[i] = (start + i) % n
		}
	}
	for i := 0; i < n; i++ {
		r := c.replicas[order[i]]
		if tried&(1<<uint(r.id)) == 0 && r.br.Allow() {
			return r
		}
	}
	return nil
}

// attempt dispatches one request to one replica through its failpoint,
// recording the outcome in the replica's breaker and the cluster's
// latency tracker. Pairs with the breaker Allow its pick consumed. ctx
// carries the cluster's own deadline; parent is the caller's context,
// and an attempt that fails after the caller left says nothing about
// the replica, so it hands its breaker slot back without an outcome.
func (c *Cluster) attempt(ctx, parent context.Context, r *replica, req Request) (serve.Response, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if err := fault.Here(ReplicaFailpoint(r.id)); err != nil {
		r.failed.Add(1)
		r.br.Record(false)
		return serve.Response{}, err
	}
	t0 := time.Now()
	resp, err := r.srv.Predict(ctx, req)
	d := time.Since(t0)
	if err != nil {
		if parent.Err() != nil {
			r.br.Release()
		} else {
			r.failed.Add(1)
			r.br.Record(false)
		}
		return resp, err
	}
	r.dispatched.Add(1)
	r.br.Record(true)
	c.lat.record(d)
	return resp, nil
}

// Swap publishes a new snapshot to every replica: one pointer store per
// server, all of the same *Inference (inference forwards only read it).
// The per-replica serve.Swap keeps the PR 5 invariant that no batch
// mixes snapshot versions — extended cluster-wide, no batch on any
// replica mixes versions, because every replica's flush loads exactly
// one snapshot pointer.
//
// Ordering: replicas are swapped first, the cache stamp — snapshot
// version plus kernel kind, so publishing an int8 snapshot over a
// float32 one (or back) always reads as a new stamp — is bumped and the
// caches invalidated after. A forward that raced the swap can therefore
// only insert a cache entry under the *old* stamp — erased by the
// invalidation — never a stale prediction under the new one.
//
// Nothing in a swap can fail, so it is all-or-nothing by construction
// and always returns nil; the error result predates the shared view.
func (c *Cluster) Swap(v *prionn.Inference) error {
	c.ctl.Lock()
	defer c.ctl.Unlock()
	c.swapLocked(v)
	return nil
}

// swapLocked is Swap's body; the caller holds ctl.
func (c *Cluster) swapLocked(v *prionn.Inference) {
	c.view.Store(v)
	for _, r := range c.replicas {
		r.srv.Swap(v)
	}
	st := cacheStamp{version: c.version.Add(1), kernel: viewKernel(v)}
	for _, r := range c.replicas {
		r.cache.invalidate(st)
	}
	c.st.swaps.Add(1)
}

// View returns the published snapshot (nil if none).
func (c *Cluster) View() *prionn.Inference { return c.view.Load() }

// Stop shuts the cluster down: every replica, and the canary server if
// one is deployed, drains gracefully (already-admitted requests are
// answered). The context bounds the whole shutdown. Stop is idempotent.
func (c *Cluster) Stop(ctx context.Context) error {
	var firstErr error
	for _, r := range c.replicas {
		if err := r.srv.Stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if cs := c.canary.Load(); cs != nil {
		if err := cs.srv.Stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
