package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"prionn/internal/serve"
)

// clusterStats is the router's atomic counter block.
type clusterStats struct {
	requests         atomic.Int64 // Predict calls
	retries          atomic.Int64 // retry attempts dispatched
	degraded         atomic.Int64 // requests answered from the fallback ladder
	deadlineDegraded atomic.Int64 // degradations caused by the per-request deadline
	callerCanceled   atomic.Int64 // requests whose caller context died
	routeFaults      atomic.Int64 // injected routing failures (FailpointRoute)
	cacheMisses      atomic.Int64 // cache lookups that missed (cache enabled only)
	swaps            atomic.Int64 // cluster-wide snapshot publications
	canaryStarts     atomic.Int64 // canary deployments started
	canaryPromotions atomic.Int64 // canaries promoted to full swap
	canaryRollbacks  atomic.Int64 // canaries stopped without promotion
	canaryRequests   atomic.Int64 // requests claimed by the canary stage
}

// ReplicaSnapshot is one replica's point-in-time state as /stats
// reports it.
type ReplicaSnapshot struct {
	ID      int    `json:"id"`
	Breaker string `json:"breaker"`

	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`

	Inflight   int64 `json:"inflight"`
	Dispatched int64 `json:"dispatched"`
	Failed     int64 `json:"failed"`

	CacheHits int64 `json:"cache_hits"`
	CacheSize int   `json:"cache_size"`

	Serve serve.Snapshot `json:"serve"`
}

// Snapshot is the cluster-wide point-in-time counter copy. Individual
// loads are atomic; the copy as a whole is not a consistent cut, which
// is fine for monitoring.
type Snapshot struct {
	// Kernel is the published snapshot's serving kernel kind ("f32" or
	// "int8"; the nil fallback-only view reports "f32").
	Kernel string `json:"kernel"`

	Requests         int64 `json:"requests"`
	Retries          int64 `json:"retries"`
	BudgetExhausted  int64 `json:"budget_exhausted"`
	Degraded         int64 `json:"degraded"`
	DeadlineDegraded int64 `json:"deadline_degraded"`
	CallerCanceled   int64 `json:"caller_canceled"`
	RouteFaults      int64 `json:"route_faults"`
	Swaps            int64 `json:"swaps"`
	// Hedges is always 0; the field predates the removal of hedging and
	// stays because cmd/prionnbench reads it for cluster.hedges.
	Hedges int64 `json:"hedges"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Canary is the canary stage's phase and counters (phase "none"
	// when no canary is deployed); the lifetime counters below survive
	// individual canary deployments.
	Canary           CanaryStatus `json:"canary"`
	CanaryStarts     int64        `json:"canary_starts"`
	CanaryPromotions int64        `json:"canary_promotions"`
	CanaryRollbacks  int64        `json:"canary_rollbacks"`
	CanaryRequests   int64        `json:"canary_requests"`

	// P50Ns/P99Ns are dispatch-latency percentiles over the recent
	// latency window (model-path attempts only; cache hits don't count).
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`

	Replicas []ReplicaSnapshot `json:"replicas"`
}

// Stats returns a point-in-time copy of the cluster counters, including
// one ReplicaSnapshot per replica.
func (c *Cluster) Stats() Snapshot {
	var out Snapshot
	out.Kernel = string(viewKernel(c.view.Load()))
	out.Requests = c.st.requests.Load()
	out.Retries = c.st.retries.Load()
	out.BudgetExhausted = c.budget.exhausted.Load()
	out.Degraded = c.st.degraded.Load()
	out.DeadlineDegraded = c.st.deadlineDegraded.Load()
	out.CallerCanceled = c.st.callerCanceled.Load()
	out.RouteFaults = c.st.routeFaults.Load()
	out.Swaps = c.st.swaps.Load()
	out.CacheMisses = c.st.cacheMisses.Load()
	out.Canary = c.CanaryStatus()
	out.CanaryStarts = c.st.canaryStarts.Load()
	out.CanaryPromotions = c.st.canaryPromotions.Load()
	out.CanaryRollbacks = c.st.canaryRollbacks.Load()
	out.CanaryRequests = c.st.canaryRequests.Load()
	out.P50Ns = c.lat.percentileNs(0.50)
	out.P99Ns = c.lat.percentileNs(0.99)
	for _, r := range c.replicas {
		opens, halfOpens, closes := r.br.counters()
		rs := ReplicaSnapshot{
			ID:               r.id,
			Breaker:          r.br.State().String(),
			BreakerOpens:     opens,
			BreakerHalfOpens: halfOpens,
			BreakerCloses:    closes,
			Inflight:         r.inflight.Load(),
			Dispatched:       r.dispatched.Load(),
			Failed:           r.failed.Load(),
			CacheHits:        r.cacheHits.Load(),
			CacheSize:        r.cache.size(),
			Serve:            r.srv.Stats(),
		}
		out.CacheHits += rs.CacheHits
		out.Replicas = append(out.Replicas, rs)
	}
	if lookups := out.CacheHits + out.CacheMisses; lookups > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(lookups)
	}
	return out
}

// String renders the snapshot as the multi-line block `prionnd -stats`
// prints in cluster mode.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster [%s]: %d requests, %d retries (%d budget-exhausted), %d degraded (%d deadline), %d swaps\n",
		sn.Kernel, sn.Requests, sn.Retries, sn.BudgetExhausted, sn.Degraded, sn.DeadlineDegraded, sn.Swaps)
	if sn.CacheHits+sn.CacheMisses > 0 {
		fmt.Fprintf(&b, "cache: %d hits, %d misses (%.1f%% hit rate)\n",
			sn.CacheHits, sn.CacheMisses, 100*sn.CacheHitRate)
	}
	if sn.CanaryStarts > 0 {
		fmt.Fprintf(&b, "canary [%s]: %d observations (%d errors, %d disagreements); lifetime %d starts, %d promoted, %d rolled back, %d requests\n",
			sn.Canary.Phase, sn.Canary.Observations, sn.Canary.Errors, sn.Canary.Disagreements,
			sn.CanaryStarts, sn.CanaryPromotions, sn.CanaryRollbacks, sn.CanaryRequests)
	}
	if sn.P50Ns > 0 {
		fmt.Fprintf(&b, "dispatch latency: p50 %v, p99 %v\n",
			time.Duration(sn.P50Ns), time.Duration(sn.P99Ns))
	}
	for _, r := range sn.Replicas {
		fmt.Fprintf(&b, "replica %d [%s]: %d dispatched, %d failed, %d cache hits; opens %d, closes %d\n",
			r.ID, r.Breaker, r.Dispatched, r.Failed, r.CacheHits, r.BreakerOpens, r.BreakerCloses)
	}
	return b.String()
}
