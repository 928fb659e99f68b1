package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// retryBudget bounds cluster-wide retry amplification: retries may be
// at most Ratio of the requests seen so far, plus a MinRetries floor so
// a cold cluster can still retry at all. The classic failure mode this
// prevents: every replica slows down, every request retries MaxAttempts
// times, and the cluster DDoSes itself with 3x its own traffic. With a
// budget, sustained failure degrades to at most (1+Ratio)x load and the
// excess requests take the fallback ladder instead.
type retryBudget struct {
	ratio      float64
	minRetries int64

	requests  atomic.Int64
	retries   atomic.Int64
	exhausted atomic.Int64
}

// request notes one incoming cluster request (the budget's deposit).
func (b *retryBudget) request() { b.requests.Add(1) }

// allow reports whether one more retry fits the budget, consuming it
// when it does.
func (b *retryBudget) allow() bool {
	for {
		spent := b.retries.Load()
		limit := b.minRetries + int64(b.ratio*float64(b.requests.Load()))
		if spent >= limit {
			b.exhausted.Add(1)
			return false
		}
		if b.retries.CompareAndSwap(spent, spent+1) {
			return true
		}
	}
}

// splitmix64 is the finalizer from Vigna's splitmix64 PRNG: a cheap,
// stateless bit mixer. The repo already uses it for per-(event, head)
// shuffle seeds; here it turns an atomic counter into backoff jitter
// without math/rand state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitterSource mints uniform [0,1) jitter fractions from a seeded
// counter — deterministic per draw index, no shared RNG lock.
type jitterSource struct {
	seed uint64
	n    atomic.Uint64
}

func (j *jitterSource) next() float64 {
	x := splitmix64(j.seed ^ splitmix64(j.n.Add(1)))
	return float64(x>>11) / (1 << 53)
}

// backoff returns the sleep before retry attempt (1-based), with
// "equal jitter": half the exponential step deterministic, half
// uniformly random, capped at maxBackoff.
func backoff(base time.Duration, attempt int, jitter float64, maxBackoff time.Duration) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	return d/2 + time.Duration(jitter*float64(d/2))
}

// latencySamples is the ring capacity of the dispatch-latency tracker.
// 512 recent model-path latencies are plenty to estimate a tail
// percentile and cheap to sort.
const latencySamples = 512

// latencyTracker keeps a ring of recent dispatch latencies and serves
// the percentile queries behind /stats' p50_ns and p99_ns.
type latencyTracker struct {
	mu      sync.Mutex
	samples [latencySamples]int64
	n       int // total recorded
	next    int
}

// record folds one latency into the ring.
func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.samples[t.next] = int64(d)
	t.next = (t.next + 1) % latencySamples
	t.n++
	t.mu.Unlock()
}

// percentileNs returns the p-th percentile of the recorded latencies
// (0 when nothing is recorded yet), sorting a copy of the populated
// part of the ring outside the lock.
func (t *latencyTracker) percentileNs(p float64) int64 {
	t.mu.Lock()
	snap := append([]int64(nil), t.samples[:min(t.n, latencySamples)]...)
	t.mu.Unlock()
	return percentile(snap, p)
}

// percentile sorts ns in place and returns the p-th percentile
// (nearest-rank), or 0 for an empty slice.
func percentile(ns []int64, p float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := int(p * float64(len(ns)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ns) {
		idx = len(ns) - 1
	}
	return ns[idx]
}
