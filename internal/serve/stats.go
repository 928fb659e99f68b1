package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// batchBuckets is the number of power-of-two batch-size histogram
// buckets: bucket i counts flushes of size in (2^(i-1), 2^i], so bucket
// 0 is exactly size 1 and bucket 11 covers up to 2048 — far above any
// sane MaxBatch.
const batchBuckets = 12

// stats is the server's hot-path counter block. Every field is atomic:
// the flush loop, the admission path, and Stats() readers touch them
// concurrently without locks.
type stats struct {
	admitted atomic.Int64 // requests accepted into the queue
	rejected atomic.Int64 // requests refused with ErrOverloaded
	served   atomic.Int64 // predictions returned from model forwards
	fallback atomic.Int64 // predictions served from the requested-runtime fallback
	errored  atomic.Int64 // requests completed with an error (injected faults)
	canceled atomic.Int64 // waits abandoned because the request context was canceled
	deadline atomic.Int64 // waits abandoned because the request context deadline expired

	batches    atomic.Int64 // coalesced flushes executed
	swaps      atomic.Int64 // snapshot swaps published
	queueDepth atomic.Int64 // requests admitted but not yet flushed

	mapNs     atomic.Int64 // cumulative mapping-stage wall time
	forwardNs atomic.Int64 // cumulative forward-stage wall time

	heldBatches atomic.Int64 // batches parked on the MaxDelay timer for company
	holdNs      atomic.Int64 // cumulative time batches spent parked on it
	waitNs      atomic.Int64 // cumulative admission → flush-start wait, summed over requests

	batchHist [batchBuckets]atomic.Int64
}

// histBucket maps a batch size to its histogram bucket.
func histBucket(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len(uint(n - 1))
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	return b
}

// recordCtxErr classifies an abandoned wait by its context error.
func (s *stats) recordCtxErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.deadline.Add(1)
		return
	}
	s.canceled.Add(1)
}

// recordBatch folds one flushed batch into the counters.
func (s *stats) recordBatch(size int, mapDur, forwardDur time.Duration) {
	s.batches.Add(1)
	s.batchHist[histBucket(size)].Add(1)
	s.mapNs.Add(int64(mapDur))
	s.forwardNs.Add(int64(forwardDur))
}

// recordHold counts one batch that was parked on the MaxDelay timer.
func (s *stats) recordHold(d time.Duration) {
	s.heldBatches.Add(1)
	s.holdNs.Add(int64(d))
}

// Snapshot is an expvar-style point-in-time copy of the serving
// counters, safe to marshal, print, or diff against an earlier one.
type Snapshot struct {
	// Kernel is the published snapshot's serving kernel kind ("f32" or
	// "int8"; a server with no published snapshot reports "f32", the
	// default path a future Swap would have to beat).
	Kernel string `json:"kernel"`

	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Served   int64 `json:"served"`
	Fallback int64 `json:"fallback"`
	Errored  int64 `json:"errored"`

	// Canceled and DeadlineExceeded count Predict calls whose caller
	// abandoned the wait (context canceled / deadline expired) before the
	// response arrived. An admitted request is still flushed with its
	// batch — these count abandoned waits, not lost work, and they make
	// context-abandoned traffic visible in /stats instead of silently
	// disappearing from the served/fallback totals.
	Canceled         int64 `json:"canceled"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`

	Batches    int64 `json:"batches"`
	Swaps      int64 `json:"swaps"`
	QueueDepth int64 `json:"queue_depth"`

	MapNs     int64 `json:"map_ns"`
	ForwardNs int64 `json:"forward_ns"`

	// The coalescer's cost. HeldBatches counts batches parked on the
	// MaxDelay timer (only a batch that follows one with company is);
	// HoldNs is the time they spent there; WaitNs sums, over requests,
	// admission → start of the flush that served it (queueing behind the
	// previous flush plus any hold), so WaitNs / answered requests is the
	// mean coalescing wait.
	HeldBatches int64 `json:"held_batches"`
	HoldNs      int64 `json:"hold_ns"`
	WaitNs      int64 `json:"wait_ns"`

	// BatchHist[i] counts flushes with batch size in (2^(i-1), 2^i];
	// BatchHist[0] counts single-request flushes.
	BatchHist [batchBuckets]int64 `json:"batch_hist"`
}

// snapshot copies the counters. Individual loads are atomic; the copy
// as a whole is not a consistent cut, which is fine for monitoring.
func (s *stats) snapshot() Snapshot {
	var out Snapshot
	out.Admitted = s.admitted.Load()
	out.Rejected = s.rejected.Load()
	out.Served = s.served.Load()
	out.Fallback = s.fallback.Load()
	out.Errored = s.errored.Load()
	out.Canceled = s.canceled.Load()
	out.DeadlineExceeded = s.deadline.Load()
	out.Batches = s.batches.Load()
	out.Swaps = s.swaps.Load()
	out.QueueDepth = s.queueDepth.Load()
	out.MapNs = s.mapNs.Load()
	out.ForwardNs = s.forwardNs.Load()
	out.HeldBatches = s.heldBatches.Load()
	out.HoldNs = s.holdNs.Load()
	out.WaitNs = s.waitNs.Load()
	for i := range out.BatchHist {
		out.BatchHist[i] = s.batchHist[i].Load()
	}
	return out
}

// MeanBatch returns the mean coalesced batch size.
func (sn Snapshot) MeanBatch() float64 {
	if sn.Batches == 0 {
		return 0
	}
	return float64(sn.answered()) / float64(sn.Batches)
}

// answered is the number of requests that went through a flush.
func (sn Snapshot) answered() int64 { return sn.Served + sn.Fallback + sn.Errored }

// String renders the snapshot as the multi-line block `prionnd -stats`
// prints.
func (sn Snapshot) String() string {
	var b strings.Builder
	kernel := ""
	if sn.Kernel != "" {
		kernel = "[" + sn.Kernel + "] "
	}
	fmt.Fprintf(&b, "%sserved %d (model) + %d (fallback), %d errored; admitted %d, rejected %d\n",
		kernel, sn.Served, sn.Fallback, sn.Errored, sn.Admitted, sn.Rejected)
	if sn.Canceled > 0 || sn.DeadlineExceeded > 0 {
		fmt.Fprintf(&b, "abandoned waits: %d canceled, %d deadline-exceeded\n",
			sn.Canceled, sn.DeadlineExceeded)
	}
	fmt.Fprintf(&b, "batches %d (mean size %.1f), queue depth %d, swaps %d\n",
		sn.Batches, sn.MeanBatch(), sn.QueueDepth, sn.Swaps)
	if sn.Batches > 0 {
		perBatchMap := time.Duration(sn.MapNs / sn.Batches)
		perBatchFwd := time.Duration(sn.ForwardNs / sn.Batches)
		fmt.Fprintf(&b, "per-batch latency: map %v, forward %v\n", perBatchMap, perBatchFwd)
		fmt.Fprintf(&b, "coalescing: %d of %d batches held for company (%v total), mean wait %v per request\n",
			sn.HeldBatches, sn.Batches, time.Duration(sn.HoldNs), time.Duration(sn.WaitNs/max(sn.answered(), 1)))
	}
	b.WriteString("batch-size histogram:")
	for i, c := range sn.BatchHist {
		if c == 0 {
			continue
		}
		lo, hi := 1, 1<<i
		if i > 0 {
			lo = 1<<(i-1) + 1
		}
		if lo == hi {
			fmt.Fprintf(&b, " %d:%d", hi, c)
		} else {
			fmt.Fprintf(&b, " %d-%d:%d", lo, hi, c)
		}
	}
	b.WriteString("\n")
	return b.String()
}
