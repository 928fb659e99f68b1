package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prionn/internal/fault"
)

// The coalescing rule's tests run on wall-clock margins that cannot
// flake: with MaxDelay at half a second, "held" (hundreds of ms) and
// "not held" (microseconds on the fallback path these servers serve
// from) differ by orders of magnitude, and every bound below sits in
// the gap.
const ruleDelay = 500 * time.Millisecond

func ruleServer() *Server {
	return New(nil, Config{MaxBatch: 8, MaxDelay: ruleDelay, QueueDepth: 32})
}

func mustPredict(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Predict(context.Background(), Request{Script: "r", RequestedMin: 1}); err != nil {
		t.Error(err)
	}
}

// predictAsync launches n concurrent Predicts; wg.Wait joins them.
func predictAsync(t *testing.T, s *Server, wg *sync.WaitGroup, n int) {
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustPredict(t, s)
		}()
	}
}

// waitStats polls the server's counters until ok accepts them.
func waitStats(t *testing.T, s *Server, what string, ok func(Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, s.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServeLoneRequestNotHeld: a lone request on an idle server is
// flushed at once — it never waits out MaxDelay for company that is not
// coming.
func TestServeLoneRequestNotHeld(t *testing.T) {
	s := ruleServer()
	defer s.Stop(context.Background())
	t0 := time.Now()
	mustPredict(t, s)
	if d := time.Since(t0); d > ruleDelay/4 {
		t.Fatalf("lone request took %v with MaxDelay %v: it was held", d, ruleDelay)
	}
	if snap := s.Stats(); snap.HeldBatches != 0 || snap.HoldNs != 0 {
		t.Fatalf("held_batches %d, hold_ns %d; want 0 and 0", snap.HeldBatches, snap.HoldNs)
	}
}

// TestServeSequentialClientNeverHeld: a closed-loop client with one
// request outstanding (one sbatch loop, a health probe) never sees
// company, so none of its requests is held — twenty of them finish
// inside a single MaxDelay.
func TestServeSequentialClientNeverHeld(t *testing.T) {
	s := ruleServer()
	defer s.Stop(context.Background())
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mustPredict(t, s)
	}
	if d := time.Since(t0); d > ruleDelay/2 {
		t.Fatalf("%d sequential requests took %v with MaxDelay %v", n, d, ruleDelay)
	}
	snap := s.Stats()
	if snap.HeldBatches != 0 || snap.Batches != n {
		t.Fatalf("held_batches %d, batches %d; want 0 and %d", snap.HeldBatches, snap.Batches, n)
	}
	if snap.WaitNs <= 0 || time.Duration(snap.WaitNs) > ruleDelay/2 {
		t.Fatalf("wait_ns %d: want positive and far below one MaxDelay", snap.WaitNs)
	}
}

// primeCompany drives a fresh server into the state where the last
// batch had company: the first flush is stalled by the failpoint, a
// burst of four queues up behind it and is taken as one natural batch —
// not held, because the batch before it was a lone request.
func primeCompany(t *testing.T) *Server {
	t.Helper()
	s := ruleServer()
	disarm := fault.Arm(FailpointFlush, fault.Failure{Sleep: 150 * time.Millisecond})
	defer disarm()

	var wg sync.WaitGroup
	predictAsync(t, s, &wg, 1)
	waitStats(t, s, "the first flush to start", func(sn Snapshot) bool { return sn.Admitted == 1 && sn.QueueDepth == 0 })
	predictAsync(t, s, &wg, 4)
	waitStats(t, s, "the burst to queue", func(sn Snapshot) bool { return sn.Admitted == 5 })
	disarm() // the stalled flush already holds its copy; the burst's flush runs at full speed
	wg.Wait()

	snap := s.Stats()
	if snap.Batches != 2 || snap.BatchHist[0] != 1 || snap.BatchHist[histBucket(4)] != 1 {
		t.Fatalf("burst behind a stalled flush must form one natural batch: %d batches, hist %v", snap.Batches, snap.BatchHist)
	}
	if snap.HeldBatches != 0 {
		t.Fatalf("natural batch after a lone one was held (held_batches %d)", snap.HeldBatches)
	}
	return s
}

// heldLone sends one request to a primed server and proves it is parked
// on the timer: still unanswered after a wait no unheld flush needs.
func heldLone(t *testing.T, s *Server) (answered chan struct{}) {
	t.Helper()
	answered = make(chan struct{})
	go func() {
		defer close(answered)
		mustPredict(t, s)
	}()
	select {
	case <-answered:
		t.Fatal("request after a batch with company was flushed at once, want held")
	case <-time.After(ruleDelay / 10):
	}
	return answered
}

// TestServeHeldAfterCompany: the batch after one that found company is
// held for more — and a held batch is released before the timer by the
// queue closing and by filling up.
func TestServeHeldAfterCompany(t *testing.T) {
	defer fault.DisarmAll()

	t.Run("released by Stop", func(t *testing.T) {
		s := primeCompany(t)
		t0 := time.Now()
		answered := heldLone(t, s)
		if err := s.Stop(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-answered
		if d := time.Since(t0); d > ruleDelay/2 {
			t.Fatalf("Stop released the held batch after %v, want well before MaxDelay %v", d, ruleDelay)
		}
		// heldLone slept ruleDelay/10 on this goroutine's clock, started
		// before the request's goroutine ran; the hold starts later, on
		// the loop's clock, once the request is admitted and dequeued. So
		// the hold is the sleep less that hand-off, never the whole sleep
		// (49.97 ms of 50 was seen): the floor is half of it.
		const floor = ruleDelay / 20
		snap := s.Stats()
		if snap.HeldBatches != 1 || time.Duration(snap.HoldNs) < floor || time.Duration(snap.HoldNs) > ruleDelay/2 {
			t.Fatalf("held_batches %d, hold_ns %v; want 1 and between %v and %v", snap.HeldBatches, time.Duration(snap.HoldNs), floor, ruleDelay/2)
		}
		if time.Duration(snap.WaitNs) < floor {
			t.Fatalf("wait_ns %v does not include the hold", time.Duration(snap.WaitNs))
		}
	})

	t.Run("released by MaxBatch", func(t *testing.T) {
		s := primeCompany(t)
		defer s.Stop(context.Background())
		t0 := time.Now()
		answered := heldLone(t, s)
		var wg sync.WaitGroup
		predictAsync(t, s, &wg, s.cfg.MaxBatch-1)
		wg.Wait()
		<-answered
		if d := time.Since(t0); d > ruleDelay/2 {
			t.Fatalf("full batch flushed after %v, want well before MaxDelay %v", d, ruleDelay)
		}
		snap := s.Stats()
		if snap.HeldBatches != 1 || snap.Batches != 3 || snap.BatchHist[histBucket(s.cfg.MaxBatch)] != 1 {
			t.Fatalf("held_batches %d, batches %d, hist %v; want one held batch of MaxBatch", snap.HeldBatches, snap.Batches, snap.BatchHist)
		}
	})

	// A held batch that found nobody clears the bit: the timer runs out,
	// the lone request is flushed, and the next one is not held.
	t.Run("held but lone clears the hold", func(t *testing.T) {
		s := primeCompany(t)
		defer s.Stop(context.Background())
		t0 := time.Now()
		<-heldLone(t, s)
		if d := time.Since(t0); d < ruleDelay*9/10 {
			t.Fatalf("held lone batch flushed after %v, want the full MaxDelay %v", d, ruleDelay)
		}
		t1 := time.Now()
		mustPredict(t, s)
		if d := time.Since(t1); d > ruleDelay/4 {
			t.Fatalf("request after a held-but-lone batch took %v: it was held", d)
		}
		if snap := s.Stats(); snap.HeldBatches != 1 {
			t.Fatalf("held_batches %d, want 1", snap.HeldBatches)
		}
	})
}

// TestServeQueueDepthNeverNegative: queue_depth counts a request before
// it is sent to the loop, so a loop that dequeues and flushes at once
// can never publish a negative depth. The sampler checks the invariant
// rather than reproducing the old bug on demand: counting after the
// send went negative only when the sender lost the CPU between the send
// and the count. (That a refused request leaves nothing behind is
// TestServeOverloadBoundedQueue's depth-0 assertion.)
func TestServeQueueDepthNeverNegative(t *testing.T) {
	s := New(nil, Config{MaxBatch: 2, MaxDelay: 50 * time.Microsecond, QueueDepth: 4})
	var low atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := s.Stats().QueueDepth; d < low.Load() {
				low.Store(d)
			}
		}
	}()
	runClients(4000, 8, func(int) {
		_, _ = s.Predict(context.Background(), Request{Script: "q"})
	})
	close(stop)
	<-sampled
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if low.Load() < 0 {
		t.Fatalf("queue_depth read %d during traffic, want never negative", low.Load())
	}
	snap := s.Stats()
	if snap.QueueDepth != 0 {
		t.Fatalf("queue_depth %d after Stop, want exactly 0", snap.QueueDepth)
	}
	if snap.Admitted+snap.Rejected != 4000 {
		t.Fatalf("admitted %d + rejected %d, want 4000 in total", snap.Admitted, snap.Rejected)
	}
}

// TestServePredictAllocCeiling pins the admission path's allocations:
// the admission stamp rides the existing pending record and the wait is
// summed into an atomic, so a served request still costs the two
// allocations it did before them — the pending record and its done
// channel (AllocsPerRun counts the loop goroutine's flush too).
func TestServePredictAllocCeiling(t *testing.T) {
	s := New(nil, Config{})
	defer s.Stop(context.Background())
	ctx := context.Background()
	req := Request{Script: "a", RequestedMin: 1}
	predict := func() {
		if _, err := s.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	predict()
	if avg := testing.AllocsPerRun(200, predict); avg > 2 {
		t.Fatalf("Predict allocates %.1f times per request, ceiling 2", avg)
	}
}
