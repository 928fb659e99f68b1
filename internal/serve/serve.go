// Package serve is PRIONN's online inference service: it coalesces
// concurrent single-job prediction requests into minibatches so that
// serving throughput rides the batched-GEMM compute core instead of N
// single-sample forwards (paper §2.3's continuous deployment loop, at
// production traffic).
//
// Three mechanisms make it production-shaped:
//
//   - Load-adaptive request coalescing: concurrent Predict calls queue
//     into a bounded admission channel; a single inference loop takes
//     whatever is already queued (up to Config.MaxBatch; arrivals during
//     the previous flush batch by themselves) and runs one batched
//     map+forward for the group. It waits for more, up to
//     Config.MaxDelay, only when the previous batch had more than one
//     request: a lone or sequential caller is flushed at once, while
//     concurrent load keeps its deep batches. Every response is bitwise
//     identical to what a single-request forward would return — the
//     compute core's reductions are batch-size and worker-count
//     invariant.
//
//   - Bounded admission with backpressure: when the queue is full,
//     Predict fails fast with ErrOverloaded instead of growing an
//     unbounded backlog. Graceful shutdown (Stop) stops admission,
//     drains every already-admitted request, then returns.
//
//   - Atomic snapshot swap: the server holds an immutable
//     prionn.Inference snapshot. A retraining loop publishes new
//     weights with Swap — one pointer store — without blocking
//     in-flight inference: the loop loads the pointer once per flush,
//     so a batch never mixes snapshots and the hot path takes no lock.
//     Forwards write nothing on the snapshot, so the same *Inference
//     may be published to any number of servers at once.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
)

// ErrOverloaded is returned by Predict when the admission queue is
// full. The request was not enqueued; the caller owns retry policy
// (shed, backoff, or block).
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrStopped is returned by Predict after Stop has begun: the server
// no longer admits new requests.
var ErrStopped = errors.New("serve: server stopped")

// Failpoint names compiled into the serving path; tests arm them to
// inject admission failures and slow or failing forward passes.
const (
	// FailpointAdmit fires in Predict before a request is enqueued.
	FailpointAdmit = "serve/admit"
	// FailpointFlush fires in the inference loop before each batch's
	// map+forward. Armed with Sleep it emulates a slow forward pass
	// (the overload scenario); armed with Err the whole batch completes
	// with that error.
	FailpointFlush = "serve/flush"
)

// Config tunes the server. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxBatch is the largest coalesced minibatch (default 64).
	MaxBatch int
	// MaxDelay is the longest a batch is held for company under
	// concurrent load (default 2ms). A batch is held only when the
	// previous one had more than one request; otherwise what is queued
	// is flushed at once, so sparse traffic never waits on it.
	MaxDelay time.Duration
	// QueueDepth is the admission-queue capacity — the backpressure
	// bound. Requests beyond it get ErrOverloaded (default 4×MaxBatch).
	QueueDepth int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Request is one job to predict at submission time.
type Request struct {
	// Script is the job script text.
	Script string
	// InputDeck is the optional application input deck, appended to the
	// script when the model was configured with IncludeDeck.
	InputDeck string
	// RequestedMin is the user-requested runtime in minutes — the
	// fallback prediction while no trained model is published (the
	// paper's pre-first-training behaviour).
	RequestedMin int
}

// Response is the served prediction.
type Response struct {
	Pred prionn.Prediction
	// FromModel is false when the prediction is the requested-runtime
	// fallback (no trained snapshot was published at flush time).
	FromModel bool
}

// pending is one admitted request waiting for its flush.
type pending struct {
	req  Request
	at   time.Time // admission; flush start − at is the request's coalescing wait
	resp Response
	err  error
	done chan struct{} // closed exactly once, after resp/err are set
}

// Server coalesces concurrent prediction requests into batched forwards
// over an atomically swappable model snapshot. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	cfg  Config
	view atomic.Pointer[prionn.Inference]

	// mu guards stopped against the enqueue in Predict: Stop takes the
	// write lock, so no sender can be mid-send when the queue closes.
	mu      sync.RWMutex
	stopped bool

	queue    chan *pending
	loopDone chan struct{}

	st stats
}

// New starts a server over the given snapshot (nil is allowed: every
// request is served from the requested-runtime fallback until Swap
// publishes a trained snapshot). The inference loop goroutine runs
// until Stop.
func New(view *prionn.Inference, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *pending, cfg.QueueDepth),
		loopDone: make(chan struct{}),
	}
	s.view.Store(view)
	//prionnvet:ignore naked-goroutine -- joined via s.loopDone, closed by loop and received in Stop
	go s.loop()
	return s
}

// Swap atomically publishes a new model snapshot and returns the
// previous one (nil if none was set). In-flight batches finish on the
// snapshot they loaded; the next flush uses the new one. Swap never
// blocks on inference.
func (s *Server) Swap(v *prionn.Inference) *prionn.Inference {
	s.st.swaps.Add(1)
	return s.view.Swap(v)
}

// View returns the currently published snapshot (nil if none).
func (s *Server) View() *prionn.Inference { return s.view.Load() }

// Stats returns a point-in-time copy of the serving counters, stamped
// with the published snapshot's kernel kind.
func (s *Server) Stats() Snapshot {
	sn := s.st.snapshot()
	if v := s.view.Load(); v != nil {
		sn.Kernel = string(v.Kernel())
	} else {
		sn.Kernel = string(prionn.KernelF32)
	}
	return sn
}

// Predict submits one job for prediction and blocks until the
// coalesced batch containing it is served, the context is canceled, or
// the server refuses admission. A context cancellation abandons the
// wait but not the work: an already-admitted request is still flushed
// (its response is discarded), so cancellation never corrupts a batch.
func (s *Server) Predict(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		s.st.recordCtxErr(err)
		return Response{}, err
	}
	if err := fault.Here(FailpointAdmit); err != nil {
		s.st.rejected.Add(1)
		return Response{}, err
	}
	p := &pending{req: req, at: time.Now(), done: make(chan struct{})}

	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		s.st.rejected.Add(1)
		return Response{}, ErrStopped
	}
	// Counted before the send: the loop may flush (and subtract) at once.
	s.st.queueDepth.Add(1)
	select {
	case s.queue <- p:
		s.mu.RUnlock()
		s.st.admitted.Add(1)
	default:
		s.mu.RUnlock()
		s.st.queueDepth.Add(-1)
		s.st.rejected.Add(1)
		return Response{}, ErrOverloaded
	}

	select {
	case <-p.done:
		return p.resp, p.err
	case <-ctx.Done():
		err := ctx.Err()
		s.st.recordCtxErr(err)
		return Response{}, err
	}
}

// Stop shuts the server down gracefully: admission closes immediately
// (subsequent Predicts get ErrStopped), every already-admitted request
// is flushed and answered, and the inference loop exits. The context
// bounds how long to wait for the drain; on cancellation the drain
// keeps running in the background and a later Stop call can wait for
// it again. Stop is idempotent.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	first := !s.stopped
	s.stopped = true
	s.mu.Unlock()
	if first {
		// No sender can be in the enqueue select here: each holds the
		// read lock across it and re-checks stopped after Stop's write
		// lock section, so closing the queue is race-free.
		close(s.queue)
	}
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the server's single inference goroutine: it coalesces the
// queue into batches and flushes them one at a time. A batch is what is
// already queued on waking; it is held on the MaxDelay timer for more
// only if the previous batch found company. It exits when the queue is
// closed and drained, then signals loopDone.
func (s *Server) loop() {
	defer close(s.loopDone)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	company := false // the previous batch had more than one request
	for first := range s.queue {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p, ok := <-s.queue:
				if !ok {
					company = false // closed and drained: nobody left to wait for
					break drain
				}
				batch = append(batch, p)
			default:
				break drain
			}
		}
		if company && len(batch) < s.cfg.MaxBatch {
			held := time.Now()
			timer.Reset(s.cfg.MaxDelay)
		collect:
			for len(batch) < s.cfg.MaxBatch {
				// Batch composition is timing-dependent by design. Each
				// response is batch-invariant bitwise
				// (TestServeBatchedBitwiseIdenticalToSingle), so the
				// coalescing order never changes any output.
				select {
				case p, ok := <-s.queue:
					if !ok {
						break collect // closed and drained; flush what we hold
					}
					batch = append(batch, p)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			s.st.recordHold(time.Since(held))
		}
		company = len(batch) > 1
		s.flush(batch)
	}
}

// flush serves one coalesced batch: a single batched map+forward on the
// current snapshot, or the requested-runtime fallback when no trained
// snapshot is published.
func (s *Server) flush(batch []*pending) {
	s.st.queueDepth.Add(-int64(len(batch)))
	start := time.Now()
	var wait time.Duration
	for _, p := range batch {
		wait += start.Sub(p.at)
	}
	s.st.waitNs.Add(int64(wait))
	finish := func() {
		for _, p := range batch {
			close(p.done)
		}
	}

	if err := fault.Here(FailpointFlush); err != nil {
		s.st.errored.Add(int64(len(batch)))
		s.st.recordBatch(len(batch), 0, 0)
		for _, p := range batch {
			p.err = err
		}
		finish()
		return
	}

	v := s.view.Load()
	if v == nil || !v.Trained() {
		// Pre-first-training: the paper's deployment serves the user's
		// requested runtime until the first model is trained. Emitting
		// the untrained heads' forward output here would be silent
		// garbage — He-init noise unrelated to the job.
		s.st.fallback.Add(int64(len(batch)))
		s.st.recordBatch(len(batch), 0, 0)
		for _, p := range batch {
			p.resp = Response{Pred: prionn.Prediction{RuntimeMin: p.req.RequestedMin}}
		}
		finish()
		return
	}

	texts := make([]string, len(batch))
	for i, p := range batch {
		texts[i] = v.InputText(p.req.Script, p.req.InputDeck)
	}
	t0 := time.Now()
	x := v.MapTexts(texts)
	mapDur := time.Since(t0)
	t1 := time.Now()
	preds := v.PredictMapped(x)
	forwardDur := time.Since(t1)

	s.st.served.Add(int64(len(batch)))
	s.st.recordBatch(len(batch), mapDur, forwardDur)
	for i, p := range batch {
		p.resp = Response{Pred: preds[i], FromModel: true}
	}
	finish()
}
