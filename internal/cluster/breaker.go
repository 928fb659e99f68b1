package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position in the
// closed → open → half-open state machine.
type BreakerState int32

const (
	// BreakerClosed: requests flow; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe requests may pass; their
	// outcomes decide between closing and re-opening.
	BreakerHalfOpen
)

// String renders the state the way /stats reports it.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes one replica's circuit breaker. The zero value
// gets defaults from withDefaults.
type BreakerConfig struct {
	// ConsecutiveFailures opens the breaker after this many failures in a
	// row (default 5).
	ConsecutiveFailures int
	// ErrorRate opens the breaker when the failure fraction over the
	// observation window reaches this threshold (default 0.5). Only
	// applied once the window holds at least MinSamples outcomes, so a
	// single early failure cannot trip a cold breaker.
	ErrorRate float64
	// MinSamples is the window population required before ErrorRate
	// applies (default 20).
	MinSamples int
	// OpenFor is the cool-down an open breaker waits before admitting
	// half-open probes (default 500ms).
	OpenFor time.Duration
	// HalfOpenProbes is both the number of probe requests allowed in
	// flight while half-open and the consecutive probe successes required
	// to close (default 3). Any probe failure re-opens immediately.
	HalfOpenProbes int
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.ErrorRate <= 0 {
		c.ErrorRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	return c
}

// breaker is one replica's circuit breaker. All transitions happen
// under mu; Allow and Record are short critical sections touching only
// plain fields (no IO, no channels), so the lock never serializes
// anything slow. nowNs is injectable so cool-down tests are
// deterministic instead of sleeping.
type breaker struct {
	cfg   BreakerConfig
	nowNs func() int64

	mu            sync.Mutex
	state         BreakerState
	consecFails   int
	windowOK      int64
	windowFail    int64
	openedNs      int64 // nowNs at the moment the breaker last opened
	probeInFlight int
	probeSuccess  int

	opens     int64 // closed|half-open → open transitions
	halfOpens int64 // open → half-open transitions
	closes    int64 // half-open → closed transitions
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{
		cfg: cfg.withDefaults(),
		nowNs: func() int64 {
			//prionnvet:ignore time-dep -- breaker cool-down is wall-clock by design; tests inject a fake clock
			return time.Now().UnixNano()
		},
	}
}

// Allow reports whether a request may be dispatched to this replica,
// accounting half-open probe slots. Every Allow that returns true must
// be paired with exactly one Record or Release.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.nowNs()-b.openedNs < int64(b.cfg.OpenFor) {
			return false
		}
		// Cool-down elapsed: move to half-open and admit this request as
		// the first probe.
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.probeInFlight = 1
		b.probeSuccess = 0
		return true
	default: // BreakerHalfOpen
		if b.probeInFlight >= b.cfg.HalfOpenProbes {
			return false
		}
		b.probeInFlight++
		return true
	}
}

// Record folds one dispatched request's outcome into the state machine.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.consecFails = 0
			b.windowOK++
		} else {
			b.consecFails++
			b.windowFail++
		}
		total := b.windowOK + b.windowFail
		rate := float64(b.windowFail) / float64(total)
		if b.consecFails >= b.cfg.ConsecutiveFailures ||
			(total >= int64(b.cfg.MinSamples) && rate >= b.cfg.ErrorRate) {
			b.open()
			return
		}
		// Keep the window recent: halving on overflow weights new
		// outcomes ~2x over old ones without a ring buffer.
		if total >= 1024 {
			b.windowOK /= 2
			b.windowFail /= 2
		}
	case BreakerOpen:
		// A request allowed while closed/half-open can complete after a
		// concurrent transition opened the breaker; its outcome is stale.
	default: // BreakerHalfOpen
		if b.probeInFlight > 0 {
			b.probeInFlight--
		}
		if !ok {
			b.open()
			return
		}
		b.probeSuccess++
		if b.probeSuccess >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.closes++
			b.reset()
		}
	}
}

// open transitions to BreakerOpen. Callers hold mu.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.opens++
	b.openedNs = b.nowNs()
	b.reset()
}

// reset clears the counting state after a transition. Callers hold mu.
func (b *breaker) reset() {
	b.consecFails = 0
	b.windowOK = 0
	b.windowFail = 0
	b.probeInFlight = 0
	b.probeSuccess = 0
}

// Release returns an Allow without an outcome, for a request whose
// caller left before the replica answered: a half-open probe slot is
// handed back, not failed, and nothing is counted.
func (b *breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probeInFlight > 0 {
		b.probeInFlight--
	}
}

// State returns the current position.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// counters returns the transition totals.
func (b *breaker) counters() (opens, halfOpens, closes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.halfOpens, b.closes
}
