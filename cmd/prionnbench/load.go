package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"prionn/internal/trace"
)

// poolConns is the keep-alive connection pool /predict requests ride:
// HTTP/1.1 carries one in-flight request per connection and the serve
// layer only forms batches from concurrent requests, so a pool of nproc
// would measure batch-1 only (README.md, "sizing").
const poolConns = 32

// checksPerPhase bounds how many timed answers per phase are kept for
// the output check.
const checksPerPhase = 24

// generator drives one daemon from a single process.
type generator struct {
	base   string
	pool   []poolEntry
	seed   int64
	unique float64
	client *http.Client
}

func newGenerator(base string, pool []poolEntry, seed int64, unique float64) *generator {
	return &generator{
		base: base, pool: pool, seed: seed, unique: unique,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     poolConns,
				MaxIdleConnsPerHost: poolConns,
				DisableCompression:  true,
			},
		},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// answer is what one /predict call came back with.
type answer struct {
	status int // 0: transport error
	body   []byte
}

// good reports whether the answer counts: 200, from the model, not the
// degraded fallback.
func (a answer) good() bool {
	return a.status == http.StatusOK &&
		bytes.Contains(a.body, []byte(`"from_model":true`)) &&
		!bytes.Contains(a.body, []byte(`"degraded":true`))
}

func (g *generator) predict(r request) answer {
	resp, err := g.client.Post(g.base+"/predict", "application/json", strings.NewReader(r.body(g.pool)))
	if err != nil {
		return answer{}
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read-only
	if err != nil {
		return answer{}
	}
	return answer{status: resp.StatusCode, body: body}
}

// checked is a timed answer kept for the output check.
type checked struct {
	req request
	ans answer
}

// window is one uninterrupted stretch of a phase, with the daemon's
// counters read at both ends.
type window struct {
	before, after statsSnap
	cpu           time.Duration // daemon user+sys CPU over the window
	sent, failed  int
	wall          time.Duration
}

// phaseResult is everything one phase measured. A phase is five slices;
// the slices of the phases before a learning phase are interleaved
// (run.go), so a phase has one window per slice, or one in all.
type phaseResult struct {
	def     phaseDef
	length  time.Duration // all slices together
	samples []sample      // open loop only; due offsets place each sample in its slice
	sent    int
	failed  int
	s503    int
	sOther  int // non-200, non-503, and transport errors
	checks  []checked
	windows []window

	complete503 int
	retrain     []time.Duration // learn phases: tripping POST accepted → events incremented
}

// add appends a slice's measurements, shifting its samples' due offsets
// to where the slice sits in the phase.
func (p *phaseResult) add(part phaseResult, offset time.Duration) {
	for _, s := range part.samples {
		s.due += offset
		p.samples = append(p.samples, s)
	}
	p.sent += part.sent
	p.failed += part.failed
	p.s503 += part.s503
	p.sOther += part.sOther
	if room := checksPerPhase - len(p.checks); room > 0 {
		p.checks = append(p.checks, part.checks[:min(room, len(part.checks))]...)
	}
	p.windows = append(p.windows, part.windows...)
	p.complete503 += part.complete503
	p.retrain = append(p.retrain, part.retrain...)
}

func (p *phaseResult) tally(a answer, r request) {
	p.sent++
	if !a.good() {
		p.failed++
		switch {
		case a.status == http.StatusServiceUnavailable:
			p.s503++
		case a.status != http.StatusOK:
			p.sOther++
		}
	}
	if len(p.checks) < checksPerPhase && p.sent%7 == 1 {
		p.checks = append(p.checks, checked{r, a})
	}
}

// openLoop sends seeded Poisson arrivals at the phase's rate. Each
// request is timed from when it was due, not from when it was sent: a
// request due while all connections are busy waits, and the wait counts.
func (g *generator) openLoop(id int, def phaseDef, rate float64, length time.Duration) phaseResult {
	due := arrivals(g.seed, id, rate, length)
	st := newStream(g.seed, id, len(g.pool), g.unique)
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = st.next()
	}
	samples := make([]sample, len(due))
	answers := make([]answer, len(due))

	jobs := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks on a busy pool
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < poolConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				at := start.Add(due[i])
				late := since(at)
				a := g.predict(reqs[i])
				// Workers write disjoint elements; wg.Wait orders them before the reads below.
				samples[i] = sample{due: due[i], late: late, lat: since(at), ok: a.good()}
				answers[i] = a
			}
		}()
	}
	sl := newSleeper()
	for i, d := range due {
		sl.sleep(d - since(start))
		jobs <- i
	}
	sl.close()
	close(jobs)
	wg.Wait()

	res := phaseResult{def: def, length: length, samples: samples}
	for i, a := range answers {
		res.tally(a, reqs[i])
	}
	res.windows = []window{{sent: res.sent, failed: res.failed, wall: since(start)}}
	return res
}

// closedLoop runs poolConns clients, each sending its next request when
// the previous one completes, for length.
func (g *generator) closedLoop(id int, def phaseDef, length time.Duration) phaseResult {
	parts := make([]phaseResult, poolConns)
	var wg sync.WaitGroup
	start := now()
	for c := 0; c < poolConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newStream(g.seed, id*100+c+1, len(g.pool), g.unique)
			for since(start) < length {
				r := st.next()
				parts[c].tally(g.predict(r), r) // one element per client, read after wg.Wait
			}
		}(c)
	}
	wg.Wait()
	wall := since(start)
	res := phaseResult{def: def, length: length}
	for _, p := range parts {
		res.sent += p.sent
		res.failed += p.failed
		res.s503 += p.s503
		res.sOther += p.sOther
		if len(res.checks) < checksPerPhase {
			res.checks = append(res.checks, p.checks...)
		}
	}
	res.windows = []window{{sent: res.sent, failed: res.failed, wall: wall}}
	return res
}

// warmUp sends every pool script once, unmodified, from poolConns
// clients, and returns the answers by pool index.
func (g *generator) warmUp() []answer {
	answers := make([]answer, len(g.pool))
	jobs := make(chan int, len(g.pool)) // sized to the number of sends
	for i := range g.pool {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for c := 0; c < poolConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				answers[i] = g.predict(request{pool: i}) // disjoint elements, ordered by wg.Wait
			}
		}()
	}
	wg.Wait()
	return answers
}

// completer posts finished jobs at a fixed rate beside a learning phase
// and times each retrain event: from the POST that trips the cadence
// being accepted to /stats showing pipeline.events incremented.
type completer struct {
	d     *daemon
	jobs  []trace.Job
	rate  float64
	every int // completions per retrain event

	s503    int
	retrain []time.Duration
	err     error
}

func (c *completer) run(ctx context.Context) {
	const poll = 20 * time.Millisecond
	interval := time.Duration(float64(time.Second) / c.rate)
	seen, err := c.events()
	if err != nil {
		c.err = err
		return
	}
	// Events finish in the order their tripping POSTs were accepted, so
	// the k-th increment of pipeline.events answers the k-th trip.
	var trips []time.Time
	accepted := 0
	start := now()
	nextPoll := start
	for n := 0; ctx.Err() == nil; {
		dueIn := time.Duration(n)*interval - since(start)
		if dueIn <= 0 {
			ok, err := c.post(c.jobs[n%len(c.jobs)])
			if err != nil {
				c.err = err
				return
			}
			n++
			if ok {
				if accepted++; accepted%c.every == 0 {
					trips = append(trips, now())
				}
			}
			continue
		}
		if len(trips) == 0 {
			time.Sleep(dueIn)
			continue
		}
		if wait := -since(nextPoll); wait > 0 {
			time.Sleep(min(wait, dueIn))
			continue
		}
		nextPoll = now().Add(poll)
		ev, err := c.events()
		if err != nil {
			c.err = err
			return
		}
		for ; seen < ev && len(trips) > 0; seen++ {
			c.retrain = append(c.retrain, since(trips[0]))
			trips = trips[1:]
		}
	}
}

// post sends one finished job; ok is false on a 503 (queue full).
func (c *completer) post(j trace.Job) (ok bool, err error) {
	resp, err := c.d.ctl.Post(c.d.base+"/complete", "application/json", strings.NewReader(completeBody(j)))
	if err != nil {
		return false, fmt.Errorf("POST /complete: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // read-only
	switch resp.StatusCode {
	case http.StatusAccepted:
		return true, nil
	case http.StatusServiceUnavailable:
		c.s503++
		return false, nil
	}
	return false, fmt.Errorf("POST /complete: status %d", resp.StatusCode)
}

// events reads pipeline.events from /stats.
func (c *completer) events() (int64, error) {
	sn, err := c.d.stats()
	if err != nil {
		return 0, err
	}
	if sn.pipeline == nil {
		return 0, errors.New("/stats has no pipeline object: the daemon runs without -retrain-every")
	}
	return sn.pipeline.Events, nil
}
