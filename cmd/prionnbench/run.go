package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// phaseCount is a phase's operation counts as the result file keeps them.
type phaseCount struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"` // open-loop at a rate, or closed-loop
	Seconds   float64 `json:"seconds"`
	OpsSent   int     `json:"ops_sent"`
	OpsFailed int     `json:"ops_failed"`
	Samples   int     `json:"samples_per_slice,omitempty"`
}

// workloadResult is one workload's run.
type workloadResult struct {
	Name       string       `json:"name"`
	EndToEnd   metricSet    `json:"end_to_end"`
	PerLayer   metricSet    `json:"per_layer,omitempty"`
	Phases     []phaseCount `json:"phases"`
	Checked    int          `json:"outputs_checked"`
	CheckError string       `json:"check_error,omitempty"`

	phases      []phaseResult
	first, last statsSnap // the daemon's counters before the first and after the last slice
	warm        []answer
	pool        []poolEntry
}

func (r *workloadResult) attempted() (sent, failed int) {
	for _, p := range r.Phases {
		sent += p.OpsSent
		failed += p.OpsFailed
	}
	return sent, failed
}

// openLoopFailed counts failures in the open-loop phases, which the
// workloads are sized never to have.
func (r *workloadResult) openLoopFailed() int {
	n := 0
	for _, p := range r.phases {
		if p.def.rate > 0 {
			n += p.failed
		}
	}
	return n
}

// daemonArgs are the flags one daemon start of the workload gets. A
// learning daemon needs -retrain-every equal to the checkpoint's cadence
// (pilot.New rejects a mismatch) and its own copy of the checkpoint (it
// overwrites it, and without one it would start cold).
func (e *env) daemonArgs(w workloadDef, run int) ([]string, error) {
	args := []string{"-load", e.ckpt, "-jobs", strconv.Itoa(e.sz.daemonJobs), "-seed", strconv.Itoa(modelSeed)}
	args = append(args, w.flags...)
	if w.learn {
		cp := filepath.Join(e.dir, fmt.Sprintf("retrain-%s-%d.ckpt", w.name, run))
		if err := copyFile(cp, e.ckpt); err != nil {
			return nil, err
		}
		args = append(args, "-retrain-every", strconv.Itoa(e.sz.model.RetrainEvery), "-retrain-ckpt", cp)
	}
	return args, nil
}

// setUp starts a daemon and warms it: exec → first 200 on /readyz →
// every pool script sent once. The elapsed time is one setup_s sample.
func (e *env) setUp(ctx context.Context, w workloadDef, pool []poolEntry, seed int64, run int) (*daemon, *generator, []answer, time.Duration, error) {
	args, err := e.daemonArgs(w, run)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	t0 := now()
	d, err := startDaemon(ctx, e.bin, e.procs, args...)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	g := newGenerator(d.base, pool, seed, w.unique)
	warm := g.warmUp()
	return d, g, warm, since(t0), nil
}

// runWorkload measures one workload end to end, with no spans anywhere:
// set-up (several times; the last daemon is the one measured), then the
// phases, with /stats and /proc read at the phase boundaries.
func (e *env) runWorkload(ctx context.Context, w workloadDef, seed int64, seconds float64, setups int) (res *workloadResult, err error) {
	// One generator thread; the daemon gets the cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	pool := buildPool(seed, e.sz.pool)
	res = &workloadResult{Name: w.name, EndToEnd: metricSet{}, pool: pool}

	var d *daemon
	var g *generator
	var setupS []float64
	for run := 0; run < setups; run++ {
		if d != nil {
			g.close()
			d.stop()
		}
		var took time.Duration
		if d, g, res.warm, took, err = e.setUp(ctx, w, pool, seed, run); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	// The daemon is reaped on every path out of here, failed checks included.
	defer func() {
		g.close()
		d.stop()
	}()
	res.EndToEnd.put("setup_s", median(setupS))
	for i, a := range res.warm {
		if !a.good() {
			return nil, fmt.Errorf("%s: warm-up request %d failed: status %d %s", w.name, i, a.status, a.body)
		}
	}
	if err := e.checkWarm(w, pool, res); err != nil {
		return nil, err
	}

	// The slices of the phases before a learning phase are interleaved —
	// round r runs slice r of each — so every phase samples the whole run
	// and a few slow seconds on a shared host spoil one slice of each, not
	// one phase. A learning phase runs last and in one piece: once
	// completions flow the pilot may be retraining at any time.
	res.phases = make([]phaseResult, len(w.phases))
	for i, def := range w.phases {
		res.phases[i] = phaseResult{def: def, length: w.phaseLength(def, seconds)}
	}
	for round := 0; round < phaseSlices; round++ {
		for i, def := range w.phases {
			if def.learn {
				continue
			}
			slice := res.phases[i].length / phaseSlices
			part, err := e.runSlice(ctx, d, g, def, i*phaseSlices+round+1, slice)
			if err != nil {
				return nil, err
			}
			res.phases[i].add(part, time.Duration(round)*slice)
		}
	}
	for i, def := range w.phases {
		if def.learn {
			part, err := e.runSlice(ctx, d, g, def, i*phaseSlices+1, res.phases[i].length)
			if err != nil {
				return nil, err
			}
			res.phases[i].add(part, 0)
		}
	}
	res.first = res.phases[0].windows[0].before
	for _, ph := range res.phases {
		if last := ph.windows[len(ph.windows)-1].after; last.at.After(res.last.at) {
			res.last = last
		}
		kind := "closed-loop, " + strconv.Itoa(poolConns) + " clients"
		if ph.def.rate > 0 {
			kind = fmt.Sprintf("open-loop, %.0f rps", ph.def.rate*e.sz.rateScale)
		}
		res.Phases = append(res.Phases, phaseCount{
			Name: ph.def.name, Kind: kind, Seconds: ph.length.Seconds(),
			OpsSent: ph.sent, OpsFailed: ph.failed, Samples: len(ph.samples) / percentileSlices(len(ph.samples)),
		})
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd.put("rss_mb", rss)
	res.deriveEndToEnd()
	if err := e.checkTimed(w, pool, g, res); err != nil {
		res.CheckError = err.Error()
	}
	return res, nil
}

// runSlice runs one uninterrupted stretch of a phase, reading the
// daemon's counters and CPU time at both ends.
func (e *env) runSlice(ctx context.Context, d *daemon, g *generator, def phaseDef, id int, length time.Duration) (phaseResult, error) {
	before, err := d.stats()
	if err != nil {
		return phaseResult{}, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return phaseResult{}, err
	}
	var ph phaseResult
	switch {
	case def.rate == 0:
		ph = g.closedLoop(id, def, length)
	case def.learn:
		if ph, err = e.learnPhase(ctx, d, g, id, def, length); err != nil {
			return phaseResult{}, err
		}
	default:
		ph = g.openLoop(id, def, def.rate*e.sz.rateScale, length)
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return phaseResult{}, err
	}
	after, err := d.stats()
	if err != nil {
		return phaseResult{}, err
	}
	w := &ph.windows[0]
	w.before, w.after, w.cpu = before, after, cpu1-cpu0
	return ph, nil
}

// learnPhase is an open-loop phase with completions posted beside it.
func (e *env) learnPhase(ctx context.Context, d *daemon, g *generator, id int, def phaseDef, length time.Duration) (phaseResult, error) {
	c := &completer{d: d, jobs: e.completed, rate: e.sz.completeRPS, every: e.sz.model.RetrainEvery}
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.run(cctx)
	}()
	ph := g.openLoop(id, def, def.rate*e.sz.rateScale, length)
	cancel()
	<-done
	ph.complete503, ph.retrain = c.s503, c.retrain
	return ph, c.err
}

// deriveEndToEnd fills the end-to-end metrics the phases give.
func (res *workloadResult) deriveEndToEnd() {
	for _, ph := range res.phases {
		names := []string{ph.def.name}
		if ph.def.alias != "" {
			names = append(names, ph.def.alias)
		}
		for _, n := range names {
			switch {
			case ph.def.rate > 0:
				res.EndToEnd.put("p50_ms."+n, sliceMedian(ph.samples, ph.length, 0.50))
				res.EndToEnd.put("p95_ms."+n, sliceMedian(ph.samples, ph.length, 0.95))
			default:
				res.EndToEnd.put("sat_rps", ph.medianOverWindows(func(w window) float64 {
					return float64(w.sent-w.failed) / w.wall.Seconds()
				}))
			}
			if n == "mid" {
				res.EndToEnd.put("cpu_ms_per_req", ph.medianOverWindows(func(w window) float64 {
					return ratio(ms(w.cpu), float64(w.sent-w.failed))
				}))
			}
		}
		if len(ph.retrain) > 0 {
			v := make([]float64, len(ph.retrain))
			for i, d := range ph.retrain {
				v[i] = d.Seconds()
			}
			res.EndToEnd.put("retrain_s", median(v))
		}
	}
}

// medianOverWindows is the median over the phase's slices of fn: like
// the latency percentiles, throughput and CPU per request are reported
// as the median slice, not the pooled figure.
func (p *phaseResult) medianOverWindows(fn func(window) float64) float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = fn(w)
	}
	return median(v)
}

// predictResponse is the part of prionnd's /predict reply the output
// check compares.
type predictResponse struct {
	RuntimeMin int     `json:"runtime_min"`
	ReadBytes  float64 `json:"read_bytes"`
	WriteBytes float64 `json:"write_bytes"`
	FromModel  bool    `json:"from_model"`
	Degraded   bool    `json:"degraded"`
}

func decodeAnswer(a answer) (predictResponse, error) {
	var r predictResponse
	if a.status != 200 {
		return r, fmt.Errorf("status %d: %s", a.status, a.body)
	}
	if err := json.Unmarshal(a.body, &r); err != nil {
		return r, fmt.Errorf("decoding answer %q: %w", a.body, err)
	}
	if !r.FromModel || r.Degraded {
		return r, fmt.Errorf("answer not from the model: %s", a.body)
	}
	return r, nil
}

// sameAsOracle checks an HTTP answer against Inference.PredictOne on the
// same checkpoint, bit for bit: the repo's batch-size-invariance claim,
// checked through the daemon.
func (e *env) sameAsOracle(script string, a answer) error {
	got, err := decodeAnswer(a)
	if err != nil {
		return err
	}
	want := e.ref.PredictOne(script)
	if got.RuntimeMin != want.RuntimeMin ||
		!bitsEqual(got.ReadBytes, want.ReadBytes) || !bitsEqual(got.WriteBytes, want.WriteBytes) {
		return fmt.Errorf("answer %+v differs from PredictOne %+v", got, want)
	}
	return nil
}

// checkWarm is the output check before timing, on a sample of the
// warm-up answers.
func (e *env) checkWarm(w workloadDef, pool []poolEntry, res *workloadResult) error {
	step := max(1, len(pool)/checksPerPhase)
	for i := 0; i < len(pool); i += step {
		if !w.quant {
			if err := e.sameAsOracle(pool[i].job.Script, res.warm[i]); err != nil {
				return fmt.Errorf("%s: output check before timing, pool script %d: %w", w.name, i, err)
			}
		} else if _, err := decodeAnswer(res.warm[i]); err != nil {
			return fmt.Errorf("%s: output check before timing, pool script %d: %w", w.name, i, err)
		}
		res.Checked++
	}
	return nil
}

// checkTimed is the output check on a sample of timed answers. Float32
// workloads compare with the oracle; the int8 workload compares an
// answer under load with the answer to the same script sent alone.
func (e *env) checkTimed(w workloadDef, pool []poolEntry, g *generator, res *workloadResult) error {
	for _, ph := range res.phases {
		for _, c := range ph.checks {
			script := c.req.script(pool)
			// Float32 answers must equal the oracle until retraining may
			// have swapped the model; int8 answers must not depend on load.
			switch {
			case ph.def.learn:
				// Retraining may have promoted a new model: only the
				// from-the-model check applies.
				if _, err := decodeAnswer(c.ans); err != nil {
					return fmt.Errorf("%s/%s: %w", w.name, ph.def.name, err)
				}
			case !w.quant:
				if err := e.sameAsOracle(script, c.ans); err != nil {
					return fmt.Errorf("%s/%s: %w", w.name, ph.def.name, err)
				}
			default:
				under, err := decodeAnswer(c.ans)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", w.name, ph.def.name, err)
				}
				alone, err := decodeAnswer(g.predict(c.req))
				if err != nil {
					return fmt.Errorf("%s/%s: resend alone: %w", w.name, ph.def.name, err)
				}
				if !sameAnswer(under, alone) {
					return fmt.Errorf("%s/%s: answer under load %+v differs from the same script sent alone %+v", w.name, ph.def.name, under, alone)
				}
			}
			res.Checked++
		}
	}
	return nil
}

// bitsEqual is bit-for-bit equality, which is what the output check
// claims; a tolerance would hide a batch-size-dependent reduction.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAnswer(a, b predictResponse) bool {
	return a.RuntimeMin == b.RuntimeMin && bitsEqual(a.ReadBytes, b.ReadBytes) && bitsEqual(a.WriteBytes, b.WriteBytes)
}
