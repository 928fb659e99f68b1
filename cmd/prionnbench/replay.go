package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/pilot"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/tensor"
)

// span is one timed call into a layer's exported entry point. Spans
// live in this file, around the calls, not inside the program: the
// ladder calls each layer separately on the same inputs, so Parent is
// the layer above on the real request path rather than a caller on the
// stack.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: top of the ladder
	Name    string `json:"name"`
	Req     int    `json:"req"` // replayed request index; -1 for batch-level work
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// span times fn and, when tracing is on, records it under parent.
func (t *tracer) span(parent int, name string, req int, fn func()) (id int, took time.Duration) {
	start := since(t.t0)
	fn()
	end := since(t.t0)
	if t.on {
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: int64(start), EndNs: int64(end)})
	}
	return id, end - start
}

// selfTimes is each span name's total duration minus its children's:
// the time a layer spent itself rather than in the layer below.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e6
	}
	return self
}

// serveConfig is prionnd's default coalescer tuning, which every
// workload's daemon runs with.
var serveConfig = serve.Config{MaxBatch: 64, MaxDelay: 2 * time.Millisecond, QueueDepth: 256}

func clusterConfig() cluster.Config {
	return cluster.Config{
		Replicas: 2, Serve: serveConfig, Policy: cluster.ScriptAffinity,
		RequestTimeout: 5 * time.Second, CacheSize: 4096, Seed: modelSeed,
	}
}

// ladder is one traced pass: the tracer, the metrics it fills, and the
// in-process copies of what the daemon serves with.
type ladder struct {
	e  *env
	tr *tracer
	m  metricSet

	p   *prionn.Predictor
	f32 *prionn.Inference
	i8  *prionn.Inference
}

// medianOf runs fn reps times under a span each and returns the median
// duration.
func (l *ladder) medianOf(parent int, name string, reps int, fn func()) (id int, med time.Duration) {
	d := make([]float64, reps)
	for i := range d {
		var took time.Duration
		id, took = l.tr.span(parent, name, -1, fn)
		d[i] = float64(took)
	}
	return id, time.Duration(median(d))
}

// replay is the traced pass: it loads the same checkpoint in-process and
// replays the workload's captured inputs down the stack, one exported
// entry point at a time. What lies below the request path — the forward
// at batch 32, the blocks, the kernels, training and the pilot — does not
// depend on the workload; it is measured once per repetition of the suite
// (machineLadder) and its metrics and spans are shared by the workloads.
func (e *env) replay(ctx context.Context, w workloadDef, seed int64, res *workloadResult, outDir string) (metricSet, error) {
	prevProcs := runtime.GOMAXPROCS(e.procs)
	prevWorkers := tensor.SetMaxWorkers(e.procs)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		tensor.SetMaxWorkers(prevWorkers)
	}()

	if e.machine == nil {
		mach, err := e.machineLadder(ctx)
		if err != nil {
			return nil, err
		}
		e.machine = mach
	}
	mach := e.machine
	rl := &requestLadder{w: w, own: mach.f32}
	if w.quant {
		rl.own = mach.i8
	}
	ownForward := "prionn.forward_ms." + string(rl.own.Kernel()) + ".b1"
	m := metricSet{}
	for name, v := range mach.m {
		// The workload's own kernel at batch 1 is timed on its captured
		// requests, beside the other stages of the budget.
		if name != ownForward {
			m[name] = v
		}
	}
	statsLayers(m, res)
	m.put("bench.prep_s", e.prepS)

	// Spans of this workload continue the machine ladder's numbering, so
	// the trace file is one tree.
	l := &ladder{e: e, m: m, p: mach.p, f32: mach.f32, i8: mach.i8,
		tr: &tracer{on: true, t0: mach.tr.t0, spans: append([]span(nil), mach.tr.spans...)}}
	rl.ladder = l
	if err := rl.run(ctx, res, capturedRequests(w, seed, len(res.pool), e.sz.replayReqs)); err != nil {
		return nil, err
	}
	if outDir != "" {
		if err := l.writeTrace(w.name, filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// capturedRequests regenerates the first n requests the lo phase sent:
// the stream is a pure function of the seed.
func capturedRequests(w workloadDef, seed int64, poolSize, n int) []request {
	id := 1
	for i, p := range w.phases {
		if p.name == "lo" {
			id = i*phaseSlices + 1 // its first slice
		}
	}
	st := newStream(seed, id, poolSize, w.unique)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = st.next()
	}
	return reqs
}

// requestLadder is the workload's part of the pass.
type requestLadder struct {
	*ladder
	w   workloadDef
	own *prionn.Inference // the workload's kernel
	srv *serve.Server
	cl  *cluster.Cluster
}

func (l *requestLadder) run(ctx context.Context, res *workloadResult, reqs []request) error {
	sv, err := l.own.Clone()
	if err != nil {
		return err
	}
	l.srv = serve.New(sv, serveConfig)
	defer func() { _ = l.srv.Stop(ctx) }() // nothing in flight: the ladder is sequential
	if l.cl, err = cluster.New(l.own, clusterConfig()); err != nil {
		return err
	}
	defer func() { _ = l.cl.Stop(ctx) }()

	// The ladder runs twice, spans off then on; the difference is what
	// recording costs.
	l.tr.on = false
	t0 := now()
	if err := l.perRequest(ctx, res.pool, reqs, true); err != nil {
		return err
	}
	off := since(t0)
	l.tr.on = true
	t0 = now()
	if err := l.perRequest(ctx, res.pool, reqs, false); err != nil {
		return err
	}
	l.m.put("bench.span_overhead_frac", (since(t0)-off).Seconds()/off.Seconds())

	if err := l.engineReplay(ctx, res.pool, reqs, res); err != nil {
		return err
	}
	// The forward at the batch sizes the daemon's own histogram says it
	// ran at.
	for _, name := range []string{"mid", "sat"} {
		if ph := res.phaseByName(name); ph != nil {
			for _, n := range ph.delta().topBatchSizes(3) {
				texts := make([]string, n)
				for i := range texts {
					texts[i] = res.pool[i%len(res.pool)].job.Script
				}
				xn := l.own.MapTexts(texts)
				l.tr.span(0, fmt.Sprintf("prionn.PredictMapped.%s.b%d", name, n), -1, func() { l.own.PredictMapped(xn) })
			}
		}
	}
	l.budget(res)
	return nil
}

// perRequest replays each captured request down the stack at batch 1.
// Every request is made never-seen first, so the cluster call is the
// miss path; the immediate repeat is the hit path.
func (l *requestLadder) perRequest(ctx context.Context, pool []poolEntry, reqs []request, dry bool) error {
	var miss, hit, srv, mp, fw []float64
	var err error
	base := int64(900) * streamSpan // fresh numbers no phase stream uses
	if dry {
		base += streamSpan
	}
	for i, r := range reqs {
		r.fresh = base + int64(i) + 1
		script := r.script(pool)
		sreq := serve.Request{Script: script, RequestedMin: pool[r.pool].job.RequestedMin}

		root, _ := l.tr.span(0, "request", i, func() {})
		c, dMiss := l.tr.span(root, "cluster.Predict", i, func() { _, err = l.cl.Predict(ctx, sreq) })
		if err != nil {
			return err
		}
		_, dHit := l.tr.span(root, "cluster.Predict.hit", i, func() { _, err = l.cl.Predict(ctx, sreq) })
		if err != nil {
			return err
		}
		s, dSrv := l.tr.span(c, "serve.Predict", i, func() { _, err = l.srv.Predict(ctx, sreq) })
		if err != nil {
			return err
		}
		var x *tensor.Tensor
		_, dMap := l.tr.span(s, "prionn.MapTexts", i, func() { x = l.own.MapTexts([]string{l.own.InputText(script, "")}) })
		_, dFw := l.tr.span(s, "prionn.PredictMapped", i, func() { l.own.PredictMapped(x) })
		miss, hit, srv = append(miss, float64(dMiss)), append(hit, float64(dHit)), append(srv, float64(dSrv))
		mp, fw = append(mp, float64(dMap)), append(fw, float64(dFw))
	}
	if dry {
		return nil
	}
	l.m.put("cluster.hit_us", median(hit)/1e3)
	l.m.put("cluster.miss_overhead_us", (median(miss)-median(srv))/1e3)
	l.m.put("serve.coalesce_wait_ms", (median(srv)-median(mp)-median(fw))/1e6)
	l.m.put("prionn.forward_ms."+string(l.own.Kernel())+".b1", median(fw)/1e6)
	return nil
}

// engineReplay sends the lo phase's own requests, one at a time, through
// the in-process engine the daemon would route them to: the loopback p50
// minus this p50 is what the HTTP front end costs.
func (l *requestLadder) engineReplay(ctx context.Context, pool []poolEntry, reqs []request, res *workloadResult) error {
	predict := func(r serve.Request) error {
		if l.w.cluster {
			_, err := l.cl.Predict(ctx, r)
			return err
		}
		_, err := l.srv.Predict(ctx, r)
		return err
	}
	// The daemon's cache saw every pool script in the warm-up.
	if l.w.cluster {
		for _, r := range reqs {
			if err := predict(serve.Request{Script: pool[r.pool].job.Script}); err != nil {
				return err
			}
		}
	}
	d := make([]float64, len(reqs))
	var err error
	for i, r := range reqs {
		sreq := serve.Request{Script: r.script(pool), RequestedMin: pool[r.pool].job.RequestedMin}
		_, took := l.tr.span(0, "engine.Predict", i, func() { err = predict(sreq) })
		if err != nil {
			return err
		}
		d[i] = ms(took)
	}
	l.m.put("http.overhead_ms", mustMetric(res.EndToEnd, "p50_ms.lo")-median(d))
	return nil
}

// budget sums the stages of the path p50_ms.lo takes and compares the
// sum with the end-to-end figure.
func (l *requestLadder) budget(res *workloadResult) {
	forward := mustMetric(l.m, "prionn.forward_ms."+string(l.own.Kernel())+".b1")
	mapB1 := mustMetric(l.m, "mapping.map_us_per_script") / 1e3
	p50 := mustMetric(res.EndToEnd, "p50_ms.lo")
	sum := mustMetric(l.m, "http.overhead_ms")
	if l.w.cluster {
		// More than half the requests hit the cache, so p50 is the hit path.
		sum += mustMetric(l.m, "cluster.hit_us") / 1e3
	} else {
		sum += mustMetric(l.m, "serve.coalesce_wait_ms") + mapB1 + forward
	}
	gap := sum - p50
	if gap < 0 {
		gap = -gap
	}
	l.m.put("budget.sum_ms.lo", sum)
	l.m.put("budget.gap_frac.lo", ratio(gap, p50))

	// What a median mid request waited beyond the coalescing delay and
	// the daemon's own per-batch stage times.
	if ph := res.phaseByName("mid"); ph != nil {
		wait := mustMetric(res.EndToEnd, "p50_ms.mid") - mustMetric(l.m, "http.overhead_ms")
		if l.w.cluster {
			wait -= mustMetric(l.m, "cluster.hit_us") / 1e3
		} else {
			wait -= mustMetric(l.m, "serve.coalesce_wait_ms") +
				mustMetric(l.m, "serve.map_ms_per_batch.mid") + mustMetric(l.m, "serve.forward_ms_per_batch.mid")
		}
		l.m.put("serve.queue_wait_ms.mid", max(0, wait))
	}
}

// machineLadder measures everything below the request path: the
// predictor's life cycle, the forward in both kernels, the block table
// and the kernels, training and one pilot event.
func (e *env) machineLadder(ctx context.Context) (*ladder, error) {
	l := &ladder{e: e, m: metricSet{}, tr: &tracer{on: true, t0: now()}}
	if err := l.open(); err != nil {
		return nil, err
	}
	if err := l.batchLadder(); err != nil {
		return nil, err
	}
	if err := l.lifecycle(ctx); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ladder) open() error {
	e := l.e
	var err error
	_, load := l.medianOf(0, "prionn.LoadFile", min(3, e.sz.reps), func() {
		if p, lerr := prionn.LoadFile(e.ckpt); lerr != nil {
			err = lerr
		} else {
			l.p = p
		}
	})
	if err != nil {
		return err
	}
	l.m.put("prionn.load_ms", ms(load))

	if l.f32, err = l.p.Snapshot(); err != nil {
		return err
	}
	// prionnd -load -quant calibrates on the most recent completed jobs of
	// its own trace, capped at 256.
	calib := e.completed
	if len(calib) > e.sz.calibJobs {
		calib = calib[len(calib)-e.sz.calibJobs:]
	}
	_, q := l.tr.span(0, "prionn.SnapshotQuantized", -1, func() { l.i8, err = l.p.SnapshotQuantized(calib) })
	if err != nil {
		return err
	}
	l.m.put("prionn.quantize_ms", ms(q))

	var fbuf, qbuf bytes.Buffer
	if err := l.p.Save(&fbuf); err != nil {
		return err
	}
	if err := l.i8.SaveQuantized(&qbuf); err != nil {
		return err
	}
	l.m.put("prionn.snapshot_mb.f32", float64(fbuf.Len())/1e6)
	l.m.put("prionn.snapshot_mb.int8", float64(qbuf.Len())/1e6)

	_, cl := l.medianOf(0, "prionn.Clone", e.sz.reps, func() {
		if _, cerr := l.f32.Clone(); cerr != nil {
			err = cerr
		}
	})
	l.m.put("prionn.clone_ms", ms(cl))
	return err
}

// batchLadder times mapping and the forward at batch 1 and 32 in both
// kernels, on the daemon's own trace, and the blocks and kernels below.
func (l *ladder) batchLadder() error {
	reps := l.e.sz.reps
	texts := func(n int) []string {
		t := make([]string, n)
		for i := range t {
			t[i] = l.e.completed[i%len(l.e.completed)].Script
		}
		return t
	}
	t32 := texts(blockBatch)
	var x32 *tensor.Tensor
	_, dMap := l.medianOf(0, "prionn.MapTexts.b32", reps, func() { x32 = l.f32.MapTexts(t32) })
	l.m.put("mapping.map_us_per_script", float64(dMap)/1e3/blockBatch)
	x1 := l.f32.MapTexts(t32[:1])

	parents := map[string]int{}
	for _, k := range []struct {
		name string
		v    *prionn.Inference
	}{{"f32", l.f32}, {"int8", l.i8}} {
		_, d := l.medianOf(0, "prionn.PredictMapped."+k.name+".b1", reps, func() { k.v.PredictMapped(x1) })
		l.m.put("prionn.forward_ms."+k.name+".b1", ms(d))
		id, d := l.medianOf(0, "prionn.PredictMapped."+k.name+".b32", reps, func() { k.v.PredictMapped(x32) })
		l.m.put("prionn.forward_ms."+k.name+".b32", ms(d))
		parents[k.name] = id
	}

	// int8 vs float32: the share of (script, head) answers that differ.
	n := min(len(l.e.completed), 256)
	xs := l.f32.MapTexts(texts(n))
	a, b := l.f32.PredictMapped(xs), l.i8.PredictMapped(xs)
	differ := 0
	for i := range a {
		if a[i].RuntimeMin != b[i].RuntimeMin {
			differ++
		}
		if !bitsEqual(a[i].ReadBytes, b[i].ReadBytes) {
			differ++
		}
		if !bitsEqual(a[i].WriteBytes, b[i].WriteBytes) {
			differ++
		}
	}
	l.m.put("prionn.int8_disagree_frac", float64(differ)/float64(3*n))

	return l.blocks(x32, parents)
}

// lifecycle times what happens around serving: a cluster-wide swap,
// shadow evaluation, checkpointing, a pilot event and a training event.
func (l *ladder) lifecycle(ctx context.Context) error {
	e, cfg := l.e, l.e.sz.model
	reps := min(3, e.sz.reps)

	cl, err := cluster.New(l.f32, clusterConfig())
	if err != nil {
		return err
	}
	defer func() { _ = cl.Stop(ctx) }() // nothing in flight

	cand, err := l.f32.Clone()
	if err != nil {
		return err
	}
	_, swap := l.medianOf(0, "cluster.Swap", reps, func() {
		if serr := cl.Swap(cand); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return err
	}
	l.m.put("cluster.swap_ms", ms(swap))

	shadow := e.completed[len(e.completed)-min(64, len(e.completed)):]
	_, ev := l.medianOf(0, "pilot.Evaluate", reps, func() {
		if _, eerr := pilot.Evaluate(l.f32, cand, shadow, pilot.GateConfig{}); eerr != nil {
			err = eerr
		}
	})
	if err != nil {
		return err
	}
	l.m.put("pilot.shadow_eval_ms", ms(ev))

	tmp := filepath.Join(e.dir, "replay.ckpt")
	defer func() { _ = os.Remove(tmp) }() // scratch copy; a leftover is harmless
	_, save := l.medianOf(0, "prionn.SaveFile", reps, func() {
		if serr := l.p.SaveFile(tmp); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return err
	}
	l.m.put("pilot.ckpt_save_ms", ms(save))

	// One pilot event on the in-process cluster: the last Observe of the
	// cadence trips retrain + checkpoint + shadow eval (+ canary start).
	pl, err := pilot.New(pilot.Config{
		Model: cfg, ShadowWindow: 64, Canary: cluster.CanaryConfig{Frac: 0.1}, CheckpointPath: tmp,
	}, cl)
	if err != nil {
		return err
	}
	window := e.completed[:cfg.RetrainEvery]
	var event time.Duration
	for i, j := range window {
		_, took := l.tr.span(0, "pilot.Observe", i, func() { err = pl.Observe(ctx, j) })
		if err != nil {
			return err
		}
		event = took
	}
	if pl.Status().TrainedThisRun != 1 {
		return fmt.Errorf("replay: %d Observe calls tripped %d pilot events, want 1", len(window), pl.Status().TrainedThisRun)
	}
	l.m.put("pilot.event_ms", ms(event))

	// Last, because it moves l.p's weights: one training event.
	train := e.completed[len(e.completed)-cfg.TrainWindow:]
	_, tr := l.tr.span(0, "prionn.Train", -1, func() { _, err = l.p.Train(train) })
	if err != nil {
		return err
	}
	l.m.put("prionn.train_ms_per_job", ms(tr)/float64(len(train)))
	return nil
}

// traceFile is what <out>/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	SelfMs   map[string]float64 `json:"self_ms_by_span_name"`
	Spans    []span             `json:"spans"`
}

func (l *ladder) writeTrace(workload, path string) error {
	raw, err := json.Marshal(traceFile{Workload: workload, SelfMs: l.tr.selfTimes(), Spans: l.tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
