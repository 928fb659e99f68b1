// Command prionnd is PRIONN's batched inference daemon: it publishes a
// trained model snapshot behind the internal/serve coalescer and
// answers per-job prediction requests over HTTP, at submission time,
// the way the paper's continuous deployment loop does (§2.3) — but
// batched, so concurrent traffic rides the blocked-GEMM compute core
// instead of N single-sample forwards.
//
// Usage:
//
//	prionnd -jobs 2000 -scale fast -addr :8356   # train on a synthetic trace, then serve
//	prionnd -load model.ckpt -addr :8356         # serve a model saved by cmd/prionn
//	prionnd -replicas 4 -policy affinity ...     # fault-tolerant multi-replica cluster
//	prionnd -quant -jobs 2000 ...                # serve int8-rounded weights on the float32 forward
//	prionnd -retrain-every 100 -canary-frac 0.1  # close the online-learning loop
//	prionnd -debug-addr 127.0.0.1:6060 ...       # net/http/pprof on a listener of its own
//
// -load serves a checkpoint's weights, not its training state:
// prionn.LoadInference reads them into the one view the daemon publishes
// and reads past the optimizer moments, checking their counts, without
// building them. With -quant, prionn.LoadInferenceQuantized then records
// the float classes of the check slice, rounds that view's weights
// through int8 in place and compares — start-up holds one float copy of
// the weights, and publishes the snapshot Predictor.SnapshotQuantized
// would, whose dense layers keep only their int8 codes. Of the synthetic
// trace only the check slice outlives the start of the load.
//
// With -replicas N > 1 the daemon serves from an internal/cluster of N
// replicated coalescers behind a router: budgeted retries, per-replica
// circuit breakers driven by real traffic (the only health signal —
// replicas share the process and the snapshot, so there is no prober,
// no hedging and nothing to restart), a script-affinity prediction
// cache (-cache), and graceful degradation — when no replica can
// answer, /predict returns the request's own requested runtime with
// "degraded": true instead of an error.
//
// With -retrain-every N > 0 the daemon runs the internal/pilot
// online-learning pipeline: completed jobs POSTed to /complete stream
// into a warm-start retraining loop (every N completions), each
// candidate snapshot is shadow-evaluated against the serving model on
// the last -shadow-window completions, and accepted candidates serve a
// -canary-frac fraction of live traffic — with automatic rollback on
// error or disagreement spikes — before being atomically promoted to
// every replica. -retrain-ckpt persists the retraining state crash-
// safely so a restarted daemon resumes instead of training from
// scratch. /stats gains a "pipeline" object with the loop's state.
//
// Endpoints:
//
//	POST /predict  {"script": "...", "input_deck": "...", "requested_min": 60}
//	               → {"runtime_min": 57, "read_bytes": ..., "write_bytes": ...,
//	                  "read_bw": ..., "write_bw": ..., "from_model": true}
//	               503 with a text body when the admission queue is full;
//	               504 when -request-timeout expires (single-replica mode).
//	POST /complete {"script": "...", "actual_sec": 3420, "read_bytes": ...,
//	               "write_bytes": ...} → 202; feeds one finished job to the
//	               online-learning pipeline (requires -retrain-every > 0;
//	               503 when the completion queue is full).
//	GET  /stats    → JSON serving counters (queue depth, batch-size
//	               histogram, per-stage latency, predictions served, the
//	               published snapshot's kernel kind and persisted byte
//	               size; in cluster mode: retries, cache hit rate, and
//	               a per-replica breakdown with breaker states).
//	GET  /healthz  → 200 ok (liveness: the process is up)
//	GET  /readyz   → 200 ready, or 503 once draining has begun — and, under
//	               -no-fallback, until a trained snapshot is published.
//
// -debug-addr, off by default, serves net/http/pprof under /debug/pprof/
// on a second listener with its own mux: the profiling endpoints are
// never reachable through -addr.
//
// Until the first training event has been published, predictions fall
// back to the request's user-requested runtime ("from_model": false) —
// the daemon never emits forward passes of untrained weights. -jobs 0
// skips initial training entirely and starts a fallback-only daemon.
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503, -drain-grace
// elapses (so load balancers observe the flip), admission stops, queued
// requests are answered, then the process exits, printing a final stats
// snapshot when -stats is set.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/pilot"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// predictRequest is the POST /predict wire format.
type predictRequest struct {
	Script       string `json:"script"`
	InputDeck    string `json:"input_deck,omitempty"`
	RequestedMin int    `json:"requested_min,omitempty"`
}

// completeRequest is the POST /complete wire format: one finished job
// reported back to the daemon for the online-learning pipeline.
type completeRequest struct {
	Script       string  `json:"script"`
	InputDeck    string  `json:"input_deck,omitempty"`
	RequestedMin int     `json:"requested_min,omitempty"`
	ActualSec    int64   `json:"actual_sec"`
	ReadBytes    int64   `json:"read_bytes,omitempty"`
	WriteBytes   int64   `json:"write_bytes,omitempty"`
	AvgPowerW    float64 `json:"avg_power_w,omitempty"`
	Canceled     bool    `json:"canceled,omitempty"`
}

// predictResponse is the POST /predict reply.
type predictResponse struct {
	RuntimeMin int     `json:"runtime_min"`
	ReadBytes  float64 `json:"read_bytes"`
	WriteBytes float64 `json:"write_bytes"`
	ReadBW     float64 `json:"read_bw"`
	WriteBW    float64 `json:"write_bw"`
	PowerW     float64 `json:"power_w,omitempty"`
	FromModel  bool    `json:"from_model"`

	// Cluster-mode fields: Degraded marks a requested-runtime fallback
	// served because no replica could answer; Cached marks a prediction
	// served from the memoizing cache; Replica identifies the answering
	// replica.
	Degraded bool `json:"degraded,omitempty"`
	Cached   bool `json:"cached,omitempty"`
	Replica  *int `json:"replica,omitempty"`
}

// engine abstracts the two serving backends — a single coalescing
// server or a replicated cluster — behind the HTTP front end.
type engine interface {
	Predict(ctx context.Context, req serve.Request) (cluster.Response, error)
	Stop(ctx context.Context) error
	// View is the currently published snapshot (nil if none); /readyz
	// consults it under -no-fallback.
	View() *prionn.Inference
	// StatsJSON is marshaled for GET /stats; StatsText is the block the
	// -stats ticker and the shutdown path print.
	StatsJSON() any
	StatsText() string
}

// singleEngine serves from one coalescing server (the -replicas 1
// default, wire- and stats-compatible with earlier daemons).
// snapBytes is the persisted byte size of the published snapshot
// artifact, reported on /stats alongside the kernel kind so operators
// can see what the -quant switch bought.
type singleEngine struct {
	srv       *serve.Server
	snapBytes int64
}

func (e *singleEngine) Predict(ctx context.Context, req serve.Request) (cluster.Response, error) {
	resp, err := e.srv.Predict(ctx, req)
	return cluster.Response{Pred: resp.Pred, FromModel: resp.FromModel, Replica: -1}, err
}
func (e *singleEngine) Stop(ctx context.Context) error { return e.srv.Stop(ctx) }
func (e *singleEngine) View() *prionn.Inference        { return e.srv.View() }
func (e *singleEngine) StatsJSON() any {
	// The embedded snapshot keeps its fields at the top level of the
	// /stats document, so existing consumers are unaffected.
	return struct {
		serve.Snapshot
		SnapshotBytes int64 `json:"snapshot_bytes"`
	}{e.srv.Stats(), e.snapBytes}
}
func (e *singleEngine) StatsText() string {
	return e.srv.Stats().String() + fmt.Sprintf("snapshot: %d bytes\n", e.snapBytes)
}

// clusterEngine serves from a replicated cluster.
type clusterEngine struct {
	cl        *cluster.Cluster
	snapBytes int64
}

func (e *clusterEngine) Predict(ctx context.Context, req serve.Request) (cluster.Response, error) {
	return e.cl.Predict(ctx, req)
}
func (e *clusterEngine) Stop(ctx context.Context) error { return e.cl.Stop(ctx) }
func (e *clusterEngine) View() *prionn.Inference        { return e.cl.View() }
func (e *clusterEngine) StatsJSON() any {
	return struct {
		cluster.Snapshot
		SnapshotBytes int64 `json:"snapshot_bytes"`
	}{e.cl.Stats(), e.snapBytes}
}
func (e *clusterEngine) StatsText() string {
	return e.cl.Stats().String() + fmt.Sprintf("snapshot: %d bytes\n", e.snapBytes)
}

// run is the testable body of main: parse argv, build the model and
// serving engine, and serve HTTP until a signal (or ready-callback-driven
// shutdown in tests). ready, when non-nil, receives the bound listen
// address once the HTTP server accepts connections; the stop function it
// is handed initiates the same graceful drain a SIGINT would.
func run(argv []string, stdout, stderr io.Writer, ready func(addr string, stop func())) int {
	fs := flag.NewFlagSet("prionnd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	addr := fs.String("addr", ":8356", "HTTP listen address")
	debugAddr := fs.String("debug-addr", "", "listen address for net/http/pprof, on a listener and mux of its own (empty: off)")
	jobs := fs.Int("jobs", 2000, "synthetic trace length for initial training (0: skip training, serve fallback only)")
	seed := fs.Int64("seed", 1, "seed for trace and model")
	scale := fs.String("scale", "fast", "model scale: tiny, fast, paper")
	load := fs.String("load", "", "serve a model checkpoint instead of training")
	quant := fs.Bool("quant", false, "serve the float32 forward over per-channel int8 weights (checked on a held-out trace slice)")
	maxBatch := fs.Int("max-batch", 64, "largest coalesced minibatch")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "longest a batch is held for more requests; only a batch that follows one with more than one request is held, a lone or sequential caller is flushed at once")
	queueDepth := fs.Int("queue", 256, "admission queue depth (backpressure bound)")
	statsEvery := fs.Duration("stats", 0, "print serving stats at this interval (0: only at shutdown)")

	replicas := fs.Int("replicas", 1, "serving replicas; >1 enables the fault-tolerant cluster")
	policy := fs.String("policy", "affinity", "cluster routing policy: round-robin, least-loaded, affinity")
	cacheSize := fs.Int("cache", 4096, "cluster prediction-cache entries per run (0: disable)")
	reqTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request deadline for /predict (0: none); in cluster mode expiry degrades to the requested runtime, in single mode it returns 504")
	drainGrace := fs.Duration("drain-grace", 0, "pause between flipping /readyz to 503 and closing admission, so load balancers drain first")
	noFallback := fs.Bool("no-fallback", false, "report not-ready on /readyz until a trained snapshot is published")

	retrainEvery := fs.Int("retrain-every", 0, "completed jobs (POST /complete) between online retraining events (0: online learning off)")
	shadowWindow := fs.Int("shadow-window", 64, "most recent completions replayed by the shadow-evaluation gate")
	canaryFrac := fs.Float64("canary-frac", 0.1, "live-traffic fraction served by an accepted candidate during its canary stage")
	retrainCkpt := fs.String("retrain-ckpt", "", "crash-safe checkpoint path for the online-retrain predictor (loaded on restart)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	logf := func(format string, args ...interface{}) {
		_, _ = fmt.Fprintf(stderr, "prionnd: "+format+"\n", args...)
	}

	if *retrainEvery > 0 && *quant {
		// Retrained candidates are float32 snapshots; promoting one would
		// silently replace the int8 weights the operator asked for.
		logf("-retrain-every and -quant are mutually exclusive: online retraining publishes float32 candidates")
		return 1
	}

	mcfg, err := prionn.ScaleConfig(*scale)
	if err != nil {
		logf("%v", err)
		return 1
	}
	mcfg.Seed = *seed
	view, snapBytes, mcfg, err := buildSnapshot(*load, mcfg, *seed, *jobs, *quant, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}

	serveCfg := serve.Config{
		MaxBatch:   *maxBatch,
		MaxDelay:   *maxDelay,
		QueueDepth: *queueDepth,
	}
	var eng engine
	if *replicas > 1 {
		pol, err := cluster.ParsePolicy(*policy)
		if err != nil {
			logf("%v", err)
			return 1
		}
		cl, err := cluster.New(view, cluster.Config{
			Replicas:       *replicas,
			Serve:          serveCfg,
			Policy:         pol,
			RequestTimeout: *reqTimeout,
			CacheSize:      *cacheSize,
			Seed:           *seed,
		})
		if err != nil {
			logf("%v", err)
			return 1
		}
		logf("cluster: %d replicas, %s routing", *replicas, pol)
		eng = &clusterEngine{cl: cl, snapBytes: snapBytes}
	} else {
		eng = &singleEngine{srv: serve.New(view, serveCfg), snapBytes: snapBytes}
	}

	// The online-learning pipeline: the cluster is its own canary-capable
	// deployer; a single coalescing server deploys directly (accepted
	// candidates swap in without a traffic-split stage).
	var pl *pilot.Pilot
	if *retrainEvery > 0 {
		mcfg.RetrainEvery = *retrainEvery
		var dep pilot.Deployer
		if ce, ok := eng.(*clusterEngine); ok {
			dep = ce.cl
		} else {
			dep = &pilot.DirectDeployer{Srv: eng.(*singleEngine).srv}
		}
		pl, err = pilot.New(pilot.Config{
			Model:          mcfg,
			ShadowWindow:   *shadowWindow,
			Canary:         cluster.CanaryConfig{Frac: *canaryFrac},
			CheckpointPath: *retrainCkpt,
		}, dep)
		if err != nil {
			logf("%v", err)
			_ = eng.Stop(context.Background())
			return 1
		}
		logf("online learning: retrain every %d completions (window %d), shadow window %d, canary fraction %.2f",
			mcfg.RetrainEvery, mcfg.TrainWindow, *shadowWindow, *canaryFrac)
		if pl.Events() > 0 {
			logf("online learning: resumed from %s (%d training events)", *retrainCkpt, pl.Events())
		}
	}

	d := &daemon{
		eng:         eng,
		pilot:       pl,
		clusterMode: *replicas > 1,
		noFallback:  *noFallback,
		reqTimeout:  *reqTimeout,
		drainGrace:  *drainGrace,
	}
	return d.serveHTTP(*addr, *debugAddr, *statsEvery, stdout, logf, ready)
}

// countingWriter counts the bytes written through it and keeps none:
// the size of a checkpoint without a copy of it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// buildSnapshot loads or trains a model and returns its published
// inference snapshot, the persisted byte size of the snapshot artifact
// (for /stats: the -load file's size, or what Save writes for a model
// trained here), and the model configuration actually in effect — the
// loaded checkpoint's when -load is set, cfg otherwise — which the
// online-learning pipeline adopts so its candidates match the serving
// model. With -quant the published snapshot is the model's weights
// rounded through int8, checked on a held-out slice of completed jobs. With
// -jobs 0 and no checkpoint it returns a nil view: the daemon serves
// the requested-runtime fallback until a snapshot exists. The synthetic
// trace is generated only where it is read: to train here, and to
// check -quant.
func buildSnapshot(load string, cfg prionn.Config, seed int64, jobs int, quant bool, logf func(string, ...interface{})) (*prionn.Inference, int64, prionn.Config, error) {
	var completed []trace.Job
	if load == "" || quant {
		completed = trace.Completed(trace.Generate(trace.Config{Seed: seed, Jobs: jobs}))
	}
	if load != "" {
		view, n, err := loadSnapshot(load, completed, quant, logf)
		if err != nil {
			return nil, 0, cfg, err
		}
		return view, n, view.Config(), nil
	}
	if jobs <= 0 {
		logf("no initial training (-jobs 0): serving the requested-runtime fallback")
		return nil, 0, cfg, nil
	}
	trainWindow := min(len(completed), cfg.TrainWindow)
	logf("training on %d most recently completed jobs...", trainWindow)
	p, err := prionn.NewTrained(cfg, completed)
	if err != nil {
		return nil, 0, cfg, err
	}
	var cw countingWriter
	if err := p.Save(&cw); err != nil {
		return nil, 0, cfg, err
	}
	if !quant {
		view, err := p.Snapshot()
		return view, cw.n, cfg, err
	}
	check, err := checkSlice(completed, trainWindow)
	if err != nil {
		return nil, 0, cfg, err
	}
	view, err := p.SnapshotQuantized(check)
	if err != nil {
		return nil, 0, cfg, err
	}
	n, err := publishedInt8(view, cw.n, logf)
	return view, n, cfg, err
}

// loadSnapshot serves a checkpoint's weights without its training state:
// prionn.LoadInference reads them into the one view the daemon publishes
// and skips the optimizer moments, and with -quant
// prionn.LoadInferenceQuantized rounds that view's weights through int8
// in place, checked on a copy of the check slice, so the rest of the
// trace is garbage before the checkpoint is read. Its byte count is the
// file's size, or the int8 snapshot's.
func loadSnapshot(path string, completed []trace.Job, quant bool, logf func(string, ...interface{})) (*prionn.Inference, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = f.Close() }() // read-only; close errors carry no data loss
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if !quant {
		view, events, err := prionn.LoadInference(f)
		if err != nil {
			return nil, 0, err
		}
		logf("restored model from %s (%d training events)", path, events)
		return view, fi.Size(), nil
	}
	check, err := checkSlice(completed, 0)
	if err != nil {
		return nil, 0, err
	}
	check = append([]trace.Job(nil), check...)
	view, events, err := prionn.LoadInferenceQuantized(f, check)
	if err != nil {
		return nil, 0, err
	}
	logf("restored model from %s (%d training events)", path, events)
	n, err := publishedInt8(view, fi.Size(), logf)
	return view, n, err
}

// checkSlice picks the jobs an int8 snapshot's agreement with the float
// weights is checked on: the most recent completed jobs *preceding* the
// training window (held out from training); when the whole trace fit in
// the window — or the model came from -load (trainWindow 0), where the
// local trace is entirely held out — the most recent completed jobs. The
// check is capped at maxCheck jobs to bound startup time.
func checkSlice(completed []trace.Job, trainWindow int) ([]trace.Job, error) {
	const maxCheck = 256
	check := completed
	if trainWindow > 0 && trainWindow < len(completed) {
		check = completed[:len(completed)-trainWindow]
	}
	if len(check) > maxCheck {
		check = check[len(check)-maxCheck:]
	}
	if len(check) == 0 {
		return nil, fmt.Errorf("-quant needs completed jobs to check on (trace too short)")
	}
	return check, nil
}

// publishedInt8 logs the int8 snapshot about to be published — its
// check, and its persisted size beside the float checkpoint's, ckptBytes
// — and returns that size.
func publishedInt8(view *prionn.Inference, ckptBytes int64, logf func(string, ...interface{})) (int64, error) {
	var cw countingWriter
	if err := view.SaveQuantized(&cw); err != nil {
		return 0, err
	}
	a := view.Agreement()
	logf("int8 snapshot published: %d check jobs, flip rate %s; %d bytes (float checkpoint: %d bytes)",
		a.Jobs, a, cw.n, ckptBytes)
	return cw.n, nil
}

// daemon is the HTTP front end's state: the serving engine plus the
// readiness knobs the handlers consult.
type daemon struct {
	eng         engine
	clusterMode bool
	noFallback  bool
	reqTimeout  time.Duration
	drainGrace  time.Duration

	// pilot, when non-nil, is the online-learning pipeline; completions
	// is the bounded queue between the POST /complete handler and the
	// pipeline's single consumer goroutine (the pilot is goroutine-
	// confined, so only that consumer calls Observe/Tick).
	pilot       *pilot.Pilot
	completions chan trace.Job

	// draining flips once shutdown begins; /readyz reports 503 from then
	// on while /healthz (liveness) stays 200 until the process exits.
	draining atomic.Bool
}

// hasTrainedView reports whether the engine currently publishes a
// trained snapshot, so -no-fallback readiness follows the pilot's
// promotions and not just the start-up view.
func (d *daemon) hasTrainedView() bool {
	v := d.eng.View()
	return v != nil && v.Trained()
}

// statsText is the block the -stats ticker and the shutdown path print:
// the engine's counters plus, with online learning on, a pipeline line.
func (d *daemon) statsText() string {
	s := d.eng.StatsText()
	if d.pilot != nil {
		st := d.pilot.Status()
		s += fmt.Sprintf("pipeline: %s, %d events (%d trained), shadow %d accepted / %d rejected, canary %d started / %d promoted / %d rolled back\n",
			st.Phase, st.Events, st.TrainedThisRun,
			st.ShadowAccepted, st.ShadowRejected,
			st.CanaryStarts, st.CanaryPromotions, st.CanaryRollbacks)
	}
	return s
}

// serveHTTP runs the HTTP front end until SIGINT/SIGTERM (or the
// test-supplied stop function), then drains: readiness flips, the
// drain grace elapses, in-flight handlers finish, the engine stops.
func (d *daemon) serveHTTP(addr, debugAddr string, statsEvery time.Duration, stdout io.Writer, logf func(string, ...interface{}), ready func(addr string, stop func())) int {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", d.handlePredict)
	if d.pilot != nil {
		d.completions = make(chan trace.Job, 1024)
		mux.HandleFunc("POST /complete", d.handleComplete)
	}
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := d.eng.StatsJSON()
		if d.pilot != nil {
			// Graft the pipeline's state into the engine document without
			// disturbing its top-level keys.
			if raw, err := json.Marshal(doc); err == nil {
				m := map[string]interface{}{}
				if json.Unmarshal(raw, &m) == nil {
					m["pipeline"] = d.pilot.Status()
					_ = json.NewEncoder(w).Encode(m)
					return
				}
			}
		}
		_ = json.NewEncoder(w).Encode(doc)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and the mux is answering. Do
		// not add readiness conditions here — a draining daemon is alive.
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case d.draining.Load():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case d.noFallback && !d.hasTrainedView():
			http.Error(w, "no trained snapshot published", http.StatusServiceUnavailable)
		default:
			_, _ = io.WriteString(w, "ready\n")
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	// The profiling endpoints get a listener and a mux of their own, so
	// they are never reachable through -addr; no write timeout, a CPU
	// profile streams for as long as it was asked to.
	var debug *http.Server
	debugDone := make(chan struct{})
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			logf("%v", err)
			_ = ln.Close()
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debug = &http.Server{Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			defer close(debugDone)
			_ = debug.Serve(dln) // returns once the drain closes the server
		}()
		logf("debug: pprof on %s", dln.Addr())
	}
	// Every timeout here exists to bound a resource a slow or hostile
	// client could otherwise hold forever: header trickling (slowloris),
	// body trickling, a reader that never drains the response, and idle
	// keep-alive connections. WriteTimeout must exceed the /predict
	// deadline or the server would cut off legitimately slow responses
	// before the handler's own timeout fires.
	writeTimeout := 30 * time.Second
	if d.reqTimeout > 0 && d.reqTimeout+5*time.Second > writeTimeout {
		writeTimeout = d.reqTimeout + 5*time.Second
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(stopCh) }) }

	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	logf("serving on %s", ln.Addr())

	// The pipeline's single consumer: every Observe/Tick call happens on
	// this goroutine, preserving the pilot's confinement contract.
	pilotStop := make(chan struct{})
	pilotDone := make(chan struct{})
	if d.pilot != nil {
		go d.pilotLoop(pilotStop, pilotDone, logf)
	} else {
		close(pilotDone)
	}

	if ready != nil {
		ready(ln.Addr().String(), stop)
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if statsEvery > 0 {
		ticker = time.NewTicker(statsEvery)
		tick = ticker.C
		defer ticker.Stop()
	}

	code := 0
loop:
	for {
		select {
		case <-tick:
			_, _ = fmt.Fprint(stdout, d.statsText())
		case sig := <-sigCh:
			logf("received %v, draining...", sig)
			break loop
		case <-stopCh:
			logf("stop requested, draining...")
			break loop
		case err := <-httpDone:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				logf("http: %v", err)
				code = 1
			}
			break loop
		}
	}

	// Drain ladder: advertise not-ready first, give load balancers the
	// grace window to act on it, then stop accepting and drain.
	d.draining.Store(true)
	if d.drainGrace > 0 {
		time.Sleep(d.drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logf("http shutdown: %v", err)
		code = 1
	}
	if debug != nil {
		// Close, not Shutdown: a profile still streaming is cut off, the
		// drain does not wait out its duration.
		_ = debug.Close()
		<-debugDone
	}
	// Stop the pipeline after the handlers (no more completions arrive)
	// but before the engine, so a promotion never lands on a stopped
	// cluster.
	close(pilotStop)
	<-pilotDone
	if err := d.eng.Stop(shutdownCtx); err != nil {
		logf("drain: %v", err)
		code = 1
	}
	_, _ = fmt.Fprint(stdout, d.statsText())
	return code
}

// pilotLoop drains the completion queue into the pipeline and advances
// canary promotion/rollback on a ticker. It is the only goroutine that
// touches the pilot. On stop it consumes whatever is already queued —
// the handler stopped enqueueing when the HTTP server shut down — so
// accepted completions are never silently dropped.
func (d *daemon) pilotLoop(stop <-chan struct{}, done chan<- struct{}, logf func(string, ...interface{})) {
	defer close(done)
	ctx := context.Background()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case j := <-d.completions:
			if err := d.pilot.Observe(ctx, j); err != nil {
				logf("pipeline: %v", err)
			}
		case <-tick.C:
			if err := d.pilot.Tick(ctx); err != nil {
				logf("pipeline: %v", err)
			}
		case <-stop:
			for {
				select {
				case j := <-d.completions:
					if err := d.pilot.Observe(ctx, j); err != nil {
						logf("pipeline: %v", err)
					}
				default:
					return
				}
			}
		}
	}
}

// handleComplete answers POST /complete: decode one finished job and
// enqueue it for the pipeline. The queue is bounded; a full queue is
// the submitter's backpressure signal (503), mirroring /predict.
func (d *daemon) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Script == "" {
		http.Error(w, "bad request: script is required", http.StatusBadRequest)
		return
	}
	if req.ActualSec < 0 || req.ReadBytes < 0 || req.WriteBytes < 0 {
		http.Error(w, "bad request: negative runtime or IO volume", http.StatusBadRequest)
		return
	}
	j := trace.Job{
		Script:       req.Script,
		InputDeck:    req.InputDeck,
		RequestedMin: req.RequestedMin,
		ActualSec:    req.ActualSec,
		ReadBytes:    req.ReadBytes,
		WriteBytes:   req.WriteBytes,
		AvgPowerW:    req.AvgPowerW,
		Canceled:     req.Canceled,
	}
	select {
	case d.completions <- j:
		w.WriteHeader(http.StatusAccepted)
		_, _ = io.WriteString(w, "accepted\n")
	default:
		http.Error(w, "completion queue full", http.StatusServiceUnavailable)
	}
}

// handlePredict answers POST /predict through the engine. In single
// mode the -request-timeout deadline is applied here and maps to 504;
// in cluster mode the cluster owns the deadline and expiry degrades to
// the requested-runtime fallback instead.
func (d *daemon) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if d.reqTimeout > 0 && !d.clusterMode {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.reqTimeout)
		defer cancel()
	}
	resp, err := d.eng.Predict(ctx, serve.Request{
		Script:       req.Script,
		InputDeck:    req.InputDeck,
		RequestedMin: req.RequestedMin,
	})
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrStopped):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		// Our own per-request deadline, not the client hanging up.
		http.Error(w, "prediction deadline exceeded", http.StatusGatewayTimeout)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := predictResponse{
		RuntimeMin: resp.Pred.RuntimeMin,
		ReadBytes:  resp.Pred.ReadBytes,
		WriteBytes: resp.Pred.WriteBytes,
		ReadBW:     resp.Pred.ReadBW(),
		WriteBW:    resp.Pred.WriteBW(),
		PowerW:     resp.Pred.PowerW,
		FromModel:  resp.FromModel,
		Degraded:   resp.Degraded,
		Cached:     resp.Cached,
	}
	if d.clusterMode && resp.Replica >= 0 {
		id := resp.Replica
		out.Replica = &id
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
