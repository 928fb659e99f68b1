package pilot

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// tinyModel is the pipeline-test model config: small enough to retrain
// in milliseconds, real enough to produce distinct snapshots.
func tinyModel() prionn.Config {
	cfg := prionn.TinyConfig()
	cfg.RetrainEvery = 25
	cfg.TrainWindow = 40
	cfg.Epochs = 1
	return cfg
}

func pipelineJobs(n int) []trace.Job {
	return trace.Completed(trace.Generate(trace.Config{Seed: 11, Jobs: n}))
}

func fastServe() serve.Config {
	return serve.Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueDepth: 64}
}

// TestPipelineEndToEnd drives the full loop on a live cluster under
// concurrent traffic (run with -race): completed jobs stream into the
// pilot, retraining fires on cadence, candidates pass the shadow gate,
// the canary takes its traffic fraction, and promotion publishes the
// candidate atomically — after which every model answer comes from it.
func TestPipelineEndToEnd(t *testing.T) {
	jobs := pipelineJobs(200)
	c, err := cluster.New(nil, cluster.Config{
		Replicas: 2, Serve: fastServe(), CacheSize: 32,
		Policy: cluster.ScriptAffinity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Stop(context.Background()); err != nil {
			t.Errorf("cluster stop: %v", err)
		}
	}()

	pl, err := New(Config{
		Model:          tinyModel(),
		ShadowWindow:   32,
		Canary:         cluster.CanaryConfig{Frac: 0.5, MinObservations: 4, PromoteAfter: 8, MaxErrorRate: 1, MaxDisagreeRate: 1},
		CheckpointPath: filepath.Join(t.TempDir(), "pilot.ckpt"),
	}, c)
	if err != nil {
		t.Fatal(err)
	}

	// Background traffic: concurrent Predicts race the canary routing,
	// the swap, and the cache — the -race proof that the pipeline's
	// publication path is clean.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				req := cluster.Request{Script: jobs[(g*7+i)%16].Script, RequestedMin: 30}
				if _, err := c.Predict(ctx, req); err != nil && ctx.Err() == nil {
					t.Errorf("background predict: %v", err)
					return
				}
			}
		}(g)
	}

	// The pilot goroutine: observe the completed-job stream, ticking the
	// canary state machine along.
	for _, j := range jobs {
		if err := pl.Observe(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		if err := pl.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the last canary (it needs traffic to meet its budget).
	for i := 0; i < 200 && pl.Status().Phase == "canarying"; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := pl.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()

	st := pl.Status()
	if st.TrainedThisRun == 0 {
		t.Fatal("pipeline never trained")
	}
	if st.CanaryStarts == 0 {
		t.Fatalf("pipeline never deployed a canary: %+v", st)
	}
	if st.CanaryPromotions == 0 {
		t.Fatalf("pipeline never promoted: %+v", st)
	}
	sn := c.Stats()
	if sn.Swaps == 0 {
		t.Fatal("no cluster-wide swap happened")
	}
	// The published view answers from the model now.
	resp, err := c.Predict(context.Background(), cluster.Request{Script: jobs[0].Script, RequestedMin: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.FromModel {
		t.Fatalf("post-promotion answer not from the model: %+v", resp)
	}
	if want := c.View().PredictOne(jobs[0].Script); resp.Pred != want {
		t.Fatalf("post-promotion answer %+v, want published view's %+v", resp.Pred, want)
	}
}

// TestPilotRestartFromEveryFailpoint kills the pilot at each pipeline
// stage boundary during event 2 and restarts it over the same stream
// (ResumeReplay). The restarted pilot must resume from its checkpoint —
// training strictly fewer events than the lifetime counter — and end in
// a model byte-identical to an uninterrupted run's.
func TestPilotRestartFromEveryFailpoint(t *testing.T) {
	jobs := pipelineJobs(200)

	run := func(t *testing.T, path string, resume bool) (*Pilot, error) {
		t.Helper()
		srv := serve.New(nil, fastServe())
		t.Cleanup(func() {
			if err := srv.Stop(context.Background()); err != nil {
				t.Errorf("serve stop: %v", err)
			}
		})
		pl, err := New(Config{
			Model:        tinyModel(),
			ShadowWindow: 32,
			// A gate this loose accepts every candidate, so every event
			// reaches the canary stage and FailpointCanary fires on
			// schedule.
			Gate:           GateConfig{MaxMAPEIncrease: 1e9, MaxAccuracyDrop: 1e9, MaxPearsonDrop: 1e9},
			CheckpointPath: path,
			ResumeReplay:   resume,
		}, &DirectDeployer{Srv: srv})
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if err := pl.Observe(context.Background(), j); err != nil {
				return pl, err
			}
		}
		return pl, nil
	}

	// Uninterrupted reference.
	refPath := filepath.Join(t.TempDir(), "ref.ckpt")
	ref, err := run(t, refPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Events() < 3 {
		t.Fatalf("trace too short: %d events", ref.Events())
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, fp := range []string{FailpointRetrain, FailpointSave, FailpointShadow, FailpointCanary} {
		t.Run(fp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pilot.ckpt")
			boom := errors.New("killed at " + fp)
			disarm := fault.Arm(fp, fault.Failure{Err: boom, After: 1})
			_, err := run(t, path, false)
			disarm()
			if !errors.Is(err, boom) {
				t.Fatalf("interrupted run returned %v, want the armed kill", err)
			}

			pl, err := run(t, path, true)
			if err != nil {
				t.Fatal(err)
			}
			st := pl.Status()
			if st.Events != int64(ref.Events()) {
				t.Fatalf("restart ended at event %d, want %d", st.Events, ref.Events())
			}
			if st.ReplayedEvents == 0 {
				t.Fatalf("restart replayed no events — it retrained from scratch: %+v", st)
			}
			if st.TrainedThisRun >= st.Events {
				t.Fatalf("restart trained %d of %d events — nothing resumed: %+v", st.TrainedThisRun, st.Events, st)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Fatal("restarted pilot's final checkpoint differs bitwise from the uninterrupted run's")
			}
		})
	}
}

// TestPilotShadowRejectsRegression feeds the pipeline a deliberately
// regressed candidate — a view trained on mislabeled jobs — and
// asserts the shadow gate rejects it, so it never reaches the canary
// stage, let alone non-canary traffic.
func TestPilotShadowRejectsRegression(t *testing.T) {
	jobs := pipelineJobs(160)
	cfg := tinyModel()

	// Baseline: trained on honest labels.
	scripts := make([]string, 80)
	for i := 0; i < 80; i++ {
		scripts[i] = jobs[i].Script
	}
	pGood, err := prionn.New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pGood.Train(jobs[:80]); err != nil {
		t.Fatal(err)
	}
	baseline, err := pGood.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Candidate: same scripts, garbage labels (every outcome shifted to
	// a constant far from the truth).
	bad := append([]trace.Job(nil), jobs[:80]...)
	for i := range bad {
		bad[i].ActualSec = 1       // everything "ran" one second
		bad[i].ReadBytes = 1 << 40 // and "read" a terabyte
		bad[i].WriteBytes = 1 << 40
	}
	pBad, err := prionn.New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pBad.Train(bad); err != nil {
		t.Fatal(err)
	}
	regressed, err := pBad.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	window := jobs[80:144]
	rep, err := Evaluate(baseline, regressed, window, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accept {
		t.Fatalf("regressed candidate accepted: baseline %+v candidate %+v", rep.Baseline, rep.Candidate)
	}
	if len(rep.Reasons) == 0 {
		t.Fatal("rejection carries no reasons")
	}
	// Sanity: the honest candidate passes against itself.
	rep, err = Evaluate(baseline, baseline, window, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accept || rep.Trivial {
		t.Fatalf("self-evaluation rejected: %+v", rep)
	}
}

// TestEvaluateEdgeWindows pins the gate's trivial-accept contract: an
// empty replay window, an all-canceled window, and a sub-MinSamples
// window each accept trivially (no evidence of regression) instead of
// erroring or rejecting.
func TestEvaluateEdgeWindows(t *testing.T) {
	jobs := pipelineJobs(120)
	cfg := tinyModel()
	scripts := make([]string, 60)
	for i := range scripts {
		scripts[i] = jobs[i].Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:60]); err != nil {
		t.Fatal(err)
	}
	v, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	canceled := append([]trace.Job(nil), jobs[:20]...)
	for i := range canceled {
		canceled[i].Canceled = true
	}
	cases := []struct {
		name   string
		window []trace.Job
	}{
		{"empty", nil},
		{"all-canceled", canceled},
		{"below-min-samples", jobs[60:63]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Evaluate(v, v, tc.window, GateConfig{MinSamples: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Accept || !rep.Trivial {
				t.Fatalf("window %q: accept=%v trivial=%v, want trivial accept", tc.name, rep.Accept, rep.Trivial)
			}
		})
	}

	// No baseline (cold cluster): trivial accept too.
	rep, err := Evaluate(nil, v, jobs[60:120], GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accept || !rep.Trivial {
		t.Fatalf("nil baseline: accept=%v trivial=%v, want trivial accept", rep.Accept, rep.Trivial)
	}
	// A nil/untrained candidate is a programming error, not a gate call.
	if _, err := Evaluate(v, nil, jobs[60:120], GateConfig{}); err == nil {
		t.Fatal("nil candidate accepted")
	}
}

// TestDecideNaNNeutral pins the gate against metric poisoning: head
// metrics are finite by the metrics package's contract, but even a
// hand-built NaN must not flip a rejection into an acceptance through
// vacuous comparison — NaN comparisons are false, so a NaN candidate
// metric reads as "no regression evidence on this head" and the other
// heads still decide.
func TestDecideNaNNeutral(t *testing.T) {
	nan := func() float64 { var z float64; return 0 / (z + 0) }()
	base := HeadMetrics{RuntimeMAPE: 0.2, RuntimeAcc: 0.9, RuntimeR: 0.8, N: 64}
	cand := HeadMetrics{RuntimeMAPE: nan, RuntimeAcc: 0.2, RuntimeR: nan, N: 64}
	reasons := decide(base, cand, GateConfig{}.withDefaults())
	if len(reasons) == 0 {
		t.Fatal("NaN metrics suppressed a real class-accuracy regression")
	}
}
