// Package pilot closes the paper's §2.3 online-learning loop: a
// trainer daemon ingests completed jobs as a stream, warm-start
// retrains on a cadence (the same window logic as the offline
// prionn.RunOnline emulation), checkpoints crash-safely after every
// training event, and deploys each new model through a gated pipeline —
//
//	retrain → checkpoint → shadow-eval → canary → atomic swap
//
// A candidate snapshot must first survive shadow evaluation (replay
// the last ShadowWindow completed jobs through the served view and the
// candidate, reject per-head regressions; see shadow.go), then a
// canary stage (a fraction of live traffic with auto-rollback;
// internal/cluster's canary route), before the all-or-nothing Swap
// publishes it cluster-wide. A pilot killed at any stage restarts from
// the last event's checkpoint and keeps training it on the jobs that
// complete from then on, without retraining from scratch.
//
// Confinement: Observe and Tick must be called from a single
// goroutine — the pilot owns a mutating Predictor, exactly like the
// serve loop owns its Inference view. Status is safe from any
// goroutine (it reads only atomics).
package pilot

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync/atomic"

	"prionn/internal/cluster"
	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// Failpoint names compiled into the pipeline's stage boundaries; the
// restart tests arm them to kill the pilot between any two stages.
const (
	// FailpointRetrain fires before each training event's TrainCtx.
	FailpointRetrain = "pilot/retrain"
	// FailpointSave fires before each post-train checkpoint write.
	FailpointSave = "pilot/save"
	// FailpointShadow fires before each shadow evaluation.
	FailpointShadow = "pilot/shadow"
	// FailpointCanary fires before each canary deployment.
	FailpointCanary = "pilot/canary"
)

// Deployer is where accepted candidates go. *cluster.Cluster satisfies
// it natively (real canary routing over live traffic); DirectDeployer
// adapts a single serve.Server (no traffic to canary with, so
// candidates promote immediately).
type Deployer interface {
	// View returns the currently served snapshot (the shadow baseline).
	View() *prionn.Inference
	StartCanary(v *prionn.Inference, cfg cluster.CanaryConfig) error
	CanaryStatus() cluster.CanaryStatus
	PromoteCanary(ctx context.Context) error
	StopCanary(ctx context.Context) error
}

// Config tunes the pilot.
type Config struct {
	// Model is the predictor configuration; Model.RetrainEvery sets the
	// training cadence (completed jobs per event) and Model.TrainWindow
	// the training window, exactly as in the offline online-loop.
	Model prionn.Config
	// ShadowWindow is how many of the most recently completed jobs the
	// shadow evaluation replays (default 64).
	ShadowWindow int
	// Gate sets the shadow gate's regression thresholds.
	Gate GateConfig
	// Canary tunes the canary stage of accepted candidates.
	Canary cluster.CanaryConfig
	// CheckpointPath, when non-empty, persists the predictor crash-
	// safely after every training event; an existing checkpoint is
	// loaded on construction.
	CheckpointPath string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ShadowWindow <= 0 {
		c.ShadowWindow = 64
	}
	return c
}

// Status is the pipeline's point-in-time state as /stats reports it.
type Status struct {
	// Phase is "idle" or "canarying".
	Phase string `json:"phase"`
	// Observed counts completed jobs ingested this incarnation.
	Observed int64 `json:"observed"`
	// Events is the lifetime training-event counter (persisted across
	// restarts via the checkpoint).
	Events int64 `json:"events"`
	// TrainedThisRun counts events trained by this incarnation; after a
	// restart it lags Events by the events the checkpoint holds.
	TrainedThisRun int64 `json:"trained_this_run"`

	ShadowAccepted int64 `json:"shadow_accepted"`
	ShadowRejected int64 `json:"shadow_rejected"`
	// DeploysSkipped counts events whose deployment was skipped because
	// a canary was still in flight.
	DeploysSkipped int64 `json:"deploys_skipped"`

	CanaryStarts     int64 `json:"canary_starts"`
	CanaryPromotions int64 `json:"canary_promotions"`
	CanaryRollbacks  int64 `json:"canary_rollbacks"`

	// LastGate is the most recent shadow gate report, nil before the
	// first evaluation.
	LastGate *GateReport `json:"last_gate,omitempty"`
}

// Pilot is the online-learning daemon. Create with New.
type Pilot struct {
	cfg Config
	dep Deployer

	// Single-goroutine state (Observe/Tick).
	p          *prionn.Predictor
	window     []trace.Job // most recently completed jobs, newest last
	sinceTrain int
	canarying  bool

	// Atomic mirrors for Status.
	observed     atomic.Int64
	events       atomic.Int64
	trained      atomic.Int64
	shadowAcc    atomic.Int64
	shadowRej    atomic.Int64
	skippedDep   atomic.Int64
	canStarts    atomic.Int64
	canPromotes  atomic.Int64
	canRollbacks atomic.Int64
	phaseCanary  atomic.Bool
	lastGate     atomic.Pointer[GateReport]
}

// New builds a pilot over a deployer. With CheckpointPath set and a
// checkpoint present, the predictor (embedding, Adam moments and event
// counter included) is restored from it — the restart path that makes
// the daemon survive kills without retraining from scratch: Observe
// then keeps training the restored model on the live stream. A
// checkpoint trained under a different Model configuration is
// rejected; an unreadable one surfaces as an error rather than
// silently starting cold.
func New(cfg Config, dep Deployer) (*Pilot, error) {
	if dep == nil {
		return nil, errors.New("pilot: nil deployer")
	}
	cfg = cfg.withDefaults()
	pl := &Pilot{cfg: cfg, dep: dep}
	if cfg.CheckpointPath != "" {
		loaded, err := prionn.LoadFile(cfg.CheckpointPath)
		switch {
		case err == nil:
			if loaded.Config != cfg.Model {
				return nil, fmt.Errorf("pilot: checkpoint at %s was trained under a different configuration", cfg.CheckpointPath)
			}
			pl.p = loaded
			pl.events.Store(int64(loaded.Events()))
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start.
		default:
			return nil, fmt.Errorf("pilot: restoring checkpoint %s: %w", cfg.CheckpointPath, err)
		}
	}
	return pl, nil
}

// Status snapshots the pipeline counters. Safe from any goroutine.
func (pl *Pilot) Status() Status {
	phase := "idle"
	if pl.phaseCanary.Load() {
		phase = "canarying"
	}
	return Status{
		Phase:            phase,
		Observed:         pl.observed.Load(),
		Events:           pl.events.Load(),
		TrainedThisRun:   pl.trained.Load(),
		ShadowAccepted:   pl.shadowAcc.Load(),
		ShadowRejected:   pl.shadowRej.Load(),
		DeploysSkipped:   pl.skippedDep.Load(),
		CanaryStarts:     pl.canStarts.Load(),
		CanaryPromotions: pl.canPromotes.Load(),
		CanaryRollbacks:  pl.canRollbacks.Load(),
		LastGate:         pl.lastGate.Load(),
	}
}

// Events returns the lifetime training-event counter. Safe anywhere.
func (pl *Pilot) Events() int { return int(pl.events.Load()) }

// Observe ingests one completed job. Every Model.RetrainEvery
// observations it runs one pipeline event: retrain, checkpoint, then —
// unless a canary is still in flight — shadow-evaluate a candidate and
// deploy it to the canary stage if accepted. An error leaves the
// checkpoint at the last durable state, so a restarted pilot resumes
// exactly there.
func (pl *Pilot) Observe(ctx context.Context, j trace.Job) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pl.observed.Add(1)
	if !j.Canceled {
		pl.window = append(pl.window, j)
		if keep := pl.keep(); len(pl.window) > keep {
			pl.window = pl.window[len(pl.window)-keep:]
		}
	}
	pl.sinceTrain++
	if pl.sinceTrain < pl.cfg.Model.RetrainEvery || len(pl.window) == 0 {
		return nil
	}
	return pl.runEvent(ctx)
}

// keep bounds the observation buffer: enough for the training window
// and the shadow replay window.
func (pl *Pilot) keep() int {
	k := pl.cfg.Model.TrainWindow
	if pl.cfg.ShadowWindow > k {
		k = pl.cfg.ShadowWindow
	}
	if k <= 0 {
		k = 1
	}
	return k
}

// runEvent is one pipeline event.
func (pl *Pilot) runEvent(ctx context.Context) error {
	// Stage 1 — retrain (warm start; first event builds the predictor
	// and trains the embedding on the first window's scripts).
	if err := fault.Here(FailpointRetrain); err != nil {
		return err
	}
	batch := pl.window
	if len(batch) > pl.cfg.Model.TrainWindow {
		batch = batch[len(batch)-pl.cfg.Model.TrainWindow:]
	}
	if pl.p == nil {
		scripts := make([]string, len(batch))
		for i, j := range batch {
			scripts[i] = j.Script
			if pl.cfg.Model.IncludeDeck {
				scripts[i] += "\n" + j.InputDeck
			}
		}
		np, err := prionn.New(pl.cfg.Model, scripts)
		if err != nil {
			return err
		}
		pl.p = np
	}
	if _, err := pl.p.TrainCtx(ctx, batch); err != nil {
		return err
	}
	pl.sinceTrain = 0
	pl.events.Store(int64(pl.p.Events()))
	pl.trained.Add(1)

	// Stage 2 — checkpoint. Durable before any deployment: a kill past
	// this point restarts with the event already covered.
	if pl.cfg.CheckpointPath != "" {
		if err := fault.Here(FailpointSave); err != nil {
			return err
		}
		if err := pl.p.SaveFile(pl.cfg.CheckpointPath); err != nil {
			return err
		}
	}

	// Settle any finished canary before deciding whether to deploy.
	if err := pl.Tick(ctx); err != nil {
		return err
	}
	if pl.canarying {
		// One candidate in flight at a time; this event's model stays
		// train-only (the next accepted candidate will include it).
		pl.skippedDep.Add(1)
		return nil
	}

	// Stage 3 — shadow evaluation.
	if err := fault.Here(FailpointShadow); err != nil {
		return err
	}
	cand, err := pl.p.Snapshot()
	if err != nil {
		return err
	}
	shadow := pl.window
	if len(shadow) > pl.cfg.ShadowWindow {
		shadow = shadow[len(shadow)-pl.cfg.ShadowWindow:]
	}
	rep, err := Evaluate(pl.dep.View(), cand, shadow, pl.cfg.Gate)
	if err != nil {
		return err
	}
	repCopy := rep
	pl.lastGate.Store(&repCopy)
	if !rep.Accept {
		pl.shadowRej.Add(1)
		return nil
	}
	pl.shadowAcc.Add(1)

	// Stage 4 — canary deployment.
	if err := fault.Here(FailpointCanary); err != nil {
		return err
	}
	if err := pl.dep.StartCanary(cand, pl.cfg.Canary); err != nil {
		if errors.Is(err, cluster.ErrCanaryActive) {
			// Someone else deployed out-of-band; not fatal.
			pl.skippedDep.Add(1)
			return nil
		}
		return err
	}
	pl.canarying = true
	pl.phaseCanary.Store(true)
	pl.canStarts.Add(1)
	return nil
}

// Tick advances the canary state machine: a PromoteReady canary is
// promoted (the deployer's atomic swap), a RolledBack one is
// dismantled. Call it on a cadence (prionnd uses a ticker) so
// promotion latency is bounded even when no training event fires;
// Observe also calls it at every event.
func (pl *Pilot) Tick(ctx context.Context) error {
	if !pl.canarying {
		return nil
	}
	st := pl.dep.CanaryStatus()
	switch st.Phase {
	case cluster.CanaryPromoteReady.String():
		if err := pl.dep.PromoteCanary(ctx); err != nil {
			return err
		}
		pl.canarying = false
		pl.phaseCanary.Store(false)
		pl.canPromotes.Add(1)
	case cluster.CanaryRolledBack.String():
		if err := pl.dep.StopCanary(ctx); err != nil {
			return err
		}
		pl.canarying = false
		pl.phaseCanary.Store(false)
		pl.canRollbacks.Add(1)
	case cluster.CanaryNone.String():
		// Dismantled out-of-band.
		pl.canarying = false
		pl.phaseCanary.Store(false)
	}
	return nil
}

// DirectDeployer adapts a single serve.Server to the Deployer
// interface. A lone server has no traffic-splitting canary stage, so
// an accepted candidate reads as PromoteReady immediately and
// PromoteCanary swaps it in — the shadow gate is the only gate in
// single-replica mode. Confined to the pilot goroutine like the pilot
// itself.
type DirectDeployer struct {
	Srv     *serve.Server
	pending *prionn.Inference
}

func (d *DirectDeployer) View() *prionn.Inference { return d.Srv.View() }

func (d *DirectDeployer) StartCanary(v *prionn.Inference, _ cluster.CanaryConfig) error {
	if d.pending != nil {
		return cluster.ErrCanaryActive
	}
	d.pending = v
	return nil
}

func (d *DirectDeployer) CanaryStatus() cluster.CanaryStatus {
	if d.pending == nil {
		return cluster.CanaryStatus{Phase: cluster.CanaryNone.String()}
	}
	return cluster.CanaryStatus{Phase: cluster.CanaryPromoteReady.String()}
}

func (d *DirectDeployer) PromoteCanary(context.Context) error {
	if d.pending == nil {
		return cluster.ErrNoCanary
	}
	d.Srv.Swap(d.pending)
	d.pending = nil
	return nil
}

func (d *DirectDeployer) StopCanary(context.Context) error {
	d.pending = nil
	return nil
}
