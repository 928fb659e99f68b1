package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// modelSeed fixes the model, its training trace and the daemon's
// calibration trace across workloads and -seed values: -seed drives only
// the generated inputs.
const modelSeed = 1

// env is the shared preparation every workload runs against: the built
// daemon, the trained checkpoint and an in-process reference of it.
type env struct {
	sz    sizing
	dir   string // work directory: binary, checkpoint, per-run copies, traces
	bin   string
	ckpt  string
	procs int // prionnd's GOMAXPROCS
	prepS float64

	completed []trace.Job       // completed jobs of the daemon's own trace
	ref       *prionn.Inference // float32 snapshot of the checkpoint: the output check's oracle
	machine   *ladder           // this repetition's workload-independent replay measurements, once made

	out func(format string, args ...any)
}

// prepare builds prionnd and trains (or reloads) the checkpoint. The
// checkpoint is kept in dir: within one checkout it is a build output,
// like the binary.
func prepare(ctx context.Context, sz sizing, dir string, out func(string, ...any)) (*env, error) {
	t0 := now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(ctx, dir)
	if err != nil {
		return nil, err
	}
	e := &env{
		sz: sz, dir: dir, bin: bin, procs: runtime.NumCPU(), out: out,
		ckpt:      filepath.Join(dir, fmt.Sprintf("model-%dx%d-w%d.ckpt", sz.model.Rows, sz.model.Cols, sz.model.TrainWindow)),
		completed: trace.Completed(trace.Generate(trace.Config{Seed: modelSeed, Jobs: sz.daemonJobs})),
	}
	p, err := prionn.LoadFile(e.ckpt)
	if err != nil || p.Config != sz.model {
		if p, err = trainCheckpoint(sz.model, e.completed, e.ckpt); err != nil {
			return nil, err
		}
	}
	if e.ref, err = p.Snapshot(); err != nil {
		return nil, err
	}
	e.prepS = since(t0).Seconds()
	return e, nil
}

// trainCheckpoint trains the fixed model: word2vec on the whole trace,
// then two training events on its last two windows.
func trainCheckpoint(cfg prionn.Config, completed []trace.Job, path string) (*prionn.Predictor, error) {
	if len(completed) < 2*cfg.TrainWindow {
		return nil, fmt.Errorf("training trace has %d completed jobs, need %d", len(completed), 2*cfg.TrainWindow)
	}
	scripts := make([]string, len(completed))
	for i, j := range completed {
		scripts[i] = j.Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		return nil, err
	}
	n, w := len(completed), cfg.TrainWindow
	for _, window := range [][]trace.Job{completed[n-2*w : n-w], completed[n-w:]} {
		if _, err := p.Train(window); err != nil {
			return nil, err
		}
	}
	if err := p.SaveFile(path); err != nil {
		return nil, err
	}
	return p, nil
}

// copyFile copies src to dst; the retrain pipeline overwrites its
// checkpoint, so each learning daemon gets its own.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }() // read-only
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
