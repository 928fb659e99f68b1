package prionn

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"

	"prionn/internal/fault"
	"prionn/internal/nn"
	"prionn/internal/trace"
)

// Epoch-granularity checkpoint/resume for training events. A training
// event fits each head (runtime, read, write, power) for E epochs in
// sequence; TrainCheckpointed writes a crash-safe checkpoint after every
// epoch of every head, and ResumeTrain continues an interrupted event
// from its last checkpoint such that the resumed run produces a model
// bitwise-identical to an uninterrupted same-seed run.
//
// Bitwise identity rests on three pieces of state the checkpoint
// carries or reconstructs exactly:
//
//   - model parameters and Adam moment estimates (serialized — an
//     optimizer restarted from zero moments takes different steps);
//   - the minibatch shuffle RNG: each (event, head) pair draws from its
//     own rand.Rand seeded by eventSeed(Config.Seed, event, head), and
//     nn.FitOptions.StartEpoch replays the completed epochs' shuffle
//     draws on resume, reproducing both the permutation sequence and
//     the RNG state;
//   - the event counter, persisted with the model, which keeps later
//     events' seeds aligned after a restart.

// resumePos locates where within a training event to resume. It is the
// part of a mid-event checkpoint's meta (see checkpointMeta) that a
// completed model's save does not have.
type resumePos struct {
	Head  int // heads before this one are fully fitted this event
	Epoch int // epochs of head Head completed
	// RuntimeLoss is the runtime head's final-epoch mean loss, once head
	// 0 has finished, so a resumed event still reports it.
	RuntimeLoss float64
	// Window is the training-window length, a cheap guard against
	// resuming with a different job window than the interrupted run.
	Window int
}

// FailpointTrainCheckpoint is the failpoint name fired after each
// checkpoint write; robustness tests arm it to interrupt training at a
// chosen epoch.
const FailpointTrainCheckpoint = "prionn/train/checkpoint"

// TrainCheckpointed runs one training event like TrainCtx, writing a
// crash-safe checkpoint to path after every completed epoch of every
// head (and a final one when the event completes). If the process dies
// at any point, ResumeTrain picks the event back up from path.
func (p *Predictor) TrainCheckpointed(ctx context.Context, jobs []trace.Job, path string) (float64, error) {
	if path == "" {
		return 0, fmt.Errorf("prionn: empty checkpoint path")
	}
	return p.trainEvent(ctx, jobs, path, resumePos{})
}

// ResumeTrain restores an interrupted training event from its
// checkpoint file and continues it over the same job window, returning
// the restored predictor and the event's runtime-head loss. The window
// must be the one the interrupted event was training on. Resuming a
// checkpoint whose event already completed returns immediately.
func ResumeTrain(ctx context.Context, path string, jobs []trace.Job) (*Predictor, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	p, pos, err := load(f)
	_ = f.Close() // read-only; close errors carry no data loss
	if err != nil {
		return nil, 0, err
	}
	if pos == nil {
		return nil, 0, fmt.Errorf("prionn: %s holds a completed model, not a training checkpoint; restore it with LoadFile", path)
	}
	if pos.Window != len(jobs) {
		return nil, 0, fmt.Errorf("prionn: checkpoint trained on a %d-job window, resume offered %d jobs", pos.Window, len(jobs))
	}
	loss, err := p.trainEvent(ctx, jobs, path, *pos)
	if err != nil {
		return nil, 0, err
	}
	return p, loss, nil
}

// eventSeed derives the shuffle seed for one (event, head) pair from the
// configured seed via a splitmix64 finalizer, so every head of every
// event gets an independent, reproducible stream.
func eventSeed(seed int64, event, head int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(event+1) + 0xbf58476d1ce4e5b9*uint64(head+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// trainEvent is the shared engine behind Train, TrainCtx, and
// TrainCheckpointed: fit every enabled head on the window, optionally
// checkpointing after each epoch, starting from pos (zero for a fresh
// event).
func (p *Predictor) trainEvent(ctx context.Context, jobs []trace.Job, ckptPath string, pos resumePos) (float64, error) {
	if len(jobs) == 0 {
		return 0, fmt.Errorf("prionn: empty training window")
	}
	heads := p.heads()
	scripts := make([]string, len(jobs))
	labels := make([][]int, len(heads))
	for h := range labels {
		labels[h] = make([]int, len(jobs))
	}
	for i, j := range jobs {
		scripts[i] = p.inputText(j.Script, j.InputDeck)
		for h, head := range heads {
			labels[h][i] = head.class(j)
		}
	}
	x := p.mapBatch(scripts)
	epochs := p.Config.Epochs
	if !p.trained {
		// Bootstrap: the very first training event runs longer so the
		// warm-start chain begins from a fitted model rather than random
		// weights (subsequent events only need to track drift).
		epochs *= 3
	}

	if pos.Head >= len(heads) {
		// Resuming a checkpoint written after its event completed: the
		// event counter already advanced; there is nothing to redo.
		return pos.RuntimeLoss, nil
	}

	runtimeLoss := pos.RuntimeLoss
	for h := pos.Head; h < len(heads); h++ {
		opts := nn.FitOptions{
			Epochs:    epochs,
			BatchSize: p.Config.BatchSize,
			Shuffle:   rand.New(rand.NewSource(eventSeed(p.Config.Seed, p.events, h))),
		}
		if h == pos.Head {
			opts.StartEpoch = pos.Epoch
		}
		// When the interrupt landed after this head's final epoch, the fit
		// below only replays shuffles and reports no loss; the checkpoint's
		// recorded loss stands.
		ranEpochs := opts.StartEpoch < epochs
		if ckptPath != "" {
			opts.AfterEpoch = func(e int, loss float64) error {
				rl := runtimeLoss
				if h == 0 {
					rl = loss
				}
				if err := p.writeTrainCheckpoint(ckptPath, resumePos{Head: h, Epoch: e + 1, RuntimeLoss: rl, Window: len(jobs)}); err != nil {
					return err
				}
				return fault.Here(FailpointTrainCheckpoint)
			}
		}
		loss, err := heads[h].model.FitCtx(ctx, x, labels[h], heads[h].opt, opts)
		if err != nil {
			return runtimeLoss, err
		}
		if h == 0 && ranEpochs {
			runtimeLoss = loss
		}
	}
	p.trained = true
	p.events++
	if ckptPath != "" {
		// Final checkpoint: the completed event, with the incremented
		// event counter, so a restart after this point resumes the next
		// event with aligned seeds.
		if err := p.writeTrainCheckpoint(ckptPath, resumePos{Head: len(heads), RuntimeLoss: runtimeLoss, Window: len(jobs)}); err != nil {
			return runtimeLoss, err
		}
	}
	return runtimeLoss, nil
}

// writeTrainCheckpoint persists the full predictor plus resume position,
// crash-safely: the frame SaveFile writes, with pos in its meta.
func (p *Predictor) writeTrainCheckpoint(path string, pos resumePos) error {
	return atomicWrite(p.fileSystem(), path, func(w io.Writer) error { return p.save(w, &pos) })
}
