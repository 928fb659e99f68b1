package prionn

import (
	"context"
	"sort"

	"prionn/internal/trace"
)

// OnlineRecord pairs one submitted job with the prediction PRIONN made
// at its submission instant.
type OnlineRecord struct {
	Job  trace.Job
	Pred Prediction
	// Predicted is false for jobs submitted before the first training
	// event (no model existed yet) and for canceled jobs.
	Predicted bool
}

// RunOnline emulates the paper's deployment (§2.3): jobs arrive in
// submission order; each job's resources are predicted at submission
// time; after every cfg.RetrainEvery submissions the models are
// retrained — warm-start — on the cfg.TrainWindow most recently
// completed jobs (a job counts as completed once its end time has
// passed the current submission clock). The word2vec embedding is
// trained once, on the scripts of the first training window.
//
// progress, when non-nil, is called after every training event with the
// number of submissions processed so far.
func RunOnline(jobs []trace.Job, cfg Config, progress func(done, total int)) ([]OnlineRecord, error) {
	return RunOnlineCtx(context.Background(), jobs, cfg, progress)
}

// RunOnlineCtx is RunOnline with cooperative cancellation: the context
// is polled at every submission and inside every training event, so a
// canceled run stops within one minibatch.
func RunOnlineCtx(ctx context.Context, jobs []trace.Job, cfg Config, progress func(done, total int)) ([]OnlineRecord, error) {
	// Pending completions ordered by end time.
	type completion struct {
		end int64
		idx int
	}
	pending := make([]completion, 0, len(jobs))
	for i, j := range jobs {
		if !j.Canceled {
			pending = append(pending, completion{end: j.SubmitTime + j.ActualSec, idx: i})
		}
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].end < pending[b].end })

	var completed []int // indices into jobs, in completion order
	pi := 0

	var p *Predictor
	records := make([]OnlineRecord, len(jobs))
	sinceTrain := 0

	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advance the completion stream to this submission instant.
		for pi < len(pending) && pending[pi].end <= j.SubmitTime {
			completed = append(completed, pending[pi].idx)
			pi++
		}

		sinceTrain++
		if sinceTrain >= cfg.RetrainEvery && len(completed) > 0 {
			if err := trainEventAt(ctx, &p, jobs, completed, cfg); err != nil {
				return nil, err
			}
			sinceTrain = 0
			if progress != nil {
				progress(i+1, len(jobs))
			}
		}

		records[i].Job = j
		if p != nil && p.Trained() && !j.Canceled {
			records[i].Pred = p.PredictJob(j)
			records[i].Predicted = true
		}
	}
	return records, nil
}

// trainEventAt runs one training event of the online loop: build the
// window of the cfg.TrainWindow most recently completed jobs, lazily
// construct the predictor on the first event (training the embedding on
// the first window's scripts), and warm-start train.
func trainEventAt(ctx context.Context, p **Predictor, jobs []trace.Job, completed []int, cfg Config) error {
	window := completed
	if len(window) > cfg.TrainWindow {
		window = window[len(window)-cfg.TrainWindow:]
	}
	batch := make([]trace.Job, len(window))
	scripts := make([]string, len(window))
	for k, idx := range window {
		batch[k] = jobs[idx]
		scripts[k] = jobs[idx].Script
		if cfg.IncludeDeck {
			scripts[k] += "\n" + jobs[idx].InputDeck
		}
	}
	if *p == nil {
		np, err := New(cfg, scripts)
		if err != nil {
			return err
		}
		*p = np
	}
	_, err := (*p).TrainCtx(ctx, batch)
	return err
}

// PredictedRecords filters an online run down to the records that carry
// a prediction (post-first-training, non-canceled).
func PredictedRecords(records []OnlineRecord) []OnlineRecord {
	out := make([]OnlineRecord, 0, len(records))
	for _, r := range records {
		if r.Predicted {
			out = append(out, r)
		}
	}
	return out
}
