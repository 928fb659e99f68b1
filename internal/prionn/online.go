package prionn

import (
	"context"

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

// RunOnline emulates the paper's deployment (§2.3) on trace.Replay's
// schedule: each job's resources are predicted at submission time, and
// after every cfg.RetrainEvery submissions the models are retrained —
// warm-start — on the cfg.TrainWindow most recently completed jobs. The
// word2vec embedding is trained once, on the scripts of the first
// training window. ctx is polled at every submission and inside every
// training event, so a canceled run stops within one minibatch.
//
// progress, when non-nil, is called after every training event with the
// number of submissions processed so far.
func RunOnline(ctx context.Context, jobs []trace.Job, cfg Config, progress func(done, total int)) ([]OnlineRecord, error) {
	records := make([]OnlineRecord, len(jobs))
	for i, j := range jobs {
		records[i].Job = j
	}
	var p *Predictor
	err := trace.Replay(ctx, jobs, cfg.RetrainEvery, cfg.TrainWindow, func(i int, win []int) error {
		batch := make([]trace.Job, len(win))
		for k, idx := range win {
			batch[k] = jobs[idx]
		}
		if p == nil {
			np, err := New(cfg, Corpus(cfg, batch))
			if err != nil {
				return err
			}
			p = np
		}
		if _, err := p.TrainCtx(ctx, batch); err != nil {
			return err
		}
		if progress != nil {
			progress(i+1, len(jobs))
		}
		return nil
	}, func(i int) {
		records[i].Pred = p.PredictJob(jobs[i])
		records[i].Predicted = true
	})
	if err != nil {
		return nil, err
	}
	return records, nil
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
