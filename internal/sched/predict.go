package sched

import (
	"context"
	"math"
)

// maxPredictedSec caps predicted runtimes fed to the simulator (~35,000
// years) so an Inf or overflowed prediction cannot wrap the int64 event
// clock.
const maxPredictedSec = int64(1) << 40

// SanitizePredictedSec converts a model-predicted runtime in float
// seconds into a value safe to feed the simulator. Model output can be
// garbage — NaN from a degenerate division, Inf from an overflow,
// zero or negative from an untrained head — and an unchecked int64
// conversion of those is platform-defined, producing placements with
// negative durations. The result is always in [1, limitSec] (or
// [1, maxPredictedSec] when limitSec is 0, i.e. no wall limit).
func SanitizePredictedSec(sec float64, limitSec int64) int64 {
	r := int64(1)
	if !math.IsNaN(sec) && sec > 1 {
		if sec >= float64(maxPredictedSec) { // also catches +Inf
			r = maxPredictedSec
		} else {
			r = int64(sec)
		}
	}
	if limitSec > 0 && r > limitSec {
		r = limitSec
	}
	return r
}

// TurnaroundResult pairs the simulated (real) turnaround of a job with
// the turnaround predicted at its submission instant via the snapshot
// mechanism.
type TurnaroundResult struct {
	ID            int
	RealSec       int64
	PredictedSec  int64
	RealPlacement Placement
	// PredPlacement is the placement of the job inside the snapshot
	// simulation (predicted start and end), used to build predicted
	// system-IO series.
	PredPlacement Placement
}

// PredictTurnarounds runs the full workload through a simulator of the
// given node count and, at every submission, predicts the submitted job's
// turnaround time with the paper's four snapshot steps (§4.2):
//
//  1. copy the system state (allocated/free nodes, clock, executing and
//     queued jobs) in memory;
//  2. replace the runtime of every executing and queued job with its
//     predicted runtime (pred, keyed by job ID);
//  3. simulate the snapshot forward until the submitted job completes;
//  4. record completion − submission as the predicted turnaround.
//
// The real simulation continues with actual runtimes, and the returned
// results, in completion order, pair each job's real turnaround with its
// prediction. items must be sorted by Submit time. ctx is polled before
// every submission (each of which triggers a full snapshot simulation),
// so a canceled run stops within one snapshot.
//
// Note that even a perfect runtime predictor does not give perfect
// turnaround predictions under EASY backfilling: arrivals after the
// snapshot change shadow times and hence which queued jobs backfill.
// Under plain FCFS (cfg.Backfill false) perfect runtimes do give exact
// turnarounds, a property the test suite verifies.
func PredictTurnarounds(ctx context.Context, items []Item, cfg SimConfig, pred func(id int) int64) ([]TurnaroundResult, error) {
	sim := NewSimConfig(cfg)
	predicted := make(map[int]Placement, len(items))
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sim.Submit(it); err != nil {
			return nil, err
		}
		snap := sim.Clone()
		snap.OverrideRuntimes(pred)
		if p, ok := snap.RunUntilDone(it.ID); ok {
			predicted[it.ID] = p
		}
	}
	placements := sim.Drain()
	results := make([]TurnaroundResult, 0, len(placements))
	for _, p := range placements {
		pp := predicted[p.ID]
		results = append(results, TurnaroundResult{
			ID:            p.ID,
			RealSec:       p.Turnaround(),
			PredictedSec:  pp.End - p.Submit,
			RealPlacement: p,
			PredPlacement: pp,
		})
	}
	return results, nil
}

// Schedule runs items (sorted by submit time) through a simulator with
// actual runtimes only and returns the placements in completion order.
// This is the "real" execution schedule used as perfect turnaround
// knowledge in the paper's first system-IO evaluation. ctx is polled
// per submission.
func Schedule(ctx context.Context, items []Item, cfg SimConfig) ([]Placement, error) {
	sim := NewSimConfig(cfg)
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sim.Submit(it); err != nil {
			return nil, err
		}
	}
	return sim.Drain(), nil
}
