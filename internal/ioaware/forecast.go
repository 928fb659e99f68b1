package ioaware

import (
	"context"
	"math"
	"sort"

	"prionn/internal/sched"
	"prionn/internal/trace"
)

// Pred is one job's phase-1 prediction as the forecast uses it.
type Pred struct {
	RuntimeMin int     // predicted runtime in minutes
	BW         float64 // predicted read + write bandwidth, bytes/second
	OK         bool    // false: no model existed when the job was submitted
}

// Result is one Forecast: the scheduler's turnarounds and the two
// system-IO series.
type Result struct {
	// Turnarounds holds one entry per job in the real schedule's
	// completion order. Under perfect turnaround knowledge the predicted
	// turnaround and placement are the real ones.
	Turnarounds []sched.TurnaroundResult
	// Actual and Predicted are system IO in one-minute buckets over the
	// span of both schedules; both are nil when that span is empty.
	Actual, Predicted []float64
}

// Forecast runs the paper's phase 2 (§4, Fig. 10) over the completed jobs
// of one trace, in any order, on a machine of cfg. It simulates the real
// schedule once: alone when perfect is true (Figs. 12/13, where the
// predicted IO rides the real placements), otherwise with a snapshot at
// every submission whose predicted runtimes place each job (Fig. 11's
// turnarounds, Figs. 14/15). A job with no prediction runs at its
// requested runtime in the snapshots and predicts no IO; every other
// runtime goes through sched.SanitizePredictedSec. A job the snapshot
// never finished keeps its real placement in the predicted series.
// Intervals enter the series in ascending job ID, so neither the order of
// completed nor map order reaches the float sums.
func Forecast(ctx context.Context, completed []trace.Job, preds map[int]Pred, cfg sched.SimConfig, perfect bool) (Result, error) {
	jobs := append([]trace.Job(nil), completed...)
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].SubmitTime != jobs[b].SubmitTime {
			return jobs[a].SubmitTime < jobs[b].SubmitTime
		}
		return jobs[a].ID < jobs[b].ID
	})
	items := make([]sched.Item, len(jobs))
	runtimeSec := make(map[int]int64, len(jobs))
	for i, j := range jobs {
		limit := int64(j.RequestedMin) * 60
		items[i] = sched.Item{ID: j.ID, Submit: j.SubmitTime, Nodes: j.Nodes, RuntimeSec: j.ActualSec, LimitSec: limit}
		runtimeSec[j.ID] = limit
		if p := preds[j.ID]; p.OK {
			runtimeSec[j.ID] = sched.SanitizePredictedSec(float64(p.RuntimeMin)*60, limit)
		}
	}

	var res Result
	var err error
	if perfect {
		var placements []sched.Placement
		placements, err = sched.Schedule(ctx, items, cfg)
		for _, p := range placements {
			res.Turnarounds = append(res.Turnarounds, sched.TurnaroundResult{
				ID: p.ID, RealSec: p.Turnaround(), PredictedSec: p.Turnaround(), RealPlacement: p, PredPlacement: p,
			})
		}
	} else {
		res.Turnarounds, err = sched.PredictTurnarounds(ctx, items, cfg, func(id int) int64 { return runtimeSec[id] })
	}
	if err != nil {
		return Result{}, err
	}

	// Every submitted job completes once, so the two ID orders pair up.
	byID := append([]sched.TurnaroundResult(nil), res.Turnarounds...)
	sort.Slice(byID, func(a, b int) bool { return byID[a].ID < byID[b].ID })
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	actual := make([]Interval, len(byID))
	predicted := make([]Interval, len(byID))
	t0, t1 := int64(math.MaxInt64), int64(math.MinInt64)
	for i, r := range byID {
		j, pl, pp := jobs[i], r.RealPlacement, r.PredPlacement
		if pp.End <= pp.Start {
			pp = pl
		}
		actual[i] = Interval{Start: pl.Start, End: pl.End, BW: sanitizeBW(j.ReadBW() + j.WriteBW())}
		predicted[i] = Interval{Start: pp.Start, End: pp.End}
		if p := preds[j.ID]; p.OK {
			predicted[i].BW = sanitizeBW(p.BW)
		}
		t0 = min(t0, pl.Start, pp.Start)
		t1 = max(t1, pl.End, pp.End)
	}
	if t1 > t0 {
		res.Actual, res.Predicted = Series(actual, t0, t1, 60), Series(predicted, t0, t1, 60)
	}
	return res, nil
}

// sanitizeBW clamps a derived bandwidth before it enters an IO series:
// a NaN, Inf, or negative value (degenerate predicted bytes divided by a
// degenerate predicted runtime) would poison every downstream bucket sum
// and burst threshold.
func sanitizeBW(bw float64) float64 {
	if math.IsNaN(bw) || math.IsInf(bw, 0) || bw < 0 {
		return 0
	}
	return bw
}
