// Ioaware demonstrates phase 2 of the PRIONN workflow (paper §4): per-job
// predictions feed a cluster simulator whose snapshot mechanism predicts
// turnaround times, and the combination forecasts system IO and IO
// bursts for an IO-aware scheduler.
//
//	go run ./examples/ioaware
package main

import (
	"context"
	"fmt"
	"log"

	"prionn/internal/ioaware"
	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/sched"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)

	// A short, busy trace so the queue actually forms.
	all := trace.Generate(trace.Config{
		Seed: 11, Jobs: 600, Users: 30, Apps: 8, MeanInterarrival: 40,
	})
	completed := trace.Completed(all)

	// Phase 1: online per-job predictions.
	cfg := prionn.FastConfig()
	cfg.TrainWindow = 150
	cfg.RetrainEvery = 75
	cfg.Epochs = 2
	recs, err := prionn.RunOnline(context.Background(), all, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	byID := map[int]prionn.OnlineRecord{}
	for _, r := range recs {
		byID[r.Job.ID] = r
	}

	// Phase 2: snapshot turnaround prediction on a 256-node machine.
	items := make([]sched.Item, 0, len(completed))
	for _, j := range completed {
		items = append(items, sched.Item{
			ID: j.ID, Submit: j.SubmitTime, Nodes: j.Nodes,
			RuntimeSec: j.ActualSec, LimitSec: int64(j.RequestedMin) * 60,
		})
	}
	pred := func(id int) int64 {
		r := byID[id]
		if !r.Predicted {
			return int64(r.Job.RequestedMin) * 60
		}
		return int64(r.Pred.RuntimeMin) * 60
	}
	results, err := sched.PredictTurnarounds(items, sched.SimConfig{Nodes: 256, Backfill: true}, pred)
	if err != nil {
		log.Fatal(err)
	}

	var taAcc []float64
	var actualIvs, predIvs []ioaware.Interval
	var t0, t1 int64
	for i, r := range results {
		taAcc = append(taAcc, metrics.RelativeAccuracy(float64(r.RealSec), float64(r.PredictedSec)))
		rec := byID[r.ID]
		actualIvs = append(actualIvs, ioaware.Interval{
			Start: r.RealPlacement.Start, End: r.RealPlacement.End,
			BW: rec.Job.ReadBW() + rec.Job.WriteBW(),
		})
		pp := r.PredPlacement
		if pp.End <= pp.Start {
			pp = r.RealPlacement
		}
		predIvs = append(predIvs, ioaware.Interval{
			Start: pp.Start, End: pp.End, BW: rec.Pred.ReadBW() + rec.Pred.WriteBW(),
		})
		if i == 0 || r.RealPlacement.Start < t0 {
			t0 = r.RealPlacement.Start
		}
		if r.RealPlacement.End > t1 {
			t1 = r.RealPlacement.End
		}
	}
	ts := metrics.Summarize(taAcc)
	fmt.Printf("turnaround accuracy: mean %.1f%% median %.1f%% (paper: 42.1%% / 40.8%%)\n",
		ts.Mean*100, ts.Median*100)

	// System-IO forecast and burst report.
	actual := ioaware.Series(actualIvs, t0, t1, 60)
	predicted := ioaware.Series(predIvs, t0, t1, 60)
	acc := metrics.Summarize(ioaware.SeriesAccuracy(actual, predicted))
	fmt.Printf("system-IO accuracy:  mean %.1f%% median %.1f%%\n", acc.Mean*100, acc.Median*100)

	thr := ioaware.BurstThreshold(actual)
	am := ioaware.BurstMask(actual, thr)
	pm := ioaware.BurstMask(predicted, thr)
	nBursts := 0
	for _, b := range am {
		if b {
			nBursts++
		}
	}
	fmt.Printf("IO bursts:           %d minutes above mean+1σ (%.3e B/s)\n", nBursts, thr)
	for _, w := range []int{5, 15, 60} {
		c := ioaware.MatchBursts(am, pm, w/2)
		fmt.Printf("  %2d-min window: sensitivity %5.1f%%  precision %5.1f%%\n",
			w, c.Sensitivity()*100, c.Precision()*100)
	}
	fmt.Println("(paper: >50% of bursts predicted; sensitivity/precision rise with window size)")
}
