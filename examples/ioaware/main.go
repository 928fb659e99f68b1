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
	preds := make(map[int]ioaware.Pred, len(recs))
	for _, r := range recs {
		preds[r.Job.ID] = ioaware.Pred{RuntimeMin: r.Pred.RuntimeMin, BW: r.Pred.ReadBW() + r.Pred.WriteBW(), OK: r.Predicted}
	}

	// Phase 2: snapshot turnaround prediction on a 256-node machine, and
	// the system-IO forecast it places.
	f, err := ioaware.Forecast(context.Background(), completed, preds, sched.SimConfig{Nodes: 256, Backfill: true}, false)
	if err != nil {
		log.Fatal(err)
	}
	var taAcc []float64
	for _, r := range f.Turnarounds {
		taAcc = append(taAcc, metrics.RelativeAccuracy(float64(r.RealSec), float64(r.PredictedSec)))
	}
	ts := metrics.Summarize(taAcc)
	fmt.Printf("turnaround accuracy: mean %.1f%% median %.1f%% (paper: 42.1%% / 40.8%%)\n",
		ts.Mean*100, ts.Median*100)

	// System-IO forecast and burst report.
	acc := metrics.Summarize(ioaware.SeriesAccuracy(f.Actual, f.Predicted))
	fmt.Printf("system-IO accuracy:  mean %.1f%% median %.1f%%\n", acc.Mean*100, acc.Median*100)

	thr := ioaware.BurstThreshold(f.Actual)
	nBursts := 0
	for _, b := range ioaware.BurstMask(f.Actual, thr) {
		if b {
			nBursts++
		}
	}
	fmt.Printf("IO bursts:           %d minutes above mean+1σ (%.3e B/s)\n", nBursts, thr)
	for i, c := range ioaware.WindowSweep(f.Actual, f.Predicted) {
		fmt.Printf("  %2d-min window: sensitivity %5.1f%%  precision %5.1f%%\n",
			ioaware.Windows[i], c.Sensitivity()*100, c.Precision()*100)
	}
	fmt.Println("(paper: >50% of bursts predicted; sensitivity/precision rise with window size)")
}
