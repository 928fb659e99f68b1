// Command ioforecast runs the full phase-2 pipeline (paper §4, Fig. 10)
// end to end on one synthetic trace: PRIONN online predictions → snapshot
// turnaround predictions → system-IO forecast → IO-burst report.
//
// Usage:
//
//	ioforecast -jobs 1500 -nodes 1296
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"prionn/internal/ioaware"
	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/sched"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ioforecast: ")

	jobs := flag.Int("jobs", 1500, "trace length")
	seed := flag.Int64("seed", 1, "seed")
	nodes := flag.Int("nodes", 1296, "machine size")
	scale := flag.String("scale", "fast", "model scale: tiny, fast, paper")
	flag.Parse()

	cfg, err := prionn.ScaleConfig(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = *seed
	cfg.PredictIO = true

	all := trace.Generate(trace.Config{Seed: *seed, Jobs: *jobs})
	completed := trace.Completed(all)
	log.Printf("trace: %d jobs (%d completed)", len(all), len(completed))

	// Phase 1: PRIONN per-job predictions in the online loop.
	recs, err := prionn.RunOnline(context.Background(), all, cfg, func(done, total int) {
		log.Printf("retrained at %d/%d submissions", done, total)
	})
	if err != nil {
		log.Fatal(err)
	}
	preds := make(map[int]ioaware.Pred, len(recs))
	for _, r := range recs {
		preds[r.Job.ID] = ioaware.Pred{RuntimeMin: r.Pred.RuntimeMin, BW: r.Pred.ReadBW() + r.Pred.WriteBW(), OK: r.Predicted}
	}

	// Phase 2: snapshot turnaround prediction, then the system-IO forecast.
	f, err := ioaware.Forecast(context.Background(), completed, preds, sched.SimConfig{Nodes: *nodes, Backfill: true}, false)
	if err != nil {
		log.Fatal(err)
	}
	var taAcc []float64
	for _, r := range f.Turnarounds {
		taAcc = append(taAcc, metrics.RelativeAccuracy(float64(r.RealSec), float64(r.PredictedSec)))
	}

	ts := metrics.Summarize(taAcc)
	fmt.Printf("\nturnaround accuracy: mean %.1f%%  median %.1f%%  (paper: 42.1%% / 40.8%%)\n",
		ts.Mean*100, ts.Median*100)

	ioAcc := metrics.Summarize(ioaware.SeriesAccuracy(f.Actual, f.Predicted))
	fmt.Printf("system-IO accuracy:  mean %.1f%%  median %.1f%%\n", ioAcc.Mean*100, ioAcc.Median*100)
	fmt.Printf("burst threshold:     %.3e B/s (mean + 1 std, paper Fig. 12a style)\n\n", ioaware.BurstThreshold(f.Actual))

	fmt.Println("window(min)  sensitivity  precision")
	for i, c := range ioaware.WindowSweep(f.Actual, f.Predicted) {
		fmt.Printf("%10d  %10.1f%%  %8.1f%%\n", ioaware.Windows[i], c.Sensitivity()*100, c.Precision()*100)
	}

	// A coarse text rendering of the two series (64 columns).
	fmt.Println("\nsystem IO over time (actual vs predicted, relative):")
	fmt.Printf("actual    %s\n", spark(f.Actual))
	fmt.Printf("predicted %s\n", spark(f.Predicted))
}

// spark renders a series as a 64-character bar string.
func spark(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	const width = 64
	levels := []rune(" ▁▂▃▄▅▆▇█")
	buckets := make([]float64, width)
	for i, v := range series {
		buckets[i*width/len(series)] += v
	}
	var max float64
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", width)
	}
	var b strings.Builder
	for _, v := range buckets {
		b.WriteRune(levels[int(v/max*float64(len(levels)-1))])
	}
	return b.String()
}
