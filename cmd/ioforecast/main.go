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
	byID := map[int]prionn.OnlineRecord{}
	for _, r := range recs {
		byID[r.Job.ID] = r
	}

	// Phase 2: scheduler simulation with snapshot turnaround prediction.
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
	results, err := sched.PredictTurnarounds(items, sched.SimConfig{Nodes: *nodes, Backfill: true}, pred)
	if err != nil {
		log.Fatal(err)
	}

	// Build actual vs predicted system-IO series.
	var actualIvs, predIvs []ioaware.Interval
	var t0, t1 int64
	first := true
	var taAcc []float64
	for _, r := range results {
		rec := byID[r.ID]
		j := rec.Job
		actualIvs = append(actualIvs, ioaware.Interval{
			Start: r.RealPlacement.Start, End: r.RealPlacement.End, BW: j.ReadBW() + j.WriteBW(),
		})
		pp := r.PredPlacement
		if pp.End <= pp.Start {
			pp = r.RealPlacement
		}
		predIvs = append(predIvs, ioaware.Interval{
			Start: pp.Start, End: pp.End, BW: rec.Pred.ReadBW() + rec.Pred.WriteBW(),
		})
		if first || r.RealPlacement.Start < t0 {
			t0 = r.RealPlacement.Start
		}
		first = false
		if r.RealPlacement.End > t1 {
			t1 = r.RealPlacement.End
		}
		if pp.End > t1 {
			t1 = pp.End
		}
		taAcc = append(taAcc, metrics.RelativeAccuracy(float64(r.RealSec), float64(r.PredictedSec)))
	}
	actual := ioaware.Series(actualIvs, t0, t1, 60)
	predicted := ioaware.Series(predIvs, t0, t1, 60)

	ts := metrics.Summarize(taAcc)
	fmt.Printf("\nturnaround accuracy: mean %.1f%%  median %.1f%%  (paper: 42.1%% / 40.8%%)\n",
		ts.Mean*100, ts.Median*100)

	ioAcc := metrics.Summarize(ioaware.SeriesAccuracy(actual, predicted))
	fmt.Printf("system-IO accuracy:  mean %.1f%%  median %.1f%%\n", ioAcc.Mean*100, ioAcc.Median*100)

	thr := ioaware.BurstThreshold(actual)
	am := ioaware.BurstMask(actual, thr)
	pm := ioaware.BurstMask(predicted, thr)
	fmt.Printf("burst threshold:     %.3e B/s (mean + 1 std, paper Fig. 12a style)\n\n", thr)

	fmt.Println("window(min)  sensitivity  precision")
	for _, w := range []int{5, 10, 20, 30, 40, 50, 60} {
		c := ioaware.MatchBursts(am, pm, w/2)
		fmt.Printf("%10d  %10.1f%%  %8.1f%%\n", w, c.Sensitivity()*100, c.Precision()*100)
	}

	// A coarse text rendering of the two series (16 buckets).
	fmt.Println("\nsystem IO over time (actual vs predicted, relative):")
	fmt.Printf("actual    %s\n", spark(actual))
	fmt.Printf("predicted %s\n", spark(predicted))
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
