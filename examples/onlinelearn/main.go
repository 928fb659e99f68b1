// Onlinelearn shows the paper's online training behaviour (§2.3): models
// retrain (warm-start) every N submissions on the most recently
// completed jobs, and prediction accuracy improves as the system sees
// more of the workload.
//
//	go run ./examples/onlinelearn
package main

import (
	"context"
	"fmt"
	"log"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)

	all := trace.Generate(trace.Config{Seed: 21, Jobs: 1200, Users: 25, Apps: 8})
	cfg := prionn.FastConfig()
	cfg.TrainWindow = 150
	cfg.RetrainEvery = 100
	cfg.Epochs = 2
	cfg.PredictIO = false

	fmt.Printf("online loop: retrain every %d submissions on the %d most recently completed jobs\n\n",
		cfg.RetrainEvery, cfg.TrainWindow)

	recs, err := prionn.RunOnline(context.Background(), all, cfg, func(done, total int) {
		fmt.Printf("  retrained after submission %d/%d\n", done, total)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Accuracy per 200-submission phase: warm-started models should not
	// collapse between phases, and typically improve early on.
	fmt.Println("\nruntime accuracy by submission phase:")
	const phase = 200
	for start := 0; start < len(recs); start += phase {
		end := start + phase
		if end > len(recs) {
			end = len(recs)
		}
		var acc []float64
		for _, r := range recs[start:end] {
			if r.Predicted {
				acc = append(acc, metrics.RelativeAccuracy(
					float64(r.Job.ActualMin()), float64(r.Pred.RuntimeMin)))
			}
		}
		if len(acc) == 0 {
			fmt.Printf("  jobs %4d-%4d: (no model yet)\n", start, end)
			continue
		}
		s := metrics.Summarize(acc)
		fmt.Printf("  jobs %4d-%4d: mean %5.1f%%  median %5.1f%%  (%d predicted)\n",
			start, end, s.Mean*100, s.Median*100, s.N)
	}

	total := metrics.Summarize(func() []float64 {
		var acc []float64
		for _, r := range prionn.PredictedRecords(recs) {
			acc = append(acc, metrics.RelativeAccuracy(
				float64(r.Job.ActualMin()), float64(r.Pred.RuntimeMin)))
		}
		return acc
	}())
	fmt.Printf("\noverall: mean %.1f%% median %.1f%% over %d predictions (paper: 76.1%% / 100%%)\n",
		total.Mean*100, total.Median*100, total.N)
}
