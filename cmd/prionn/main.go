// Command prionn trains the PRIONN tool on a synthetic trace and either
// reports online prediction accuracy or predicts the resources of a job
// script supplied by the user.
//
// Usage:
//
//	prionn -jobs 2000 -scale fast            # online evaluation report
//	prionn -jobs 1000 -script my_job.sbatch  # predict one script
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prionn: ")

	jobs := flag.Int("jobs", 2000, "trace length for training/evaluation")
	seed := flag.Int64("seed", 1, "seed for trace and model")
	scale := flag.String("scale", "fast", "model scale: tiny, fast, paper")
	script := flag.String("script", "", "job script file to predict after training")
	save := flag.String("save", "", "write the trained model to this file")
	load := flag.String("load", "", "restore a model from this file instead of training")
	verbose := flag.Bool("v", false, "print training progress")
	flag.Parse()

	cfg, err := prionn.ScaleConfig(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = *seed

	all := trace.Generate(trace.Config{Seed: *seed, Jobs: *jobs})

	if *script != "" {
		predictScript(all, cfg, *script, *save, *load)
		return
	}

	var progress func(done, total int)
	if *verbose {
		progress = func(done, total int) {
			log.Printf("retrained at %d/%d submissions", done, total)
		}
	}
	recs, err := prionn.RunOnline(context.Background(), all, cfg, progress)
	if err != nil {
		log.Fatal(err)
	}
	report(recs)
}

func predictScript(all []trace.Job, cfg prionn.Config, path, save, load string) {
	text, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var p *prionn.Predictor
	if load != "" {
		p, err = prionn.LoadFile(load)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("restored model from %s", load)
	} else {
		completed := trace.Completed(all)
		log.Printf("training on %d most recently completed jobs...", min(len(completed), cfg.TrainWindow))
		p, err = prionn.NewTrained(cfg, completed)
		if err != nil {
			log.Fatal(err)
		}
	}
	if save != "" {
		if err := p.SaveFile(save); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved model to %s", save)
	}
	pred := p.PredictOne(string(text))
	fmt.Printf("predicted runtime:     %d min\n", pred.RuntimeMin)
	fmt.Printf("predicted bytes read:  %.3e\n", pred.ReadBytes)
	fmt.Printf("predicted bytes write: %.3e\n", pred.WriteBytes)
	fmt.Printf("implied read BW:       %.3e B/s\n", pred.ReadBW())
	fmt.Printf("implied write BW:      %.3e B/s\n", pred.WriteBW())
}

func report(recs []prionn.OnlineRecord) {
	pred := prionn.PredictedRecords(recs)
	if len(pred) == 0 {
		fmt.Println("no predictions made (trace too short for a training event)")
		return
	}
	var rt, rd, wr []float64
	for _, r := range pred {
		rt = append(rt, metrics.RelativeAccuracy(float64(r.Job.ActualMin()), float64(r.Pred.RuntimeMin)))
		rd = append(rd, metrics.RelativeAccuracy(r.Job.ReadBW(), r.Pred.ReadBW()))
		wr = append(wr, metrics.RelativeAccuracy(r.Job.WriteBW(), r.Pred.WriteBW()))
	}
	fmt.Printf("predictions: %d of %d submissions\n", len(pred), len(recs))
	for _, row := range []struct {
		name  string
		acc   []float64
		paper string
	}{
		{"runtime accuracy ", rt, "76.1% mean / 100% median"},
		{"read BW accuracy ", rd, "80.2% mean"},
		{"write BW accuracy", wr, "75.6% mean"},
	} {
		s := metrics.Summarize(row.acc)
		fmt.Printf("%s  mean %5.1f%%  median %5.1f%%  q1 %5.1f%%  q3 %5.1f%%   (paper: %s)\n",
			row.name, s.Mean*100, s.Median*100, s.Q1*100, s.Q3*100, row.paper)
	}
}
