// Modelselect reproduces the paper's component-selection study (§2.4,
// Figs. 3–7) in miniature: it times the four data transformations and
// the three deep learning architectures, and compares their runtime
// prediction accuracy on one training window.
//
//	go run ./examples/modelselect
package main

import (
	"fmt"
	"log"
	"time"

	"prionn/internal/mapping"
	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

func main() {
	log.SetFlags(0)
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 7, Jobs: 500, Users: 24, Apps: 8}))
	train, test := jobs[:350], jobs[350:]

	// Fig. 3 in miniature: transformation cost.
	corpus := prionn.Corpus(prionn.FastConfig(), jobs)
	emb := word2vec.Train(corpus, word2vec.Config{Dim: 4, Window: 4, Negative: 5,
		LR: 0.05, Epochs: 2, Seed: 1, MaxPairs: 50000})
	fmt.Println("— transformation cost (paper Fig. 3: one-hot slowest) —")
	for _, tr := range mapping.All(emb) {
		start := time.Now()
		mapping.MapBatch(corpus, tr, 32, 32)
		fmt.Printf("  %-9s %3d channels  %7.4fs\n", tr.Name(), tr.Channels(), time.Since(start).Seconds())
	}

	// Figs. 4–7 in miniature: train each transform × the 2D-CNN, then
	// each model × word2vec, and compare held-out accuracy.
	eval := func(cfg prionn.Config) (trainSec float64, acc float64) {
		cfg.PredictIO = false
		p, err := prionn.New(cfg, prionn.Corpus(cfg, jobs))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := p.Train(train); err != nil {
			log.Fatal(err)
		}
		trainSec = time.Since(start).Seconds()
		var sum float64
		for i, pr := range p.Predict(prionn.Corpus(cfg, test)) {
			sum += metrics.RelativeAccuracy(float64(test[i].ActualMin()), float64(pr.RuntimeMin))
		}
		//prionnvet:ignore time-dep -- training wall time is the quantity being reported
		return trainSec, sum / float64(len(test))
	}

	fmt.Println("\n— transformations × 2D-CNN (paper Figs. 4–5: word2vec best accuracy) —")
	for _, tk := range []prionn.TransformKind{
		prionn.TransformBinary, prionn.TransformSimple, prionn.TransformOneHot, prionn.TransformWord2Vec,
	} {
		cfg := prionn.FastConfig()
		cfg.Transform = tk
		cfg.Epochs = 3
		sec, acc := eval(cfg)
		fmt.Printf("  %-9s train %6.2fs  held-out accuracy %.1f%%\n", tk, sec, acc*100)
	}

	fmt.Println("\n— models × word2vec (paper Figs. 6–7: 2D-CNN selected) —")
	for _, mk := range []prionn.ModelKind{prionn.ModelNN, prionn.Model1DCNN, prionn.Model2DCNN} {
		cfg := prionn.FastConfig()
		cfg.Model = mk
		cfg.Epochs = 3
		sec, acc := eval(cfg)
		fmt.Printf("  %-7s train %6.2fs  held-out accuracy %.1f%%\n", mk, sec, acc*100)
	}
}
