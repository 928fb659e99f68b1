// Futurework demonstrates the two extensions the paper's conclusion
// proposes (§6): feeding application input decks into the workflow and
// predicting power. The trace generator attaches a deck and a mean power
// draw to every job; PRIONN maps script+deck and trains a power head.
//
//	go run ./examples/futurework
package main

import (
	"fmt"
	"log"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
)

func main() {
	log.SetFlags(0)
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 33, Jobs: 500, Users: 24, Apps: 8}))
	train, test := jobs[:350], jobs[350:]

	for _, withDeck := range []bool{false, true} {
		cfg := prionn.FastConfig()
		cfg.PredictIO = false
		cfg.PredictPower = true
		cfg.IncludeDeck = withDeck
		cfg.Epochs = 4

		p, err := prionn.NewTrained(cfg, train)
		if err != nil {
			log.Fatal(err)
		}

		var rtAcc, pwAcc float64
		preds := p.PredictJobs(test)
		for i, j := range test {
			rtAcc += metrics.RelativeAccuracy(float64(j.ActualMin()), float64(preds[i].RuntimeMin))
			pwAcc += metrics.RelativeAccuracy(j.AvgPowerW, preds[i].PowerW)
		}
		rtAcc /= float64(len(test))
		pwAcc /= float64(len(test))

		label := "script only         "
		if withDeck {
			label = "script + input deck "
		}
		fmt.Printf("%s runtime accuracy %5.1f%%   power accuracy %5.1f%%\n",
			label, rtAcc*100, pwAcc*100)
	}
	fmt.Println("\n(paper §6: \"future work includes incorporating application input decks")
	fmt.Println(" into PRIONN's workflow and the prediction of other types of resources")
	fmt.Println(" such as power and network\")")

	// Show one deck so the reader sees what the model consumes.
	fmt.Printf("\nexample input deck for %q jobs:\n%s", jobs[0].User, jobs[0].InputDeck)
}
