// Quickstart: map a job script to PRIONN's image-like representation,
// train a small model on a synthetic trace, and predict the runtime and
// IO of a new job script.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"prionn/internal/mapping"
	"prionn/internal/prionn"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

const myScript = `#!/bin/bash
#SBATCH --job-name=lulesh_s64
#SBATCH --nodes=8
#SBATCH --ntasks=128
#SBATCH --time=4:00:00
#SBATCH --account=physics

module load intel mvapich2
cd /p/lustre1/alice/runs/lulesh

srun -n 128 ./lulesh.exe -s 64 -i 5000 -f /p/lustre1/alice/decks/lulesh_s64.in
echo "lulesh done"
`

func main() {
	log.SetFlags(0)

	// 1. The data mapping (paper §2.1): the script text becomes an
	// image-like matrix, one pixel (vector) per character.
	emb := word2vec.Train([]string{myScript}, word2vec.Config{Dim: 4, Epochs: 2, Seed: 1, MaxPairs: 5000})
	img := mapping.MapScript(myScript, mapping.Word2Vec{Emb: emb}, 64, 64)
	fmt.Printf("mapped script: %d channels × %d rows × %d cols (%d pixels)\n",
		img.Dim(0), img.Dim(1), img.Dim(2), img.Len())

	// 2. Generate a small synthetic workload standing in for the
	// historical job data of a production cluster.
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 42, Jobs: 400, Users: 24, Apps: 8}))
	fmt.Printf("historical jobs: %d (for training)\n", len(jobs))

	// 3. Build and train PRIONN on the most recent window.
	cfg := prionn.FastConfig()
	cfg.Epochs = 3
	fmt.Printf("training on the %d most recent jobs...\n", min(len(jobs), cfg.TrainWindow))
	p, err := prionn.NewTrained(cfg, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained a %d-parameter model\n", p.NumParams())

	// 4. Predict the resources of a job the cluster has never run.
	pred := p.PredictOne(myScript)
	fmt.Printf("\nprediction for the new script:\n")
	fmt.Printf("  runtime:      %d minutes\n", pred.RuntimeMin)
	fmt.Printf("  bytes read:   %.3e\n", pred.ReadBytes)
	fmt.Printf("  bytes write:  %.3e\n", pred.WriteBytes)
	fmt.Printf("  read BW:      %.3e B/s\n", pred.ReadBW())
	fmt.Printf("  write BW:     %.3e B/s\n", pred.WriteBW())

	// 5. Which characters drove the prediction? (brackets mark the
	// top-salience cells — typically the binary name and parameters).
	top := p.ExplainRuntime(myScript).TopCells(8)
	fmt.Printf("\nmost influential script characters:\n")
	for _, c := range top {
		fmt.Printf("  row %2d col %2d  %q  weight %.2f\n", c.Row, c.Col, c.Char, c.Weight)
	}
}
