package prionn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"prionn/internal/nn"
	"prionn/internal/trace"
)

// int8LogitsGolden is the SHA-256 of the int8 logits (little-endian
// float32 bits; runtime, read, write heads in that order, each
// [64, classes] row-major) that the commit before the fused int8
// forward served for the fixture below. It was computed at that commit
// and is not to be regenerated from the code it guards.
const int8LogitsGolden = "2158e902a9a86d3ce42014213ab98e0eafdbadd52061adf1c0b1a42f00060c2b"

// TestInt8LogitsGolden pins "the fused int8 forward is bit-identical to
// the im2col + batch-GEMM + requant + pool forward it replaced" as a
// test: the fixture is internal/serve/quant_bench_test.go's (FastConfig
// 2D-CNN, seed 3, one epoch over 40 jobs, calibrated on the next 40), the
// input its first 64 bench scripts as one batch. Training and calibration
// are float32 and bitwise reproducible, so the hash moves only if the
// int8 forward's bytes do.
func TestInt8LogitsGolden(t *testing.T) {
	cfg := FastConfig()
	cfg.Seed = 3
	cfg.Epochs = 1
	cfg.TrainWindow = 40
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 3, Jobs: 120}))
	scripts := make([]string, len(jobs))
	for i, j := range jobs {
		scripts[i] = j.Script
	}
	p, err := New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(jobs[:40]); err != nil {
		t.Fatal(err)
	}
	v, err := p.SnapshotQuantized(jobs[40:80])
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]string, 64)
	for i := range batch {
		batch[i] = jobs[i%len(jobs)].Script
	}
	x := v.MapTexts(batch)
	h := sha256.New()
	var word [4]byte
	for _, m := range []*nn.QModel{v.qruntime, v.qread, v.qwrite} {
		for _, logit := range m.Predict(x).Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(logit))
			h.Write(word[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != int8LogitsGolden {
		t.Fatalf("int8 logits hash %s, golden %s", got, int8LogitsGolden)
	}
}
