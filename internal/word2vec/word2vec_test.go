package word2vec

import (
	"bytes"
	"math"
	"testing"
)

func TestFold(t *testing.T) {
	if fold('a') != 97 {
		t.Fatalf("fold('a') = %d", fold('a'))
	}
	if fold(200) != 127 {
		t.Fatalf("fold(200) = %d, want 127", fold(200))
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	e := Train(nil, DefaultConfig())
	if e.Dim != 4 {
		t.Fatalf("Dim = %d, want 4", e.Dim)
	}
	for c := 0; c < VocabSize; c++ {
		if len(e.Vectors[c]) != 4 {
			t.Fatalf("char %d has vector length %d", c, len(e.Vectors[c]))
		}
	}
}

func TestTrainProducesFiniteVectors(t *testing.T) {
	corpus := []string{
		"#!/bin/bash\n#SBATCH -N 4\nsrun ./app --steps 100\n",
		"#!/bin/bash\n#SBATCH -N 8\nsrun ./app --steps 200\n",
	}
	cfg := DefaultConfig()
	cfg.Epochs = 2
	cfg.MaxPairs = 5000
	e := Train(corpus, cfg)
	for c := 0; c < VocabSize; c++ {
		for _, v := range e.Vectors[c] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("char %d has non-finite component %v", c, v)
			}
		}
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	corpus := []string{"srun ./sim --n 16\nsrun ./sim --n 32\n"}
	cfg := DefaultConfig()
	cfg.MaxPairs = 2000
	a := Train(corpus, cfg)
	b := Train(corpus, cfg)
	for c := 0; c < VocabSize; c++ {
		for d := 0; d < a.Dim; d++ {
			if a.Vectors[c][d] != b.Vectors[c][d] {
				t.Fatal("training is not deterministic for a fixed seed")
			}
		}
	}
}

func TestContextSimilarity(t *testing.T) {
	// Digits appear in interchangeable contexts ("x=1;", "x=2;", ...) while
	// 'q' appears in a disjoint context. After training, digit-digit
	// similarity should exceed digit-q similarity on average.
	var corpus []string
	for i := 0; i < 200; i++ {
		d1 := byte('0' + i%10)
		d2 := byte('0' + (i*3)%10)
		corpus = append(corpus,
			"value="+string(d1)+string(d2)+"; run\n",
			"qqq bbb qqq bbb qqq\n")
	}
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.MaxPairs = 30000
	e := Train(corpus, cfg)
	var digitSim, crossSim float64
	var nd, nc int
	for a := byte('0'); a <= '9'; a++ {
		for b := byte('0'); b <= '9'; b++ {
			if a != b {
				digitSim += e.Similarity(a, b)
				nd++
			}
		}
		crossSim += e.Similarity(a, 'q')
		nc++
	}
	digitSim /= float64(nd)
	crossSim /= float64(nc)
	if digitSim <= crossSim {
		t.Fatalf("digit-digit similarity %v not above digit-q similarity %v", digitSim, crossSim)
	}
}

func TestVectorFoldsHighBytes(t *testing.T) {
	e := Train([]string{"abc"}, Config{Dim: 2, Epochs: 1, Seed: 3, MaxPairs: 100})
	if &e.Vector(255)[0] != &e.Vectors[127][0] {
		t.Fatal("high bytes must fold to the last vocabulary slot")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := Train([]string{"hello world\n"}, Config{Dim: 3, Epochs: 1, Seed: 9, MaxPairs: 500})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != e.Dim {
		t.Fatalf("Dim %d != %d", got.Dim, e.Dim)
	}
	for c := 0; c < VocabSize; c++ {
		for d := 0; d < e.Dim; d++ {
			if got.Vectors[c][d] != e.Vectors[c][d] {
				t.Fatal("vectors differ after round trip")
			}
		}
	}
}

func TestSimilarityRange(t *testing.T) {
	e := Train([]string{"abcabcabc"}, Config{Dim: 4, Epochs: 2, Seed: 5, MaxPairs: 2000})
	s := e.Similarity('a', 'b')
	if s < -1.000001 || s > 1.000001 {
		t.Fatalf("cosine similarity %v out of [-1, 1]", s)
	}
	if sa := e.Similarity('a', 'a'); math.Abs(sa-1) > 1e-6 {
		t.Fatalf("self-similarity %v, want 1", sa)
	}
	// An all-zero vector has no direction: its similarity is 0, not NaN.
	e.Vectors['z'] = make([]float32, e.Dim)
	if sz := e.Similarity('a', 'z'); sz != 0 {
		t.Fatalf("similarity to an all-zero vector = %v, want 0", sz)
	}
}
