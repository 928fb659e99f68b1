// Package word2vec implements character-level word2vec (skip-gram with
// negative sampling, Mikolov et al. 2013) for the PRIONN data mapping.
//
// The paper's word2vec transformation embeds every job-script character
// into a small dense vector (output size 4–8) whose geometry reflects the
// contexts the character appears in. PRIONN trains the embedding on the
// corpus of historical job scripts and then uses the per-character vectors
// as the pixel channels of the image-like script representation.
package word2vec

import (
	"encoding/gob"
	"io"
	"math"
	"math/rand"
)

// VocabSize is the character vocabulary: standard 7-bit ASCII. Bytes
// outside the range are folded onto the last slot.
const VocabSize = 128

// Config controls embedding training.
type Config struct {
	Dim      int     // embedding dimensionality (paper: 4)
	Window   int     // context radius in characters
	Negative int     // negative samples per positive pair
	LR       float64 // initial learning rate, linearly decayed
	Epochs   int     // passes over the corpus
	Seed     int64   // RNG seed
	// MaxPairs caps the number of (center, context) pairs sampled per
	// epoch; 0 means use every pair. Large corpora train well below the
	// full pair count.
	MaxPairs int
}

// DefaultConfig returns the configuration used by PRIONN: 4-dimensional
// vectors, window 4, 5 negatives.
func DefaultConfig() Config {
	return Config{Dim: 4, Window: 4, Negative: 5, LR: 0.05, Epochs: 3, Seed: 1, MaxPairs: 200000}
}

// Embedding holds trained character vectors.
type Embedding struct {
	Dim     int
	Vectors [VocabSize][]float32 // input vectors, one per character
}

// Vector returns the embedding of character c (folded to ASCII).
func (e *Embedding) Vector(c byte) []float32 {
	if c >= VocabSize {
		c = VocabSize - 1
	}
	return e.Vectors[c]
}

// fold maps a byte to a vocabulary index.
func fold(c byte) int {
	if c >= VocabSize {
		return VocabSize - 1
	}
	return int(c)
}

// Train learns character embeddings from a corpus of job scripts using
// skip-gram with negative sampling. The corpus is treated as independent
// documents; context windows do not cross document boundaries.
func Train(corpus []string, cfg Config) *Embedding {
	if cfg.Dim <= 0 {
		cfg.Dim = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.Negative <= 0 {
		cfg.Negative = 5
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Unigram table with the customary 3/4-power smoothing for negative
	// sampling.
	counts := make([]float64, VocabSize)
	total := 0
	for _, doc := range corpus {
		for i := 0; i < len(doc); i++ {
			counts[fold(doc[i])]++
			total++
		}
	}
	if total == 0 {
		// Degenerate corpus: return deterministic small random vectors so
		// downstream mapping still works.
		e := &Embedding{Dim: cfg.Dim}
		for c := 0; c < VocabSize; c++ {
			v := make([]float32, cfg.Dim)
			for d := range v {
				v[d] = float32(rng.NormFloat64() * 0.1)
			}
			e.Vectors[c] = v
		}
		return e
	}
	const tableSize = 1 << 16
	negTable := make([]uint8, tableSize)
	{
		var z float64
		for _, c := range counts {
			z += math.Pow(c, 0.75)
		}
		idx, cum := 0, 0.0
		for c := 0; c < VocabSize && idx < tableSize; c++ {
			cum += math.Pow(counts[c], 0.75) / z
			for idx < tableSize && float64(idx)/tableSize < cum {
				negTable[idx] = uint8(c)
				idx++
			}
		}
		for ; idx < tableSize; idx++ {
			negTable[idx] = VocabSize - 1
		}
	}

	// Parameter matrices: input (the embedding we keep) and output.
	in := make([][]float32, VocabSize)
	out := make([][]float32, VocabSize)
	for c := 0; c < VocabSize; c++ {
		in[c] = make([]float32, cfg.Dim)
		out[c] = make([]float32, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			in[c][d] = float32((rng.Float64() - 0.5) / float64(cfg.Dim))
		}
	}

	// Enumerate candidate (doc, pos) centers once.
	type center struct{ doc, pos int32 }
	var centers []center
	for di, doc := range corpus {
		for p := 0; p < len(doc); p++ {
			centers = append(centers, center{int32(di), int32(p)})
		}
	}
	pairsPerEpoch := len(centers)
	if cfg.MaxPairs > 0 && cfg.MaxPairs < pairsPerEpoch {
		pairsPerEpoch = cfg.MaxPairs
	}

	steps := cfg.Epochs * pairsPerEpoch
	step := 0
	grad := make([]float32, cfg.Dim)
	for e := 0; e < cfg.Epochs; e++ {
		for k := 0; k < pairsPerEpoch; k++ {
			ct := centers[rng.Intn(len(centers))]
			doc := corpus[ct.doc]
			pos := int(ct.pos)
			w := fold(doc[pos])
			// Dynamic window as in the original implementation.
			b := 1 + rng.Intn(cfg.Window)
			lr := float32(cfg.LR * (1 - float64(step)/float64(steps+1)))
			if lr < float32(cfg.LR)*1e-2 {
				lr = float32(cfg.LR) * 1e-2
			}
			step++
			for off := -b; off <= b; off++ {
				cp := pos + off
				if off == 0 || cp < 0 || cp >= len(doc) {
					continue
				}
				ctx := fold(doc[cp])
				v := in[w]
				clear(grad)
				// One positive plus cfg.Negative negatives.
				for s := 0; s <= cfg.Negative; s++ {
					var target int
					var label float32
					if s == 0 {
						target, label = ctx, 1
					} else {
						target, label = int(negTable[rng.Intn(tableSize)]), 0
						if target == ctx {
							continue
						}
					}
					u := out[target]
					var dot float32
					for d := 0; d < cfg.Dim; d++ {
						dot += v[d] * u[d]
					}
					g := (label - sigmoid(dot)) * lr
					for d := 0; d < cfg.Dim; d++ {
						grad[d] += g * u[d]
						u[d] += g * v[d]
					}
				}
				for d := 0; d < cfg.Dim; d++ {
					v[d] += grad[d]
				}
			}
		}
	}

	emb := &Embedding{Dim: cfg.Dim}
	for c := 0; c < VocabSize; c++ {
		emb.Vectors[c] = in[c]
	}
	return emb
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Similarity returns the cosine similarity between the embeddings of two
// characters.
func (e *Embedding) Similarity(a, b byte) float64 {
	va, vb := e.Vector(a), e.Vector(b)
	var dot, na, nb float64
	for d := 0; d < e.Dim; d++ {
		dot += float64(va[d]) * float64(vb[d])
		na += float64(va[d]) * float64(va[d])
		nb += float64(vb[d]) * float64(vb[d])
	}
	// An exact zero norm (an all-zero vector) is the only input where
	// the cosine is undefined.
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Save writes the embedding with gob.
func (e *Embedding) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e)
}

// Load reads an embedding written by Save.
func Load(r io.Reader) (*Embedding, error) {
	var e Embedding
	if err := gob.NewDecoder(r).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}
