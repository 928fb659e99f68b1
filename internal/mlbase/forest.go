package mlbase

import (
	"math"
	"math/rand"

	"prionn/internal/tensor"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees          int // number of trees (default 50)
	MaxDepth       int // per-tree depth limit; 0 unlimited
	MinSamplesLeaf int
	// MaxFeatures per split; 0 selects max(1, nFeatures/3), the customary
	// regression default.
	MaxFeatures int
	Seed        int64
}

// RandomForest is a bagged ensemble of CART regression trees with random
// feature subsets per split. The paper identifies RF as the best
// traditional model and uses it as the representative baseline.
type RandomForest struct {
	Config ForestConfig
	trees  []*DecisionTree
}

// NewRandomForest returns a forest with the given configuration.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &RandomForest{Config: cfg}
}

// Fit implements Regressor. Trees are trained in parallel across the
// worker pool, each on a bootstrap resample of the data.
func (rf *RandomForest) Fit(x [][]float64, y []float64) {
	n := len(x)
	rf.trees = make([]*DecisionTree, rf.Config.Trees)
	if n == 0 {
		for i := range rf.trees {
			rf.trees[i] = NewDecisionTree(TreeConfig{})
			rf.trees[i].Fit(nil, nil)
		}
		return
	}
	maxF := rf.Config.MaxFeatures
	if maxF <= 0 {
		maxF = len(x[0]) / 3
		if maxF < 1 {
			maxF = 1
		}
	}
	tensor.For(rf.Config.Trees, 1, tensor.Func(func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			rng := rand.New(rand.NewSource(rf.Config.Seed + int64(ti)*7919))
			bx := make([][]float64, n)
			by := make([]float64, n)
			for i := 0; i < n; i++ {
				j := rng.Intn(n)
				bx[i], by[i] = x[j], y[j]
			}
			tree := NewDecisionTree(TreeConfig{
				MaxDepth:       rf.Config.MaxDepth,
				MinSamplesLeaf: rf.Config.MinSamplesLeaf,
				MaxFeatures:    maxF,
				rng:            rng,
			})
			tree.Fit(bx, by)
			rf.trees[ti] = tree
		}
	}))
}

// Predict implements Regressor: the mean of the per-tree predictions.
func (rf *RandomForest) Predict(row []float64) float64 {
	if len(rf.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range rf.trees {
		s += t.Predict(row)
	}
	return s / float64(len(rf.trees))
}

// KNNConfig controls the k-nearest-neighbors regressor.
type KNNConfig struct {
	K int // neighbor count (default 5)
}

// KNN is a brute-force Euclidean k-nearest-neighbors regressor, the
// weakest of the paper's traditional baselines (label-encoded categorical
// features distort Euclidean distances, as the paper observes).
type KNN struct {
	Config KNNConfig
	x      [][]float64
	y      []float64
}

// NewKNN returns a kNN regressor.
func NewKNN(cfg KNNConfig) *KNN {
	if cfg.K <= 0 {
		cfg.K = 5
	}
	return &KNN{Config: cfg}
}

// Fit implements Regressor (kNN just memorizes the data).
func (k *KNN) Fit(x [][]float64, y []float64) {
	k.x, k.y = x, y
}

// Predict implements Regressor: the mean target of the K nearest rows.
func (k *KNN) Predict(row []float64) float64 {
	n := len(k.x)
	if n == 0 {
		return 0
	}
	kk := k.Config.K
	if kk > n {
		kk = n
	}
	// Bounded insertion into a small sorted buffer beats a full sort for
	// the K we use.
	dists := make([]float64, kk)
	vals := make([]float64, kk)
	count := 0
	for i := 0; i < n; i++ {
		var d float64
		xi := k.x[i]
		for j, v := range row {
			diff := v - xi[j]
			d += diff * diff
		}
		if count < kk {
			// Insert into the sorted prefix.
			p := count
			for p > 0 && dists[p-1] > d {
				dists[p], vals[p] = dists[p-1], vals[p-1]
				p--
			}
			dists[p], vals[p] = d, k.y[i]
			count++
			continue
		}
		if d >= dists[kk-1] {
			continue
		}
		p := kk - 1
		for p > 0 && dists[p-1] > d {
			dists[p], vals[p] = dists[p-1], vals[p-1]
			p--
		}
		dists[p], vals[p] = d, k.y[i]
	}
	var s float64
	for i := 0; i < count; i++ {
		s += vals[i]
	}
	return s / float64(count)
}

// MAE returns the mean absolute error of a regressor over a test set.
func MAE(m Regressor, x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i, row := range x {
		s += math.Abs(m.Predict(row) - y[i])
	}
	return s / float64(len(x))
}
