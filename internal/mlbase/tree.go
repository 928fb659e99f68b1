// Package mlbase implements the traditional machine-learning regressors
// PRIONN is compared against (paper §2.2): a CART decision tree, a random
// forest, and k-nearest neighbors. These models consume the manually
// extracted job-script features of Table 1 (see package features) — the
// approach of Smith et al. and McKenna et al. that PRIONN's whole-script
// deep learning replaces.
package mlbase

import (
	"math"
	"math/rand"
	"sort"
)

// Regressor predicts a scalar target from a numerical feature vector.
type Regressor interface {
	// Fit trains on rows x with targets y (len(x) == len(y)).
	Fit(x [][]float64, y []float64)
	// Predict returns the prediction for one feature vector.
	Predict(row []float64) float64
}

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	MaxDepth       int // 0 means unlimited
	MinSamplesLeaf int // minimum samples per leaf (default 1)
	// MaxFeatures restricts the number of candidate features examined per
	// split; 0 means all features. Used by the random forest.
	MaxFeatures int
	// rng supplies the feature subsampling; nil means deterministic
	// full-feature splits.
	rng *rand.Rand
}

// DecisionTree is a CART regression tree using variance reduction as the
// split criterion.
type DecisionTree struct {
	Config TreeConfig
	root   *treeNode
}

type treeNode struct {
	feature   int
	threshold float64
	value     float64
	left      *treeNode
	right     *treeNode
}

func (n *treeNode) leaf() bool { return n.left == nil }

// NewDecisionTree returns a tree with the given configuration.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &DecisionTree{Config: cfg}
}

// Fit implements Regressor.
func (t *DecisionTree) Fit(x [][]float64, y []float64) {
	if len(x) == 0 {
		t.root = &treeNode{value: 0}
		return
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(x, y, idx, 0)
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// build grows the tree recursively over the row subset idx.
func (t *DecisionTree) build(x [][]float64, y []float64, idx []int, depth int) *treeNode {
	node := &treeNode{value: mean(y, idx)}
	if len(idx) < 2*t.Config.MinSamplesLeaf {
		return node
	}
	if t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth {
		return node
	}
	feature, threshold, ok := t.bestSplit(x, y, idx)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.Config.MinSamplesLeaf || len(right) < t.Config.MinSamplesLeaf {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = t.build(x, y, left, depth+1)
	node.right = t.build(x, y, right, depth+1)
	return node
}

// bestSplit finds the (feature, threshold) pair minimizing the weighted
// child variance (equivalently maximizing variance reduction) using the
// sorted prefix-sum sweep.
func (t *DecisionTree) bestSplit(x [][]float64, y []float64, idx []int) (feature int, threshold float64, ok bool) {
	nFeatures := len(x[0])
	candidates := make([]int, nFeatures)
	for i := range candidates {
		candidates[i] = i
	}
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nFeatures && t.Config.rng != nil {
		t.Config.rng.Shuffle(nFeatures, func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:t.Config.MaxFeatures]
	}

	n := len(idx)
	order := make([]int, n)
	bestScore := math.Inf(1)
	var total, totalSq float64
	for _, i := range idx {
		total += y[i]
		totalSq += y[i] * y[i]
	}
	// Baseline SSE; a split must strictly improve it.
	baseSSE := totalSq - total*total/float64(n)

	for _, f := range candidates {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		var leftSum, leftSq float64
		for k := 0; k < n-1; k++ {
			i := order[k]
			leftSum += y[i]
			leftSq += y[i] * y[i]
			// Can't split between equal feature values. Equal means
			// bitwise-identical stored values: a tolerance would forbid
			// valid splits.
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			nl, nr := float64(k+1), float64(n-k-1)
			if int(nl) < t.Config.MinSamplesLeaf || int(nr) < t.Config.MinSamplesLeaf {
				continue
			}
			rightSum := total - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			if sse < bestScore {
				bestScore = sse
				feature = f
				threshold = (x[order[k]][f] + x[order[k+1]][f]) / 2
				ok = true
			}
		}
	}
	if ok && bestScore >= baseSSE-1e-12 {
		// No real improvement (e.g. constant target).
		return 0, 0, false
	}
	return feature, threshold, ok
}

// Predict implements Regressor.
func (t *DecisionTree) Predict(row []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf() {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the depth of the fitted tree (a single leaf has depth 0).
func (t *DecisionTree) Depth() int {
	var walk func(*treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.leaf() {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(t.root)
}
