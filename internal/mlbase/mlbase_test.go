package mlbase

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prionn/internal/tensor"
)

// stepData generates y = 10 if x0 > 0.5 else 2, with an irrelevant
// second feature.
func stepData(rng *rand.Rand, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		if x[i][0] > 0.5 {
			y[i] = 10
		} else {
			y[i] = 2
		}
	}
	return x, y
}

func TestDecisionTreeLearnsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := stepData(rng, 200)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 4})
	tree.Fit(x, y)
	if p := tree.Predict([]float64{0.9, 0.5}); math.Abs(p-10) > 0.5 {
		t.Fatalf("predict(0.9) = %v, want ≈10", p)
	}
	if p := tree.Predict([]float64{0.1, 0.5}); math.Abs(p-2) > 0.5 {
		t.Fatalf("predict(0.1) = %v, want ≈2", p)
	}
}

func TestDecisionTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tree := NewDecisionTree(TreeConfig{})
	tree.Fit(x, y)
	if tree.Depth() != 0 {
		t.Fatalf("constant target grew depth-%d tree", tree.Depth())
	}
	if p := tree.Predict([]float64{99}); p != 7 {
		t.Fatalf("predict = %v, want 7", p)
	}
}

func TestDecisionTreeEmptyFit(t *testing.T) {
	tree := NewDecisionTree(TreeConfig{})
	tree.Fit(nil, nil)
	if p := tree.Predict([]float64{1}); p != 0 {
		t.Fatalf("empty-fit predict = %v, want 0", p)
	}
}

func TestDecisionTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = rng.Float64() // noise forces deep growth if unlimited
	}
	tree := NewDecisionTree(TreeConfig{MaxDepth: 3})
	tree.Fit(x, y)
	if d := tree.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds MaxDepth 3", d)
	}
}

func TestDecisionTreeMinSamplesLeaf(t *testing.T) {
	// With MinSamplesLeaf == n/2 the tree can split at most once.
	rng := rand.New(rand.NewSource(3))
	x, y := stepData(rng, 64)
	tree := NewDecisionTree(TreeConfig{MinSamplesLeaf: 32})
	tree.Fit(x, y)
	if d := tree.Depth(); d > 1 {
		t.Fatalf("depth %d with MinSamplesLeaf covering half the data", d)
	}
}

func TestDecisionTreeInterpolatesTrainingData(t *testing.T) {
	// An unlimited tree with distinct feature values should fit training
	// data exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		x := make([][]float64, n)
		y := make([]float64, n)
		used := map[float64]bool{}
		for i := 0; i < n; i++ {
			v := rng.Float64()
			for used[v] {
				v = rng.Float64()
			}
			used[v] = true
			x[i] = []float64{v}
			y[i] = rng.Float64() * 100
		}
		tree := NewDecisionTree(TreeConfig{})
		tree.Fit(x, y)
		for i := range x {
			if math.Abs(tree.Predict(x[i])-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomForestBeatsNoiseOnStep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := stepData(rng, 300)
	rf := NewRandomForest(ForestConfig{Trees: 20, MaxDepth: 6, Seed: 1})
	rf.Fit(x, y)
	xt, yt := stepData(rng, 100)
	if mae := MAE(rf, xt, yt); mae > 1.0 {
		t.Fatalf("forest MAE %v > 1.0 on step function", mae)
	}
}

func TestRandomForestDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := stepData(rng, 100)
	a := NewRandomForest(ForestConfig{Trees: 5, Seed: 42})
	a.Fit(x, y)
	b := NewRandomForest(ForestConfig{Trees: 5, Seed: 42})
	b.Fit(x, y)
	probe := []float64{0.3, 0.7}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same-seed forests disagree")
	}
}

// TestRandomForestWorkerCountInvariant: trees fit on as many workers as
// there are, each from its own generator, so one worker and four grow
// the same forest and predict the same bits.
func TestRandomForestWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := stepData(rng, 200)
	probes, _ := stepData(rng, 50)
	var preds [2][]float64
	for i, workers := range []int{1, 4} {
		prev := tensor.SetMaxWorkers(workers)
		rf := NewRandomForest(ForestConfig{Trees: 30, MaxDepth: 6, Seed: 3})
		rf.Fit(x, y)
		tensor.SetMaxWorkers(prev)
		for _, p := range probes {
			preds[i] = append(preds[i], rf.Predict(p))
		}
	}
	for j := range probes {
		if math.Float64bits(preds[0][j]) != math.Float64bits(preds[1][j]) {
			t.Fatalf("probe %d: one worker predicts %v, four predict %v", j, preds[0][j], preds[1][j])
		}
	}
}

func TestRandomForestEmptyFit(t *testing.T) {
	rf := NewRandomForest(ForestConfig{Trees: 3})
	rf.Fit(nil, nil)
	if p := rf.Predict([]float64{1, 2}); p != 0 {
		t.Fatalf("empty forest predicts %v, want 0", p)
	}
}

func TestKNNExactNeighbors(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {10}}
	y := []float64{0, 10, 20, 1000}
	k := NewKNN(KNNConfig{K: 2})
	k.Fit(x, y)
	// Nearest two to 0.6 are x=1 and x=0 → mean(10, 0) = 5.
	if p := k.Predict([]float64{0.6}); p != 5 {
		t.Fatalf("kNN predict = %v, want 5", p)
	}
	// Nearest two to 11 are 10 and 2 → mean(1000, 20) = 510.
	if p := k.Predict([]float64{11}); p != 510 {
		t.Fatalf("kNN predict = %v, want 510", p)
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	k := NewKNN(KNNConfig{K: 10})
	k.Fit([][]float64{{0}, {1}}, []float64{4, 6})
	if p := k.Predict([]float64{0.5}); p != 5 {
		t.Fatalf("kNN with K>n predicts %v, want mean 5", p)
	}
}

func TestKNNEmptyFit(t *testing.T) {
	k := NewKNN(KNNConfig{K: 3})
	k.Fit(nil, nil)
	if p := k.Predict([]float64{1}); p != 0 {
		t.Fatalf("empty kNN predicts %v", p)
	}
}

func TestKNNMatchesBruteSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.Float64() * 100
		}
		kk := 1 + rng.Intn(5)
		k := NewKNN(KNNConfig{K: kk})
		k.Fit(x, y)
		q := []float64{rng.Float64() * 10, rng.Float64() * 10}
		got := k.Predict(q)

		// Reference: full sort by distance.
		type pair struct{ d, v float64 }
		ps := make([]pair, n)
		for i := range x {
			d := (q[0]-x[i][0])*(q[0]-x[i][0]) + (q[1]-x[i][1])*(q[1]-x[i][1])
			ps[i] = pair{d, y[i]}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if ps[j].d < ps[i].d {
					ps[i], ps[j] = ps[j], ps[i]
				}
			}
		}
		var want float64
		for i := 0; i < kk; i++ {
			want += ps[i].v
		}
		want /= float64(kk)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMAE(t *testing.T) {
	k := NewKNN(KNNConfig{K: 1})
	k.Fit([][]float64{{0}, {10}}, []float64{0, 100})
	x := [][]float64{{1}, {9}}
	y := []float64{10, 90}
	// Predictions: 0 and 100 → errors 10 and 10 → MAE 10.
	if m := MAE(k, x, y); m != 10 {
		t.Fatalf("MAE = %v, want 10", m)
	}
	if m := MAE(k, nil, nil); m != 0 {
		t.Fatalf("MAE on empty set = %v, want 0", m)
	}
}

func TestForestOrderingOnHPCLikeData(t *testing.T) {
	// RF should outperform a depth-limited single tree and kNN on data
	// where the target depends on an interaction of categorical codes —
	// mirroring the paper's observed ordering RF > DT > kNN.
	rng := rand.New(rand.NewSource(6))
	n := 600
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		user := float64(rng.Intn(20))
		app := float64(rng.Intn(8))
		nodes := float64(1 + rng.Intn(16))
		x[i] = []float64{user, app, nodes}
		y[i] = 30*app + 5*nodes + 13*float64(int(user)%3) + rng.NormFloat64()*5
	}
	train := n * 3 / 4
	rf := NewRandomForest(ForestConfig{Trees: 30, Seed: 7})
	rf.Fit(x[:train], y[:train])
	dt := NewDecisionTree(TreeConfig{MaxDepth: 4})
	dt.Fit(x[:train], y[:train])
	knn := NewKNN(KNNConfig{K: 5})
	knn.Fit(x[:train], y[:train])
	rfMAE := MAE(rf, x[train:], y[train:])
	dtMAE := MAE(dt, x[train:], y[train:])
	knnMAE := MAE(knn, x[train:], y[train:])
	if rfMAE >= dtMAE {
		t.Fatalf("RF MAE %v not better than DT MAE %v", rfMAE, dtMAE)
	}
	if rfMAE >= knnMAE {
		t.Fatalf("RF MAE %v not better than kNN MAE %v", rfMAE, knnMAE)
	}
}
