// Package prionn_bench benchmarks every table and figure of the paper's
// evaluation (DESIGN.md §3), plus the substrate kernels and the DESIGN.md
// ablations. Figure benchmarks run the same code paths as the
// cmd/experiments runners at benchmark-friendly scale; full-scale
// regeneration lives in cmd/experiments.
package prionn_bench

import (
	"math/rand"
	"sync"
	"testing"

	"prionn/internal/analysis"
	"prionn/internal/experiments"
	"prionn/internal/ioaware"
	"prionn/internal/mapping"
	"prionn/internal/mlbase"
	"prionn/internal/nn"
	"prionn/internal/prionn"
	"prionn/internal/sched"
	"prionn/internal/tensor"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

// benchJobs caches a shared trace across benchmarks.
var benchJobs = trace.Completed(trace.Generate(trace.Config{Seed: 77, Jobs: 600, Users: 30, Apps: 8}))

func benchScripts(n int) []string {
	if n > len(benchJobs) {
		n = len(benchJobs)
	}
	s := make([]string, n)
	for i := 0; i < n; i++ {
		s[i] = benchJobs[i].Script
	}
	return s
}

var benchEmb = word2vec.Train(benchScripts(100),
	word2vec.Config{Dim: 4, Window: 4, Negative: 5, LR: 0.05, Epochs: 1, Seed: 1, MaxPairs: 20000})

// --- Fig. 3: transformation cost -----------------------------------------

func benchTransform(b *testing.B, tr mapping.Transform) {
	scripts := benchScripts(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapping.MapBatch(scripts, tr, 64, 64)
	}
}

func BenchmarkFig3TransformBinary(b *testing.B)   { benchTransform(b, mapping.Binary{}) }
func BenchmarkFig3TransformSimple(b *testing.B)   { benchTransform(b, mapping.Simple{}) }
func BenchmarkFig3TransformOneHot(b *testing.B)   { benchTransform(b, mapping.OneHot{}) }
func BenchmarkFig3TransformWord2vec(b *testing.B) { benchTransform(b, mapping.Word2Vec{Emb: benchEmb}) }

// --- Fig. 4: 2D-CNN training cost per transformation ----------------------

func benchTrain(b *testing.B, tk prionn.TransformKind, mk prionn.ModelKind) {
	cfg := prionn.TinyConfig()
	cfg.Transform = tk
	cfg.Model = mk
	cfg.PredictIO = false
	cfg.Epochs = 1
	window := benchJobs[:40]
	scripts := benchScripts(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Train(window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4TrainBinary(b *testing.B) { benchTrain(b, prionn.TransformBinary, prionn.Model2DCNN) }
func BenchmarkFig4TrainSimple(b *testing.B) { benchTrain(b, prionn.TransformSimple, prionn.Model2DCNN) }
func BenchmarkFig4TrainOneHot(b *testing.B) { benchTrain(b, prionn.TransformOneHot, prionn.Model2DCNN) }
func BenchmarkFig4TrainWord2vec(b *testing.B) {
	benchTrain(b, prionn.TransformWord2Vec, prionn.Model2DCNN)
}

// --- Figs. 5/7: online-loop accuracy runs ---------------------------------

func benchOnline(b *testing.B, mutate func(*prionn.Config)) {
	jobs := trace.Generate(trace.Config{Seed: 5, Jobs: 200, Users: 15, Apps: 5})
	cfg := prionn.TinyConfig()
	cfg.RetrainEvery = 50
	cfg.TrainWindow = 50
	cfg.Epochs = 1
	cfg.PredictIO = false
	mutate(&cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prionn.RunOnline(jobs, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5OnlineBinary(b *testing.B) {
	benchOnline(b, func(c *prionn.Config) { c.Transform = prionn.TransformBinary })
}

func BenchmarkFig5OnlineWord2vec(b *testing.B) {
	benchOnline(b, func(c *prionn.Config) { c.Transform = prionn.TransformWord2Vec })
}

// --- Fig. 6: training cost per model --------------------------------------

func BenchmarkFig6TrainNN(b *testing.B) { benchTrain(b, prionn.TransformWord2Vec, prionn.ModelNN) }
func BenchmarkFig6Train1DCNN(b *testing.B) {
	benchTrain(b, prionn.TransformWord2Vec, prionn.Model1DCNN)
}
func BenchmarkFig6Train2DCNN(b *testing.B) {
	benchTrain(b, prionn.TransformWord2Vec, prionn.Model2DCNN)
}

func BenchmarkFig7OnlineNN(b *testing.B) {
	benchOnline(b, func(c *prionn.Config) { c.Model = prionn.ModelNN })
}

func BenchmarkFig7Online1DCNN(b *testing.B) {
	benchOnline(b, func(c *prionn.Config) { c.Model = prionn.Model1DCNN })
}

func BenchmarkFig7Online2DCNN(b *testing.B) {
	benchOnline(b, func(c *prionn.Config) { c.Model = prionn.Model2DCNN })
}

// --- Table 2: RF on SDSC-like traces --------------------------------------

func benchTable2(b *testing.B, cfg trace.Config) {
	o := experiments.Options{Jobs: cfg.Jobs, Seed: 1, Cfg: prionn.TinyConfig()}
	_ = o
	jobs := trace.Completed(trace.Generate(cfg))
	x := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	// The Table-2 pipeline: extract + encode + fit + MAE.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := newEncoderForBench()
		for k, j := range jobs {
			x[k] = enc(j)
			y[k] = float64(j.ActualMin())
		}
		cut := len(jobs) * 3 / 4
		rf := mlbase.NewRandomForest(mlbase.ForestConfig{Trees: 10, MaxDepth: 10, Seed: 1})
		rf.Fit(x[:cut], y[:cut])
		mlbase.MAE(rf, x[cut:], y[cut:])
	}
}

func BenchmarkTable2SDSC95(b *testing.B) { benchTable2(b, trace.SDSC95Config(500)) }
func BenchmarkTable2SDSC96(b *testing.B) { benchTable2(b, trace.SDSC96Config(500)) }

// --- Figs. 8/9: evaluation experiments at benchmark scale -----------------

func benchExperiment(b *testing.B, id string) {
	cfg := prionn.TinyConfig()
	cfg.RetrainEvery = 60
	cfg.TrainWindow = 60
	cfg.Epochs = 1
	o := experiments.Options{Jobs: 250, Seed: 3, Cfg: cfg, Nodes: 256, Samples: 2, SampleJobs: 120}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RuntimeEvaluation(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9IOEvaluation(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig11Turnaround(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12SystemIOPerfect(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13BurstsPerfect(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14SystemIOPredicted(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15BurstsPredicted(b *testing.B)   { benchExperiment(b, "fig15") }

// --- Ablations (DESIGN.md §4) ----------------------------------------------

func BenchmarkAblationWarmStart(b *testing.B) { benchExperiment(b, "ablate-warm") }

// --- Scheduler and IO substrate --------------------------------------------

func BenchmarkSchedSnapshotTurnaround(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var items []sched.Item
	clock := int64(0)
	for i := 0; i < 300; i++ {
		clock += int64(rng.Intn(30))
		items = append(items, sched.Item{
			ID: i, Submit: clock, Nodes: 1 + rng.Intn(16),
			RuntimeSec: int64(30 + rng.Intn(600)),
		})
	}
	pred := func(id int) int64 { return 300 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PredictTurnarounds(items, sched.SimConfig{Nodes: 64, Backfill: true}, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOSeries(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ivs := make([]ioaware.Interval, 5000)
	for i := range ivs {
		start := int64(rng.Intn(100000))
		ivs[i] = ioaware.Interval{Start: start, End: start + int64(60+rng.Intn(3600)), BW: rng.Float64() * 1e8}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ioaware.Series(ivs, 0, 110000, 60)
	}
}

func BenchmarkBurstMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 10000
	actual := make([]bool, n)
	pred := make([]bool, n)
	for i := range actual {
		actual[i] = rng.Float64() < 0.05
		pred[i] = rng.Float64() < 0.05
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ioaware.MatchBursts(actual, pred, 5)
	}
}

// --- Numerical substrate ----------------------------------------------------

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(128, 128).RandN(rng, 1)
	y := tensor.New(128, 128).RandN(rng, 1)
	dst := tensor.New(128, 128)
	b.SetBytes(128 * 128 * 128 * 2 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, x, y)
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	spec := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := tensor.New(8, 4, 32, 32).RandN(rng, 1)
	w := tensor.New(8, 4*9).RandN(rng, 1)
	bias := tensor.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DInfer(x, w, bias, 4, 32, 32, spec, false, nil)
	}
}

// benchGEMM times dst[m,n] = a[m,k]·b[k,n] with a preallocated
// destination, reporting achieved ns/op and allocs/op for the blocked
// kernel.
func benchGEMM(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(m, k).RandN(rng, 1)
	y := tensor.New(k, n).RandN(rng, 1)
	dst := tensor.New(m, n)
	b.SetBytes(int64(m) * int64(k) * int64(n) * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, x, y)
	}
}

// GEMM shapes: Small is sub-tile scheduling overhead; CNNShape is the
// Fig. 4 conv forward (weights [8, C·KH·KW] × cols [·, N·OH·OW]);
// CNNDense is the first dense layer after flatten; Large is the
// throughput ceiling.
func BenchmarkGEMMSmall(b *testing.B)    { benchGEMM(b, 32, 64, 32) }
func BenchmarkGEMMCNNShape(b *testing.B) { benchGEMM(b, 8, 200, 4096) }
func BenchmarkGEMMCNNDense(b *testing.B) { benchGEMM(b, 40, 1024, 128) }
func BenchmarkGEMMLarge(b *testing.B)    { benchGEMM(b, 256, 256, 256) }

// BenchmarkConvForward measures the training conv forward (direct at
// stride 1) with arena recycling: steady state must report ~0 allocs/op.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	spec := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := tensor.New(8, 4, 32, 32).RandN(rng, 1)
	w := tensor.New(8, 4*9).RandN(rng, 1)
	bias := tensor.New(8)
	tr := tensor.NewConvTrain(8, 4, 32, 32, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.DefaultArena().Put(tr.Forward(x, w, bias))
	}
}

// BenchmarkConvBackward measures the training conv backward: dW, dB and
// dx, direct at stride 1, arena-recycled.
func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	spec := tensor.ConvSpec{KH: 3, KW: 3, Stride: 1, PadH: 1, PadW: 1}
	x := tensor.New(8, 4, 32, 32).RandN(rng, 1)
	w := tensor.New(8, 4*9).RandN(rng, 1)
	bias := tensor.New(8)
	dW := tensor.New(8, 4*9)
	dB := tensor.New(8)
	tr := tensor.NewConvTrain(8, 4, 32, 32, spec)
	y := tr.Forward(x, w, bias)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.DefaultArena().Put(tr.Backward(y, w, dW, dB, true))
	}
}

func BenchmarkMapBatchSerialVsParallel(b *testing.B) {
	scripts := benchScripts(200)
	b.Run("serial", func(b *testing.B) {
		prev := tensor.SetMaxWorkers(1)
		defer tensor.SetMaxWorkers(prev)
		for i := 0; i < b.N; i++ {
			mapping.MapBatch(scripts, mapping.Simple{}, 64, 64)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		prev := tensor.SetMaxWorkers(0)
		defer tensor.SetMaxWorkers(prev)
		for i := 0; i < b.N; i++ {
			mapping.MapBatch(scripts, mapping.Simple{}, 64, 64)
		}
	})
}

func BenchmarkDenseTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	m := nn.NewSequential(
		nn.NewDense(rng, 256, 128),
		nn.NewReLU(),
		nn.NewDense(rng, 128, 64),
	)
	x := tensor.New(32, 256).RandN(rng, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(64)
	}
	opt := nn.NewAdam(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainBatch(x, labels, opt)
	}
}

// newEncoderForBench builds a fresh feature encoder closure (avoids
// importing features directly into the bench namespace).
func newEncoderForBench() func(trace.Job) []float64 {
	return experiments.EncodeJobFeatures()
}

// --- prionnvet static-analysis gate ----------------------------------------

// vetPackages loads and type-checks every package in the repo exactly
// once, so BenchmarkPrionnvetRunAll times only the analysis passes
// (dataflow construction + checkers), not parsing or type-checking.
var vetPackages = struct {
	once   sync.Once
	loader *analysis.Loader
	pkgs   []*analysis.Package
	err    error
}{}

func loadVetPackages(b *testing.B) (*analysis.Loader, []*analysis.Package) {
	b.Helper()
	v := &vetPackages
	v.once.Do(func() {
		v.loader, v.err = analysis.NewLoader(".")
		if v.err != nil {
			return
		}
		dirs, err := analysis.PackageDirs(".", nil)
		if err != nil {
			v.err = err
			return
		}
		for _, dir := range dirs {
			pkg, err := v.loader.LoadDir(dir)
			if err != nil {
				v.err = err
				return
			}
			v.pkgs = append(v.pkgs, pkg)
		}
	})
	if v.err != nil {
		b.Fatal(v.err)
	}
	return v.loader, v.pkgs
}

// BenchmarkPrionnvetRunAll measures one full gate sweep: every checker
// over every package in the repo. A fresh Pass per package per
// iteration makes the per-iteration cost include the SSA-lite def-use
// index (Pass memoizes FuncInfos, so reusing passes would time only
// the first iteration honestly).
func BenchmarkPrionnvetRunAll(b *testing.B) {
	loader, pkgs := loadVetPackages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, pkg := range pkgs {
			n += len(analysis.RunAll(pkg.Pass(loader.Fset), nil))
		}
		if n != 0 {
			b.Fatalf("gate not clean: %d findings", n)
		}
	}
}
