package experiments

import (
	"fmt"
	"time"

	"prionn/internal/features"
	"prionn/internal/mapping"
	"prionn/internal/metrics"
	"prionn/internal/mlbase"
	"prionn/internal/prionn"
	"prionn/internal/trace"
	"prionn/internal/word2vec"
)

// trainEmbedding fits the word2vec character embedding on a corpus of
// scripts with the experiment configuration's dimensionality.
func trainEmbedding(scripts []string, cfg prionn.Config) *word2vec.Embedding {
	c := word2vec.DefaultConfig()
	c.Dim = cfg.EmbeddingDim
	c.Seed = cfg.Seed
	return word2vec.Train(scripts, c)
}

// windowScripts extracts the training-window scripts (paper: 500 jobs
// per training event; Figs. 3, 4, 6 time exactly one such window).
func windowScripts(jobs []trace.Job, n int) []string {
	if n > len(jobs) {
		n = len(jobs)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = jobs[i].Script
	}
	return out
}

// Fig3 measures the time to transform one training window of job scripts
// into pixel representations, per transformation (paper Fig. 3: one-hot
// is the slowest by far; the others take under three seconds for 500
// scripts).
func Fig3(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := trace.Completed(cabTrace(o))
	window := o.Cfg.TrainWindow
	scripts := windowScripts(jobs, window)
	emb := trainEmbedding(scripts, o.Cfg)

	res := Result{
		ID:    "fig3",
		Title: fmt.Sprintf("time to map %d job scripts, per transformation", len(scripts)),
		Rows:  [][]string{{"transform", "channels", "seconds", "paper shape"}},
	}
	type timing struct {
		name string
		sec  float64
	}
	var timings []timing
	for _, tr := range mapping.All(emb) {
		start := time.Now()
		mapping.MapBatch(scripts, tr, o.Cfg.Rows, o.Cfg.Cols)
		sec := time.Since(start).Seconds()
		//prionnvet:ignore time-dep -- Fig. 3 reports transform wall time by design
		timings = append(timings, timing{tr.Name(), sec})
		shape := "cheap (<3s at paper scale)"
		if tr.Name() == "one-hot" {
			shape = "slowest transform"
		}
		//prionnvet:ignore time-dep -- Fig. 3 reports transform wall time by design
		res.Rows = append(res.Rows, []string{
			tr.Name(), fmt.Sprint(tr.Channels()), fmt.Sprintf("%.4f", sec), shape,
		})
	}
	// Shape check: one-hot must be the most expensive.
	var oneHot, worstOther float64
	for _, t := range timings {
		if t.name == "one-hot" {
			oneHot = t.sec
		} else if t.sec > worstOther {
			worstOther = t.sec
		}
	}
	if oneHot > worstOther {
		res.Notes = append(res.Notes, "shape holds: one-hot is the slowest transformation (as in paper Fig. 3)")
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: one-hot was not the slowest transformation")
	}
	return res, nil
}

// Fig4 measures the time to train the 2D-CNN for the configured number
// of epochs on one training window, per transformation (paper Fig. 4:
// one-hot's 128 input channels make it the most expensive; the other
// three are comparable).
func Fig4(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := trace.Completed(cabTrace(o))
	window := jobs[:min(o.Cfg.TrainWindow, len(jobs))]
	scripts := windowScripts(window, len(window))

	res := Result{
		ID: "fig4",
		Title: fmt.Sprintf("time to train 2D-CNN %d epochs on %d jobs, per transformation",
			o.Cfg.Epochs, len(window)),
		Rows: [][]string{{"transform", "seconds", "paper shape"}},
	}
	var oneHot, worstOther float64
	for _, tk := range []prionn.TransformKind{
		prionn.TransformBinary, prionn.TransformSimple, prionn.TransformOneHot, prionn.TransformWord2Vec,
	} {
		cfg := o.Cfg
		cfg.Transform = tk
		cfg.Model = prionn.Model2DCNN
		cfg.PredictIO = false
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		if _, err := p.Train(window); err != nil {
			return Result{}, err
		}
		sec := time.Since(start).Seconds()
		if tk == prionn.TransformOneHot {
			oneHot = sec
		} else if sec > worstOther {
			worstOther = sec
		}
		shape := "comparable"
		if tk == prionn.TransformOneHot {
			shape = "most training time"
		}
		//prionnvet:ignore time-dep -- Fig. 4 reports training wall time by design
		res.Rows = append(res.Rows, []string{string(tk), fmt.Sprintf("%.2f", sec), shape})
		o.progress("fig4: trained %s in %.2fs", tk, sec)
	}
	if oneHot > worstOther {
		res.Notes = append(res.Notes, "shape holds: one-hot requires the most training time (paper Fig. 4)")
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: one-hot was not the slowest to train")
	}
	return res, nil
}

// Fig5 runs the online loop once per transformation (2D-CNN) and reports
// the runtime-prediction accuracy distributions (paper Fig. 5: word2vec
// gives the best accuracy).
func Fig5(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "fig5",
		Title: "runtime relative accuracy per transformation (2D-CNN)",
		Rows:  [][]string{{"transform", "mean", "median", "q1", "q3", "paper shape"}},
	}
	best, bestMean := "", -1.0
	for _, tk := range []prionn.TransformKind{
		prionn.TransformBinary, prionn.TransformSimple, prionn.TransformOneHot, prionn.TransformWord2Vec,
	} {
		cfg := o.Cfg
		cfg.Transform = tk
		cfg.Model = prionn.Model2DCNN
		cfg.PredictIO = false
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		s := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		if s.Mean > bestMean {
			best, bestMean = string(tk), s.Mean
		}
		shape := ""
		if tk == prionn.TransformWord2Vec {
			shape = "best accuracy in paper"
		}
		res.Rows = append(res.Rows, summaryRow(string(tk), s, shape))
		o.progress("fig5: %s mean accuracy %.3f", tk, s.Mean)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("best transform here: %s (paper: word2vec)", best))
	return res, nil
}

// Fig6 measures training time per deep learning model with the word2vec
// mapping (paper Fig. 6: 1D-CNN < 2D-CNN < NN).
func Fig6(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := trace.Completed(cabTrace(o))
	window := jobs[:min(o.Cfg.TrainWindow, len(jobs))]
	scripts := windowScripts(window, len(window))

	res := Result{
		ID: "fig6",
		Title: fmt.Sprintf("time to train each deep learning model (%d epochs, %d jobs, word2vec)",
			o.Cfg.Epochs, len(window)),
		Rows: [][]string{{"model", "params", "seconds", "paper shape"}},
	}
	secs := map[prionn.ModelKind]float64{}
	for _, mk := range []prionn.ModelKind{prionn.ModelNN, prionn.Model1DCNN, prionn.Model2DCNN} {
		cfg := o.Cfg
		cfg.Model = mk
		cfg.Transform = prionn.TransformWord2Vec
		cfg.PredictIO = false
		p, err := prionn.New(cfg, scripts)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		if _, err := p.Train(window); err != nil {
			return Result{}, err
		}
		//prionnvet:ignore time-dep -- Fig. 6 compares model training wall time by design
		secs[mk] = time.Since(start).Seconds()
		shape := map[prionn.ModelKind]string{
			prionn.ModelNN:    "slowest in paper",
			prionn.Model1DCNN: "fastest in paper",
			prionn.Model2DCNN: "middle in paper",
		}[mk]
		res.Rows = append(res.Rows, []string{
			string(mk), fmt.Sprint(p.NumParams()), fmt.Sprintf("%.2f", secs[mk]), shape,
		})
		o.progress("fig6: trained %s in %.2fs", mk, secs[mk])
	}
	if secs[prionn.Model1DCNN] < secs[prionn.Model2DCNN] {
		res.Notes = append(res.Notes, "shape holds: 1D-CNN trains faster than 2D-CNN (paper Fig. 6)")
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: 1D-CNN not faster than 2D-CNN")
	}
	return res, nil
}

// Fig7 runs the online loop per deep learning model (word2vec mapping)
// and reports runtime accuracy distributions (paper Fig. 7: NN and
// 2D-CNN beat the 1D-CNN; 2D-CNN is selected).
func Fig7(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "fig7",
		Title: "runtime relative accuracy per deep learning model (word2vec)",
		Rows:  [][]string{{"model", "mean", "median", "q1", "q3", "paper shape"}},
	}
	means := map[prionn.ModelKind]float64{}
	for _, mk := range []prionn.ModelKind{prionn.ModelNN, prionn.Model1DCNN, prionn.Model2DCNN} {
		cfg := o.Cfg
		cfg.Model = mk
		cfg.Transform = prionn.TransformWord2Vec
		cfg.PredictIO = false
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		s := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		means[mk] = s.Mean
		shape := ""
		if mk == prionn.Model2DCNN {
			shape = "selected by paper"
		}
		res.Rows = append(res.Rows, summaryRow(string(mk), s, shape))
		o.progress("fig7: %s mean accuracy %.3f", mk, s.Mean)
	}
	if means[prionn.Model2DCNN] >= means[prionn.Model1DCNN] {
		res.Notes = append(res.Notes, "shape holds: 2D-CNN at least matches 1D-CNN accuracy (paper Fig. 7)")
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: 1D-CNN beat 2D-CNN")
	}
	return res, nil
}

// Table2 replicates the Smith et al. comparison: runtime MAE of the RF
// on extracted features over SDSC95/SDSC96-like traces (paper Table 2:
// 35.95 and 76.69 minutes for the authors' replication, against 59.65
// and 74.56 reported by Smith et al.).
func Table2(o Options) (Result, error) {
	o = o.withDefaults()
	res := Result{
		ID:    "tab2",
		Title: "runtime MAE (minutes) of the RF replication on SDSC-like traces",
		Rows: [][]string{{
			"dataset", "jobs", "MAE (ours)", "Smith et al. (paper)", "paper replication",
		}},
	}
	for _, ds := range []struct {
		name       string
		cfg        trace.Config
		smith, rep string
	}{
		{"SDSC95", trace.SDSC95Config(o.Jobs), "59.65", "35.95"},
		{"SDSC96", trace.SDSC96Config(o.Jobs), "74.56", "76.69"},
	} {
		jobs := trace.Completed(trace.Generate(ds.cfg))
		enc := features.NewEncoder()
		x := make([][]float64, len(jobs))
		y := make([]float64, len(jobs))
		for i, j := range jobs {
			x[i] = enc.Encode(features.Extract(rawJob(j)))
			y[i] = float64(j.ActualMin())
		}
		// Chronological 75/25 split, as prediction is always forward in
		// time.
		cut := len(jobs) * 3 / 4
		rf := mlbase.NewRandomForest(mlbase.ForestConfig{Trees: 30, MaxDepth: 14, Seed: o.Seed})
		rf.Fit(x[:cut], y[:cut])
		mae := mlbase.MAE(rf, x[cut:], y[cut:])
		res.Rows = append(res.Rows, []string{
			ds.name, fmt.Sprint(len(jobs)), fmt.Sprintf("%.2f", mae), ds.smith, ds.rep,
		})
		o.progress("tab2: %s MAE %.2f min", ds.name, mae)
	}
	res.Notes = append(res.Notes,
		"MAE magnitudes are trace-dependent; the check is that an RF on Table-1 features lands in the tens-of-minutes regime on multi-hour traces, as in both published rows")
	return res, nil
}

// warmStartAblation quantifies the value of warm-start retraining: the
// same online schedule run with warm-started vs re-initialized models.
// The paper credits warm starting for PRIONN training well on 500-job
// windows ("learned parameters pass to subsequent models").
func WarmStartAblation(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ablate-warm",
		Title: "warm-start vs cold-start retraining (runtime accuracy)",
		Rows:  [][]string{{"mode", "mean", "median", "q1", "q3", "paper shape"}},
	}

	cfg := o.Cfg
	cfg.PredictIO = false
	warm, err := runPRIONN(jobs, cfg, o)
	if err != nil {
		return Result{}, err
	}
	warmAcc := metrics.Summarize(o.runtimeAccuracies(warm, nil))
	res.Rows = append(res.Rows, summaryRow("warm start (paper)", warmAcc, "paper's loop"))

	cold, err := runColdStart(jobs, cfg, o)
	if err != nil {
		return Result{}, err
	}
	coldAcc := metrics.Summarize(o.runtimeAccuracies(cold, nil))
	res.Rows = append(res.Rows, summaryRow("cold start", coldAcc, "ablation"))

	if warmAcc.Mean >= coldAcc.Mean {
		res.Notes = append(res.Notes, "shape holds: warm start at least matches cold start on small windows")
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"cold start won by %.1f points on this trace (short windows can favor fresh fits)",
			(coldAcc.Mean-warmAcc.Mean)*100))
	}
	return res, nil
}

// runColdStart is the warm-start ablation's other arm: PRIONN's online
// schedule (trace.Replay) with every model parameter re-initialized
// before each training event.
func runColdStart(jobs []trace.Job, cfg prionn.Config, o Options) ([]JobPred, error) {
	var p *prionn.Predictor
	out := make([]JobPred, len(jobs))
	for i, j := range jobs {
		out[i].Job = j
	}
	err := trace.Replay(o.Context(), jobs, cfg.RetrainEvery, cfg.TrainWindow, func(_ int, win []int) error {
		batch := make([]trace.Job, len(win))
		for k, idx := range win {
			batch[k] = jobs[idx]
		}
		if p == nil {
			np, err := prionn.New(cfg, prionn.Corpus(cfg, batch))
			if err != nil {
				return err
			}
			p = np
		} else {
			p.Reinitialize() // the cold-start difference
		}
		_, err := p.TrainCtx(o.Context(), batch)
		return err
	}, func(i int) {
		out[i].RuntimeMin = p.PredictJob(jobs[i]).RuntimeMin
		out[i].OK = true
	})
	return out, err
}

// WindowAblation sweeps the training-window size (paper §2.3: "minor
// improvement of prediction accuracy and higher cost to train beyond 500
// jobs").
func WindowAblation(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ablate-window",
		Title: "training-window size sweep (runtime accuracy and training cost)",
		Rows:  [][]string{{"window", "mean acc", "median acc", "train sec/event"}},
	}
	for _, w := range []int{50, 100, 200, 400} {
		cfg := o.Cfg
		cfg.TrainWindow = w
		cfg.PredictIO = false
		start := time.Now()
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		elapsed := time.Since(start).Seconds()
		events := float64(len(jobs)) / float64(cfg.RetrainEvery)
		s := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		//prionnvet:ignore time-dep -- ablation reports retrain cost in wall time by design
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(w), fmtPct(s.Mean), fmtPct(s.Median), fmt.Sprintf("%.2f", elapsed/events),
		})
		o.progress("ablate-window: w=%d mean %.3f", w, s.Mean)
	}
	res.Notes = append(res.Notes, "paper: accuracy saturates near 500-job windows while cost keeps growing")
	return res, nil
}

// LayoutAblation compares the 2D matrix layout against the flattened 1D
// layout at matched parameter budgets (the paper hypothesizes 2D
// convolutions exploit line structure).
func LayoutAblation(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ablate-layout",
		Title: "2D matrix vs flattened 1D sequence layout (word2vec mapping)",
		Rows:  [][]string{{"layout", "model", "mean acc", "median acc"}},
	}
	for _, mk := range []prionn.ModelKind{prionn.Model2DCNN, prionn.Model1DCNN} {
		cfg := o.Cfg
		cfg.Model = mk
		cfg.PredictIO = false
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		s := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		layout := "2D matrix"
		if mk == prionn.Model1DCNN {
			layout = "1D sequence"
		}
		res.Rows = append(res.Rows, []string{layout, string(mk), fmtPct(s.Mean), fmtPct(s.Median)})
	}
	return res, nil
}

// CropAblation sweeps the standardized script extent (paper fixes 64×64,
// noting only 9.9% of scripts exceed 64 lines and 13.8% of lines exceed
// 64 characters).
func CropAblation(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ablate-crop",
		Title: "script standardization extent sweep",
		Rows:  [][]string{{"extent", "mean acc", "median acc"}},
	}
	for _, ext := range [][2]int{{16, 16}, {32, 32}, {48, 48}} {
		cfg := o.Cfg
		cfg.Rows, cfg.Cols = ext[0], ext[1]
		cfg.PredictIO = false
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		s := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%dx%d", ext[0], ext[1]), fmtPct(s.Mean), fmtPct(s.Median),
		})
		o.progress("ablate-crop: %dx%d mean %.3f", ext[0], ext[1], s.Mean)
	}
	return res, nil
}
