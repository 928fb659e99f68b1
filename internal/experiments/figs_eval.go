package experiments

import (
	"fmt"

	"prionn/internal/metrics"
	"prionn/internal/trace"
)

// Fig8 reproduces the §3.1 per-job runtime evaluation: the actual
// runtime distribution (8a) and the relative-accuracy boxplots of user
// requested time, the RF baseline, and PRIONN (8b). Paper headline:
// PRIONN mean 76.1% (+6.0 over RF), median 100%; users far behind.
func Fig8(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	completed := trace.Completed(jobs)

	res := Result{
		ID:    "fig8",
		Title: "per-job runtime predictions (distribution + accuracy)",
	}

	// (a) runtime distribution.
	mins := make([]float64, len(completed))
	for i, j := range completed {
		mins[i] = float64(j.ActualMin())
	}
	dist := metrics.Summarize(mins)
	hist := metrics.Histogram(mins, 0, 960, 16)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"8a distribution: mean %.1f min (paper 44), median %.1f, max %.0f; first-hour share %.0f%%",
		dist.Mean, dist.Median, dist.Max,
		100*float64(hist[0])/float64(len(mins))))

	// (b) accuracy boxplots.
	cfg := o.Cfg
	cfg.PredictIO = false
	pr, err := runPRIONN(jobs, cfg, o)
	if err != nil {
		return Result{}, err
	}
	ys, err := runBaseline(o.Context(), jobs, BaselineRF, cfg.TrainWindow, cfg.RetrainEvery, o.Seed, runtimeMin)
	if err != nil {
		return Result{}, err
	}
	rf := jobPreds(jobs, ys)
	user := userPreds(jobs)

	// Evaluate only jobs all three predicted (post-first-training).
	gate := make([]JobPred, len(jobs))
	for i := range jobs {
		gate[i].OK = pr[i].OK && rf[i].OK && user[i].OK
	}
	prAcc := metrics.Summarize(o.runtimeAccuracies(pr, gate))
	rfAcc := metrics.Summarize(o.runtimeAccuracies(rf, gate))
	userAcc := metrics.Summarize(o.runtimeAccuracies(user, gate))

	res.Rows = [][]string{{"predictor", "mean", "median", "q1", "q3", "paper"}}
	res.Rows = append(res.Rows,
		summaryRow("user requested", userAcc, "≈24% mean"),
		summaryRow("RF (features)", rfAcc, "70.1% mean"),
		summaryRow("PRIONN", prAcc, "76.1% mean, 100% median"),
	)

	res.Notes = append(res.Notes, fmt.Sprintf(
		"accuracies over the final %.0f%% of submissions (warm-up excluded; the paper's warm-up is a negligible fraction of its 265k-job trace)",
		100*(1-o.BurnIn)))
	if prAcc.Mean > rfAcc.Mean && rfAcc.Mean > userAcc.Mean {
		res.Notes = append(res.Notes, "shape holds: PRIONN > RF > user (paper Fig. 8b)")
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"SHAPE CHECK: PRIONN %.3f vs RF %.3f vs user %.3f", prAcc.Mean, rfAcc.Mean, userAcc.Mean))
	}
	return res, nil
}

// Fig9 reproduces the §3.2 per-job IO evaluation: the bandwidth
// distribution (9a) and read/write bandwidth accuracy for RF (9b) and
// PRIONN (9c). Paper headline: PRIONN 80.2%/75.6% mean for read/write,
// +12.1/+9.6 points over RF; users provide no IO estimates at all.
func Fig9(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	completed := trace.Completed(jobs)

	res := Result{
		ID:    "fig9",
		Title: "per-job IO bandwidth predictions (distribution + accuracy)",
	}

	// (a) bandwidth distribution: mean orders of magnitude above median.
	var rbws, wbws []float64
	for _, j := range completed {
		rbws = append(rbws, j.ReadBW())
		wbws = append(wbws, j.WriteBW())
	}
	rs, ws := metrics.Summarize(rbws), metrics.Summarize(wbws)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"9a distribution: read mean/median = %.0f (paper: orders of magnitude), write mean/median = %.0f",
		rs.Mean/max(rs.Median, 1), ws.Mean/max(ws.Median, 1)))

	cfg := o.Cfg
	cfg.PredictIO = true
	pr, err := runPRIONN(jobs, cfg, o)
	if err != nil {
		return Result{}, err
	}
	ys, err := runBaseline(o.Context(), jobs, BaselineRF, cfg.TrainWindow, cfg.RetrainEvery, o.Seed,
		runtimeMin, readBytes, writeBytes)
	if err != nil {
		return Result{}, err
	}
	rf := jobPreds(jobs, ys)

	burnStart := int(float64(len(jobs)) * o.BurnIn)
	bwAcc := func(preds []JobPred, read bool) metrics.Summary {
		var acc []float64
		for i, p := range preds {
			if i < burnStart || !p.OK || p.Job.Canceled || !pr[i].OK || !rf[i].OK {
				continue
			}
			var truth, predBW float64
			if read {
				truth, predBW = p.Job.ReadBW(), p.ReadBW()
			} else {
				truth, predBW = p.Job.WriteBW(), p.WriteBW()
			}
			acc = append(acc, metrics.RelativeAccuracy(truth, predBW))
		}
		return metrics.Summarize(acc)
	}

	res.Rows = [][]string{{"predictor", "mean", "median", "q1", "q3", "paper"}}
	res.Rows = append(res.Rows,
		summaryRow("RF read BW", bwAcc(rf, true), "68.1% mean"),
		summaryRow("RF write BW", bwAcc(rf, false), "66.0% mean"),
		summaryRow("PRIONN read BW", bwAcc(pr, true), "80.2% mean"),
		summaryRow("PRIONN write BW", bwAcc(pr, false), "75.6% mean"),
	)

	prRead, rfRead := bwAcc(pr, true), bwAcc(rf, true)
	prWrite, rfWrite := bwAcc(pr, false), bwAcc(rf, false)
	if prRead.Mean > rfRead.Mean && prWrite.Mean > rfWrite.Mean {
		res.Notes = append(res.Notes, "shape holds: PRIONN beats RF on both read and write bandwidth (paper Figs. 9b/9c)")
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"SHAPE CHECK: read %.3f vs %.3f, write %.3f vs %.3f (PRIONN vs RF)",
			prRead.Mean, rfRead.Mean, prWrite.Mean, rfWrite.Mean))
	}
	return res, nil
}
