package experiments

import (
	"fmt"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
)

// ExtDeck evaluates the paper's first future-work item: "incorporating
// application input decks into PRIONN's workflow". The trace generator
// attaches an input deck to every job whose parameters (mesh size, step
// count, solver intensity) drive runtime and IO; this experiment runs
// the online loop with and without the deck appended to the mapped
// input.
func ExtDeck(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ext-deck",
		Title: "future work: appending application input decks to the mapped input",
		Rows:  [][]string{{"input", "runtime mean", "runtime median", "read BW mean"}},
	}
	for _, withDeck := range []bool{false, true} {
		cfg := o.Cfg
		cfg.IncludeDeck = withDeck
		cfg.PredictIO = true
		preds, err := runPRIONN(jobs, cfg, o)
		if err != nil {
			return Result{}, err
		}
		rs := metrics.Summarize(o.runtimeAccuracies(preds, nil))
		var ioAcc []float64
		start := int(float64(len(preds)) * o.BurnIn)
		for i, p := range preds {
			if i < start || !p.OK || p.Job.Canceled {
				continue
			}
			ioAcc = append(ioAcc, metrics.RelativeAccuracy(p.Job.ReadBW(), p.ReadBW()))
		}
		is := metrics.Summarize(ioAcc)
		label := "script only (paper)"
		if withDeck {
			label = "script + input deck"
		}
		res.Rows = append(res.Rows, []string{label, fmtPct(rs.Mean), fmtPct(rs.Median), fmtPct(is.Mean)})
		o.progress("ext-deck: withDeck=%v runtime mean %.3f", withDeck, rs.Mean)
	}
	res.Notes = append(res.Notes,
		"paper §6: future work proposes feeding input decks into the workflow; decks carry solver parameters invisible to both the script and Table-1 features")
	return res, nil
}

// ExtPower evaluates the paper's second future-work item: predicting
// power. The trace assigns every job a mean power draw that depends on
// node count and a per-configuration compute intensity recorded only in
// the input deck; PRIONN (script+deck) competes against the RF on
// Table-1 features.
func ExtPower(o Options) (Result, error) {
	o = o.withDefaults()
	jobs := cabTrace(o)
	res := Result{
		ID:    "ext-power",
		Title: "future work: per-job mean power prediction (watts)",
		Rows:  [][]string{{"predictor", "mean", "median", "q1", "q3", "paper"}},
	}

	cfg := o.Cfg
	cfg.PredictIO = false
	cfg.PredictPower = true
	cfg.IncludeDeck = true
	recs, err := prionn.RunOnline(o.Context(), jobs, cfg, nil)
	if err != nil {
		return Result{}, err
	}

	// RF baseline on Table-1 features, same online schedule, power
	// target.
	rf, err := runBaseline(o.Context(), jobs, BaselineRF, cfg.TrainWindow, cfg.RetrainEvery, o.Seed, avgPowerW)
	if err != nil {
		return Result{}, err
	}

	start := int(float64(len(jobs)) * o.BurnIn)
	var prAcc, rfAcc []float64
	for i, r := range recs {
		if i < start || !r.Predicted || rf[i] == nil {
			continue
		}
		prAcc = append(prAcc, metrics.RelativeAccuracy(r.Job.AvgPowerW, r.Pred.PowerW))
		rfAcc = append(rfAcc, metrics.RelativeAccuracy(r.Job.AvgPowerW, rf[i][0]))
	}
	ps := metrics.Summarize(prAcc)
	fs := metrics.Summarize(rfAcc)
	res.Rows = append(res.Rows,
		summaryRow("RF (features)", fs, "not evaluated"),
		summaryRow("PRIONN (script+deck)", ps, "future work"),
	)
	if ps.Mean > 0.5 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"power is predictable from whole inputs: PRIONN mean %.1f%% vs RF %.1f%%", ps.Mean*100, fs.Mean*100))
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"power accuracy: PRIONN %.1f%% vs RF %.1f%%", ps.Mean*100, fs.Mean*100))
	}
	return res, nil
}
