package experiments

import (
	"fmt"
	"sync"

	"prionn/internal/ioaware"
	"prionn/internal/metrics"
	"prionn/internal/sched"
	"prionn/internal/trace"
)

// predictorsForSample runs PRIONN online over a sample and returns each
// job's runtime and bandwidth prediction keyed by job ID. Jobs submitted
// before the first training event have none (OK false) and fall back to
// the user estimate for runtime and zero for IO — exactly what a freshly
// deployed system has.
func predictorsForSample(jobsAll []trace.Job, o Options) (map[int]ioaware.Pred, error) {
	cfg := o.Cfg
	cfg.PredictIO = true
	preds, err := runPRIONN(jobsAll, cfg, o)
	if err != nil {
		return nil, err
	}
	byID := make(map[int]ioaware.Pred, len(preds))
	for _, p := range preds {
		byID[p.Job.ID] = ioaware.Pred{RuntimeMin: p.RuntimeMin, BW: p.ReadBW() + p.WriteBW(), OK: p.OK}
	}
	return byID, nil
}

// Fig11 reproduces the §4.2 turnaround evaluation over sampled
// sub-traces: the turnaround distribution (11a) and the relative
// accuracy of turnaround predictions driven by user-requested runtimes
// vs PRIONN runtimes (11b). Paper headline: +14.0 mean / +14.1 median
// points over user estimates; PRIONN mean 42.1%.
func Fig11(o Options) (Result, error) {
	o = o.withDefaults()
	full := cabTrace(o)
	samples := sampleTraces(full, o.Samples, o.SampleJobs, o.Seed)

	var turnarounds []float64
	var userAcc, prAcc []float64
	simCfg := sched.SimConfig{Nodes: o.Nodes, Backfill: true}
	for si, sample := range samples {
		completed := trace.Completed(sample)
		byID, err := predictorsForSample(sample, o)
		if err != nil {
			return Result{}, err
		}
		// No predictions: every job runs at its user-requested runtime.
		ur, err := ioaware.Forecast(o.Context(), completed, nil, simCfg, false)
		if err != nil {
			return Result{}, err
		}
		pr, err := ioaware.Forecast(o.Context(), completed, byID, simCfg, false)
		if err != nil {
			return Result{}, err
		}
		for i, u := range ur.Turnarounds {
			p := pr.Turnarounds[i]
			turnarounds = append(turnarounds, float64(u.RealSec))
			userAcc = append(userAcc, metrics.RelativeAccuracy(float64(u.RealSec), float64(u.PredictedSec)))
			prAcc = append(prAcc, metrics.RelativeAccuracy(float64(p.RealSec), float64(p.PredictedSec)))
		}
		o.progress("fig11: sample %d/%d done", si+1, len(samples))
	}

	ta := metrics.Summarize(turnarounds)
	us := metrics.Summarize(userAcc)
	ps := metrics.Summarize(prAcc)

	res := Result{
		ID:    "fig11",
		Title: fmt.Sprintf("turnaround prediction over %d samples (11a distribution, 11b accuracy)", len(samples)),
		Rows:  [][]string{{"runtime source", "mean", "median", "q1", "q3", "paper"}},
	}
	res.Rows = append(res.Rows,
		summaryRow("user requested", us, "28.1% mean"),
		summaryRow("PRIONN", ps, "42.1% mean, 40.8% median"),
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"11a: simulated turnaround mean %.0fs median %.0fs p95 %.0fs", ta.Mean, ta.Median, ta.P95))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"75th/95th percentile accuracy with PRIONN: %s / %s (paper: >20 points above user at these percentiles)",
		fmtPct(ps.Q3), fmtPct(ps.P95)))
	if ps.Mean > us.Mean {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"shape holds: PRIONN improves mean turnaround accuracy by %.1f points (paper: +14.0)",
			(ps.Mean-us.Mean)*100))
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: PRIONN did not beat user-driven turnaround accuracy")
	}
	return res, nil
}

// systemIOCache memoizes the §4.3 pipeline so figure pairs sharing it
// (12/13 and 14/15) run it once per options set. systemIOMu guards it:
// experiment runners are callable from concurrent harnesses, and an
// unsynchronized package-level map write is a fatal data race.
var (
	systemIOMu    sync.Mutex
	systemIOCache = map[string]systemIOResult{}
)

type systemIOResult struct {
	acc    metrics.Summary
	sweeps []metrics.Confusion
}

// systemIO is the shared §4.3 pipeline; perfect selects the Figs. 12/13
// evaluation (perfect turnaround knowledge) vs Figs. 14/15 (predicted
// turnaround). Results are memoized per (options, perfect) pair; the key
// is every Options field but the progress callback and the context.
func systemIO(o Options, perfect bool) (accSummary metrics.Summary, sweeps []metrics.Confusion, err error) {
	k := o
	k.Progress, k.ctx = nil, nil
	key := fmt.Sprintf("%v/%+v", perfect, k)
	systemIOMu.Lock()
	r, ok := systemIOCache[key]
	systemIOMu.Unlock()
	if ok {
		return r.acc, r.sweeps, nil
	}
	defer func() {
		if err == nil {
			systemIOMu.Lock()
			systemIOCache[key] = systemIOResult{acc: accSummary, sweeps: sweeps}
			systemIOMu.Unlock()
		}
	}()
	full := cabTrace(o)
	var samples [][]trace.Job
	if perfect {
		// First evaluation uses all jobs.
		samples = [][]trace.Job{full}
	} else {
		samples = sampleTraces(full, o.Samples, o.SampleJobs, o.Seed)
	}

	var allAcc []float64
	sweeps = make([]metrics.Confusion, len(ioaware.Windows))
	simCfg := sched.SimConfig{Nodes: o.Nodes, Backfill: true}
	for si, sample := range samples {
		byID, err := predictorsForSample(sample, o)
		if err != nil {
			return metrics.Summary{}, nil, err
		}
		f, err := ioaware.Forecast(o.Context(), trace.Completed(sample), byID, simCfg, perfect)
		if err != nil {
			return metrics.Summary{}, nil, err
		}
		if len(f.Actual) == 0 {
			continue
		}
		allAcc = append(allAcc, ioaware.SeriesAccuracy(f.Actual, f.Predicted)...)
		for wi, c := range ioaware.WindowSweep(f.Actual, f.Predicted) {
			sweeps[wi].TP += c.TP
			sweeps[wi].FP += c.FP
			sweeps[wi].FN += c.FN
		}
		o.progress("systemIO(perfect=%v): sample %d/%d", perfect, si+1, len(samples))
	}
	return metrics.Summarize(allAcc), sweeps, nil
}

// Fig12 reports system-IO prediction accuracy with perfect turnaround
// knowledge (paper: mean 63.6%, median 55.3%).
func Fig12(o Options) (Result, error) {
	o = o.withDefaults()
	acc, _, err := systemIO(o, true)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "fig12",
		Title: "system-IO prediction accuracy, perfect turnaround knowledge",
		Rows: [][]string{
			{"metric", "measured", "paper"},
			{"mean accuracy", fmtPct(acc.Mean), "63.6%"},
			{"median accuracy", fmtPct(acc.Median), "55.3%"},
		},
	}
	return res, nil
}

// Fig13 reports burst sensitivity/precision across window sizes with
// perfect turnaround knowledge (paper: 47.5% sensitivity and 73.9%
// precision at the 5-minute window, both rising with window size).
func Fig13(o Options) (Result, error) {
	o = o.withDefaults()
	_, sweeps, err := systemIO(o, true)
	if err != nil {
		return Result{}, err
	}
	return burstResult("fig13",
		"IO-burst prediction, perfect turnaround knowledge",
		sweeps, "47.5% sens / 73.9% prec @5min"), nil
}

// Fig14 reports system-IO accuracy with predicted turnaround (paper:
// accuracy decreases vs Fig. 12 — mean error up to 36.4%).
func Fig14(o Options) (Result, error) {
	o = o.withDefaults()
	acc, _, err := systemIO(o, false)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:    "fig14",
		Title: "system-IO prediction accuracy, predicted turnaround",
		Rows: [][]string{
			{"metric", "measured", "paper"},
			{"mean accuracy", fmtPct(acc.Mean), "≈63.6% → lower than fig12"},
			{"median accuracy", fmtPct(acc.Median), "—"},
		},
	}
	res.Notes = append(res.Notes,
		"paper: accuracy decreases when predicted turnaround replaces perfect knowledge; top whisker still captures many IO patterns")
	return res, nil
}

// Fig15 reports burst sensitivity/precision with predicted turnaround
// (paper: 55.3% sensitivity and 70.0% precision at the 5-minute window;
// over 50% of bursts predicted).
func Fig15(o Options) (Result, error) {
	o = o.withDefaults()
	_, sweeps, err := systemIO(o, false)
	if err != nil {
		return Result{}, err
	}
	return burstResult("fig15",
		"IO-burst prediction, predicted turnaround",
		sweeps, "55.3% sens / 70.0% prec @5min"), nil
}

// burstResult formats a window sweep.
func burstResult(id, title string, sweeps []metrics.Confusion, paper string) Result {
	res := Result{
		ID:    id,
		Title: title,
		Rows:  [][]string{{"window (min)", "sensitivity", "precision", "TP", "FP", "FN"}},
	}
	for i, w := range ioaware.Windows {
		c := sweeps[i]
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(w), fmtPct(c.Sensitivity()), fmtPct(c.Precision()),
			fmt.Sprint(c.TP), fmt.Sprint(c.FP), fmt.Sprint(c.FN),
		})
	}
	res.Notes = append(res.Notes, "paper @5-minute window: "+paper)
	mono := true
	for i := 1; i < len(ioaware.Windows); i++ {
		if sweeps[i].Sensitivity() < sweeps[i-1].Sensitivity()-1e-12 {
			mono = false
		}
	}
	if mono {
		res.Notes = append(res.Notes, "shape holds: sensitivity non-decreasing with window size")
	} else {
		res.Notes = append(res.Notes, "SHAPE MISMATCH: sensitivity not monotone in window size")
	}
	return res
}
