package pilot

import (
	"fmt"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// Shadow evaluation is the pipeline's first gate (the workflow-
// prediction survey's lesson: never trust a retrain blindly). The last
// N completed jobs — jobs whose true runtime and IO are now known —
// are replayed through the currently-served view and the candidate
// view, each head is scored against the truth, and the candidate is
// rejected if any head regresses beyond the configured thresholds.

// HeadMetrics scores one view's predictions on a replay window,
// per head, against the jobs' actual outcomes.
type HeadMetrics struct {
	// RuntimeMAPE / RuntimeR score the runtime head's predicted minutes
	// against actual minutes (MAPE over nonzero truths; Pearson-r over
	// finite pairs).
	RuntimeMAPE float64 `json:"runtime_mape"`
	RuntimeR    float64 `json:"runtime_r"`
	// RuntimeAcc is the runtime head's class accuracy: predicted
	// minutes and actual minutes mapped through the view's bin layout.
	RuntimeAcc float64 `json:"runtime_acc"`
	// ReadMAPE/WriteMAPE and ReadAcc/WriteAcc score the IO heads the
	// same way (bytes; IO bin classes).
	ReadMAPE  float64 `json:"read_mape"`
	ReadAcc   float64 `json:"read_acc"`
	WriteMAPE float64 `json:"write_mape"`
	WriteAcc  float64 `json:"write_acc"`
	// N is the number of replayed (non-canceled) jobs.
	N int `json:"n"`
}

// score replays window through view and computes its HeadMetrics.
func score(view *prionn.Inference, window []trace.Job) HeadMetrics {
	texts := make([]string, 0, len(window))
	jobs := make([]trace.Job, 0, len(window))
	for _, j := range window {
		if j.Canceled {
			continue
		}
		texts = append(texts, view.InputText(j.Script, j.InputDeck))
		jobs = append(jobs, j)
	}
	var m HeadMetrics
	m.N = len(jobs)
	if m.N == 0 {
		return m
	}
	preds := view.PredictMapped(view.MapTexts(texts))

	n := len(jobs)
	rt := make([]float64, n) // runtime truth, minutes
	rp := make([]float64, n)
	rct := make([]int, n) // runtime class truth
	rcp := make([]int, n)
	rdt := make([]float64, n) // read bytes
	rdp := make([]float64, n)
	rdct := make([]int, n)
	rdcp := make([]int, n)
	wrt := make([]float64, n) // write bytes
	wrp := make([]float64, n)
	wrct := make([]int, n)
	wrcp := make([]int, n)
	for i, j := range jobs {
		rt[i] = float64(j.ActualMin())
		rp[i] = float64(preds[i].RuntimeMin)
		rct[i] = view.RuntimeClass(j.ActualMin())
		rcp[i] = view.RuntimeClass(preds[i].RuntimeMin)
		rdt[i] = float64(j.ReadBytes)
		rdp[i] = preds[i].ReadBytes
		rdct[i] = view.IOClass(float64(j.ReadBytes))
		rdcp[i] = view.IOClass(preds[i].ReadBytes)
		wrt[i] = float64(j.WriteBytes)
		wrp[i] = preds[i].WriteBytes
		wrct[i] = view.IOClass(float64(j.WriteBytes))
		wrcp[i] = view.IOClass(preds[i].WriteBytes)
	}
	m.RuntimeMAPE, _ = metrics.MAPE(rt, rp)
	m.RuntimeR, _ = metrics.PearsonR(rt, rp)
	m.RuntimeAcc, _ = metrics.ClassAccuracy(rct, rcp)
	m.ReadMAPE, _ = metrics.MAPE(rdt, rdp)
	m.ReadAcc, _ = metrics.ClassAccuracy(rdct, rdcp)
	m.WriteMAPE, _ = metrics.MAPE(wrt, wrp)
	m.WriteAcc, _ = metrics.ClassAccuracy(wrct, wrcp)
	return m
}

// GateConfig sets the shadow gate's regression thresholds. The zero
// value of every field gets a sensible default from withDefaults.
type GateConfig struct {
	// MaxMAPEIncrease rejects a candidate whose per-head MAPE exceeds
	// the baseline's by more than this absolute amount (default 0.10).
	MaxMAPEIncrease float64
	// MaxAccuracyDrop rejects a candidate whose per-head class accuracy
	// falls below the baseline's by more than this (default 0.05).
	MaxAccuracyDrop float64
	// MaxPearsonDrop rejects a candidate whose runtime Pearson-r falls
	// below the baseline's by more than this (default 0.10).
	MaxPearsonDrop float64
	// MinSamples is the smallest replay window the gate will judge on;
	// below it (including an empty or all-canceled window) the gate
	// accepts trivially — "no evidence of regression" — and says so in
	// the report (default 8).
	MinSamples int
}

// withDefaults fills zero fields.
func (g GateConfig) withDefaults() GateConfig {
	if g.MaxMAPEIncrease <= 0 {
		g.MaxMAPEIncrease = 0.10
	}
	if g.MaxAccuracyDrop <= 0 {
		g.MaxAccuracyDrop = 0.05
	}
	if g.MaxPearsonDrop <= 0 {
		g.MaxPearsonDrop = 0.10
	}
	if g.MinSamples <= 0 {
		g.MinSamples = 8
	}
	return g
}

// GateReport is the shadow gate's decision with its evidence.
type GateReport struct {
	Accept bool `json:"accept"`
	// Trivial is true when the gate accepted without judging (no
	// baseline view, or fewer than MinSamples replayable jobs).
	Trivial bool `json:"trivial"`
	// Reasons lists each threshold the candidate tripped (empty on
	// accept).
	Reasons   []string    `json:"reasons,omitempty"`
	Baseline  HeadMetrics `json:"baseline"`
	Candidate HeadMetrics `json:"candidate"`
}

// Evaluate replays window through the baseline and candidate views and
// gates the candidate. The baseline is typically the live serving view;
// forwards only read a view, so scoring it here never disturbs the
// serving loops. A nil or untrained baseline means there is nothing to
// regress against: the candidate is accepted trivially. The error is
// non-nil only for a nil or untrained candidate.
func Evaluate(baseline, candidate *prionn.Inference, window []trace.Job, cfg GateConfig) (GateReport, error) {
	cfg = cfg.withDefaults()
	if candidate == nil || !candidate.Trained() {
		return GateReport{}, fmt.Errorf("pilot: shadow candidate must be a trained view")
	}
	if baseline == nil || !baseline.Trained() {
		return GateReport{Accept: true, Trivial: true}, nil
	}
	rep := GateReport{
		Baseline:  score(baseline, window),
		Candidate: score(candidate, window),
	}
	if rep.Candidate.N < cfg.MinSamples {
		rep.Accept, rep.Trivial = true, true
		return rep, nil
	}
	rep.Reasons = decide(rep.Baseline, rep.Candidate, cfg)
	rep.Accept = len(rep.Reasons) == 0
	return rep, nil
}

// decide compares candidate metrics to baseline metrics against the
// thresholds. All metrics helpers return finite values by contract
// (NaN/Inf predictions are skipped pairwise inside MAPE/PearsonR), so
// these comparisons cannot be poisoned into vacuous truth by a broken
// head — a head that emits only non-finite values scores MAPE 0 on
// zero pairs, and the class-accuracy comparison still catches it.
func decide(base, cand HeadMetrics, cfg GateConfig) []string {
	var reasons []string
	chkMAPE := func(head string, b, c float64) {
		if c-b > cfg.MaxMAPEIncrease {
			reasons = append(reasons, fmt.Sprintf("%s MAPE %.4f exceeds baseline %.4f by more than %.4f", head, c, b, cfg.MaxMAPEIncrease))
		}
	}
	chkAcc := func(head string, b, c float64) {
		if b-c > cfg.MaxAccuracyDrop {
			reasons = append(reasons, fmt.Sprintf("%s class accuracy %.4f below baseline %.4f by more than %.4f", head, c, b, cfg.MaxAccuracyDrop))
		}
	}
	chkMAPE("runtime", base.RuntimeMAPE, cand.RuntimeMAPE)
	chkMAPE("read", base.ReadMAPE, cand.ReadMAPE)
	chkMAPE("write", base.WriteMAPE, cand.WriteMAPE)
	chkAcc("runtime", base.RuntimeAcc, cand.RuntimeAcc)
	chkAcc("read", base.ReadAcc, cand.ReadAcc)
	chkAcc("write", base.WriteAcc, cand.WriteAcc)
	if base.RuntimeR-cand.RuntimeR > cfg.MaxPearsonDrop {
		reasons = append(reasons, fmt.Sprintf("runtime Pearson-r %.4f below baseline %.4f by more than %.4f", cand.RuntimeR, base.RuntimeR, cfg.MaxPearsonDrop))
	}
	return reasons
}
