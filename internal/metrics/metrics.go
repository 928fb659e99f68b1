// Package metrics implements the evaluation metrics of the paper:
// relative accuracy (Eq. 1), mean absolute error, boxplot five-number
// summaries for the accuracy-distribution figures, histograms for the
// workload-distribution figures, and precision/sensitivity for IO-burst
// prediction (§4.3).
package metrics

import (
	"math"
	"sort"
)

// RelativeAccuracy implements the paper's Equation 1:
//
//	1 - |true - pred| / (max(true, pred) + ε)
//
// The max in the denominator keeps the metric in [0, 1] and penalizes
// underprediction more than overprediction; ε (machine epsilon) avoids
// 0/0 when both values are zero (two zero values score a perfect 1).
func RelativeAccuracy(truth, pred float64) float64 {
	return 1 - math.Abs(truth-pred)/(math.Max(truth, pred)+machineEps)
}

const machineEps = 2.220446049250313e-16

// RelativeAccuracies applies Eq. 1 elementwise.
func RelativeAccuracies(truth, pred []float64) []float64 {
	if len(truth) != len(pred) {
		panic("metrics: length mismatch")
	}
	out := make([]float64, len(truth))
	for i := range truth {
		out[i] = RelativeAccuracy(truth[i], pred[i])
	}
	return out
}

// MAE returns the mean absolute error between two series.
func MAE(truth, pred []float64) float64 {
	if len(truth) != len(pred) {
		panic("metrics: length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var s float64
	for i := range truth {
		s += math.Abs(truth[i] - pred[i])
	}
	return s / float64(len(truth))
}

// Summary is the five-number boxplot summary (plus mean and whiskers)
// used by the paper's accuracy-distribution figures.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	// WhiskerLo/Hi are the Tukey 1.5×IQR whisker positions clipped to the
	// data range.
	WhiskerLo, WhiskerHi float64
	// P5 and P95 support the paper's percentile statements (e.g. the
	// 95th-percentile turnaround accuracy comparison).
	P5, P95 float64
}

// Summarize computes a Summary of vals. It does not modify vals.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	sum := Summary{
		N:      n,
		Mean:   mean,
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[n-1],
		P5:     quantile(s, 0.05),
		P95:    quantile(s, 0.95),
	}
	iqr := sum.Q3 - sum.Q1
	sum.WhiskerLo = math.Max(sum.Min, sum.Q1-1.5*iqr)
	sum.WhiskerHi = math.Min(sum.Max, sum.Q3+1.5*iqr)
	return sum
}

// quantile returns the linearly interpolated q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram counts vals into equal-width bins over [lo, hi]; values
// outside the range are clamped into the end bins.
func Histogram(vals []float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	if hi <= lo || bins == 0 {
		return counts
	}
	w := (hi - lo) / float64(bins)
	for _, v := range vals {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// Confusion holds the burst-prediction counts of §4.3.
type Confusion struct {
	TP, FP, FN int
}

// Sensitivity is TP / (TP + FN) — the fraction of real bursts predicted.
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Precision is TP / (TP + FP) — the fraction of predicted bursts that
// are real.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// MAPE returns the mean absolute percentage error over the finite,
// nonzero-truth pairs of the two series, plus the number of pairs that
// contributed. Pairs where either value is NaN/±Inf — a poisoned
// prediction must not poison the aggregate — or where the truth is
// exactly zero (the percentage is undefined) are skipped and do not
// count toward n. An input with no usable pairs returns (0, 0); the
// result is always finite.
func MAPE(truth, pred []float64) (mape float64, n int) {
	if len(truth) != len(pred) {
		panic("metrics: length mismatch")
	}
	var s float64
	for i := range truth {
		t, p := truth[i], pred[i]
		if !finite(t) || !finite(p) {
			continue
		}
		if t == 0 { // exact zero truth is the only undefined denominator; a tolerance would silently drop valid tiny truths
			continue
		}
		s += math.Abs(t-p) / math.Abs(t)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return s / float64(n), n
}

// PearsonR returns the Pearson correlation coefficient over the finite
// pairs of the two series, plus the number of pairs that contributed.
// NaN/±Inf pairs are skipped. Degenerate inputs — fewer than two usable
// pairs, or a zero-variance series — return (0, n): an uncorrelatable
// series reads as "no evidence of correlation", never as NaN, so a
// comparison gate built on top cannot be poisoned by a constant or
// broken prediction head.
func PearsonR(truth, pred []float64) (r float64, n int) {
	if len(truth) != len(pred) {
		panic("metrics: length mismatch")
	}
	var st, sp float64
	var ts, ps []float64
	for i := range truth {
		t, p := truth[i], pred[i]
		if !finite(t) || !finite(p) {
			continue
		}
		ts = append(ts, t)
		ps = append(ps, p)
		st += t
		sp += p
	}
	n = len(ts)
	if n < 2 {
		return 0, n
	}
	mt, mp := st/float64(n), sp/float64(n)
	var cov, vt, vp float64
	for i := range ts {
		dt, dp := ts[i]-mt, ps[i]-mp
		cov += dt * dp
		vt += dt * dt
		vp += dp * dp
	}
	if vt == 0 || vp == 0 { // exact zero variance (a constant series) is the only undefined correlation input
		return 0, n
	}
	r = cov / math.Sqrt(vt*vp)
	// Guard the rounding tail: |r| can exceed 1 by an ulp.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, n
}

// ClassAccuracy returns the fraction of positions where the two class
// series agree, plus the number of pairs compared. Empty input returns
// (0, 0) — the caller decides whether "no evidence" passes its gate.
func ClassAccuracy(truth, pred []int) (acc float64, n int) {
	if len(truth) != len(pred) {
		panic("metrics: length mismatch")
	}
	if len(truth) == 0 {
		return 0, 0
	}
	match := 0
	for i := range truth {
		if truth[i] == pred[i] {
			match++
		}
	}
	return float64(match) / float64(len(truth)), len(truth)
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// MeanStd returns the mean and (population) standard deviation.
func MeanStd(vals []float64) (mean, std float64) {
	n := float64(len(vals))
	if n == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= n
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	return mean, math.Sqrt(sq / n)
}
