// Package ioaware builds system-level IO forecasts from per-job
// placements and IO-bandwidth predictions, and scores IO-burst prediction
// — the paper's §4 phase 2 feeding an IO-aware scheduler. Forecast is
// the whole pipeline from predictions to the two series; WindowSweep
// scores their bursts.
//
// The total system IO at a time t is the sum of the (predicted or actual)
// IO bandwidth of every job running at t. An IO burst is any point where
// the system bandwidth exceeds one standard deviation above the mean of
// the actual distribution. Burst predictions are scored with windowed
// matching: a real burst counts as predicted (TP) if a predicted burst
// occurs within the window around it.
package ioaware

import (
	"prionn/internal/metrics"
)

// Interval is one job's execution span with its mean IO bandwidth in
// bytes/second (read, write, or combined — the caller chooses).
type Interval struct {
	Start, End int64 // epoch seconds, End > Start
	BW         float64
}

// Series accumulates intervals into a bandwidth time series over
// [t0, t1) with the given bucket width in seconds (the paper uses
// one-minute resolution). Partial overlaps contribute proportionally.
func Series(intervals []Interval, t0, t1, step int64) []float64 {
	if t1 <= t0 || step <= 0 {
		return nil
	}
	n := int((t1 - t0 + step - 1) / step)
	out := make([]float64, n)
	for _, iv := range intervals {
		if iv.End <= iv.Start || iv.BW == 0 {
			continue
		}
		lo, hi := iv.Start, iv.End
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi <= lo {
			continue
		}
		b0 := int((lo - t0) / step)
		b1 := int((hi - t0 - 1) / step)
		for b := b0; b <= b1 && b < n; b++ {
			bs := t0 + int64(b)*step
			be := bs + step
			os, oe := lo, hi
			if os < bs {
				os = bs
			}
			if oe > be {
				oe = be
			}
			out[b] += iv.BW * float64(oe-os) / float64(step)
		}
	}
	return out
}

// BurstThreshold returns mean + one standard deviation of the series,
// the paper's burst definition (Fig. 12a marks 1.35e9 B/s on Cab).
func BurstThreshold(series []float64) float64 {
	mean, std := metrics.MeanStd(series)
	return mean + std
}

// BurstMask flags every point strictly above the threshold.
func BurstMask(series []float64, threshold float64) []bool {
	mask := make([]bool, len(series))
	for i, v := range series {
		mask[i] = v > threshold
	}
	return mask
}

// MatchBursts scores predicted bursts against actual bursts with the
// paper's window technique. radius is in buckets: with one-minute buckets
// a "5-minute window" is radius 2 (two minutes before through two minutes
// after). A real burst with a predicted burst within ±radius is a TP;
// a real burst with none is an FN; a predicted burst with no real burst
// within ±radius is an FP.
func MatchBursts(actual, pred []bool, radius int) metrics.Confusion {
	if len(actual) != len(pred) {
		panic("ioaware: series length mismatch")
	}
	var c metrics.Confusion
	near := func(mask []bool, i int) bool {
		lo, hi := i-radius, i+radius
		if lo < 0 {
			lo = 0
		}
		if hi >= len(mask) {
			hi = len(mask) - 1
		}
		for j := lo; j <= hi; j++ {
			if mask[j] {
				return true
			}
		}
		return false
	}
	for i, a := range actual {
		if a {
			if near(pred, i) {
				c.TP++
			} else {
				c.FN++
			}
		}
	}
	for i, p := range pred {
		if p && !near(actual, i) {
			c.FP++
		}
	}
	return c
}

// Windows are the paper's burst-matching window sizes in minutes
// (Figs. 13 and 15).
var Windows = []int{5, 10, 20, 30, 40, 50, 60}

// WindowSweep scores burst prediction at each of Windows, in order, over
// one-minute series: a burst is a point above the actual series'
// BurstThreshold, and a window of w minutes matches within ±w/2 buckets.
// The confusions are counts, so sweeps over several samples add up.
func WindowSweep(actual, predicted []float64) []metrics.Confusion {
	thr := BurstThreshold(actual)
	am, pm := BurstMask(actual, thr), BurstMask(predicted, thr)
	out := make([]metrics.Confusion, len(Windows))
	for i, w := range Windows {
		out[i] = MatchBursts(am, pm, w/2)
	}
	return out
}

// SeriesAccuracy returns the per-bucket relative accuracy (Eq. 1) of a
// predicted system-IO series against the actual one, skipping buckets
// where both are zero-traffic (idle system tells nothing about IO
// prediction quality).
func SeriesAccuracy(actual, pred []float64) []float64 {
	if len(actual) != len(pred) {
		panic("ioaware: series length mismatch")
	}
	out := make([]float64, 0, len(actual))
	for i := range actual {
		if actual[i] == 0 && pred[i] == 0 {
			continue
		}
		out = append(out, metrics.RelativeAccuracy(actual[i], pred[i]))
	}
	return out
}
