package main

import (
	"math"
	"sort"
	"time"
)

// phaseSlices is how many equal time slices a phase is measured in: its
// p50/p95 is the median over slices of the slice percentile, so one
// scheduler stall on a shared box spoils one slice, not the metric.
// minSliceSamples is what a slice must hold for its p95 to have a dozen
// samples beyond it; a phase too short to fill five such slices has its
// percentiles taken over fewer, longer ones (down to the whole phase).
const (
	phaseSlices     = 5
	minSliceSamples = 240
)

// percentileSlices is how many slices n answered samples are cut into.
func percentileSlices(n int) int { return max(1, min(phaseSlices, n/minSliceSamples)) }

// sample is one open-loop request: when it was due (offset from the
// phase start), how late the generator picked it up, and how long after
// its due time the answer arrived.
type sample struct {
	due  time.Duration
	late time.Duration
	lat  time.Duration
	ok   bool
}

// percentile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// slicePercentiles cuts the phase into equal slices by due time (five,
// or fewer when the phase holds under 5 × minSliceSamples answers) and
// returns each slice's q-quantile latency in ms over its answered
// requests. Empty slices are left out.
func slicePercentiles(samples []sample, length time.Duration, q float64) []float64 {
	answered := 0
	for _, s := range samples {
		if s.ok {
			answered++
		}
	}
	k := percentileSlices(answered)
	buckets := make([][]float64, k)
	for _, s := range samples {
		if !s.ok {
			continue
		}
		i := min(int(int64(s.due)*int64(k)/int64(length)), k-1)
		buckets[i] = append(buckets[i], ms(s.lat))
	}
	var out []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		out = append(out, percentile(b, q))
	}
	return out
}

// sliceMedian is the phase's reported percentile: the median over slices
// of the slice percentile.
func sliceMedian(samples []sample, length time.Duration, q float64) float64 {
	return median(slicePercentiles(samples, length, q))
}

// stallSlices counts slices whose p95 is more than 1.5 times the
// phase's median-of-slices p95: the slices a stall spoiled.
func stallSlices(samples []sample, length time.Duration) int {
	p := slicePercentiles(samples, length, 0.95)
	m := median(p)
	n := 0
	for _, v := range p {
		if v > 1.5*m {
			n++
		}
	}
	return n
}

// pooled returns the q-quantile in ms of fn over all answered samples.
func pooled(samples []sample, q float64, fn func(sample) time.Duration) float64 {
	v := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			v = append(v, ms(fn(s)))
		}
	}
	sort.Float64s(v)
	return percentile(v, q)
}

// quartiles returns the median and the first and third quartile of v by
// the same rule as Python's statistics.quantiles(v, n=4) (exclusive
// method); with fewer than two values all three are the value itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
