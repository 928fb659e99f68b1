package ioaware

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeriesSingleInterval(t *testing.T) {
	s := Series([]Interval{{Start: 60, End: 180, BW: 10}}, 0, 240, 60)
	want := []float64{0, 10, 10, 0}
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-9 {
			t.Fatalf("series %v, want %v", s, want)
		}
	}
}

func TestSeriesPartialOverlap(t *testing.T) {
	// Interval covers half of bucket 0 and half of bucket 1.
	s := Series([]Interval{{Start: 30, End: 90, BW: 10}}, 0, 120, 60)
	if math.Abs(s[0]-5) > 1e-9 || math.Abs(s[1]-5) > 1e-9 {
		t.Fatalf("series %v, want [5 5]", s)
	}
}

func TestSeriesSumsOverlappingJobs(t *testing.T) {
	s := Series([]Interval{
		{Start: 0, End: 120, BW: 3},
		{Start: 0, End: 120, BW: 4},
	}, 0, 120, 60)
	if s[0] != 7 || s[1] != 7 {
		t.Fatalf("series %v, want [7 7]", s)
	}
}

func TestSeriesClipsToRange(t *testing.T) {
	s := Series([]Interval{{Start: -1000, End: 1000, BW: 1}}, 0, 120, 60)
	if s[0] != 1 || s[1] != 1 {
		t.Fatalf("series %v", s)
	}
}

func TestSeriesDegenerate(t *testing.T) {
	if s := Series(nil, 100, 100, 60); s != nil {
		t.Fatal("empty range must return nil")
	}
	s := Series([]Interval{{Start: 10, End: 10, BW: 5}}, 0, 60, 60)
	if s[0] != 0 {
		t.Fatal("zero-length interval contributed")
	}
}

func TestSeriesMassConservation(t *testing.T) {
	// Total bytes in the series equals BW * duration for intervals fully
	// inside the range, regardless of bucket alignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		step := int64(60)
		t1 := int64(3600)
		var ivs []Interval
		var wantBytes float64
		for i := 0; i < 10; i++ {
			start := int64(rng.Intn(3000))
			end := start + int64(1+rng.Intn(500))
			if end > t1 {
				end = t1
			}
			bw := rng.Float64() * 100
			ivs = append(ivs, Interval{Start: start, End: end, BW: bw})
			wantBytes += bw * float64(end-start)
		}
		s := Series(ivs, 0, t1, step)
		var got float64
		for _, v := range s {
			got += v * float64(step)
		}
		return math.Abs(got-wantBytes) < 1e-6*(1+wantBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstThresholdAndMask(t *testing.T) {
	series := []float64{1, 1, 1, 1, 10}
	thr := BurstThreshold(series)
	mean := 14.0 / 5
	if thr <= mean {
		t.Fatalf("threshold %v must exceed mean %v", thr, mean)
	}
	mask := BurstMask(series, thr)
	if !mask[4] {
		t.Fatal("spike not flagged as burst")
	}
	for i := 0; i < 4; i++ {
		if mask[i] {
			t.Fatalf("baseline point %d flagged", i)
		}
	}
}

func TestMatchBurstsExact(t *testing.T) {
	actual := []bool{false, true, false, false, true, false}
	pred := []bool{false, true, false, false, false, false}
	c := MatchBursts(actual, pred, 0)
	if c.TP != 1 || c.FN != 1 || c.FP != 0 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestMatchBurstsWindow(t *testing.T) {
	actual := []bool{false, false, true, false, false}
	pred := []bool{true, false, false, false, false}
	// Radius 1: predicted burst at 0 is not within 1 of actual at 2.
	c := MatchBursts(actual, pred, 1)
	if c.TP != 0 || c.FN != 1 || c.FP != 1 {
		t.Fatalf("radius1 confusion %+v", c)
	}
	// Radius 2: it is.
	c = MatchBursts(actual, pred, 2)
	if c.TP != 1 || c.FN != 0 || c.FP != 0 {
		t.Fatalf("radius2 confusion %+v", c)
	}
}

func TestMatchBurstsBoundaries(t *testing.T) {
	// Bursts at the edges must not index out of range.
	actual := []bool{true, false, false, true}
	pred := []bool{true, false, false, true}
	c := MatchBursts(actual, pred, 5)
	if c.TP != 2 || c.FN != 0 || c.FP != 0 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestWindowSweepMonotone(t *testing.T) {
	// Sensitivity and precision must be non-decreasing in window size
	// (larger windows can only match more) — the paper observes this in
	// Figs. 13 and 15.
	rng := rand.New(rand.NewSource(5))
	n := 500
	actual := make([]float64, n)
	pred := make([]float64, n)
	for i := range actual {
		actual[i] = rng.Float64() * 10
		if rng.Float64() < 0.1 {
			actual[i] = 100
			// Predictions: shifted/noisy copy of actual.
			if j := i + rng.Intn(7) - 3; j >= 0 && j < n && rng.Float64() < 0.7 {
				pred[j] = 100
			}
		}
		if rng.Float64() < 0.02 {
			pred[i] = 100
		}
	}
	sweep := WindowSweep(actual, pred)
	if len(sweep) != len(Windows) {
		t.Fatalf("%d confusions for %d windows", len(sweep), len(Windows))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Sensitivity() < sweep[i-1].Sensitivity()-1e-12 {
			t.Fatalf("sensitivity not monotone: %+v", sweep)
		}
		if sweep[i].Precision() < sweep[i-1].Precision()-1e-12 {
			t.Fatalf("precision not monotone: %+v", sweep)
		}
	}
	if sweep[0].TP == 0 || sweep[0].FP == 0 {
		t.Fatalf("degenerate fixture: %+v", sweep[0])
	}
}

func TestSeriesAccuracy(t *testing.T) {
	actual := []float64{10, 0, 5}
	pred := []float64{10, 0, 10}
	acc := SeriesAccuracy(actual, pred)
	// The (0,0) bucket is skipped.
	if len(acc) != 2 {
		t.Fatalf("accuracy length %d, want 2", len(acc))
	}
	if acc[0] != 1 {
		t.Fatalf("perfect bucket scored %v", acc[0])
	}
	if math.Abs(acc[1]-0.5) > 1e-12 {
		t.Fatalf("half-miss bucket scored %v", acc[1])
	}
}

func TestPerfectPredictionGivesPerfectBurstScores(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := make([]float64, 200)
		for i := range series {
			series[i] = rng.Float64() * 100
			if rng.Float64() < 0.05 {
				series[i] += 1000
			}
		}
		thr := BurstThreshold(series)
		mask := BurstMask(series, thr)
		c := MatchBursts(mask, mask, 0)
		return c.FN == 0 && c.FP == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
