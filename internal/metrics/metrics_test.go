package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeAccuracyKnown(t *testing.T) {
	cases := []struct {
		truth, pred, want float64
	}{
		{100, 100, 1},
		{0, 0, 1},             // ε prevents 0/0; both zero is a perfect prediction
		{100, 50, 0.5},        // underprediction
		{50, 100, 0.5},        // overprediction penalized the same at 2x
		{100, 0, 0},           // total miss
		{10, 25, 1 - 15.0/25}, // paper's example direction
	}
	for _, c := range cases {
		got := RelativeAccuracy(c.truth, c.pred)
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("RelativeAccuracy(%v, %v) = %v, want %v", c.truth, c.pred, got, c.want)
		}
	}
}

func TestRelativeAccuracyRangeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b) // resource usage is nonnegative
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		r := RelativeAccuracy(a, b)
		return r >= -1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeAccuracyPenalizesUnderprediction(t *testing.T) {
	// Underpredicting by a factor f scores the same as overpredicting by
	// the same factor, but underprediction at a fixed absolute error
	// scores worse: |err| / max picks the larger denominator.
	under := RelativeAccuracy(100, 70) // err 30, denom 100
	over := RelativeAccuracy(100, 130) // err 30, denom 130
	if !(under < over) {
		t.Fatalf("underprediction %v should score below overprediction %v", under, over)
	}
}

func TestRelativeAccuracies(t *testing.T) {
	got := RelativeAccuracies([]float64{10, 20}, []float64{10, 10})
	if got[0] != 1 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestMAE(t *testing.T) {
	if m := MAE([]float64{1, 2, 3}, []float64{2, 2, 5}); math.Abs(m-1) > 1e-12 {
		t.Fatalf("MAE = %v, want 1", m)
	}
	if m := MAE(nil, nil); m != 0 {
		t.Fatalf("empty MAE = %v", m)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles %v %v", s.Q1, s.Q3)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Mean != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			// Restrict to the magnitudes the metric actually sees
			// (accuracies and runtimes); summing near ±MaxFloat64
			// overflows the mean, which is out of scope.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.WhiskerLo >= s.Min && s.WhiskerHi <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 1, 2, 3, 9, 100, -5}, 0, 10, 5)
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10]; 100 clamps to last, -5 to first.
	want := []int{3, 2, 0, 0, 2}
	for i, w := range want {
		if h[i] != w {
			t.Fatalf("hist %v, want %v", h, want)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if h := Histogram([]float64{1}, 5, 5, 3); h[0] != 0 {
		t.Fatal("degenerate range must count nothing")
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 8}
	if s := c.Sensitivity(); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sensitivity %v", s)
	}
	if p := c.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Fatalf("precision %v", p)
	}
	empty := Confusion{}
	if empty.Sensitivity() != 0 || empty.Precision() != 0 {
		t.Fatal("empty confusion must report 0")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 || math.Abs(s-2) > 1e-12 {
		t.Fatalf("mean %v std %v, want 5 and 2", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd must be 0,0")
	}
}

// near compares a computed metric with its expected value to within
// rounding of the handful of float operations behind it.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12 }

// TestMAPE covers the shadow-gate hygiene contract: NaN/Inf pairs and
// zero truths are skipped, never propagated, and the result is always
// finite.
func TestMAPE(t *testing.T) {
	cases := []struct {
		name        string
		truth, pred []float64
		want        float64
		wantN       int
	}{
		{"exact", []float64{10, 20}, []float64{10, 20}, 0, 2},
		{"half off", []float64{10, 20}, []float64{15, 10}, 0.5, 2},
		{"empty", nil, nil, 0, 0},
		{"zero truth skipped", []float64{0, 10}, []float64{5, 5}, 0.5, 1},
		{"nan pred skipped", []float64{10, 10}, []float64{math.NaN(), 20}, 1, 1},
		{"inf pred skipped", []float64{10, 10}, []float64{math.Inf(1), 5}, 0.5, 1},
		{"nan truth skipped", []float64{math.NaN(), 10}, []float64{10, 20}, 1, 1},
		{"all poisoned", []float64{math.NaN(), math.Inf(-1)}, []float64{1, 2}, 0, 0},
	}
	for _, c := range cases {
		got, n := MAPE(c.truth, c.pred)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: MAPE returned non-finite %v", c.name, got)
		}
		if !near(got, c.want) || n != c.wantN {
			t.Errorf("%s: MAPE = (%v, %d), want (%v, %d)", c.name, got, n, c.want, c.wantN)
		}
	}
}

// TestPearsonR pins the correlation helper's degenerate-input contract:
// constant series, short series, and poisoned values all return a
// finite coefficient instead of NaN.
func TestPearsonR(t *testing.T) {
	cases := []struct {
		name        string
		truth, pred []float64
		want        float64
		wantN       int
	}{
		{"perfect", []float64{1, 2, 3, 4}, []float64{2, 4, 6, 8}, 1, 4},
		{"anti", []float64{1, 2, 3}, []float64{3, 2, 1}, -1, 3},
		{"constant pred", []float64{1, 2, 3}, []float64{5, 5, 5}, 0, 3},
		{"constant truth", []float64{7, 7, 7}, []float64{1, 2, 3}, 0, 3},
		{"single pair", []float64{1}, []float64{1}, 0, 1},
		{"empty", nil, nil, 0, 0},
		{"nan skipped", []float64{1, 2, math.NaN(), 3}, []float64{2, 4, 9, 6}, 1, 3},
		{"inf skipped", []float64{1, 2, 3, math.Inf(1)}, []float64{2, 4, 6, 0}, 1, 3},
		{"all poisoned", []float64{math.NaN(), math.NaN()}, []float64{1, 2}, 0, 0},
	}
	for _, c := range cases {
		got, n := PearsonR(c.truth, c.pred)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: PearsonR returned non-finite %v", c.name, got)
		}
		if !near(got, c.want) || n != c.wantN {
			t.Errorf("%s: PearsonR = (%v, %d), want (%v, %d)", c.name, got, n, c.want, c.wantN)
		}
	}
}

func TestClassAccuracy(t *testing.T) {
	if acc, n := ClassAccuracy(nil, nil); acc != 0 || n != 0 {
		t.Errorf("empty: got (%v, %d), want (0, 0)", acc, n)
	}
	if acc, n := ClassAccuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); !near(acc, 0.75) || n != 4 {
		t.Errorf("got (%v, %d), want (0.75, 4)", acc, n)
	}
}

func TestMetricsLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MAPE":          func() { MAPE([]float64{1}, nil) },
		"PearsonR":      func() { PearsonR([]float64{1}, nil) },
		"ClassAccuracy": func() { ClassAccuracy([]int{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
