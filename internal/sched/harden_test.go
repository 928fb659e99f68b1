package sched

import (
	"context"
	"math"
	"testing"
)

func TestSanitizePredictedSec(t *testing.T) {
	cases := []struct {
		sec   float64
		limit int64
		want  int64
	}{
		{600, 3600, 600},
		{600, 300, 300},       // clipped at the wall limit
		{math.NaN(), 3600, 1}, // NaN never reaches the simulator
		{math.Inf(1), 3600, 3600},
		{math.Inf(1), 0, maxPredictedSec},
		{math.Inf(-1), 3600, 1},
		{-42, 3600, 1},
		{0, 3600, 1},
		{0.2, 3600, 1},
		{1e30, 3600, 3600}, // overflow-sized prediction
		{1e30, 0, maxPredictedSec},
	}
	for _, c := range cases {
		if got := SanitizePredictedSec(c.sec, c.limit); got != c.want {
			t.Errorf("SanitizePredictedSec(%v, %d) = %d, want %d", c.sec, c.limit, got, c.want)
		}
	}
}

// TestSubmitClampsNegativeRuntime asserts a garbage negative runtime
// becomes an instant job instead of a placement that ends before it
// starts.
func TestSubmitClampsNegativeRuntime(t *testing.T) {
	s := NewSim(4)
	if err := s.Submit(Item{ID: 1, Submit: 10, Nodes: 1, RuntimeSec: -500}); err != nil {
		t.Fatal(err)
	}
	ps := s.Drain()
	if len(ps) != 1 {
		t.Fatalf("%d placements", len(ps))
	}
	if ps[0].End < ps[0].Start || ps[0].Start < 10 {
		t.Fatalf("garbage runtime produced placement %+v", ps[0])
	}
}

// TestPredictTurnaroundsGarbagePredictor runs the snapshot mechanism
// with a predictor returning nonsense (zero and negative runtimes) and
// asserts every prediction still yields a well-formed placement.
func TestPredictTurnaroundsGarbagePredictor(t *testing.T) {
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, Item{ID: i, Submit: int64(i * 30), Nodes: 2, RuntimeSec: 120, LimitSec: 600})
	}
	garbage := func(id int) int64 {
		switch id % 3 {
		case 0:
			return -999
		case 1:
			return 0
		default:
			return 1 << 50 // beyond any wall limit
		}
	}
	results, err := PredictTurnarounds(context.Background(), items, SimConfig{Nodes: 8, Backfill: true}, garbage)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	for _, r := range results {
		if r.PredPlacement.End < r.PredPlacement.Start {
			t.Fatalf("job %d: predicted placement ends before it starts: %+v", r.ID, r.PredPlacement)
		}
		if r.RealSec <= 0 {
			t.Fatalf("job %d: real turnaround %d", r.ID, r.RealSec)
		}
	}
}
