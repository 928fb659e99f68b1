package ioaware

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"prionn/internal/sched"
	"prionn/internal/trace"
)

// forecastFixture is a small busy workload: jobs arrive in bursts that
// share a submission second, queue on a 16-node machine, and carry IO
// whose float sums depend on the order they are added in.
func forecastFixture() ([]trace.Job, map[int]Pred) {
	rng := rand.New(rand.NewSource(7))
	var jobs []trace.Job
	preds := map[int]Pred{}
	for i := 0; i < 60; i++ {
		id := 100 + i
		actual := int64(120 + rng.Intn(1800))
		jobs = append(jobs, trace.Job{
			ID:           id,
			SubmitTime:   int64(1000 + (i/3)*150), // three jobs share each submission second
			Nodes:        1 + rng.Intn(8),
			ActualSec:    actual,
			RequestedMin: int(actual/60) + 1 + rng.Intn(60),
			ReadBytes:    int64(rng.Float64() * 1e10),
			WriteBytes:   int64(rng.Float64() * 3e9),
		})
		if i%5 != 0 {
			preds[id] = Pred{RuntimeMin: 1 + rng.Intn(40), BW: rng.Float64() * 1e8, OK: true}
		}
	}
	return jobs, preds
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestForecastIgnoresInputOrder pins the map-order and summation-order
// hazard: interval order decides the float sums inside Series, and
// submission ties decide FCFS order, so a shuffled input must give the
// same series bit for bit, call after call.
func TestForecastIgnoresInputOrder(t *testing.T) {
	jobs, preds := forecastFixture()
	cfg := sched.SimConfig{Nodes: 16, Backfill: true}
	for _, perfect := range []bool{true, false} {
		ref, err := Forecast(context.Background(), jobs, preds, cfg, perfect)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Actual) == 0 {
			t.Fatal("empty series")
		}
		rng := rand.New(rand.NewSource(1))
		for run := 0; run < 10; run++ {
			shuffled := append([]trace.Job(nil), jobs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, err := Forecast(context.Background(), shuffled, preds, cfg, perfect)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.Actual, ref.Actual) || !sameBits(got.Predicted, ref.Predicted) {
				t.Fatalf("perfect=%v run %d: shuffled input changed the series", perfect, run)
			}
		}
	}
}

// TestForecastRealScheduleIsSchedule guards the single simulation: in
// predicted mode the snapshots must leave the real schedule exactly as a
// plain run with actual runtimes places it.
func TestForecastRealScheduleIsSchedule(t *testing.T) {
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 1, Jobs: 600}))
	preds := map[int]Pred{}
	items := make([]sched.Item, len(jobs))
	for i, j := range jobs {
		items[i] = sched.Item{ID: j.ID, Submit: j.SubmitTime, Nodes: j.Nodes, RuntimeSec: j.ActualSec, LimitSec: int64(j.RequestedMin) * 60}
		if i%4 != 0 { // a biased predictor, so snapshots differ from reality
			preds[j.ID] = Pred{RuntimeMin: j.RequestedMin / 3, OK: true}
		}
	}
	cfg := sched.SimConfig{Nodes: 256, Backfill: true}
	want, err := sched.Schedule(context.Background(), items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Forecast(context.Background(), jobs, preds, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Turnarounds) != len(want) {
		t.Fatalf("%d turnarounds, want %d", len(f.Turnarounds), len(want))
	}
	moved := 0
	for i, r := range f.Turnarounds {
		if r.RealPlacement != want[i] {
			t.Fatalf("real placement %d: %+v, Schedule gives %+v", i, r.RealPlacement, want[i])
		}
		if r.PredPlacement != r.RealPlacement {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("degenerate fixture: no snapshot placed a job differently")
	}
}

// TestForecastJobWithoutPrediction: a job with no prediction runs at its
// requested runtime in the snapshot and adds nothing to predicted IO,
// whatever its Pred fields hold.
func TestForecastJobWithoutPrediction(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, SubmitTime: 0, Nodes: 4, ActualSec: 600, RequestedMin: 30, ReadBytes: 6e11},
		{ID: 2, SubmitTime: 60, Nodes: 4, ActualSec: 600, RequestedMin: 30},
	}
	preds := map[int]Pred{
		1: {RuntimeMin: 1, BW: 1e12, OK: false},
		2: {RuntimeMin: 10, BW: 5, OK: true},
	}
	f, err := Forecast(context.Background(), jobs, preds, sched.SimConfig{Nodes: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Turnarounds {
		if r.ID == 1 && r.PredPlacement.End-r.PredPlacement.Start != 30*60 {
			t.Fatalf("job 1 predicted placement %+v, want its 30-minute request", r.PredPlacement)
		}
		if r.ID == 2 && r.PredPlacement.Start != 30*60 {
			t.Fatalf("job 2 predicted start %d, want after job 1's requested end", r.PredPlacement.Start)
		}
	}
	var sum float64
	for _, v := range f.Predicted {
		sum += v * 60
	}
	if want := 5.0 * 600; math.Abs(sum-want) > 1e-6 {
		t.Fatalf("predicted IO %g bytes, want job 2's %g alone", sum, want)
	}
}

// TestForecastSeriesCoversPredictedTail: the series span both schedules,
// so a predicted interval that ends after every real one keeps its mass.
func TestForecastSeriesCoversPredictedTail(t *testing.T) {
	jobs := []trace.Job{{ID: 1, SubmitTime: 0, Nodes: 1, ActualSec: 600, RequestedMin: 120, ReadBytes: 6e5}}
	preds := map[int]Pred{1: {RuntimeMin: 60, BW: 10, OK: true}}
	f, err := Forecast(context.Background(), jobs, preds, sched.SimConfig{Nodes: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Predicted) != 60 || len(f.Actual) != 60 {
		t.Fatalf("series lengths %d/%d, want 60 one-minute buckets", len(f.Actual), len(f.Predicted))
	}
	var pred, actual float64
	for i := range f.Predicted {
		pred += f.Predicted[i] * 60
		actual += f.Actual[i] * 60
	}
	if math.Abs(pred-10*3600) > 1e-6 || math.Abs(actual-6e5) > 1e-6 {
		t.Fatalf("predicted %g / actual %g bytes, want %g / %g", pred, actual, 10.0*3600, 6e5)
	}
}
