package experiments

import (
	"context"
	"testing"

	"prionn/internal/ioaware"
	"prionn/internal/sched"
	"prionn/internal/trace"
)

// TestIOSeriesPairDeterministic pins the map-order hazard in the
// actual/predicted series pair that ioaware.Forecast builds: interval
// order decides float summation order inside ioaware.Series, so
// iterating the predictions map directly would make same-seed runs
// differ in the last bits. With intervals in job-ID order the output
// must be bit-identical across repeated calls within one process (each
// call re-randomizes Go map iteration, so repeats genuinely exercise
// the ordering).
func TestIOSeriesPairDeterministic(t *testing.T) {
	const jobs = 12
	var completed []trace.Job
	preds := map[int]ioaware.Pred{}
	for i := 0; i < jobs; i++ {
		id := 100 + i
		completed = append(completed, trace.Job{
			ID:           id,
			SubmitTime:   int64(i * 90),
			Nodes:        1,
			ActualSec:    600,
			RequestedMin: 20,
			ReadBytes:    int64(1e7 + i*3e5),
			WriteBytes:   int64(7e6 + i*1e5),
		})
		p := JobPred{RuntimeMin: 9, ReadBytes: 1.1e7 + float64(i)*2.7e5, WriteBytes: 6.5e6 + float64(i)*1.3e5}
		preds[id] = ioaware.Pred{RuntimeMin: p.RuntimeMin, BW: p.ReadBW() + p.WriteBW(), OK: true}
	}
	forecast := func() ([]float64, []float64) {
		f, err := ioaware.Forecast(context.Background(), completed, preds, sched.SimConfig{Nodes: 64, Backfill: true}, false)
		if err != nil {
			t.Fatal(err)
		}
		return f.Actual, f.Predicted
	}

	refActual, refPred := forecast()
	if len(refActual) == 0 || len(refPred) == 0 {
		t.Fatal("empty series from ioaware.Forecast")
	}
	for run := 0; run < 25; run++ {
		actual, pred := forecast()
		for i := range refActual {
			if actual[i] != refActual[i] {
				t.Fatalf("run %d: actual[%d] = %x, want %x (summation order leaked)", run, i, actual[i], refActual[i])
			}
		}
		for i := range refPred {
			if pred[i] != refPred[i] {
				t.Fatalf("run %d: pred[%d] = %x, want %x (summation order leaked)", run, i, pred[i], refPred[i])
			}
		}
	}
}

// TestSameSeedReportByteIdentical is the end-to-end determinism gate:
// two same-seed runs of an experiment must render byte-identical
// reports. Fig8 is the probe because its output has no wall-time
// columns (the timing figures measure wall clock by design).
func TestSameSeedReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice; skipped in -short")
	}
	o := tinyOptions()
	first, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.String(), second.String(); a != b {
		t.Fatalf("same-seed reports differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
