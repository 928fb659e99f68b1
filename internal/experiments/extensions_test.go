package experiments

import (
	"context"
	"testing"

	"prionn/internal/trace"
)

func TestExtDeckSmall(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 250
	res, err := ExtDeck(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // header + without + with
		t.Fatalf("ext-deck rows %d", len(res.Rows))
	}
	if res.Rows[1][0] == res.Rows[2][0] {
		t.Fatal("ext-deck rows not labeled distinctly")
	}
}

func TestExtPowerSmall(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 250
	res, err := ExtPower(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("ext-power rows %d", len(res.Rows))
	}
}

func TestRunBaselinePower(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 12, Jobs: 200, Users: 12, Apps: 4})
	preds, err := runBaseline(context.Background(), jobs, BaselineRF, 50, 50, 1, avgPowerW)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for i, p := range preds {
		if p != nil {
			any = true
			if p[0] < 0 {
				t.Fatal("negative power prediction")
			}
			if jobs[i].Canceled {
				t.Fatal("canceled job predicted")
			}
		}
	}
	if !any {
		t.Fatal("power baseline never predicted")
	}
}

func TestTraceCarriesDeckAndPower(t *testing.T) {
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 13, Jobs: 100}))
	for _, j := range jobs {
		if j.InputDeck == "" {
			t.Fatal("job missing input deck")
		}
		if j.AvgPowerW <= 0 {
			t.Fatal("job missing power draw")
		}
		// Power scales with nodes: a job's watts must be at least its
		// node count times a plausible per-node floor.
		if j.AvgPowerW < float64(j.Nodes)*100 {
			t.Fatalf("power %f too low for %d nodes", j.AvgPowerW, j.Nodes)
		}
	}
}
