package experiments

import (
	"context"
	"strings"
	"testing"

	"prionn/internal/ioaware"
	"prionn/internal/prionn"
	"prionn/internal/sched"
	"prionn/internal/trace"
)

// tinyOptions keeps experiment tests fast while exercising every code
// path: ~300-job traces, 16×16 scripts, quarter-width models.
func tinyOptions() Options {
	cfg := prionn.TinyConfig()
	cfg.RetrainEvery = 60
	cfg.TrainWindow = 60
	cfg.Epochs = 1
	return Options{
		Jobs:       300,
		Seed:       3,
		Cfg:        cfg,
		Nodes:      256,
		Samples:    2,
		SampleJobs: 150,
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{
		ID:    "x",
		Title: "demo",
		Rows:  [][]string{{"a", "b"}, {"1", "22"}},
		Notes: []string{"n1"},
	}
	s := r.String()
	for _, want := range []string{"== x: demo ==", "a", "22", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted result missing %q:\n%s", want, s)
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 13 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, id := range []string{"fig3", "fig8", "fig11", "fig15", "tab2"} {
		if _, err := Lookup(id); err != nil {
			t.Fatalf("missing %s: %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig3(t *testing.T) {
	res, err := Fig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 { // header + 4 transforms
		t.Fatalf("fig3 rows %d", len(res.Rows))
	}
	if !strings.Contains(res.String(), "one-hot") {
		t.Fatal("fig3 missing one-hot row")
	}
}

func TestFig4(t *testing.T) {
	o := tinyOptions()
	o.Cfg.TrainWindow = 30
	res, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("fig4 rows %d", len(res.Rows))
	}
	// One-hot (128 channels) must be the slowest to train — this is a
	// deterministic architectural fact, assert it even at tiny scale.
	if !strings.Contains(strings.Join(res.Notes, " "), "shape holds") {
		t.Fatalf("fig4 shape note: %v", res.Notes)
	}
}

func TestFig6(t *testing.T) {
	o := tinyOptions()
	o.Cfg.TrainWindow = 30
	res, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("fig6 rows %d", len(res.Rows))
	}
}

func TestFig8SmallTrace(t *testing.T) {
	res, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // header + user + RF + PRIONN
		t.Fatalf("fig8 rows %d", len(res.Rows))
	}
	if len(res.Notes) < 2 {
		t.Fatalf("fig8 notes %v", res.Notes)
	}
}

func TestTable2Small(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 600
	res, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("tab2 rows %d", len(res.Rows))
	}
	if res.Rows[1][0] != "SDSC95" || res.Rows[2][0] != "SDSC96" {
		t.Fatalf("tab2 datasets wrong: %v", res.Rows)
	}
}

func TestFig11Small(t *testing.T) {
	res, err := Fig11(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("fig11 rows %d", len(res.Rows))
	}
}

func TestFig12And13Small(t *testing.T) {
	o := tinyOptions()
	res12, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res12.Rows) != 3 {
		t.Fatalf("fig12 rows %d", len(res12.Rows))
	}
	res13, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res13.Rows) != len(ioaware.Windows)+1 {
		t.Fatalf("fig13 rows %d", len(res13.Rows))
	}
}

func TestFig14And15Small(t *testing.T) {
	o := tinyOptions()
	res14, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res14.Rows) != 3 {
		t.Fatalf("fig14 rows %d", len(res14.Rows))
	}
	res15, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res15.Rows) != len(ioaware.Windows)+1 {
		t.Fatalf("fig15 rows %d", len(res15.Rows))
	}
}

// TestSystemIOMemoKeysMachineSize: the Figs. 12–15 memo must not hand
// one machine size's result to another. On 16 nodes the trace holds jobs
// wider than the machine, so a fresh run fails where a memo keyed
// without Options.Nodes returns the 256-node result.
func TestSystemIOMemoKeysMachineSize(t *testing.T) {
	o := tinyOptions().withDefaults()
	if _, _, err := systemIO(o, true); err != nil {
		t.Fatal(err)
	}
	o.Nodes = 16
	_, _, err := systemIO(o, true)
	if err == nil || !strings.Contains(err.Error(), "16-node machine") {
		t.Fatalf("16-node run: err = %v, want a job wider than the machine", err)
	}
}

func TestBaselineOnlineLoop(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 4, Jobs: 250, Users: 15, Apps: 5})
	ys, err := runBaseline(context.Background(), jobs, BaselineRF, 60, 60, 1, runtimeMin, readBytes, writeBytes)
	if err != nil {
		t.Fatal(err)
	}
	preds := jobPreds(jobs, ys)
	if len(preds) != len(jobs) {
		t.Fatalf("%d preds", len(preds))
	}
	var ok int
	for i, p := range preds {
		if p.OK {
			ok++
			if p.Job.Canceled {
				t.Fatal("canceled job predicted")
			}
			if p.RuntimeMin < 0 || p.ReadBytes < 0 {
				t.Fatal("negative baseline prediction")
			}
		}
		if i < 59 && p.OK {
			t.Fatal("prediction before first possible training event")
		}
	}
	if ok == 0 {
		t.Fatal("baseline never predicted")
	}
}

func TestBaselineKinds(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 6, Jobs: 150, Users: 10, Apps: 4})
	for _, k := range []BaselineKind{BaselineRF, BaselineDT, BaselineKNN} {
		ys, err := runBaseline(context.Background(), jobs, k, 40, 40, 1, runtimeMin)
		if err != nil {
			t.Fatal(err)
		}
		any := false
		for _, y := range ys {
			if y != nil {
				any = true
			}
		}
		if !any {
			t.Fatalf("baseline %s never predicted", k)
		}
	}
}

func TestUserPreds(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 7, Jobs: 50})
	preds := userPreds(jobs)
	for i, p := range preds {
		if p.OK == jobs[i].Canceled {
			t.Fatal("OK flag wrong for user predictions")
		}
		if p.RuntimeMin != jobs[i].RequestedMin {
			t.Fatal("user prediction must be the requested runtime")
		}
	}
}

func TestSampleTraces(t *testing.T) {
	jobs := trace.Generate(trace.Config{Seed: 8, Jobs: 1000})
	samples := sampleTraces(jobs, 5, 200, 1)
	if len(samples) != 5 {
		t.Fatalf("%d samples", len(samples))
	}
	for _, s := range samples {
		if len(s) != 200 {
			t.Fatalf("sample size %d", len(s))
		}
	}
	// Whole trace returned when size >= len.
	whole := sampleTraces(jobs, 5, 2000, 1)
	if len(whole) != 1 || len(whole[0]) != 1000 {
		t.Fatal("oversized sample must return the full trace")
	}
}

func TestJobPredBandwidth(t *testing.T) {
	p := JobPred{RuntimeMin: 2, ReadBytes: 1200, WriteBytes: 600}
	if p.ReadBW() != 10 || p.WriteBW() != 5 {
		t.Fatalf("BW %v/%v", p.ReadBW(), p.WriteBW())
	}
	if (JobPred{}).ReadBW() != 0 {
		t.Fatal("zero-runtime JobPred must have zero BW")
	}
}

func TestIOSeriesPairPerfect(t *testing.T) {
	// With predictions equal to ground truth, the predicted system-IO
	// series must closely track the actual one.
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 9, Jobs: 20, Users: 3, Apps: 2}))
	preds := map[int]ioaware.Pred{}
	for _, j := range jobs {
		// "Prediction" equal to truth.
		p := JobPred{
			Job:        j,
			RuntimeMin: j.ActualMin(),
			ReadBytes:  float64(j.ReadBytes),
			WriteBytes: float64(j.WriteBytes),
			OK:         true,
		}
		preds[j.ID] = ioaware.Pred{RuntimeMin: p.RuntimeMin, BW: p.ReadBW() + p.WriteBW(), OK: p.OK}
	}
	f, err := ioaware.Forecast(context.Background(), jobs, preds, sched.SimConfig{Nodes: 1296, Backfill: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	actual, predicted := f.Actual, f.Predicted
	if len(actual) == 0 || len(actual) != len(predicted) {
		t.Fatalf("series lengths %d/%d", len(actual), len(predicted))
	}
	// With perfect bytes but bandwidth derived from rounded minutes the
	// series are close, not exact; compare totals within 10%.
	var ta, tp float64
	for i := range actual {
		ta += actual[i]
		tp += predicted[i]
	}
	if ta == 0 {
		t.Fatal("empty actual series")
	}
	ratio := tp / ta
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("perfect-prediction series total ratio %.2f", ratio)
	}
}

func TestFig5Small(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 200
	res, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 { // header + 4 transforms
		t.Fatalf("fig5 rows %d", len(res.Rows))
	}
}

func TestFig7Small(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 200
	res, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // header + 3 models
		t.Fatalf("fig7 rows %d", len(res.Rows))
	}
}

func TestFig9Small(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 250
	res, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 { // header + RF read/write + PRIONN read/write
		t.Fatalf("fig9 rows %d", len(res.Rows))
	}
}

func TestWarmStartAblationSmall(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 200
	res, err := WarmStartAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("ablate-warm rows %d", len(res.Rows))
	}
}

// TestColdStartCorpusMatchesOnline: the warm-start ablation's arms
// train their embedding on the same corpus. Over one training event the
// cold arm reinitializes nothing, so under IncludeDeck, with decks
// missing from part of the window, its predictions must be the online
// loop's bit for bit; an arm whose corpus kept scripts only, or appended
// a line break per empty deck, diverges.
func TestColdStartCorpusMatchesOnline(t *testing.T) {
	o := tinyOptions()
	o.Cfg.IncludeDeck = true
	o.Cfg.Epochs = 3 // at 1 the tiny model's answers hide the embedding
	jobs := trace.Generate(trace.Config{Seed: o.Seed, Jobs: 2*o.Cfg.RetrainEvery - 1})
	for i := range jobs {
		if i%3 == 0 {
			jobs[i].InputDeck = ""
		}
	}
	warm, err := prionn.RunOnline(context.Background(), jobs, o.Cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runColdStart(jobs, o.Cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	predicted := 0
	for i, w := range warm {
		if w.Predicted != cold[i].OK {
			t.Fatalf("job %d: predicted online %v, cold %v", i, w.Predicted, cold[i].OK)
		}
		if !w.Predicted {
			continue
		}
		predicted++
		if w.Pred.RuntimeMin != cold[i].RuntimeMin {
			t.Fatalf("job %d: online predicts %v min, cold arm %v min", i, w.Pred.RuntimeMin, cold[i].RuntimeMin)
		}
	}
	if predicted == 0 {
		t.Fatal("no job was predicted")
	}
}

func TestCropAblationSmall(t *testing.T) {
	o := tinyOptions()
	o.Jobs = 200
	res, err := CropAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // header + 3 extents
		t.Fatalf("ablate-crop rows %d", len(res.Rows))
	}
}

func TestBurnInExcludesEarlyPredictions(t *testing.T) {
	// With BurnIn = 0.5, accuracies must come only from the second half.
	preds := make([]JobPred, 100)
	for i := range preds {
		preds[i] = JobPred{
			Job:        trace.Job{ActualSec: 600},
			RuntimeMin: 10, // perfect
			OK:         true,
		}
	}
	// First half: wildly wrong predictions. If burn-in works they are
	// excluded and mean accuracy is 1.
	for i := 0; i < 50; i++ {
		preds[i].RuntimeMin = 1000
	}
	o := Options{BurnIn: 0.5}.withDefaults()
	acc := o.runtimeAccuracies(preds, nil)
	if len(acc) != 50 {
		t.Fatalf("%d accuracies, want 50", len(acc))
	}
	for _, a := range acc {
		if a < 0.99 {
			t.Fatalf("early bad prediction leaked into accuracy: %v", a)
		}
	}
}
