package experiments

import (
	"context"

	"prionn/internal/features"
	"prionn/internal/mlbase"
	"prionn/internal/trace"
)

// BaselineKind selects a traditional machine-learning baseline.
type BaselineKind string

// The three traditional models the paper compares (§2.2); RF is the best
// and serves as the representative baseline in §3.
const (
	BaselineRF  BaselineKind = "rf"
	BaselineDT  BaselineKind = "dt"
	BaselineKNN BaselineKind = "knn"
)

// newBaseline constructs a fresh regressor of the given kind.
func newBaseline(kind BaselineKind, seed int64) mlbase.Regressor {
	switch kind {
	case BaselineDT:
		return mlbase.NewDecisionTree(mlbase.TreeConfig{MaxDepth: 12, MinSamplesLeaf: 2})
	case BaselineKNN:
		return mlbase.NewKNN(mlbase.KNNConfig{K: 5})
	default:
		return mlbase.NewRandomForest(mlbase.ForestConfig{Trees: 30, MaxDepth: 14, Seed: seed})
	}
}

// rawJob converts a trace job into the manual extractor's input.
func rawJob(j trace.Job) features.RawJob {
	return features.RawJob{
		Script:    j.Script,
		User:      j.User,
		Group:     j.Group,
		Account:   j.Account,
		SubmitDir: "/g/g0/" + j.User,
	}
}

// The regression targets runBaseline fits.
func runtimeMin(j trace.Job) float64 { return float64(j.ActualMin()) }
func readBytes(j trace.Job) float64  { return float64(j.ReadBytes) }
func writeBytes(j trace.Job) float64 { return float64(j.WriteBytes) }
func avgPowerW(j trace.Job) float64  { return j.AvgPowerW }

// runBaseline runs a traditional model through the same online schedule
// as PRIONN (trace.Replay): predict at submission, refit every
// retrainEvery submissions on the window most recently completed jobs.
// Unlike PRIONN, traditional models cannot warm-start — each training
// event fits one fresh model per target on the window, target k seeded
// with seed+k (the paper calls this out as a deep-learning advantage).
// out[i][k] is target k's prediction for job i, clamped at zero; out[i]
// is nil for jobs submitted before the first fit and for canceled jobs.
func runBaseline(ctx context.Context, jobs []trace.Job, kind BaselineKind, window, retrainEvery int, seed int64, targets ...func(trace.Job) float64) ([][]float64, error) {
	encode := EncodeJobFeatures()
	models := make([]mlbase.Regressor, len(targets))
	out := make([][]float64, len(jobs))
	err := trace.Replay(ctx, jobs, retrainEvery, window, func(_ int, win []int) error {
		x := make([][]float64, len(win))
		for k, idx := range win {
			x[k] = encode(jobs[idx])
		}
		for t, target := range targets {
			y := make([]float64, len(win))
			for k, idx := range win {
				y[k] = target(jobs[idx])
			}
			models[t] = newBaseline(kind, seed+int64(t))
			models[t].Fit(x, y)
		}
		return nil
	}, func(i int) {
		row := encode(jobs[i])
		out[i] = make([]float64, len(models))
		for t, m := range models {
			out[i][t] = max(m.Predict(row), 0)
		}
	})
	return out, err
}

// jobPreds reads runBaseline's rows for the targets runtimeMin and,
// when present, readBytes and writeBytes as JobPreds.
func jobPreds(jobs []trace.Job, ys [][]float64) []JobPred {
	out := make([]JobPred, len(jobs))
	for i, y := range ys {
		out[i].Job = jobs[i]
		if y == nil {
			continue
		}
		out[i].RuntimeMin = int(y[0] + 0.5)
		if len(y) == 3 {
			out[i].ReadBytes, out[i].WriteBytes = y[1], y[2]
		}
		out[i].OK = true
	}
	return out
}

// EncodeJobFeatures returns a closure performing the full manual-feature
// pipeline (Table-1 extraction plus label encoding) over trace jobs, with
// encoder state shared across calls. The benchmark harness calls it too.
func EncodeJobFeatures() func(trace.Job) []float64 {
	enc := features.NewEncoder()
	return func(j trace.Job) []float64 {
		return enc.Encode(features.Extract(rawJob(j)))
	}
}
