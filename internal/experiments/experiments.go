// Package experiments contains one runner per data-bearing table and
// figure in the paper's evaluation (see DESIGN.md §3 for the index).
// Each runner regenerates the rows or series the paper reports — scaled
// by Options.Jobs — and formats them next to the paper's published
// numbers so EXPERIMENTS.md can record paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"prionn/internal/metrics"
	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Jobs is the trace length. The paper uses 265,786 completed jobs;
	// runners accept any size and keep the qualitative shape.
	Jobs int
	// Seed drives trace generation and model initialization.
	Seed int64
	// Cfg is the PRIONN configuration; zero value means FastConfig.
	Cfg prionn.Config
	// Nodes is the simulated machine size (default Cab's 1,296).
	Nodes int
	// Samples is the number of sampled sub-traces for the §4 experiments
	// (paper: five 10,000-job samples).
	Samples int
	// SampleJobs is the per-sample job count for §4 experiments.
	SampleJobs int
	// BurnIn is the fraction of each trace's submissions excluded from
	// accuracy statistics (default 0.25). The paper evaluates all 265k
	// jobs, but its 500-job warm-up is a negligible sliver of that
	// trace; at reproduction scale the warm-up would otherwise dominate
	// the mean, so accuracies are reported over the mature part of the
	// stream. Set to a negative value to disable.
	BurnIn float64
	// Progress, when non-nil, receives coarse progress lines.
	Progress func(string)
	// ctx carries the run's cancellation signal; nil means Background.
	// Set it through WithContext so a zero Options stays valid.
	ctx context.Context
}

// WithContext returns a copy of o carrying ctx. The context reaches the
// online-training loop and the scheduler simulator, both of which poll
// it at submission granularity, so canceling it stops a figure within
// one minibatch.
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

// Context returns the run's context, defaulting to Background.
func (o Options) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cfg.Rows == 0 {
		o.Cfg = prionn.FastConfig()
	}
	if o.Nodes <= 0 {
		o.Nodes = 1296
	}
	if o.Samples <= 0 {
		o.Samples = 5
	}
	if o.SampleJobs <= 0 {
		o.SampleJobs = o.Jobs / 2
		if o.SampleJobs < 200 {
			o.SampleJobs = o.Jobs
		}
	}
	if o.BurnIn == 0 {
		o.BurnIn = 0.25
	} else if o.BurnIn < 0 {
		o.BurnIn = 0
	}
	return o
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Result is the outcome of one experiment: a titled table of rows
// (header first) plus free-form notes comparing against the paper.
type Result struct {
	ID    string
	Title string
	Rows  [][]string
	Notes []string
}

// WriteTo renders the result as an aligned text table.
func (r Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		widths := make([]int, len(r.Rows[0]))
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for ri, row := range r.Rows {
			for i, cell := range row {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
			b.WriteByte('\n')
			if ri == 0 {
				for _, wd := range widths {
					b.WriteString(strings.Repeat("-", wd) + "  ")
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the result table.
func (r Result) String() string {
	var b strings.Builder
	_, _ = r.WriteTo(&b) // strings.Builder writes cannot fail
	return b.String()
}

// cabTrace generates the Cab-like workload for the run.
func cabTrace(o Options) []trace.Job {
	return trace.Generate(trace.Config{Seed: o.Seed, Jobs: o.Jobs})
}

// JobPred is a per-job prediction from any predictor (PRIONN, a
// traditional baseline, or the user estimate).
type JobPred struct {
	Job        trace.Job
	RuntimeMin int
	ReadBytes  float64
	WriteBytes float64
	OK         bool // prediction exists (post first training event)
}

// ReadBW and WriteBW derive bandwidth the way the paper does: predicted
// total bytes divided by predicted runtime.
func (p JobPred) ReadBW() float64 {
	if p.RuntimeMin <= 0 {
		return 0
	}
	return p.ReadBytes / (float64(p.RuntimeMin) * 60)
}

// WriteBW returns the predicted write bandwidth.
func (p JobPred) WriteBW() float64 {
	if p.RuntimeMin <= 0 {
		return 0
	}
	return p.WriteBytes / (float64(p.RuntimeMin) * 60)
}

// runPRIONN executes PRIONN's online loop over the trace.
func runPRIONN(jobs []trace.Job, cfg prionn.Config, o Options) ([]JobPred, error) {
	recs, err := prionn.RunOnline(o.Context(), jobs, cfg, func(done, total int) {
		o.progress("prionn online: %d/%d submissions", done, total)
	})
	if err != nil {
		return nil, err
	}
	out := make([]JobPred, len(recs))
	for i, r := range recs {
		out[i] = JobPred{
			Job:        r.Job,
			RuntimeMin: r.Pred.RuntimeMin,
			ReadBytes:  r.Pred.ReadBytes,
			WriteBytes: r.Pred.WriteBytes,
			OK:         r.Predicted,
		}
	}
	return out, nil
}

// userPreds derives the user-estimate "predictor" (requested runtime; no
// IO information, as the paper notes users do not provide any).
func userPreds(jobs []trace.Job) []JobPred {
	out := make([]JobPred, len(jobs))
	for i, j := range jobs {
		out[i] = JobPred{Job: j, RuntimeMin: j.RequestedMin, OK: !j.Canceled}
	}
	return out
}

// runtimeAccuracies computes Eq.-1 accuracies of predicted vs actual
// runtime over the records where both series have predictions, skipping
// the burn-in prefix of the submission stream (see Options.BurnIn).
func (o Options) runtimeAccuracies(preds []JobPred, gate []JobPred) []float64 {
	var acc []float64
	start := int(float64(len(preds)) * o.BurnIn)
	for i, p := range preds {
		if i < start || !p.OK || p.Job.Canceled || (gate != nil && !gate[i].OK) {
			continue
		}
		acc = append(acc, metrics.RelativeAccuracy(float64(p.Job.ActualMin()), float64(p.RuntimeMin)))
	}
	return acc
}

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// fmtSummary renders the boxplot stats used across the accuracy figures.
func summaryRow(label string, s metrics.Summary, paper string) []string {
	return []string{
		label,
		fmtPct(s.Mean),
		fmtPct(s.Median),
		fmtPct(s.Q1),
		fmtPct(s.Q3),
		paper,
	}
}

// sampleTrace extracts deterministic contiguous samples from a trace,
// mirroring the paper's five randomly placed 10,000-job subsets.
func sampleTraces(jobs []trace.Job, samples, size int, seed int64) [][]trace.Job {
	if size >= len(jobs) {
		return [][]trace.Job{jobs}
	}
	out := make([][]trace.Job, 0, samples)
	span := len(jobs) - size
	for s := 0; s < samples; s++ {
		start := int(int64(s)*(int64(span))/int64(samples) + seed%97)
		if start > span {
			start = span
		}
		out = append(out, jobs[start:start+size])
	}
	return out
}

// sortedCopy returns a sorted copy of vals.
func sortedCopy(vals []float64) []float64 {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	return c
}
