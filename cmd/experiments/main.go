// Command experiments regenerates the paper's tables and figures
// (DESIGN.md §3 lists the mapping). Results print as text tables with
// the paper's published numbers alongside.
//
// A failing figure — error, panic, or deadline — no longer aborts the
// run: its failure is recorded in the report, the remaining figures
// still render, and the process exits nonzero.
//
// Usage:
//
//	experiments -run all -jobs 2000
//	experiments -run fig8,fig9 -jobs 5000 -scale fast
//	experiments -run fig11 -jobs 4000 -samples 5 -samplejobs 1500
//	experiments -run all -timeout 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prionn/internal/experiments"
	"prionn/internal/fault"
	"prionn/internal/prionn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse argv, run the selected
// figures, write the report to stdout (and -o), log to stderr, and
// return the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)

	runIDs := fs.String("run", "all", "comma-separated experiment ids, or 'all' (known: "+
		strings.Join(experiments.IDs(), ", ")+")")
	jobs := fs.Int("jobs", 2000, "trace length")
	seed := fs.Int64("seed", 1, "seed")
	scale := fs.String("scale", "fast", "model scale: tiny, fast, paper")
	nodes := fs.Int("nodes", 1296, "simulated machine size (Cab: 1296)")
	samples := fs.Int("samples", 5, "sub-trace samples for §4 experiments (paper: 5)")
	sampleJobs := fs.Int("samplejobs", 0, "jobs per sample (default jobs/2)")
	timeout := fs.Duration("timeout", 0, "per-figure deadline (0 disables); a figure past it fails, the rest still run")
	inject := fs.String("inject", "", "comma-separated id=error|panic pairs forcing figures to fail (exercises the degraded-report path)")
	out := fs.String("o", "", "also write the report to this file")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	logf := func(format string, args ...interface{}) {
		_, _ = fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
	}

	cfg, err := prionn.ScaleConfig(*scale)
	if err != nil {
		logf("%v", err)
		return 2
	}
	cfg.Seed = *seed

	opts := experiments.Options{
		Jobs:       *jobs,
		Seed:       *seed,
		Cfg:        cfg,
		Nodes:      *nodes,
		Samples:    *samples,
		SampleJobs: *sampleJobs,
	}
	if !*quiet {
		opts.Progress = func(s string) { logf("%s", s) }
	}

	if *inject != "" {
		disarm, err := armInjections(*inject)
		if err != nil {
			logf("%v", err)
			return 2
		}
		defer disarm()
	}

	ids := experiments.IDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
	}

	var w io.Writer = stdout
	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			logf("%v", err)
			return 1
		}
		closeOut = f.Close
		w = io.MultiWriter(stdout, f)
	}

	if _, err := fmt.Fprintf(w, "PRIONN experiment harness — %d jobs, scale %s, seed %d\n\n", *jobs, *scale, *seed); err != nil {
		logf("%v", err)
		return 1
	}
	var failed []string
	for _, id := range ids {
		id = strings.TrimSpace(id)
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		start := time.Now()
		res, err := experiments.RunCtx(ctx, id, opts)
		cancel()
		if err != nil {
			failed = append(failed, id)
			logf("%s failed: %v", id, err)
			if _, werr := fmt.Fprintf(w, "== %s: FAILED ==\nerror: %v\n\n", id, err); werr != nil {
				logf("%v", werr)
				return 1
			}
			continue
		}
		//prionnvet:ignore time-dep -- wall time is an intentional measurement note, not model data
		res.Notes = append(res.Notes, fmt.Sprintf("wall time %.1fs", time.Since(start).Seconds()))
		if _, err := res.WriteTo(w); err != nil {
			logf("%v", err)
			return 1
		}
	}
	// Close reports buffered-write failures; losing the report file
	// silently would defeat the point of -o.
	if err := closeOut(); err != nil {
		logf("%v", err)
		return 1
	}
	if len(failed) > 0 {
		logf("%d of %d figure(s) failed: %s", len(failed), len(ids), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// armInjections parses -inject ("fig3=panic,fig11=error") and arms the
// corresponding figure failpoints, returning a disarm for all of them.
func armInjections(spec string) (func(), error) {
	var disarms []func()
	disarmAll := func() {
		for _, d := range disarms {
			d()
		}
	}
	for _, pair := range strings.Split(spec, ",") {
		id, mode, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			disarmAll()
			return nil, fmt.Errorf("bad -inject entry %q (want id=error or id=panic)", pair)
		}
		if _, err := experiments.Lookup(id); err != nil {
			disarmAll()
			return nil, err
		}
		var f fault.Failure
		switch mode {
		case "error":
			f.Err = fault.ErrInjected
		case "panic":
			f.Panic = true
		default:
			disarmAll()
			return nil, fmt.Errorf("bad -inject mode %q for %s (want error or panic)", mode, id)
		}
		disarms = append(disarms, fault.Arm(experiments.FailpointFigure(id), f))
	}
	return disarmAll, nil
}
