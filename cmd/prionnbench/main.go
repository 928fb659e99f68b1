// Command prionnbench is the repository's benchmark: it builds the real
// cmd/prionnd, starts it on a loopback port, drives it over HTTP from a
// single generator process under open-loop (and, for saturation,
// closed-loop) load, checks the answers, and reports end-to-end metrics
// a scheduler would see plus per-layer metrics from /stats deltas and an
// in-process replay ladder. README.md beside this file is the manual.
//
// Usage:
//
//	go run ./cmd/prionnbench -seed 1                 # whole suite: 4 workloads + replay, ≤ 5 min
//	go run ./cmd/prionnbench -seed 1 -reps 5 -o a.json
//	go run ./cmd/prionnbench -compare a.json b.json  # exit 1 on any "worse"
//	go run ./cmd/prionnbench --workload uniq_f32 --seed 3 --seconds 20 --trace 0   # BENCHMARK.json's contract
//	go run ./cmd/prionnbench -smoke                  # tiny scale, what go test runs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// maxInt8Disagree is the share of (script, head) answers the int8
// snapshot may differ from float32 on before the output check fails.
const maxInt8Disagree = 0.05

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	seed     int64
	workload string
	seconds  float64
	trace    int
	reps     int
	smoke    bool
	dir      string
	outFile  string
}

func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prionnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs: trace, script pool, popularity and unique draws, arrival times")
	fs.StringVar(&o.workload, "workload", "", "run this one workload and end with one JSON line (BENCHMARK.json's contract); empty runs the suite")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload; phases shrink in proportion (0: the full phase lengths)")
	fs.IntVar(&o.trace, "trace", 1, "1: run the traced replay pass after the load pass (with -workload: print the per-layer metrics); 0: end-to-end only")
	fs.IntVar(&o.reps, "reps", 1, "repeat the suite this many times; the result holds medians and quartiles")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny scale: small model and pool, ~2 s per workload")
	fs.StringVar(&o.dir, "out", filepath.Join(".bench_build", "prionnbench"), "directory for the built daemon, the checkpoint, traces and the result")
	fs.StringVar(&o.outFile, "o", "", "result file (default <out>/result.json)")
	compare := fs.Bool("compare", false, "compare two result files: prionnbench -compare a.json b.json")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			_, _ = fmt.Fprintln(stderr, "prionnbench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		_, _ = fmt.Fprintf(stderr, "prionnbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	out := func(format string, args ...any) { _, _ = fmt.Fprintf(stdout, format+"\n", args...) }

	sz := fullSizing()
	if o.smoke {
		sz = smokeSizing()
	}
	if o.seconds <= 0 {
		o.seconds = sz.seconds
	}
	var err error
	if o.workload != "" {
		err = runDriver(ctx, o, sz, out)
	} else {
		err = runSuite(ctx, o, sz, out)
	}
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "prionnbench:", err)
		return 1
	}
	return 0
}

// measure runs one workload: the load pass, then (trace) the replay.
func measure(ctx context.Context, e *env, w workloadDef, o options, setups int) (*workloadResult, error) {
	res, err := e.runWorkload(ctx, w, o.seed, o.seconds, setups)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 {
		if res.PerLayer, err = e.replay(ctx, w, o.seed, res, o.dir); err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.name, err)
		}
	}
	report(e.out, res)
	return res, nil
}

// verdict is the output check's result for one workload run.
func verdict(res *workloadResult) error {
	if res.CheckError != "" {
		return errors.New(res.CheckError)
	}
	if v, ok := res.PerLayer["prionn.int8_disagree_frac"]; ok && v.Value > maxInt8Disagree {
		return fmt.Errorf("%s: int8 answers differ from float32 on %.3f of (script, head) pairs, limit %.2f", res.Name, v.Value, maxInt8Disagree)
	}
	return nil
}

func report(out func(string, ...any), res *workloadResult) {
	out("workload %s", res.Name)
	for _, p := range res.Phases {
		out("  phase %-6s %-26s %6.2f s  ops_sent %7d  ops_failed %d", p.Name, p.Kind, p.Seconds, p.OpsSent, p.OpsFailed)
	}
	printMetrics(out, "end to end", res.EndToEnd, endToEnd)
	if res.PerLayer != nil {
		printMetrics(out, "per layer (S = /stats delta, R = replay ladder, C = computed from tensor sizes)", res.PerLayer, perLayer)
	}
	out("  outputs checked: %d", res.Checked)
}

// driverLine is the one JSON object BENCHMARK.json's contract wants last
// on standard output.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runDriver is one contract run: one workload, --trace 0 for the
// bounded end-to-end set, --trace 1 for the per-layer set.
func runDriver(ctx context.Context, o options, sz sizing, out func(string, ...any)) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e, err := prepare(ctx, sz, o.dir, out)
	if err != nil {
		return err
	}
	setups := sz.setups
	if o.trace != 0 {
		setups = 1 // setup_s is not in the traced set; its repetitions buy nothing there
	}
	res, err := measure(ctx, e, w, o, setups)
	if err != nil {
		return err
	}
	checkErr := verdict(res)
	if checkErr != nil {
		out("output check failed: %v", checkErr)
	}
	line := driverLine{Correct: checkErr == nil, Metrics: metricSet{}}
	line.Attempted, line.Failed = res.attempted()
	if o.trace == 0 {
		for _, d := range endToEnd[:driverEndToEnd] {
			line.Metrics[d.Name] = res.EndToEnd[d.Name]
		}
	} else {
		for name, v := range res.PerLayer {
			line.Metrics[name] = v
		}
		for _, d := range endToEnd[driverEndToEnd:] {
			if v, ok := res.EndToEnd[d.Name]; ok {
				line.Metrics[d.Name] = v
			}
		}
		line.Metrics.fill(driverPerLayer)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	out("%s", raw)
	return nil
}

// suiteResult is the result file: every run, and per (workload, metric)
// the median and quartiles over the repetitions.
type suiteResult struct {
	Tool      string                        `json:"tool"`
	Claim     *string                       `json:"claim"` // always null: the benchmark claims no gain
	Commit    string                        `json:"commit"`
	Seed      int64                         `json:"seed"`
	Reps      int                           `json:"reps"`
	Seconds   float64                       `json:"seconds_per_workload"` // 0: full phase lengths
	Smoke     bool                          `json:"smoke"`
	Host      hostInfo                      `json:"host"`
	Summary   map[string]map[string]summary `json:"summary"`
	Workloads map[string]opCount            `json:"ops"`
	Runs      [][]*workloadResult           `json:"runs"`
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

type opCount struct {
	Sent   int `json:"ops_sent"`
	Failed int `json:"ops_failed"`
}

func runSuite(ctx context.Context, o options, sz sizing, out func(string, ...any)) error {
	e, err := prepare(ctx, sz, o.dir, out)
	if err != nil {
		return err
	}
	host := readHost()
	out("prionnbench: seed %d, %d rep(s), nproc %d, generator GOMAXPROCS %d, prionnd GOMAXPROCS %d, prep %.1f s",
		o.seed, o.reps, host.NProc, host.GeneratorProcs, host.DaemonProcs, e.prepS)
	sr := &suiteResult{
		Tool: "prionnbench", Commit: commit(), Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Smoke: o.smoke,
		Host: host, Workloads: map[string]opCount{},
	}
	var failures []string
	for rep := 0; rep < o.reps; rep++ {
		e.machine = nil // measured afresh each repetition
		var run []*workloadResult
		for _, w := range workloads {
			res, err := measure(ctx, e, w, o, sz.setups)
			if err != nil {
				return err
			}
			run = append(run, res)
			c := sr.Workloads[w.name]
			sent, failed := res.attempted()
			sr.Workloads[w.name] = opCount{c.Sent + sent, c.Failed + failed}
			if err := verdict(res); err != nil {
				failures = append(failures, err.Error())
			}
			if n := res.openLoopFailed(); n > 0 {
				failures = append(failures, fmt.Sprintf("%s: %d open-loop requests failed", w.name, n))
			}
		}
		sr.Runs = append(sr.Runs, run)
	}
	sr.summarise()

	path := o.outFile
	if path == "" {
		path = filepath.Join(o.dir, "result.json")
	}
	raw, err := json.MarshalIndent(sr, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	out("result written to %s", path)
	if len(failures) > 0 {
		return errors.New("checks failed:\n  " + strings.Join(failures, "\n  "))
	}
	return nil
}

func (sr *suiteResult) summarise() {
	sr.Summary = map[string]map[string]summary{}
	for i, w := range workloads {
		sr.Summary[w.name] = map[string]summary{}
		for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			var v []float64
			for _, run := range sr.Runs {
				for _, set := range []metricSet{run[i].EndToEnd, run[i].PerLayer} {
					if m, ok := set[def.Name]; ok {
						v = append(v, m.Value)
					}
				}
			}
			if len(v) > 0 {
				q1, med, q3 := quartiles(v)
				sr.Summary[w.name][def.Name] = summary{Median: med, Q1: q1, Q3: q3, Unit: def.Unit, N: len(v)}
			}
		}
	}
	// The per-layer values live on in the summary; the runs keep what
	// -compare and a reader of one run need.
	for _, run := range sr.Runs {
		for _, res := range run {
			res.PerLayer = nil
		}
	}
}

// commit names the measured commit when the checkout is a git one.
func commit() string {
	raw, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
