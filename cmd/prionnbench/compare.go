package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sr.Tool != "prionnbench" || sr.Summary == nil {
		return nil, fmt.Errorf("%s: not a prionnbench result file", path)
	}
	return &sr, nil
}

// judge compares a change's summary with the base's for one metric:
// "unresolved" when either side's quartile spread is wider than the
// bound, else "worse"/"better" when the medians differ by more than the
// bound in that direction, else "same". ratio is change ÷ base.
func judge(def metricDef, base, change summary) (verdict string, ratio float64) {
	ratio = change.Median / base.Median
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Median }
	if spread(base) > def.Bound || spread(change) > def.Bound {
		return "unresolved", ratio
	}
	worse := ratio - 1
	if def.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse > def.Bound:
		return "worse", ratio
	case worse < -def.Bound:
		return "better", ratio
	}
	return "same", ratio
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 when any row is worse or the change failed a larger share
// of its operations.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	var results [2]*suiteResult
	for i, path := range []string{basePath, changePath} {
		sr, err := loadResult(path)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "prionnbench:", err)
			return 2
		}
		results[i] = sr
	}
	return compareResults(results[0], results[1], stdout)
}

func compareResults(base, change *suiteResult, stdout io.Writer) int {
	out := func(format string, args ...any) { _, _ = fmt.Fprintf(stdout, format+"\n", args...) }
	out("base:   commit %s seed %d reps %d", base.Commit, base.Seed, base.Reps)
	out("change: commit %s seed %d reps %d", change.Commit, change.Seed, change.Reps)
	out("%-13s %-15s %-6s %32s %32s %18s %6s  %s", "workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "ratio", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			b, okB := base.Summary[w.name][def.Name]
			c, okC := change.Summary[w.name][def.Name]
			if !okB && !okC {
				continue // the workload does not run that phase
			}
			if !okB || !okC {
				out("%-13s %-15s present in only one file", w.name, def.Name)
				code = 1
				continue
			}
			verdict, ratio := judge(def, b, c)
			if verdict == "worse" {
				code = 1
			}
			out("%-13s %-15s %-6s %10.4f [%9.4f, %9.4f] %10.4f [%9.4f, %9.4f] %7.4f of %8.4f %5.0f%%  %s",
				w.name, def.Name, def.Unit, b.Median, b.Q1, b.Q3, c.Median, c.Q1, c.Q3, ratio, b.Median, 100*def.Bound, verdict)
		}
		fb := ratio(float64(base.Workloads[w.name].Failed), float64(base.Workloads[w.name].Sent))
		fc := ratio(float64(change.Workloads[w.name].Failed), float64(change.Workloads[w.name].Sent))
		if fc > fb {
			out("%-13s ops_failed ÷ ops_sent rose from %.6f to %.6f", w.name, fb, fc)
			code = 1
		}
	}
	return code
}
