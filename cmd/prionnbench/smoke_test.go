package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// daemonsRunning counts live processes whose executable is bin.
func daemonsRunning(t *testing.T, bin string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	n := 0
	for _, e := range entries {
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			n++
		}
	}
	return n
}

// TestSmoke runs the whole tool at tiny scale — all four workloads, the
// replay ladder, the result file — and checks that every metric the
// registry names comes out, once, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs prionnd")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	if n := daemonsRunning(t, filepath.Join(dir, "prionnd")); n != 0 {
		t.Errorf("%d prionnd still running after the suite", n)
	}
	sr, err := loadResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Claim != nil {
		t.Error("the benchmark claims no gain: claim must be null")
	}
	if len(sr.Runs) != 1 || len(sr.Runs[0]) != len(workloads) {
		t.Fatalf("want one run of %d workloads, got %d runs", len(workloads), len(sr.Runs))
	}

	emitted := map[string]int{}
	for i, res := range sr.Runs[0] {
		w := workloads[i]
		if res.Name != w.name {
			t.Fatalf("workload %d is %s, want %s", i, res.Name, w.name)
		}
		for name, v := range sr.Summary[w.name] {
			def, ok := metricByName[name]
			if !ok {
				t.Errorf("%s: metric %s is not in the registry", w.name, name)
			} else if v.Unit != def.Unit || v.Unit == "" || v.N != 1 {
				t.Errorf("%s: %s has unit %q (want %q) from %d values (want 1)", w.name, name, v.Unit, def.Unit, v.N)
			}
			emitted[name]++
		}
		// A workload reports the end-to-end metrics whose phase it runs.
		want := map[string]bool{"setup_s": true, "rss_mb": true}
		for _, p := range w.phases {
			for _, n := range []string{p.name, p.alias} {
				switch {
				case n == "":
				case p.rate == 0:
					want["sat_rps"] = true
				default:
					want["p50_ms."+n], want["p95_ms."+n] = true, true
				}
				if n == "mid" {
					want["cpu_ms_per_req"] = true
				}
			}
			if p.learn {
				want["retrain_s"] = true
			}
		}
		for name := range want {
			v, ok := res.EndToEnd[name]
			// /proc CPU times tick at 100 Hz: a sub-second smoke phase of cache
			// hits can cost the daemon less than one tick.
			if !ok || v.Value < 0 || (v.Value == 0 && name != "cpu_ms_per_req") {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.name, name, v)
			}
		}
		if len(res.EndToEnd) != len(want) {
			t.Errorf("%s: %d end-to-end metrics, want %d: %v", w.name, len(res.EndToEnd), len(want), res.EndToEnd)
		}
		if len(res.Phases) != len(w.phases) {
			t.Errorf("%s: %d phases reported, want %d", w.name, len(res.Phases), len(w.phases))
		}
		for _, p := range res.Phases {
			if p.OpsSent == 0 {
				t.Errorf("%s/%s: no operations sent", w.name, p.Name)
			}
		}
		if res.Checked == 0 || res.CheckError != "" {
			t.Errorf("%s: outputs checked %d, error %q", w.name, res.Checked, res.CheckError)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if emitted[def.Name] == 0 {
			t.Errorf("metric %s was emitted by no workload", def.Name)
		}
	}
	for _, name := range []string{"cluster.cache_hit_rate", "pilot.events", "retrain_s"} {
		if want := map[string]int{"cluster.cache_hit_rate": 2, "pilot.events": 1, "retrain_s": 1}[name]; emitted[name] != want {
			t.Errorf("%s emitted by %d workloads, want %d", name, emitted[name], want)
		}
	}
}

// TestDriverLineAndReap runs the contract's single-workload mode in both
// trace settings, then fails an output check on purpose: the daemon must
// be reaped on that path too.
func TestDriverLineAndReap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs prionnd")
	}
	dir := t.TempDir()
	for trace, defs := range map[string][]metricDef{"0": endToEnd[:driverEndToEnd], "1": driverPerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-out", dir, "--workload", "uniq_int8", "--seed", "3", "--seconds", "1", "--trace", trace}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s: exit %d\nstderr: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool            `json:"correct"`
			Attempted *int             `json:"attempted"`
			Failed    *int             `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("--trace %s: last line is not the contract's object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("--trace %s: correct/attempted/failed wrong in %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("--trace %s: metric %s missing or unit %q, want %q", trace, d.Name, v.Unit, d.Unit)
			}
			if trace == "0" && v.Value <= 0 && d.Name != "cpu_ms_per_req" { // sub-tick CPU at smoke scale
				t.Errorf("--trace 0: %s = %v, end-to-end metrics are never 0", d.Name, v.Value)
			}
		}
	}

	sz := smokeSizing()
	e, err := prepare(context.Background(), sz, dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	// An oracle that is another model: the check before timing must fail.
	other := sz.model
	other.Seed = 99
	p, err := trainCheckpoint(other, e.completed, filepath.Join(dir, "other.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if e.ref, err = p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("uniq_f32")
	_, err = e.runWorkload(context.Background(), w, 1, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "output check before timing") {
		t.Fatalf("a wrong oracle must fail the output check, got %v", err)
	}
	if n := daemonsRunning(t, e.bin); n != 0 {
		t.Errorf("%d prionnd still running after a failed check", n)
	}
}

var updateContract = flag.Bool("update-contract", false, "rewrite ../../BENCHMARK.json from the registry instead of checking it")

// contractRunSeconds is BENCHMARK.json's run_seconds: with three set-ups
// a run takes about 30 s, and the driver's 92 runs must end within 57 min.
const contractRunSeconds = 20

// writeContract renders BENCHMARK.json from the registry.
func writeContract(path string) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./cmd/prionnbench"}, Paths: []string{"cmd/prionnbench"}, RunSeconds: contractRunSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd[:driverEndToEnd] {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, driverBound})
	}
	for _, d := range driverPerLayer {
		doc.PerLayer = append(doc.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// BENCHMARK.json is the driver's copy of the registry; the two must not
// drift.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *updateContract {
		if err := writeContract(path); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./cmd/prionnbench" || len(doc.Paths) != 1 || doc.Paths[0] != "cmd/prionnbench" || doc.RunSeconds != contractRunSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v does not match %s (why ≤ 200 chars)", i, doc.Workloads[i], w.name)
		}
	}
	if len(doc.EndToEnd) != driverEndToEnd {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), driverEndToEnd)
	}
	for i, d := range endToEnd[:driverEndToEnd] {
		if m := doc.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != driverBound {
			t.Errorf("end_to_end[%d] = %+v does not match %+v at bound %v", i, m, d, driverBound)
		}
	}
	if len(doc.PerLayer) != len(driverPerLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (≤ 128)", len(doc.PerLayer), len(driverPerLayer))
	}
	for i, d := range driverPerLayer {
		if m := doc.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v does not match %+v", i, m, d)
		}
	}
}
