package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"prionn/internal/fault"
	"prionn/internal/prionn"
	"prionn/internal/serve"
	"prionn/internal/trace"
)

// demoArgs keeps the daemon tests fast: tiny model, short trace.
func demoArgs(extra ...string) []string {
	base := []string{"-scale", "tiny", "-jobs", "150", "-seed", "5"}
	return append(base, extra...)
}

// TestRunDemo exercises the full in-process path: train, snapshot,
// coalesced serving under concurrent clients, drain, stats print.
func TestRunDemo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(demoArgs("-demo", "300", "-clients", "16", "-max-batch", "16"), &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "predictions/sec") {
		t.Fatalf("demo output missing throughput line:\n%s", out)
	}
	if !strings.Contains(out, "0 failed") {
		t.Fatalf("demo reported failures:\n%s", out)
	}
	if !strings.Contains(out, "served 300") {
		t.Fatalf("stats block should report 300 model predictions:\n%s", out)
	}
}

// TestRunDemoQuant drives the demo path on an int8-weight snapshot: the
// daemon trains, rounds its weights, checks them on the held-out slice,
// publishes the view and logs how many jobs the check ran on and each
// head's flip rate, and the stats block reports the int8 kernel and the
// snapshot's byte size.
func TestRunDemoQuant(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(demoArgs("-quant", "-demo", "200", "-clients", "8"), &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	published := regexp.MustCompile(`int8 snapshot published: [1-9][0-9]* check jobs, flip rate runtime [0-9.e-]+, read [0-9.e-]+, write [0-9.e-]+; [0-9]+ bytes`)
	if !published.MatchString(stderr.String()) {
		t.Fatalf("-quant must log the check's job count and per-head flip rates:\nstderr: %s", stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[int8] served 200") {
		t.Fatalf("stats block should report 200 model predictions under the int8 kernel:\n%s", out)
	}
	if !strings.Contains(out, "0 failed") {
		t.Fatalf("demo reported failures:\n%s", out)
	}
	if !strings.Contains(out, "snapshot: ") {
		t.Fatalf("stats block missing the snapshot byte-size line:\n%s", out)
	}
}

// TestRunHTTP boots the daemon on an ephemeral port, predicts over
// HTTP, reads stats, and shuts down via the test stop hook (the same
// path a SIGINT takes).
func TestRunHTTP(t *testing.T) {
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		code = run(demoArgs("-addr", "127.0.0.1:0", "-queue", "64"), &stdout, &stderr,
			func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()

	var st started
	select {
	case st = <-readyCh:
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + st.addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(predictRequest{
		Script:       "#!/bin/bash\nsrun ./lulesh.exe -s 32\n",
		RequestedMin: 120,
	})
	var pr predictResponse
	post, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if post.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", post.StatusCode)
	}
	if err := json.NewDecoder(post.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if !pr.FromModel {
		t.Fatalf("trained daemon served a fallback: %+v", pr)
	}
	if pr.RuntimeMin <= 0 {
		t.Fatalf("non-positive predicted runtime: %+v", pr)
	}

	// Malformed request → 400, not a wedged coalescer.
	bad, err := http.Post(base+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict status %d, want 400", bad.StatusCode)
	}

	stats, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]interface{}
	if err := json.NewDecoder(stats.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if served, ok := snap["served"].(float64); !ok || served < 1 {
		t.Fatalf("stats served = %v, want >= 1", snap["served"])
	}

	st.stop()
	wg.Wait()
	if code != 0 {
		t.Fatalf("daemon exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "served") {
		t.Fatalf("shutdown must print a final stats block:\n%s", stdout.String())
	}
}

// TestRunBadFlags pins CLI error handling.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "nope", "-demo", "1"}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("unknown scale: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown scale") {
		t.Fatalf("stderr: %s", stderr.String())
	}
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr, nil); code != 2 {
		t.Fatal("bad flag must exit 2")
	}
}

// TestReadmeFlagRowMatchesUsage pins the README's `go run ./cmd/prionnd`
// row to the flag set: it must name exactly the flags -h lists, so a
// flag cannot be added, renamed or removed without the table following.
func TestReadmeFlagRowMatchesUsage(t *testing.T) {
	var stdout, usage bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &usage, nil); code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	names := func(re *regexp.Regexp, text string) []string {
		seen := map[string]bool{}
		var out []string
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				out = append(out, m[1])
			}
		}
		sort.Strings(out)
		return out
	}
	flags := names(regexp.MustCompile(`(?m)^  (-[a-z-]+)`), usage.String())

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const rowStart = "| `go run ./cmd/prionnd` |"
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, rowStart) {
			row = strings.TrimPrefix(line, rowStart)
		}
	}
	if row == "" {
		t.Fatalf("README.md has no %q row", rowStart)
	}
	if got := names(regexp.MustCompile("`(-[a-z-]+)"), row); strings.Join(got, " ") != strings.Join(flags, " ") {
		t.Fatalf("README prionnd row names\n  %v\nbut -h lists\n  %v", got, flags)
	}
}

// TestRunDebugAddr: -debug-addr serves net/http/pprof on a listener of
// its own — the index answers there, the -addr mux does not know the
// path — and the drain closes it.
func TestRunDebugAddr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-jobs", "0", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, &stdout, &stderr,
			func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()
	var st started
	select {
	case st = <-readyCh:
	case code := <-done:
		t.Fatalf("daemon exited %d before serving\nstderr: %s", code, stderr.String())
	}
	// The daemon logs the bound debug address before it reports ready.
	m := regexp.MustCompile(`debug: pprof on (\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no debug listener logged:\n%s", stderr.String())
	}
	status := func(base string) int {
		t.Helper()
		resp, err := http.Get("http://" + base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(m[1]); got != http.StatusOK {
		t.Errorf("/debug/pprof/ on -debug-addr: status %d, want 200", got)
	}
	if got := status(st.addr); got != http.StatusNotFound {
		t.Errorf("/debug/pprof/ on -addr: status %d, want 404", got)
	}
	st.stop()
	if code := <-done; code != 0 {
		t.Fatalf("daemon exit %d\nstderr: %s", code, stderr.String())
	}
	if resp, err := http.Get("http://" + m[1] + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Error("debug listener still answers after the drain")
	}
}

// TestRunLoadMissingCheckpoint: a bad -load path is a clean error.
func TestRunLoadMissingCheckpoint(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-load", t.TempDir() + "/nope.ckpt", "-demo", "1"}, &stdout, &stderr, nil); code != 1 {
		t.Fatalf("missing checkpoint: exit %d, want 1", code)
	}
}

// TestRunDemoCluster runs the in-process demo through the replicated
// cluster engine: all requests answered from the model, none failed,
// and the cluster stats block (with per-replica lines) is printed.
func TestRunDemoCluster(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(demoArgs("-demo", "300", "-clients", "16", "-max-batch", "16",
		"-replicas", "3", "-policy", "affinity", "-cache", "512"), &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "0 degraded, 0 failed") {
		t.Fatalf("cluster demo must answer everything from the model:\n%s", out)
	}
	if !strings.Contains(out, "replica 0") || !strings.Contains(out, "replica 2") {
		t.Fatalf("cluster stats block missing per-replica lines:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "cluster: 3 replicas, affinity routing") {
		t.Fatalf("stderr missing cluster banner: %s", stderr.String())
	}
}

// TestRunHTTPCluster boots a 2-replica daemon, checks /readyz before
// and during the drain, predicts through the cluster (the reply carries
// the answering replica), and reads the cluster-shaped /stats.
func TestRunHTTPCluster(t *testing.T) {
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		code = run(demoArgs("-addr", "127.0.0.1:0", "-replicas", "2", "-cache", "64"),
			&stdout, &stderr, func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()

	var st started
	select {
	case st = <-readyCh:
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + st.addr

	rz, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d before drain, want 200", rz.StatusCode)
	}

	body, _ := json.Marshal(predictRequest{
		Script:       "#!/bin/bash\nsrun ./lulesh.exe -s 32\n",
		RequestedMin: 120,
	})
	// Twice: the second identical request should be a cache hit from the
	// same home replica.
	var first, second predictResponse
	for i, dst := range []*predictResponse{&first, &second} {
		post, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if post.StatusCode != http.StatusOK {
			t.Fatalf("predict %d status %d", i, post.StatusCode)
		}
		if err := json.NewDecoder(post.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
		post.Body.Close()
	}
	if !first.FromModel || first.Degraded || first.Replica == nil {
		t.Fatalf("first cluster reply: %+v", first)
	}
	if !second.Cached || second.RuntimeMin != first.RuntimeMin || *second.Replica != *first.Replica {
		t.Fatalf("second identical request should be a cache hit on the same replica: %+v vs %+v", second, first)
	}

	stats, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]interface{}
	if err := json.NewDecoder(stats.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	reps, ok := snap["replicas"].([]interface{})
	if !ok || len(reps) != 2 {
		t.Fatalf("cluster /stats must carry 2 replica snapshots: %v", snap["replicas"])
	}
	if hits, ok := snap["cache_hits"].(float64); !ok || hits < 1 {
		t.Fatalf("cluster /stats cache_hits = %v, want >= 1", snap["cache_hits"])
	}

	st.stop()
	wg.Wait()
	if code != 0 {
		t.Fatalf("daemon exit %d\nstderr: %s", code, stderr.String())
	}
}

// TestRunHTTPReadinessDrain pins the liveness/readiness split across a
// graceful drain: a -drain-grace window keeps the mux up after the stop
// signal, during which /readyz reports 503 while /healthz stays 200.
func TestRunHTTPReadinessDrain(t *testing.T) {
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(demoArgs("-addr", "127.0.0.1:0", "-drain-grace", "300ms"),
			&stdout, &stderr, func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()
	st := <-readyCh
	base := "http://" + st.addr

	st.stop()
	// Inside the grace window the daemon is alive but not ready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rz, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz during grace window: %v", err)
		}
		rz.Body.Close()
		if rz.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 after stop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz during grace window: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d during drain, want 200 (liveness is not readiness)", hz.StatusCode)
	}
	wg.Wait()
}

// TestRunHTTPNoFallbackNotReady: -jobs 0 serves fallback-only; under
// -no-fallback the daemon reports not-ready while /predict still
// answers with the requested runtime.
func TestRunHTTPNoFallbackNotReady(t *testing.T) {
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run([]string{"-addr", "127.0.0.1:0", "-jobs", "0", "-no-fallback"},
			&stdout, &stderr, func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()
	st := <-readyCh
	base := "http://" + st.addr

	rz, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("untrained -no-fallback daemon readyz status %d, want 503", rz.StatusCode)
	}

	body, _ := json.Marshal(predictRequest{Script: "x", RequestedMin: 42})
	post, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr predictResponse
	if err := json.NewDecoder(post.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if pr.FromModel || pr.RuntimeMin != 42 {
		t.Fatalf("untrained daemon must echo the requested runtime: %+v", pr)
	}
	st.stop()
	wg.Wait()
}

// TestRunHTTPRequestTimeout504: in single mode an expired
// -request-timeout surfaces as 504 Gateway Timeout, distinguishing the
// server's own deadline from client disconnects.
func TestRunHTTPRequestTimeout504(t *testing.T) {
	defer fault.DisarmAll()
	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(demoArgs("-addr", "127.0.0.1:0", "-request-timeout", "30ms"),
			&stdout, &stderr, func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()
	st := <-readyCh
	base := "http://" + st.addr

	// Stall the flush path past the request timeout.
	fault.Arm(serve.FailpointFlush, fault.Failure{Sleep: 300 * time.Millisecond})
	body, _ := json.Marshal(predictRequest{Script: "y", RequestedMin: 1})
	post, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled predict status %d, want 504", post.StatusCode)
	}
	fault.DisarmAll()
	st.stop()
	wg.Wait()
}

// TestRunHTTPPipeline closes the loop over the wire: a daemon started
// with no initial training (-jobs 0) learns online from POST /complete
// — the stream crosses -retrain-every, the candidate passes the shadow
// gate (trivially: no baseline yet), is promoted by the pipeline's
// ticker, and /predict flips from the requested-runtime fallback to
// model predictions — as does /readyz, 503 → 200 under -no-fallback.
// /stats carries the pipeline object throughout and the retrain
// checkpoint materializes on disk.
func TestRunHTTPPipeline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ckpt := t.TempDir() + "/retrain.ckpt"
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		code = run([]string{"-addr", "127.0.0.1:0", "-jobs", "0", "-scale", "tiny", "-seed", "5",
			"-retrain-every", "10", "-shadow-window", "8", "-retrain-ckpt", ckpt, "-no-fallback"},
			&stdout, &stderr, func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()

	var st started
	select {
	case st = <-readyCh:
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + st.addr

	// Before any completions: fallback predictions, idle pipeline.
	predictOnce := func() predictResponse {
		t.Helper()
		body, _ := json.Marshal(predictRequest{Script: "#!/bin/bash\nsrun ./lulesh.exe -s 32\n", RequestedMin: 120})
		post, err := http.Post(base+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer post.Body.Close()
		if post.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", post.StatusCode)
		}
		var pr predictResponse
		if err := json.NewDecoder(post.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	if pr := predictOnce(); pr.FromModel {
		t.Fatalf("untrained daemon must serve the fallback: %+v", pr)
	}
	// -no-fallback: not ready until the pilot publishes a trained
	// snapshot, ready from then on.
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before the first promotion = %d, want 503", code)
	}
	pipelineStats := func() map[string]interface{} {
		t.Helper()
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		pl, ok := snap["pipeline"].(map[string]interface{})
		if !ok {
			t.Fatalf("/stats missing the pipeline object: %v", snap)
		}
		return pl
	}
	if phase := pipelineStats()["phase"]; phase != "idle" {
		t.Fatalf("pipeline phase before completions = %v, want idle", phase)
	}

	// Malformed completions are rejected before touching the queue.
	for _, bad := range []string{`{`, `{"actual_sec": 60}`, `{"script": "x", "actual_sec": -1}`} {
		resp, err := http.Post(base+"/complete", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("complete(%s) status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Stream two retrain cadences' worth of finished jobs.
	jobs := trace.Completed(trace.Generate(trace.Config{Seed: 7, Jobs: 60}))
	for i := 0; i < 20; i++ {
		j := jobs[i%len(jobs)]
		body, _ := json.Marshal(completeRequest{
			Script: j.Script, InputDeck: j.InputDeck, RequestedMin: j.RequestedMin,
			ActualSec: j.ActualSec, ReadBytes: j.ReadBytes, WriteBytes: j.WriteBytes,
		})
		resp, err := http.Post(base+"/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("complete %d status %d, want 202", i, resp.StatusCode)
		}
	}

	// The first candidate has no baseline, passes the shadow gate
	// trivially, and the ticker promotes it into the serving path.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		pl := pipelineStats()
		if ev, _ := pl["events"].(float64); ev >= 1 {
			if promoted, _ := pl["canary_promotions"].(float64); promoted >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never promoted a candidate: %v", pipelineStats())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if pr := predictOnce(); !pr.FromModel {
		t.Fatalf("post-promotion prediction still a fallback: %+v", pr)
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after the first promotion = %d, want 200", code)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("retrain checkpoint missing after a training event: %v", err)
	}

	st.stop()
	wg.Wait()
	if code != 0 {
		t.Fatalf("daemon exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "pipeline:") {
		t.Fatalf("shutdown stats block missing the pipeline line:\n%s", stdout.String())
	}
}

// TestRunPipelineQuantRejected: online retraining publishes float32
// candidates, so combining it with -quant is a configuration error.
func TestRunPipelineQuantRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quant", "-retrain-every", "50", "-jobs", "100", "-scale", "tiny"},
		&stdout, &stderr, nil); code != 1 {
		t.Fatalf("-quant with -retrain-every: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// demoCheckpoint trains the predictor a daemon started with demoArgs
// trains (training is seeded, so it is the daemon's) and saves it to a
// file for -load.
func demoCheckpoint(t *testing.T) (*prionn.Predictor, string) {
	t.Helper()
	cfg := prionn.TinyConfig()
	cfg.Seed = 5
	completed := trace.Completed(trace.Generate(trace.Config{Seed: 5, Jobs: 150}))
	scripts := make([]string, len(completed))
	for i, j := range completed {
		scripts[i] = j.Script
	}
	p, err := prionn.New(cfg, scripts)
	if err != nil {
		t.Fatal(err)
	}
	window := completed
	if len(window) > cfg.TrainWindow {
		window = window[len(window)-cfg.TrainWindow:]
	}
	if _, err := p.Train(window); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	if err := p.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	return p, ckpt
}

// TestRunLoadQuantMatchesSnapshotQuantized: -load with -quant rounds the
// loaded weights in place and publishes the snapshot LoadFile followed by
// SnapshotQuantized builds on the same check slice — every answer bit for
// bit, and its int8 byte size on /stats — and logs the checkpoint's event
// count.
func TestRunLoadQuantMatchesSnapshotQuantized(t *testing.T) {
	_, ckpt := demoCheckpoint(t)
	loaded, err := prionn.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	check, err := checkSlice(trace.Completed(trace.Generate(trace.Config{Seed: 5, Jobs: 150})), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loaded.SnapshotQuantized(check)
	if err != nil {
		t.Fatal(err)
	}
	var q bytes.Buffer
	if err := want.SaveQuantized(&q); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	type started struct {
		addr string
		stop func()
	}
	readyCh := make(chan started, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-load", ckpt, "-quant", "-jobs", "150", "-seed", "5", "-addr", "127.0.0.1:0"}, &stdout, &stderr,
			func(addr string, stop func()) { readyCh <- started{addr, stop} })
	}()
	var st started
	select {
	case st = <-readyCh:
	case code := <-done:
		t.Fatalf("daemon exited %d before serving\nstderr: %s", code, stderr.String())
	}
	defer func() {
		st.stop()
		<-done
	}()
	for _, j := range check[:8] {
		body, _ := json.Marshal(predictRequest{Script: j.Script, RequestedMin: j.RequestedMin})
		resp, err := http.Post("http://"+st.addr+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got predictResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		w := want.PredictOne(j.Script)
		if !got.FromModel || got.RuntimeMin != w.RuntimeMin || got.ReadBytes != w.ReadBytes || got.WriteBytes != w.WriteBytes {
			t.Fatalf("daemon answered %+v, LoadFile+SnapshotQuantized %+v", got, w)
		}
	}
	resp, err := http.Get("http://" + st.addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Kernel        string `json:"kernel"`
		SnapshotBytes int64  `json:"snapshot_bytes"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kernel != string(prionn.KernelInt8) || snap.SnapshotBytes != int64(q.Len()) {
		t.Errorf("kernel %q, snapshot_bytes %d; want int8 and the int8 snapshot's %d", snap.Kernel, snap.SnapshotBytes, q.Len())
	}
	if !strings.Contains(stderr.String(), "(1 training events)") || !strings.Contains(stderr.String(), "int8 snapshot published: ") {
		t.Errorf("stderr lacks the restore line's event count or the int8 line:\n%s", stderr.String())
	}
}

// TestStatsSnapshotBytes pins the number /stats reports as
// snapshot_bytes: the -load file's size for a restored model, and what
// Save writes for one trained at start-up (training is seeded, so the
// test's own predictor is the daemon's).
func TestStatsSnapshotBytes(t *testing.T) {
	p, ckpt := demoCheckpoint(t)
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want int64
	}{
		{"trained", demoArgs(), int64(saved.Len())},
		{"loaded", []string{"-load", ckpt, "-jobs", "0"}, fi.Size()},
		{"loaded cluster", []string{"-load", ckpt, "-jobs", "0", "-replicas", "2"}, fi.Size()},
	} {
		var stdout, stderr bytes.Buffer
		type started struct {
			addr string
			stop func()
		}
		readyCh := make(chan started, 1)
		done := make(chan int, 1)
		go func() {
			done <- run(append(tc.args, "-addr", "127.0.0.1:0"), &stdout, &stderr,
				func(addr string, stop func()) { readyCh <- started{addr, stop} })
		}()
		var st started
		select {
		case st = <-readyCh:
		case code := <-done:
			t.Fatalf("%s: daemon exited %d before serving\nstderr: %s", tc.name, code, stderr.String())
		}
		resp, err := http.Get("http://" + st.addr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			SnapshotBytes int64 `json:"snapshot_bytes"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		st.stop()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if snap.SnapshotBytes != tc.want {
			t.Errorf("%s: snapshot_bytes = %d, want %d", tc.name, snap.SnapshotBytes, tc.want)
		}
	}
}
