package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"prionn/internal/prionn"
	"prionn/internal/trace"
)

// sizing is everything that differs between the real benchmark and the
// -smoke run that go test makes: the model, the pool and the rates.
type sizing struct {
	model       prionn.Config // checkpoint architecture and online-loop cadence
	daemonJobs  int           // prionnd -jobs: its calibration trace, and the checkpoint's training trace
	pool        int           // distinct scripts in the request pool
	rateScale   float64       // multiplies every open-loop rate
	completeRPS float64       // POST /complete rate in a learning phase
	seconds     float64       // measured seconds per workload when -seconds is not given (0: the nominal phase lengths)
	setups      int           // daemon set-ups per workload; setup_s is their median
	replayReqs  int           // captured requests replayed down the ladder
	reps        int           // repetitions behind each replay-ladder median
	calibJobs   int           // completed jobs the int8 calibration sees (prionnd caps it at 256)
	peakGemm    int           // edge of the square GEMM behind tensor.gemm_f32_gflops.peak
}

func fullSizing() sizing {
	m := prionn.FastConfig()
	m.TrainWindow, m.Epochs, m.RetrainEvery, m.Seed = 96, 2, 48, 1
	return sizing{
		model: m, daemonJobs: 2000, pool: 2000, rateScale: 1, completeRPS: 16,
		setups: 3, replayReqs: 48, reps: 9, calibJobs: 256, peakGemm: 256,
	}
}

func smokeSizing() sizing {
	m := prionn.TinyConfig()
	m.Seed = 1
	return sizing{
		model: m, daemonJobs: 300, pool: 64, rateScale: 0.2, completeRPS: 150, seconds: 2.4,
		setups: 1, replayReqs: 4, reps: 1, calibJobs: 64, peakGemm: 64,
	}
}

// phaseDef is one timed stretch of a workload.
type phaseDef struct {
	name    string
	alias   string  // second name the same measurement is reported under
	rate    float64 // open-loop arrivals per second; 0 means closed loop
	nominal float64 // seconds at full length
	learn   bool    // POST /complete runs beside the predictions
}

// workloadDef is one traffic mix against one daemon configuration.
type workloadDef struct {
	name    string
	why     string
	flags   []string // prionnd flags besides -addr/-load/-jobs/-seed
	cluster bool
	quant   bool    // daemon serves the int8 snapshot
	learn   bool    // daemon runs the retrain pipeline (needs a checkpoint copy)
	unique  float64 // share of requests carrying a never-seen script
	phases  []phaseDef
}

const clusterFlags = "-replicas 2 -policy affinity -cache 4096"

// workloads are the four traffic mixes. Rates were sized on a 2-core
// host (README.md, "sizing"); the why strings are BENCHMARK.json's.
var workloads = []workloadDef{
	{
		name: "uniq_f32", unique: 1,
		why: "every request runs a float32 forward: tensor/nn f32 kernels and the serve coalescer do the work, caches and routing none",
		phases: []phaseDef{
			{name: "lo", rate: 60, nominal: 20},
			{name: "mid", rate: 300, nominal: 15},
			{name: "sat", nominal: 10},
		},
	},
	{
		name: "uniq_int8", unique: 1, quant: true, flags: []string{"-quant"},
		why: "same traffic through the int8 use of the shared layers (u8 im2col, packed s8 GEMM, requant); start-up pays quantization",
		phases: []phaseDef{
			{name: "lo", rate: 60, nominal: 20},
			{name: "mid", rate: 600, nominal: 15},
			{name: "sat", nominal: 10},
		},
	},
	{
		name: "hot_cluster", unique: 0.01, cluster: true, flags: strings.Fields(clusterFlags),
		why: "99% of requests are answered by router + memoizing cache: HTTP decode/encode, routing and cache locking dominate, a GEMM change must not show",
		phases: []phaseDef{
			{name: "lo", rate: 60, nominal: 20},
			{name: "mid", rate: 3000, nominal: 15},
			{name: "sat", nominal: 10},
		},
	},
	{
		name: "online_mixed", unique: 0.37, cluster: true, learn: true, flags: strings.Fields(clusterFlags),
		why: "37% unique scripts with POST /complete retraining beside /predict: backward passes, checkpoints, shadow eval and canary contend with serving",
		phases: []phaseDef{
			{name: "lo", rate: 60, nominal: 14},
			{name: "quiet", alias: "mid", rate: 200, nominal: 12},
			{name: "sat", nominal: 6},
			{name: "learn", rate: 200, nominal: 22, learn: true},
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// nominalSeconds is the workload's full measured length.
func (w workloadDef) nominalSeconds() float64 {
	var s float64
	for _, p := range w.phases {
		s += p.nominal
	}
	return s
}

// phaseLength scales a phase so the workload's phases sum to seconds.
func (w workloadDef) phaseLength(p phaseDef, seconds float64) time.Duration {
	if seconds <= 0 {
		seconds = w.nominalSeconds()
	}
	return time.Duration(p.nominal / w.nominalSeconds() * seconds * float64(time.Second))
}

// poolEntry is one pool script with everything a request body needs
// precomputed: a body is head + (fresh line) + tail.
type poolEntry struct {
	job  trace.Job
	head string // JSON up to and including the shebang line
	tail string // rest of the script and the closing fields
}

// buildPool draws the request pool: the first n distinct scripts of a
// seeded trace, in trace order.
func buildPool(seed int64, n int) []poolEntry {
	for jobs := 6 * n; ; jobs *= 2 {
		seen := map[string]bool{}
		var pool []poolEntry
		for _, j := range trace.Completed(trace.Generate(trace.Config{Seed: seed, Jobs: jobs})) {
			if seen[j.Script] {
				continue
			}
			seen[j.Script] = true
			pool = append(pool, newPoolEntry(j))
			if len(pool) == n {
				return pool
			}
		}
	}
}

func newPoolEntry(j trace.Job) poolEntry {
	cut := strings.IndexByte(j.Script, '\n') + 1 // 0 when the script is one line: the fresh line then leads
	return poolEntry{
		job:  j,
		head: `{"script":` + strings.TrimSuffix(jsonString(j.Script[:cut]), `"`),
		tail: strings.TrimPrefix(jsonString(j.Script[cut:]), `"`) + `,"requested_min":` + strconv.Itoa(j.RequestedMin) + "}",
	}
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// request is one generated /predict call.
type request struct {
	pool  int   // index into the pool
	fresh int64 // > 0: the never-seen job-name number inserted after the shebang
}

// script is the script text the request carries.
func (r request) script(pool []poolEntry) string {
	s := pool[r.pool].job.Script
	if r.fresh == 0 {
		return s
	}
	cut := strings.IndexByte(s, '\n') + 1
	return s[:cut] + freshLine(r.fresh) + "\n" + s[cut:]
}

// body is the request's JSON body.
func (r request) body(pool []poolEntry) string {
	e := pool[r.pool]
	if r.fresh == 0 {
		return e.head + e.tail
	}
	return e.head + freshLine(r.fresh) + `\n` + e.tail
}

func freshLine(n int64) string { return "#SBATCH --job-name=pb-" + strconv.FormatInt(n, 10) }

// stream is a seeded request sequence: Zipf(1.1) popularity over the
// pool, each request independently made fresh with probability unique.
type stream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	unique float64
	base   int64 // fresh numbers are base+1, base+2, ...: disjoint between streams
	n      int64
}

// streamSpan separates the fresh-number ranges of a workload's streams.
const streamSpan = 10_000_000

func newStream(seed int64, id int, poolSize int, unique float64) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
	return &stream{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1)),
		unique: unique,
		base:   int64(id) * streamSpan,
	}
}

func (s *stream) next() request {
	r := request{pool: int(s.zipf.Uint64())}
	if s.rng.Float64() < s.unique {
		s.n++
		r.fresh = s.base + s.n
	}
	return r
}

// arrivals is a seeded Poisson schedule: due-time offsets at the given
// rate until length.
func arrivals(seed int64, id int, rate float64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*2_000_003 + int64(id)))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return out
		}
		out = append(out, d)
	}
}

// completeBody is the POST /complete body for a finished job.
func completeBody(j trace.Job) string {
	return fmt.Sprintf(`{"script":%s,"requested_min":%d,"actual_sec":%d,"read_bytes":%d,"write_bytes":%d}`,
		jsonString(j.Script), j.RequestedMin, j.ActualSec, j.ReadBytes, j.WriteBytes)
}
