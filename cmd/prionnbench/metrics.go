package main

import "fmt"

// metricDef names one metric the benchmark emits. The names are a
// contract: later changes claim gains by them (README.md has the
// glossary).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median a change may worsen it by
	Source string  // bench, S (/stats delta), R (replay ladder), C (computed), derived
}

// value is one emitted measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measurements by name and refuses a second write of
// the same name, so "emitted exactly once" is enforced where the
// numbers are produced.
type metricSet map[string]value

func (m metricSet) put(name string, v float64) {
	if _, dup := m[name]; dup {
		panic("prionnbench: metric emitted twice: " + name)
	}
	def, ok := metricByName[name]
	if !ok {
		panic("prionnbench: metric not in the registry: " + name)
	}
	m[name] = value{Value: v, Unit: def.Unit}
}

// fill gives every registry metric of the wanted kind that the workload
// did not produce the value 0: the workload does not run that phase or
// layer (README.md, "zeros").
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
}

// endToEnd is what a scheduler calling prionnd would see, with the
// bounds -compare applies. The first driverEndToEnd entries are the ones
// BENCHMARK.json bounds for the driver: every workload measures them and
// they repeated within driverBound on a shared 2-core host; the rest
// travel in the driver's unbounded --trace 1 set (README.md, "driver
// contract").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10, "bench"},
	{"p50_ms.lo", "ms", "lower", 0.08, "bench"},
	{"cpu_ms_per_req", "ms", "lower", 0.05, "bench"},
	{"rss_mb", "MB", "lower", 0.05, "bench"},
	{"p95_ms.lo", "ms", "lower", 0.10, "bench"},
	{"p50_ms.mid", "ms", "lower", 0.08, "bench"},
	{"p95_ms.mid", "ms", "lower", 0.10, "bench"},
	{"sat_rps", "req/s", "higher", 0.05, "bench"},
	{"p50_ms.quiet", "ms", "lower", 0.08, "bench"},
	{"p95_ms.quiet", "ms", "lower", 0.10, "bench"},
	{"p50_ms.learn", "ms", "lower", 0.08, "bench"},
	{"p95_ms.learn", "ms", "lower", 0.10, "bench"},
	{"retrain_s", "s", "lower", 0.10, "bench"},
}

// driverEndToEnd is how many leading entries of endToEnd the driver's
// --trace 0 line carries; driverBound is their bound in BENCHMARK.json,
// the widest the driver allows: a 20-second run on a shared host repeats
// far less well than -compare's bounds assume.
const (
	driverEndToEnd = 4
	driverBound    = 0.25
)

// blockNames are the model's compute blocks in forward order: conv +
// ReLU (+ pool where present), dense + ReLU, and the logits head.
var blockNames = []string{"conv1", "conv2", "conv3", "conv4", "fc1", "fc2", "fc3", "fc4"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"http.overhead_ms", "ms", "lower", 0, "R"},
		{"http.p99_ms.lo", "ms", "lower", 0, "bench"},
		{"http.p99_ms.mid", "ms", "lower", 0, "bench"},
		{"http.p999_ms.mid", "ms", "lower", 0, "bench"},
		{"http.gen_late_p99_ms", "ms", "lower", 0, "bench"},
		{"http.status_503", "count", "lower", 0, "bench"},
		{"http.status_other", "count", "lower", 0, "bench"},
		{"http.stall_slices", "count", "lower", 0, "bench"},

		{"cluster.cache_hit_rate", "frac", "higher", 0, "S"},
		{"cluster.dispatch_p50_ms", "ms", "lower", 0, "S"},
		{"cluster.dispatch_p99_ms", "ms", "lower", 0, "S"},
		{"cluster.retries", "count", "lower", 0, "S"},
		{"cluster.hedges", "count", "lower", 0, "S"},
		{"cluster.degraded", "count", "lower", 0, "S"},
		{"cluster.replica_imbalance", "frac", "lower", 0, "S"},
		{"cluster.hit_us", "us", "lower", 0, "R"},
		{"cluster.miss_overhead_us", "us", "lower", 0, "R"},
		{"cluster.swap_ms", "ms", "lower", 0, "R"},

		{"serve.mean_batch.lo", "req", "higher", 0, "S"},
		{"serve.mean_batch.mid", "req", "higher", 0, "S"},
		{"serve.mean_batch.sat", "req", "higher", 0, "S"},
		{"serve.map_ms_per_batch.mid", "ms", "lower", 0, "S"},
		{"serve.forward_ms_per_batch.mid", "ms", "lower", 0, "S"},
		{"serve.loop_busy_frac.mid", "frac", "lower", 0, "S"},
		{"serve.loop_busy_frac.sat", "frac", "higher", 0, "S"},
		{"serve.rejected", "count", "lower", 0, "S"},
		{"serve.coalesce_wait_ms", "ms", "lower", 0, "R"},
		{"serve.queue_wait_ms.mid", "ms", "lower", 0, "derived"},

		{"prionn.forward_ms.f32.b1", "ms", "lower", 0, "R"},
		{"prionn.forward_ms.f32.b32", "ms", "lower", 0, "R"},
		{"prionn.forward_ms.int8.b1", "ms", "lower", 0, "R"},
		{"prionn.forward_ms.int8.b32", "ms", "lower", 0, "R"},
		{"prionn.load_ms", "ms", "lower", 0, "R"},
		{"prionn.quantize_ms", "ms", "lower", 0, "R"},
		{"prionn.clone_ms", "ms", "lower", 0, "R"},
		{"prionn.snapshot_mb.f32", "MB", "lower", 0, "R"},
		{"prionn.snapshot_mb.int8", "MB", "lower", 0, "R"},
		{"prionn.int8_disagree_frac", "frac", "lower", 0, "R"},
		{"prionn.train_ms_per_job", "ms", "lower", 0, "R"},

		{"mapping.map_us_per_script", "us", "lower", 0, "R"},
	}
	for _, k := range []string{"f32", "int8"} {
		for _, b := range blockNames {
			d = append(d, metricDef{"nn.block_ms." + k + "." + b, "ms", "lower", 0, "R"})
		}
	}
	for _, b := range blockNames {
		d = append(d, metricDef{"nn.roofline_frac.f32." + b, "frac", "higher", 0, "C"})
	}
	d = append(d,
		metricDef{"nn.train_step_ms", "ms", "lower", 0, "R"},

		metricDef{"tensor.gemm_f32_gflops.peak", "GFLOP/s", "higher", 0, "R"},
		metricDef{"tensor.gemm_f32_gflops.conv", "GFLOP/s", "higher", 0, "R"},
		metricDef{"tensor.gemm_int8_gops.conv", "GOP/s", "higher", 0, "R"},
		metricDef{"tensor.im2col_f32_gbps", "GB/s", "higher", 0, "R"},
		metricDef{"tensor.im2col_u8_gbps", "GB/s", "higher", 0, "R"},
		metricDef{"tensor.pool_u8_gbps", "GB/s", "higher", 0, "R"},
		metricDef{"tensor.copy_gbps", "GB/s", "higher", 0, "R"},
		metricDef{"tensor.fwd_mflop_per_req", "MFLOP", "lower", 0, "C"},
		metricDef{"tensor.fwd_mb_per_req.f32", "MB", "lower", 0, "C"},
		metricDef{"tensor.fwd_mb_per_req.int8", "MB", "lower", 0, "C"},

		metricDef{"pilot.events", "count", "higher", 0, "S"},
		metricDef{"pilot.shadow_accepted", "count", "higher", 0, "S"},
		metricDef{"pilot.shadow_rejected", "count", "lower", 0, "S"},
		metricDef{"pilot.canary_starts", "count", "higher", 0, "S"},
		metricDef{"pilot.canary_promotions", "count", "higher", 0, "S"},
		metricDef{"pilot.canary_rollbacks", "count", "lower", 0, "S"},
		metricDef{"pilot.complete_503", "count", "lower", 0, "bench"},
		metricDef{"pilot.event_ms", "ms", "lower", 0, "R"},
		metricDef{"pilot.shadow_eval_ms", "ms", "lower", 0, "R"},
		metricDef{"pilot.ckpt_save_ms", "ms", "lower", 0, "R"},
		metricDef{"pilot.interference_ratio", "ratio", "lower", 0, "derived"},

		metricDef{"budget.sum_ms.lo", "ms", "lower", 0, "derived"},
		metricDef{"budget.gap_frac.lo", "frac", "lower", 0, "derived"},
		metricDef{"bench.prep_s", "s", "lower", 0, "bench"},
		metricDef{"bench.span_overhead_frac", "frac", "lower", 0, "R"},
	)
	return d
}

// driverPerLayer is the --trace 1 set: every per-layer metric plus the
// end-to-end figures the driver does not bound.
var driverPerLayer = append(append([]metricDef{}, perLayer...), endToEnd[driverEndToEnd:]...)

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if _, dup := m[d.Name]; dup {
			panic("prionnbench: duplicate metric name " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// printMetrics writes name, value and unit of each metric the set holds,
// in registry order.
func printMetrics(out func(string, ...any), title string, m metricSet, defs []metricDef) {
	out("  %s", title)
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		out("    %-34s %14.4f %-8s [%s]", d.Name, v.Value, v.Unit, d.Source)
	}
}

func mustMetric(m metricSet, name string) float64 {
	v, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("prionnbench: metric %s read before it was measured", name))
	}
	return v.Value
}
