#!/usr/bin/env sh
# bench.sh — kernel + serving benchmark runner for the perf trajectory.
#
# Runs the compute-core benchmarks (GEMM, batched conv, dense training
# step, and the Fig. 4 end-to-end training probe) and rewrites
# BENCH_kernels.json with {ns_op, allocs_op} per benchmark, so each PR
# can diff throughput against the committed numbers of the previous one.
# Then runs the serving-throughput pair (64 concurrent clients through
# sequential batch-1 PredictOne vs the internal/serve coalescer), the
# lone-request latency probe and the bare float32 forward at batch 1, 2,
# 4 and 32, and rewrites BENCH_serve.json, including the per-prediction rate,
# the coalescing speedup ratio and lone_request_us. Then runs the
# cluster family (replica scaling, script-affinity caching) and rewrites
# BENCH_cluster.json with predictions/sec, cache hit rate, dispatch
# p50/p99, and the 4-replica aggregate speedup. Then runs the quantized
# f32-vs-int8 pairs (uncached serving and uncached 4-replica cluster on
# the conv-dominated FastConfig fixture) and the bare forward of both
# kernels at batch 1 and 32 (float32 also at 2 and 4, the batches a
# coalesced flush with company usually has) on one and on two cores,
# and rewrites BENCH_quant.json with the int8 speedups, snapshot size
# fraction, class disagreement rate, and forward_b<batch>_us per kernel.
# Finally runs the prionnvet gate-sweep benchmark and rewrites
# BENCH_analysis.json.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s; pass e.g. 1x for a
# smoke run that only checks the benchmarks still execute)

set -eu

cd "$(dirname "$0")/.."

benchtime="${1:-1s}"
pattern='^(BenchmarkGEMM|BenchmarkConvForward$|BenchmarkConvBackward$|BenchmarkMatMul128$|BenchmarkConv2DForward$|BenchmarkDenseTrainStep$|BenchmarkFig4TrainBinary$)'

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

serve_tmp="$(mktemp)"
cluster_tmp="$(mktemp)"
quant_tmp="$(mktemp)"
analysis_tmp="$(mktemp)"
pipeline_tmp="$(mktemp)"
trap 'rm -f "$tmp" "$serve_tmp" "$cluster_tmp" "$quant_tmp" "$analysis_tmp" "$pipeline_tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime="$benchtime" . | tee "$tmp"
# BenchmarkInferForwardF32B1/B2/B4/B32 is the float32 forward on its own (one
# PredictMapped, no mapping, no coalescer): ns_op there is per forward,
# not per prediction.
go test -run '^$' -bench '^(BenchmarkServe|BenchmarkInferForwardF32)' -benchmem -benchtime="$benchtime" ./internal/serve/ | tee "$serve_tmp"
go test -run '^$' -bench '^BenchmarkCluster' -benchmem -benchtime="$benchtime" ./internal/cluster/ | tee "$cluster_tmp"
go test -run '^$' -bench '^BenchmarkQuant' -benchmem -benchtime="$benchtime" ./internal/serve/ ./internal/cluster/ | tee "$quant_tmp"
# The bare forward, float32 beside int8, at -cpu 1,2: a batch-1 forward
# that is slower with a second core to fan out to (as the int8 one was
# before it got the float path's fan-out floor) shows here.
go test -run '^$' -bench '^BenchmarkInferForward' -benchmem -benchtime="$benchtime" -cpu 1,2 ./internal/serve/ | tee -a "$quant_tmp"
go test -run '^$' -bench '^BenchmarkPrionnvetRunAll$' -benchmem -benchtime="$benchtime" . | tee "$analysis_tmp"
go test -run '^$' -bench '^BenchmarkPipeline' -benchmem -benchtime="$benchtime" ./internal/pilot/ ./internal/cluster/ | tee "$pipeline_tmp"

# Only rewrite the committed snapshots on real timing runs; -benchtime=1x
# numbers are startup noise.
if [ "$benchtime" = "1x" ]; then
    echo "smoke run: BENCH_kernels.json, BENCH_serve.json, BENCH_cluster.json, BENCH_quant.json, BENCH_analysis.json, and BENCH_pipeline.json left untouched"
    exit 0
fi

awk '
BEGIN { print "{"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}", sep, name, ns, allocs
    sep = ",\n"
}
END { print "\n}" }
' "$tmp" > BENCH_kernels.json

echo "wrote BENCH_kernels.json"

# BENCH_serve.json additionally derives predictions/sec per serving
# benchmark, the coalescing speedup (sequential ns_op / coalesced ns_op)
# — the serving layer's headline number — and lone_request_us, what one
# sequential client waits per request through a default-config server
# (it is never held, so this is far below MaxDelay).
awk '
BEGIN { print "{"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"; batch = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "batch-size") batch = $(i - 1)
    }
    if (name ~ /Sequential64Clients$/) seq_ns = ns
    if (name ~ /Coalesced64Clients$/) coal_ns = ns
    if (name ~ /LoneRequest$/) lone_ns = ns
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s", sep, name, ns, allocs
    if (name ~ /^BenchmarkServe/) printf ", \"predictions_per_sec\": %.0f", 1e9 / ns
    if (batch != "") printf ", \"mean_batch_size\": %s", batch
    printf "}"
    sep = ",\n"
}
END {
    if (seq_ns != "" && coal_ns != "")
        printf "%s  \"coalescing_speedup\": %.2f", sep, seq_ns / coal_ns
    if (lone_ns != "")
        printf ",\n  \"lone_request_us\": %.1f", lone_ns / 1e3
    print "\n}"
}
' "$serve_tmp" > BENCH_serve.json

echo "wrote BENCH_serve.json"

# BENCH_cluster.json: the replicated-cluster family. Each entry derives
# predictions/sec and carries the cluster's own reported metrics (cache
# hit rate, dispatch-latency p50/p99); the trailing key is the headline
# aggregate speedup of the 4-replica affinity+cache configuration over
# the 1-replica cluster baseline. This host is single core, so the
# speedup is carried by the script-affinity prediction cache, not by
# loop parallelism.
awk '
BEGIN { print "{"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"; hit = ""; p50 = ""; p99 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "hit-rate") hit = $(i - 1)
        if ($i == "p50-ns") p50 = $(i - 1)
        if ($i == "p99-ns") p99 = $(i - 1)
    }
    if (name ~ /Cluster1Replica$/) one_ns = ns
    if (name ~ /Cluster4ReplicasAffinity$/) four_ns = ns
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s, \"predictions_per_sec\": %.0f", sep, name, ns, allocs, 1e9 / ns
    if (hit != "") printf ", \"cache_hit_rate\": %s", hit
    if (p50 != "") printf ", \"dispatch_p50_ns\": %.0f, \"dispatch_p99_ns\": %.0f", p50, p99
    printf "}"
    sep = ",\n"
}
END {
    if (one_ns != "" && four_ns != "")
        printf "%s  \"aggregate_speedup_4_replicas\": %.2f", sep, one_ns / four_ns
    print "\n}"
}
' "$cluster_tmp" > BENCH_cluster.json

echo "wrote BENCH_cluster.json"

# BENCH_quant.json: the f32-vs-int8 pairs on the conv-dominated fixture.
# Each entry derives predictions/sec; the int8 serving entry carries the
# snapshot sizes and the class disagreement rate vs float32. The derived
# trailing keys are the acceptance numbers: int8_speedup_serve and
# int8_speedup_cluster (f32 ns_op / int8 ns_op, uncached both times) and
# snapshot_fraction (int8 snapshot bytes / float32 checkpoint bytes);
# forward_b<batch>_us is one PredictMapped (three heads, no mapping, no
# coalescer) per kernel on one core and on two; batches 2 and 4 exist for
# float32 only.
awk '
BEGIN { print "{"; sep = "" }
/^BenchmarkInferForward/ {
    # BenchmarkInferForward<F32|I8>B<batch>[-<cpus>]; no suffix is -cpu 1.
    name = $1
    cpus = 1
    if (match(name, /-[0-9]+$/)) { cpus = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    kernel = (name ~ /I8B/) ? "int8" : "f32"
    batch = name; sub(/^.*B/, "", batch)
    for (i = 2; i <= NF; i++) if ($i == "ns/op") fwd[batch, kernel, cpus] = $(i - 1) / 1e3
    next
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"; snap = ""; dis = ""; p50 = ""; p99 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "snap-bytes") snap = $(i - 1)
        if ($i == "disagree-rate") dis = $(i - 1)
        if ($i == "p50-ns") p50 = $(i - 1)
        if ($i == "p99-ns") p99 = $(i - 1)
    }
    if (name ~ /QuantServeF32$/) serve_f32 = ns
    if (name ~ /QuantServeInt8$/) serve_int8 = ns
    if (name ~ /QuantCluster4F32NoCache$/) cluster_f32 = ns
    if (name ~ /QuantCluster4Int8NoCache$/) cluster_int8 = ns
    if (name ~ /QuantServeF32$/ && snap != "") f32_bytes = snap
    if (name ~ /QuantServeInt8$/ && snap != "") int8_bytes = snap
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s, \"predictions_per_sec\": %.0f", sep, name, ns, allocs, 1e9 / ns
    if (snap != "") printf ", \"snapshot_bytes\": %.0f", snap
    if (dis != "") printf ", \"class_disagree_rate\": %s", dis
    if (p50 != "") printf ", \"dispatch_p50_ns\": %.0f, \"dispatch_p99_ns\": %.0f", p50, p99
    printf "}"
    sep = ",\n"
}
END {
    if (serve_f32 != "" && serve_int8 != "")
        printf "%s  \"int8_speedup_serve\": %.2f", sep, serve_f32 / serve_int8
    if (cluster_f32 != "" && cluster_int8 != "")
        printf ",\n  \"int8_speedup_cluster\": %.2f", cluster_f32 / cluster_int8
    if (f32_bytes != "" && int8_bytes != "")
        printf ",\n  \"snapshot_fraction\": %.3f", int8_bytes / f32_bytes
    for (b = 1; b <= 32; b++)
        if ((b, "f32", 1) in fwd) {
            printf ",\n  \"forward_b%d_us\": {\"f32\": {\"cpu1\": %.0f, \"cpu2\": %.0f}", b, fwd[b, "f32", 1], fwd[b, "f32", 2]
            if ((b, "int8", 1) in fwd)
                printf ", \"int8\": {\"cpu1\": %.0f, \"cpu2\": %.0f}", fwd[b, "int8", 1], fwd[b, "int8", 2]
            printf "}"
        }
    print "\n}"
}
' "$quant_tmp" > BENCH_quant.json

echo "wrote BENCH_quant.json"

# BENCH_analysis.json: the full gate sweep (every checker over every
# package).
awk '
BEGIN { print "{"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}", sep, name, ns, allocs
    sep = ",\n"
}
END { print "\n}" }
' "$analysis_tmp" > BENCH_analysis.json

echo "wrote BENCH_analysis.json"

# BENCH_pipeline.json: the online-learning pipeline. Retrain is one
# full pipeline event (warm-start retrain + shadow eval + deploy
# decision); ShadowEval derives evaluations/sec; the CanaryOff/On pair
# derives the canary stage's request-overhead ratio (on ns_op / off
# ns_op, uncached dispatch both times).
awk '
BEGIN { print "{"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = "null"; allocs = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (name ~ /PipelineRetrain$/) retrain_ns = ns
    if (name ~ /PipelineShadowEval$/) shadow_ns = ns
    if (name ~ /PipelineCanaryOff$/) off_ns = ns
    if (name ~ /PipelineCanaryOn$/) on_ns = ns
    printf "%s  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s}", sep, name, ns, allocs
    sep = ",\n"
}
END {
    if (retrain_ns != "")
        printf "%s  \"retrain_latency_ms\": %.2f", sep, retrain_ns / 1e6
    if (shadow_ns != "")
        printf ",\n  \"shadow_evals_per_sec\": %.2f", 1e9 / shadow_ns
    if (off_ns != "" && on_ns != "")
        printf ",\n  \"canary_request_overhead\": %.3f", on_ns / off_ns
    print "\n}"
}
' "$pipeline_tmp" > BENCH_pipeline.json

echo "wrote BENCH_pipeline.json"
