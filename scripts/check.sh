#!/usr/bin/env sh
# check.sh — the full merge gate for the PRIONN reproduction.
#
# Runs, in order:
#   1. gofmt          (formatting drift)
#   2. go vet         (stock correctness checks)
#   3. go build       (everything compiles — and again for
#                      GOARCH=arm64, with go vet over tensor and nn, so
#                      the portable side of every assembly entry point,
#                      its gemm_generic.go stub, is compiled by the gate
#                      and not first by a user on another machine; then
#                      the structural gates: the f32 GEMM's right operand
#                      has one form — no pre-packed or implicit-im2col
#                      gemmView, no f32 packPanel — serving never
#                      reaches a u8 kernel, and the tensor package fans
#                      out in one place: no go statement and no
#                      MaxWorkers() call outside parallel.go)
#   4. prionnvet      (repo-specific reproducibility checks; see
#                      DESIGN.md "Static analysis & reproducibility
#                      gates" and cmd/prionnvet), then, by name, the
#                      tests that own the hazards it does not check:
#                      a same-seed report byte-identical, the
#                      seeded fault injector, the random forest's
#                      per-tree generators, coalesced == single-request
#                      answers, batch-invariant logits, the
#                      exact-zero guards of int8 scales and cosines,
#                      the online schedule's tie order, and a figure
#                      past its -timeout failing
#   5. go test        (tier-1 tests)
#   6. go test -race  (every package under the race detector, including
#                      the tensor.For/SetMaxWorkers hammer test: this
#                      step, not prionnvet, owns race-safety)
#   7. crash matrix   (fault-injection sweep: every injectable fault
#                      point during a checkpoint save, the streamed
#                      checkpoint's allocation ceiling: a load or a save
#                      never holds the file in memory, checkpoints
#                      written with the older meta or optimizer flag 0
#                      still loading, and Adam's moments refusing a
#                      parameter list they were not built for)
#   8. serve gate     (the serving layer's contract tests — coalesced
#                      == single bitwise, bounded-queue overload,
#                      graceful drain — rerun under the race detector
#                      with concurrent Predict+Swap, the coalescing
#                      rule: a lone or sequential caller is never held,
#                      the batch after one with company is, and Stop or
#                      a full batch releases it early; queue_depth
#                      never negative; the admission path's allocation
#                      ceiling; plus the read-only
#                      forward pin: many goroutines predicting on one
#                      shared f32 and one shared int8 snapshot, and the
#                      fused f32 inference forward's identity proofs:
#                      fused == layer-by-layer == train-mode bitwise
#                      (direct conv at its own edges, padded taps
#                      multiplied), the dense row kernel == MatMul at
#                      every batch size and skipping only exact zeros
#                      (±0, NaN, denormals, non-finite weights,
#                      underflow to −0; rows of a batch each with their
#                      own list), each vector kernel of the forward's
#                      bookkeeping — the conv tile's bias/ReLU store,
#                      the 2×2 max-pool, the nonzero scan — equal to
#                      its Go twin on its fuzz seeds, logits of float and int8 weights
#                      independent of batch size and position, view ==
#                      snapshot logits, private panels and conv strips
#                      dropped by training, and the arena's ownership
#                      rule: every activation a forward checks out is
#                      back when PredictMapped returns, the caller's
#                      input never is; the forward's allocation ceiling
#                      at batch 1, 4 and 32 with one worker and with two,
#                      and a snapshot holding its weights once; tensor.For's
#                      chunk bounds and its inline path allocating
#                      nothing; then the training conv: direct ==
#                      column path bitwise, the input-gradient kernel ==
#                      its Go twin, a whole 2D-CNN TrainBatch
#                      allocation-free, a training event leaving no
#                      scratch behind)
#   9. cluster chaos  (the replicated-cluster robustness matrix under
#                      the race detector: seeded chaos schedules with
#                      latency / error injection, cluster-wide swap
#                      purity, breaker transitions, retry-budget
#                      exhaustion, full degradation, an idle cluster
#                      computing nothing, hung-up callers not opening
#                      a breaker, and the serve drain-race pin)
#  10. quant gate     (int8 weights: accuracy within 0.5pp of float32
#                      on held-out jobs, bounded class flip rate, the
#                      agreement check refusing outlier weights, clone
#                      determinism, the v4 frame round trip bitwise and
#                      its prefix / bit-flip sweeps, the cluster cache's
#                      kernel-stamp invalidation and the allocation
#                      ceiling; then the u8 op chain the benchmark
#                      ladder still times — the graph-level naive oracle
#                      under the race detector and at -cpu 1,2,4,
#                      packed strips == im2col + GEMM)
#  11. start-up gate  (the weights-only checkpoint reader serving loads
#                      through: typed errors for every cut and flipped
#                      bit, optimizer counts checked and skipped,
#                      predictions == Load + Snapshot bitwise, in-place
#                      int8 == Load + SnapshotQuantized, and its
#                      allocation pin)
#  12. pipeline gate  (the online-learning loop under the race
#                      detector: retrain → shadow-eval → canary →
#                      atomic swap end-to-end on a live cluster,
#                      restart from the per-event checkpoint after a
#                      kill at every failpoint, refusal of a foreign
#                      checkpoint, shadow rejection of regressed
#                      candidates, one shared view across replicas and
#                      canary, canary rollback/promotion)
#  13. bench smoke    (one iteration of each kernel, serving, cluster,
#                      float32 / int8-weight serving pair, inference
#                      forward at batch 1, 2, 4 and 32 at -cpu 1,2, and
#                      analysis benchmark via
#                      scripts/bench.sh 1x; real timings are recorded
#                      separately into BENCH_kernels.json,
#                      BENCH_serve.json, BENCH_cluster.json,
#                      BENCH_quant.json, BENCH_analysis.json, and
#                      BENCH_pipeline.json)
#  14. go test -fuzz  (short smoke run of each fuzz target: the mapping
#                      crop/pad grid, the feature-directive parser,
#                      corrupt float checkpoint loading through Load and
#                      the weights-only reader alike, quantized ones,
#                      the dense row kernel against MatMul on
#                      arbitrary bit patterns, the stride-1 training
#                      conv against the column path on random geometries,
#                      and the conv tile, the 2×2 max-pool and the
#                      nonzero scan against their Go twins on arbitrary
#                      bit patterns)
#
# Steps 4 and 7–12 name their tests with -run filters and run them
# through `named`, which fails when a name in the filter matches no
# test.
# Each step reports its wall-clock seconds on completion, so a slow
# gate points at its own bottleneck. Exits nonzero on the first
# failure. No Makefile on purpose: this file is the single committed
# description of the gate, invoked directly by CI
# (.github/workflows/ci.yml) and by hand before sending a PR;
# `sh scripts/check.sh named GO_TEST_ARGS...` runs one named step alone.

set -eu

cd "$(dirname "$0")/.."

# step NAME starts a named, timed gate step; step_done prints the
# step's elapsed wall-clock seconds. A step that fails exits (set -e)
# before step_done, so timings only appear for steps that passed.
step() {
    step_name="$1"
    step_t0=$(date +%s)
    echo "== $step_name"
}
step_done() {
    echo "-- $step_name: $(($(date +%s) - step_t0))s"
}

# named GO_TEST_ARGS... runs `go test -v GO_TEST_ARGS...` for the named
# gates below and fails when any |-alternative of its -run pattern
# matched no test. A -run filter that selects nothing still passes
# ("ok ... [no tests to run]"), so without this a renamed or deleted
# test would silently drop out of its gate. The verbose log is printed
# only on failure. CI calls it as `sh scripts/check.sh named ...`.
named() {
    pattern=
    prev=
    for arg in "$@"; do
        [ "$prev" = -run ] && pattern=$arg
        prev=$arg
    done
    if [ -z "$pattern" ]; then
        echo "named: no -run pattern in: $*" >&2
        return 1
    fi
    log=$(mktemp)
    if ! go test -v "$@" >"$log" 2>&1; then
        cat "$log"
        rm -f "$log"
        return 1
    fi
    ran=$(sed -n 's/^=== RUN  *\([^/]*\).*/\1/p' "$log" | sort -u)
    grep '^ok' "$log" || true
    rm -f "$log"
    missing=
    set -f
    old_ifs=$IFS
    IFS='|'
    for alt in $pattern; do
        printf '%s\n' "$ran" | grep -Eq -- "$alt" || missing="$missing $alt"
    done
    IFS=$old_ifs
    set +f
    if [ -n "$missing" ]; then
        echo "named: -run '$pattern' ran no test for:$missing" >&2
        return 1
    fi
}

if [ "${1-}" = named ]; then
    shift
    named "$@"
    exit
fi

step "gofmt"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt needs to be run on:" >&2
    echo "$fmt_out" >&2
    exit 1
fi
step_done

step "go vet ./..."
go vet ./...
step_done

step "go build ./... (host, then GOARCH=arm64)"
go build ./...
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor ./internal/nn
# One B form: a second right-operand form threaded through the blocked
# GEMM (stored strips, an implicit-im2col packer) must not come back.
# packPanelU8, the int8 packer, is not matched.
if grep -nE 'packed +\*PackedB|conv +\*convGeom|func \(b gemmView\) panel' internal/tensor/gemm.go ||
    grep -rn 'packPanel(' internal/tensor --include='*.go'; then
    echo "internal/tensor: the f32 GEMM's right operand has one form, {data, rs, cs}" >&2
    exit 1
fi
# One serving forward: an int8 snapshot is float32 weights rounded
# through int8 and served by the float32 forward. The u8 op chain is the
# benchmark ladder's alone; nothing that serves may reach it.
if grep -rn 'Conv2DInferU8\|DenseInferU8\|QModel\|qruntime' internal/prionn internal/serve internal/cluster internal/pilot cmd/prionnd --include='*.go' --exclude='*_test.go'; then
    echo "serving reaches the u8 forward" >&2
    exit 1
fi
# One fan-out: tensor.For decides, in parallel.go, whether a kernel runs
# inline or on workers. A go statement or a MaxWorkers() read anywhere
# else in the package is a second copy of that decision.
if grep -nE '^[[:space:]]*go [^ ]|MaxWorkers\(\)' $(ls internal/tensor/*.go | grep -v -e '_test\.go$' -e '/parallel\.go$'); then
    echo "internal/tensor: fan out through For (parallel.go) only" >&2
    exit 1
fi
step_done

step "prionnvet ./..., then the hazard-owner tests"
go run ./cmd/prionnvet ./...
# These tests own reproducibility hazards prionnvet does not check:
# seeding, a generator shared across goroutines, batch composition
# leaking into answers, the exact float comparisons kept on purpose
# (DESIGN.md §6 gives the mutation each one catches), jobs ending in
# the same second reaching every predictor's training window in
# submission order, and an online figure past its deadline reported
# failed rather than late. Renaming or deleting one fails here rather
# than silently reopening a hazard.
named -count=1 -run 'TestSameSeedReportByteIdentical|TestSeededInjectorDeterministic|TestForestOrderingOnHPCLikeData|TestServeBatchedBitwiseIdenticalToSingle|TestSnapshotLogitsBatchInvariant|TestQuantizeChannelZeroChannel|TestSimilarityRange|TestReplayTiesInSubmissionOrder|TestRunTimeoutFailsSlowFigure' ./internal/experiments/ ./internal/fault/ ./internal/mlbase/ ./internal/serve/ ./internal/prionn/ ./internal/nn/ ./internal/word2vec/ ./internal/trace/ ./cmd/experiments/
step_done

step "go test ./..."
go test ./...
step_done

step "go test -race ./..."
go test -race ./...
step_done

# Crash matrix: rerun the fault-injection sweep explicitly (it is part
# of the suite above, but a named filter here keeps it visible as its own
# gate and guards against the tests being skipped or renamed away). It
# also runs two tests nothing else stands in for: Save always writes
# optimizer flag 1, so TestLoadInferenceWithoutOptimizerState is the only
# reader of a flag-0 frame, and TestAdamStateFollowsParamsOrder the only
# check that Adam's moments match the parameter list they step.
step "crash matrix (fault injection)"
named -count=1 -run 'TestSaveFileCrashMatrix|TestCheckpointAllocCeiling|TestLoadOldMetaWithResumeField|TestLoadInferenceWithoutOptimizerState|TestAdamStateFollowsParamsOrder' ./internal/prionn/ ./internal/nn/
step_done

# Serving gate: the coalescer's contract tests, explicitly and under
# the race detector (they also run in the suite above; the -run filter
# keeps serving correctness visible as its own gate and guards against
# the tests being renamed away), the load-adaptive coalescing rule and
# the queue_depth / allocation pins, the shared-snapshot pin every replica
# depends on (concurrent forwards over one Inference), and the bitwise
# identity of the fused float32 inference forward every answer — from
# float or int8 weights — comes from; the forward's allocation ceiling at
# one worker and at two, and tensor.For's chunk rule and allocation-free
# inline path.
step "serving gate (coalescing / overload / drain / shared view, -race)"
named -race -count=1 -run 'TestServeBatchedBitwiseIdenticalToSingle|TestServeOverloadBoundedQueue|TestServeGracefulDrainNoDrops|TestServeConcurrentPredictSwap' ./internal/serve/
named -race -count=1 -run 'TestServeLoneRequestNotHeld|TestServeSequentialClientNeverHeld|TestServeHeldAfterCompany|TestServeQueueDepthNeverNegative|TestServePredictAllocCeiling' ./internal/serve/
named -race -count=1 -run 'TestSharedViewConcurrentPredict|TestViewSnapshotTrainForwardLogitsBitwise|TestSnapshotLogitsBatchInvariant|TestSnapshotPanelsPrivate|TestPredictMappedLeavesArenaFlat|TestTrainLeavesArenaFlat|TestInferForwardReturnsActivations' ./internal/prionn/
named -count=1 -run 'TestInferForwardAllocCeiling|TestInferForwardAllocCeilingTwoWorkers|TestSnapshotHoldsWeightsOnce|TestQuantizedViewHoldsCodes|TestTrainEventLeavesNoScratch|TestInt8DenseMatchesRoundedFloatView' ./internal/prionn/
named -race -count=1 -run 'TestConv2DInferBitwiseMatchesLayerwise|TestConv2DInferSpecialValues|TestConv2DInferReturnsScratch|TestMatMulPackedBBitwiseMatchesMatMul|TestMulRowSkipsOnlyExactZeros|FuzzConvTile|FuzzMaxPool2x2|FuzzListNonzero' ./internal/tensor/
named -count=1 -run 'TestForChunkBounds|TestForInlineZeroAlloc' ./internal/tensor/
named -race -count=1 -run 'FuzzTrainConvDirect|TestTrainConvStridedKeepsColumnPath|TestConvBackTileGenericMatchesAsm' ./internal/tensor/
named -race -count=1 -run 'TestFusedForwardBitwiseMatchesLayerwise|TestTrainForwardDropsPackedPanels|TestInferenceForwardReturnsCheckOuts|TestServeInt8DropsDenseWeights' ./internal/nn/
named -count=1 -run 'ZeroAlloc' ./internal/nn/
step_done

# Cluster chaos matrix: the multi-replica layer's robustness proof,
# explicitly and under the race detector — seeded chaos (latency /
# error injection mid-traffic), cluster-wide snapshot purity, breaker
# state transitions, retry-budget exhaustion, graceful full
# degradation, the idle-cluster and caller-cancel pins — plus the serve
# drain-race exactly-once pin.
step "cluster chaos gate (fault injection, -race)"
named -race -count=1 -run 'TestClusterChaos|TestClusterSwapNeverMixesBatches|TestClusterFullyDegradedFallback|TestClusterRetryBudgetExhaustion|TestClusterBreakerOpensAndRecovers|TestClusterIdleRunsNoForward|TestClusterCallerCancelDoesNotOpenBreaker' ./internal/cluster/
named -race -count=1 -run 'TestServeStopRacesPredictSwapExactlyOnce' ./internal/serve/
step_done

# Quantized gate: the int8-weight snapshot's acceptance tests,
# explicitly (they also run in the suite above) — the accuracy gate vs
# float32 on held-out jobs, the agreement check refusing a snapshot its
# rounding breaks, clone determinism, every architecture through the v4
# frame bitwise, typed errors for every cut and flipped bit, the cluster
# cache refusing to serve one kernel's memoized predictions after a swap
# to the other, and the batch-1 allocation ceiling; then the u8 op chain
# the benchmark ladder times, equal to the naive op-by-op oracle (every
# batch size, worker count and micro-kernel; under the race detector and
# at several GOMAXPROCS).
step "quantized gate (accuracy / agreement / v4 frame / cache stamps / u8 ops)"
named -count=1 -run 'TestQuantizedSnapshotAccuracyGate|TestSnapshotQuantizedRejectsOutliers|TestQuantizedSnapshotDeterministicAcrossClones|TestQuantizeAllArchitectures|TestQuantizedSnapshotPersistRoundTrip|TestQuantizedLoadTypedErrors|TestPredictMappedAllocCeiling' ./internal/prionn/
named -count=1 -run 'TestClusterSwapKernelInvalidatesCache' ./internal/cluster/
named -race -count=1 -run 'TestQuantForwardBitwiseMatchesNaive' ./internal/nn/
named -count=1 -cpu 1,2,4 -run 'TestQuantForwardBitwiseMatchesNaive' ./internal/nn/
named -race -count=1 -run 'TestGemmInt8PackedMatches|TestConvPlaneU8MatchesIm2ColGemm' ./internal/tensor/
step_done

# Serving start-up gate: the weights-only checkpoint reader a serving
# daemon loads through — the prefix and bit-flip sweeps through it as
# well as Load, optimizer counts that disagree with the model refused,
# frames without moments (flag 0, Adam step 0) accepted, predictions
# bitwise equal to Load + Snapshot for every architecture, the in-place
# int8 rounding equal to Load + SnapshotQuantized (saved bytes and
# agreement, in the package and through prionnd -load -quant), and the
# allocation pin: the parameters' bytes plus 1 MiB, no moment tensor and
# no second weight copy.
step "serving start-up gate (weights-only load / in-place int8)"
named -count=1 -run 'TestLoadTypedErrors|TestLoadInferenceRejectsOptimizerMismatch|TestLoadInferenceWithoutOptimizerState|TestLoadInferenceMatchesSnapshot|TestLoadInferenceQuantizedMatchesSnapshotQuantized|TestLoadInferenceAllocCeiling' ./internal/prionn/
named -count=1 -run 'TestRunLoadQuantMatchesSnapshotQuantized|TestStatsSnapshotBytes' ./cmd/prionnd/
step_done

# Online-learning pipeline gate: the full retrain → shadow-eval →
# canary → atomic swap loop under the race detector — a live cluster
# with concurrent traffic, restart from the per-event checkpoint after a
# kill at every failpoint, refusal of a foreign or unreadable checkpoint,
# shadow rejection of a deliberately regressed candidate, replicas and
# canary sharing one view, and canary rollback/promotion.
step "pipeline gate (retrain/shadow/canary/swap, -race)"
named -race -count=1 -run 'TestPipelineEndToEnd|TestPilotRestartFromEveryFailpoint|TestPilotNewRejectsForeignCheckpoint|TestPilotShadowRejectsRegression|TestEvaluateEdgeWindows' ./internal/pilot/
named -race -count=1 -run 'TestClusterSharesOneView|TestCanaryPromotion|TestCanaryAutoRollback|TestCanaryDisagreementRollback' ./internal/cluster/
step_done

# Benchmark smoke: one iteration of each kernel, serving, quantized,
# and analysis benchmark proves the perf-trajectory harness still runs;
# timings come from scripts/bench.sh.
step "benchmark smoke (1 iteration)"
sh scripts/bench.sh 1x > /dev/null
step_done

# Fuzz smoke runs: a few seconds per target keeps the gate fast while
# still exercising the engine-generated corpus. One package per
# invocation — the fuzzer requires it.
step "go test -fuzz (smoke)"
go test -fuzz=FuzzStandardize -fuzztime=3s -run='^$' ./internal/mapping/
go test -fuzz=FuzzMapScript -fuzztime=3s -run='^$' ./internal/mapping/
go test -fuzz=FuzzExtract -fuzztime=3s -run='^$' ./internal/features/
go test -fuzz=FuzzSplitDirective -fuzztime=3s -run='^$' ./internal/features/
go test -fuzz=FuzzLoadPredictor -fuzztime=3s -run='^$' ./internal/prionn/
go test -fuzz=FuzzQuantizedLoad -fuzztime=3s -run='^$' ./internal/prionn/
go test -fuzz=FuzzMulRow -fuzztime=3s -run='^$' ./internal/tensor/
go test -fuzz=FuzzTrainConvDirect -fuzztime=3s -run='^$' ./internal/tensor/
go test -fuzz=FuzzConvTile -fuzztime=3s -run='^$' ./internal/tensor/
go test -fuzz=FuzzMaxPool2x2 -fuzztime=3s -run='^$' ./internal/tensor/
go test -fuzz=FuzzListNonzero -fuzztime=3s -run='^$' ./internal/tensor/
step_done

echo "all checks passed"
