#!/bin/sh
# bench_check.sh — the perf smoke gate. Runs the two benchmarks whose
# results are hard contracts, not just trajectory points, and fails on:
#
#   1. BenchmarkSimulationStep, or any BenchmarkStepStages stage,
#      reporting > 0 allocs/op — the hot control-cycle loop is zero-alloc
#      by design; a single allocation here multiplies by millions of
#      steps per campaign. The per-stage gate names the stage that
#      started allocating.
#   2. BenchmarkInstrumentedMixedWorkload/overhead reporting an
#      instrumentation overhead above 10% — the paired, interleaved
#      A/B measurement of the observability layer (sequential A/B runs
#      of this workload drift with the host and cannot gate anything).
#   3. BenchmarkDiskCacheStore losing the segment store's contracted
#      margins over a one-file-per-entry JSON baseline (a bench-only
#      layout, not a cache tier) at 1e5 entries: serving a disk hit must
#      stay >= 1.25x faster (both sides decode the outcome, so this is
#      the I/O margin alone) and the boot-time index rebuild >= 10x
#      faster. Both are paired interleaved measurements, so the ratios
#      gate cleanly even on a drifting host.
#
# Short bench times keep this a smoke test (a few minutes): it catches
# regressions of kind (an alloc appearing, overhead exploding, a cache
# speedup collapsing), not small percentage drifts — `make bench`
# tracks those. Every benchmark builds with the shipped profile (PGO),
# so the gates hold for the code the binaries run.
set -eu

GO=${GO:-go}
PGO=-pgo=cmd/adasimd/default.pgo
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT INT TERM

echo "bench-check: BenchmarkSimulationStep and BenchmarkStepStages (allocs/op gate)"
$GO test $PGO -run '^$' -bench 'BenchmarkSimulationStep$' -benchmem \
    -benchtime=10000x -timeout 10m . | tee "$OUT"
$GO test $PGO -run '^$' -bench 'BenchmarkStepStages' -benchmem \
    -benchtime=2000x -timeout 10m ./internal/core | tee -a "$OUT"
ALLOCS=$(awk '/^Benchmark(SimulationStep|StepStages\/)/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $1, $i }' "$OUT")
echo "$ALLOCS" | grep -q '^BenchmarkSimulationStep' || { echo "FAIL: no allocs/op in BenchmarkSimulationStep output"; exit 1; }
echo "$ALLOCS" | grep -q '^BenchmarkStepStages/' || { echo "FAIL: no allocs/op in BenchmarkStepStages output"; exit 1; }
BAD=$(echo "$ALLOCS" | awk '$2 > 0')
if [ -n "$BAD" ]; then
    echo "FAIL: the simulation step allocates (want 0 allocs/op):"
    echo "$BAD"
    exit 1
fi
echo "ok: simulation step and every stage are zero-alloc"

echo "bench-check: BenchmarkInstrumentedMixedWorkload/overhead (10% gate)"
$GO test $PGO -run '^$' -bench 'BenchmarkInstrumentedMixedWorkload/overhead$' \
    -benchtime=10x -timeout 10m . | tee "$OUT"
PCT=$(awk '/^BenchmarkInstrumentedMixedWorkload\/overhead/ { for (i = 1; i < NF; i++) if ($(i+1) == "overhead-%") print $i }' "$OUT")
[ -n "$PCT" ] || { echo "FAIL: no overhead-% in overhead bench output"; exit 1; }
awk -v p="$PCT" 'BEGIN {
    if (p + 0 > 10) { printf "FAIL: instrumentation overhead %.1f%% exceeds 10%%\n", p; exit 1 }
    printf "ok: instrumentation overhead %.1f%% <= 10%%\n", p }'

echo "bench-check: BenchmarkDiskCacheStore (segment store speedup gates)"
$GO test $PGO -run '^$' -bench 'BenchmarkDiskCacheStore' \
    -benchtime=20x -timeout 10m . | tee "$OUT"
HIT=$(awk '/^BenchmarkDiskCacheStore\/disk_hit/ { for (i = 1; i < NF; i++) if ($(i+1) == "hit-speedup-x") print $i }' "$OUT")
COLD=$(awk '/^BenchmarkDiskCacheStore\/cold_start/ { for (i = 1; i < NF; i++) if ($(i+1) == "coldstart-speedup-x") print $i }' "$OUT")
[ -n "$HIT" ] || { echo "FAIL: no hit-speedup-x in disk cache bench output"; exit 1; }
[ -n "$COLD" ] || { echo "FAIL: no coldstart-speedup-x in disk cache bench output"; exit 1; }
awk -v h="$HIT" -v c="$COLD" 'BEGIN {
    if (h + 0 < 1.25) { printf "FAIL: segment store disk hit only %.2fx faster than the JSON baseline (want >= 1.25x)\n", h; exit 1 }
    if (c + 0 < 10) { printf "FAIL: segment store cold start only %.2fx faster than the JSON baseline (want >= 10x)\n", c; exit 1 }
    printf "ok: segment store vs JSON baseline: disk hit %.2fx >= 1.25x, cold start %.2fx >= 10x\n", h, c }'
