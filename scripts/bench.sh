#!/usr/bin/env bash
# bench.sh — run the table benchmarks, record the results as JSON, and
# optionally gate against a committed baseline.
#
# Usage:
#
#   scripts/bench.sh [bench-regexp]
#       Run the benchmarks and write $OUT.
#
#   scripts/bench.sh -compare [baseline] [bench-regexp]
#       Run the benchmarks to a temporary file and compare ns/op
#       against the baseline (default BENCH_CI.json) with
#       scripts/benchcmp. Exits non-zero when any benchmark regressed
#       by at least FAIL_PCT percent.
#
#   scripts/bench.sh -compare-files BASE NEW
#       Compare two existing result files without running anything.
#
# Environment:
#
#   IMPACT_BENCH_SCALE  trace scale passed to the suite (default: the
#                       baseline file's "scale", 0.05 for BENCH_CI.json)
#   BENCHTIME           go test -benchtime value (default: the baseline
#                       file's "benchtime", 1x for BENCH_CI.json)
#   OUT                 output file (default BENCH_CI.json)
#   WARN_PCT            -compare warning threshold (default 10)
#   FAIL_PCT            -compare failure threshold (default 25)
#
# Taking scale and benchtime from the baseline keeps a default run
# comparable with it: benchcmp rejects files recorded at a different
# scale or benchtime.
#
# The JSON maps each benchmark to its ns/op plus every custom metric
# the benchmark reports (miss2K%, traffic2K%, ...), so performance and
# correctness-bearing outputs are recorded side by side, along with the
# wall-clock seconds of the whole `go test -bench` invocation
# (wall_seconds, which includes the one-time suite preparation). The
# default pattern is the CI gate's: Tables 1, 6 and 9, the
# BenchmarkAnalyze family (static analyzer priced against the
# trace-driven simulator, incremental re-analysis, and the page-level
# BenchmarkAnalyzePages), the streaming benchmark
# (BenchmarkStreamSimulate: generate-and-simulate with no materialized
# trace), and the multi-core pair (BenchmarkStackPassSharded: the
# banded stack pass; BenchmarkSearchParallel: the portfolio search).
set -euo pipefail
cd "$(dirname "$0")/.."

WARN_PCT="${WARN_PCT:-10}"
FAIL_PCT="${FAIL_PCT:-25}"

compare() {
    go run ./scripts/benchcmp -base "$1" -new "$2" -warn "$WARN_PCT" -fail "$FAIL_PCT"
}

if [ "${1:-}" = "-compare-files" ]; then
    [ $# -eq 3 ] || { echo "usage: scripts/bench.sh -compare-files BASE NEW" >&2; exit 2; }
    compare "$2" "$3"
    exit
fi

MODE=run
BASELINE=BENCH_CI.json
if [ "${1:-}" = "-compare" ]; then
    MODE=compare
    shift
    # An argument that is an existing .json file is the baseline; the
    # rest is the benchmark pattern.
    if [ $# -ge 1 ] && [[ "$1" == *.json ]]; then
        BASELINE="$1"
        shift
    fi
fi

# field prints one top-level scalar of the baseline JSON.
field() {
    sed -n "s/^ *\"$1\": *\"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$BASELINE" | head -n 1
}
SCALE="${IMPACT_BENCH_SCALE:-$(field scale)}"
BENCHTIME="${BENCHTIME:-$(field benchtime)}"
if [ -z "$SCALE" ] || [ -z "$BENCHTIME" ]; then
    echo "bench.sh: $BASELINE gives no scale/benchtime; set IMPACT_BENCH_SCALE and BENCHTIME" >&2
    exit 2
fi
PATTERN="${1:-^Benchmark(Table(1|6|9)|Analyze|Stream|Stack|Search)}"
if [ "$MODE" = compare ]; then
    OUT="$(mktemp /tmp/bench.XXXXXX.json)"
else
    OUT="${OUT:-BENCH_CI.json}"
fi

start=$(date +%s.%N)
raw=$(IMPACT_BENCH_SCALE="$SCALE" go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" .)
wall=$(date +%s.%N | awk -v s="$start" '{printf "%.1f", $1 - s}')
printf '%s\n' "$raw"

printf '%s\n' "$raw" | awk -v scale="$SCALE" -v benchtime="$BENCHTIME" -v wall="$wall" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    metrics = sprintf("\"ns/op\": %s", $3)
    for (i = 5; i + 1 <= NF; i += 2)
        metrics = metrics sprintf(", \"%s\": %s", $(i + 1), $i)
    entry[n++] = sprintf("    \"%s\": { %s }", name, metrics)
}
END {
    printf "{\n  \"scale\": %s,\n  \"benchtime\": \"%s\",\n  \"wall_seconds\": %s,\n  \"benchmarks\": {\n", scale, benchtime, wall
    for (i = 0; i < n; i++)
        printf "%s%s\n", entry[i], (i < n - 1 ? "," : "")
    print "  }"
    print "}"
}' > "$OUT"

echo "wrote $OUT"

if [ "$MODE" = compare ]; then
    compare "$BASELINE" "$OUT"
fi
