#!/bin/sh
# Benchmark trajectory: run the model-checking benchmarks (the serve
# presets on the 65,329-state handshake router), the solver benchmarks
# (the CSR stationary sweep against its closure-dispatch reference,
# SCC-block absorption, uniformization, policy-iteration bounds), the
# serving benchmarks (cold solve vs content-addressed cache hit over
# HTTP), the composition
# benchmarks (sequential vs hash-sharded generation of the ~100k-state
# product), the sweep benchmarks (3x3 fame grid cold vs warm vs naive
# per-point re-solve, measuring the artifact sharing across grid points)
# and process-calculus state-space generation (the 65,329-state
# handshake router) with a benchstat-friendly repeat count, keep the raw
# `go test` output for `benchstat old.txt new.txt` comparisons, and write
# a compact JSON summary. Both go to the git-ignored .bench_build/ by
# default (bench.txt, bench.json), so a sanity run leaves the tree
# clean; a ledger entry for the perf trajectory is written on purpose:
#
#   OUT_TXT=BENCH_PR<n>.txt OUT_JSON=BENCH_PR<n>.json scripts/bench.sh
#
# Run via `make bench-solver`; tune with COUNT/BENCH/OUT_*.
#
#   scripts/bench.sh --compare BENCH_PR15.json
#
# additionally prints a per-benchmark delta table (mean vs mean) against
# a previous summary after the run.
set -eu

COMPARE=""
if [ "${1:-}" = "--compare" ]; then
    COMPARE="${2:?usage: bench.sh --compare PREV.json}"
    shift 2
fi

COUNT="${COUNT:-6}"
BENCH="${BENCH:-ModelCheckRouter|SteadyStateLargeChain$|SteadyStateLargeChainClosures|AbsorptionMultiBSCC|TransientLargeChain|ThroughputBoundsPolicy|ServeSolve|ComposeSeq100k|ComposeParallel100k|SweepFameCold|SweepFameWarm|SweepFameNaive|StateSpaceGeneration}"
OUT_TXT="${OUT_TXT:-.bench_build/bench.txt}"
OUT_JSON="${OUT_JSON:-.bench_build/bench.json}"
mkdir -p "$(dirname "$OUT_TXT")" "$(dirname "$OUT_JSON")"

echo "bench: running [$BENCH] x$COUNT"
go test -run XXX -bench "$BENCH" -benchtime 1x -count "$COUNT" . ./internal/serve | tee "$OUT_TXT"

awk -v count="$COUNT" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++k] = name }
    sum[name] += $3; cnt[name]++
    if (!(name in mn) || $3 < mn[name]) mn[name] = $3
}
END {
    printf "{\n  \"count\": %d,\n  \"benchmarks\": [\n", count
    for (i = 1; i <= k; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"runs\": %d, \"mean_ns_per_op\": %.0f, \"min_ns_per_op\": %.0f}%s\n", \
            name, cnt[name], sum[name] / cnt[name], mn[name], (i < k) ? "," : ""
    }
    printf "  ]\n}\n"
}
' "$OUT_TXT" > "$OUT_JSON"

echo "bench: wrote $OUT_TXT (benchstat) and $OUT_JSON (summary)"

# Headline sweep numbers: warm and cold sweep speedup over the naive
# per-point re-solve, and the warm cache hit rate, appended to both
# outputs so the trajectory records the sharing win.
awk '
/^BenchmarkSweepFameCold/  { cold += $3; nc++ }
/^BenchmarkSweepFameWarm/  { warm += $3; nw++; if (NF >= 5) { hits += $5; nh++ } }
/^BenchmarkSweepFameNaive/ { naive += $3; nn++ }
END {
    if (nc && nw && nn && warm && cold) {
        printf "sweep: naive/warm %.1fx, naive/cold %.1fx", \
            (naive / nn) / (warm / nw), (naive / nn) / (cold / nc)
        if (nh) printf ", warm cache hits/point %.1f", hits / nh
        printf "\n"
    }
}
' "$OUT_TXT" | tee -a "$OUT_TXT"

if [ -n "$COMPARE" ]; then
    echo "bench: delta vs $COMPARE (negative = faster now)"
    awk -v oldf="$COMPARE" '
    function grab(line,   name, mean) {
        # One benchmark object per line in the summary format.
        if (match(line, /"name": "[^"]*"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"mean_ns_per_op": [0-9.]+/))
                return name SUBSEP substr(line, RSTART + 18, RLENGTH - 18)
        }
        return ""
    }
    BEGIN {
        while ((getline line < oldf) > 0) {
            kv = grab(line)
            if (kv != "") { split(kv, a, SUBSEP); old[a[1]] = a[2] + 0 }
        }
        close(oldf)
    }
    {
        kv = grab($0)
        if (kv == "") next
        split(kv, a, SUBSEP); name = a[1]; mean = a[2] + 0
        if (name in old && old[name] > 0)
            printf "  %-44s %12.1fms -> %10.1fms  %+7.1f%%\n", \
                name, old[name] / 1e6, mean / 1e6, 100 * (mean - old[name]) / old[name]
        else
            printf "  %-44s %25s -> %10.1fms      new\n", name, "", mean / 1e6
    }
    ' "$OUT_JSON"
fi
