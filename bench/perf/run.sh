#!/usr/bin/env bash
# Build siwi-bench (Release, into build-perf/) and run the benchmark.
#
#   bench/perf/run.sh [--seed N] [--trace 1] [--smoke] [--results PATH]
#       Runs every workload, each in its own process, and prints a
#       "name value unit" table per workload. --trace 1 adds the
#       traced per-layer run (Chrome traces land in build-perf/);
#       --smoke runs one pass of the 10-cell subset; --results
#       appends each run to a run-set file for siwi-bench --compare.
#
#   bench/perf/run.sh --workload W [siwi-bench options]
#       Runs one workload; the last stdout line is its JSON result.
#
# Both forms pass their options to siwi-bench unchanged, except
# --seconds S: pass counts are fixed per workload, so a run length
# given on the command line (BENCHMARK.json's run_seconds) is
# accepted and dropped. Build output goes to stderr, so stdout
# carries only results.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-perf"

# Configure once; a failed configure leaves no build system behind,
# so the next run tries again.
if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
    cmake -S "$root/bench/perf" -B "$build" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target siwi-bench -j "$(nproc)" >&2
bench="$build/siwi-bench"

args=()
one=0
while [ $# -gt 0 ]; do
    case "$1" in
    --seconds)
        shift 2 || { echo "run.sh: --seconds needs a value" >&2; exit 2; }
        continue
        ;;
    --workload) one=1 ;;
    esac
    args+=("$1")
    shift
done

if [ "$one" = 1 ]; then
    exec "$bench" "${args[@]}"
fi
status=0
for w in fig7_full chip_banked fast_suite cache_rerun; do
    echo "== $w"
    "$bench" --workload "$w" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
