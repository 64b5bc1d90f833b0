#!/usr/bin/env sh
# Measure fast-suite wall-clock (cells/sec), the simulator's
# throughput headline. Runs the suite N times and keeps the best
# run's BENCH_throughput.json (minimum wall-clock = least noise),
# mirroring what the CI bench-regression job uploads per run.
#
# Usage: scripts/profile_fast_suite.sh [--phases] [build-dir] [runs]
#   --phases   additionally print a per-phase CPU-time breakdown
#              (fetch / select / issue / mem-tick / sleep-wake /
#              exec / divergence) of the simulator hot loop. Uses a
#              dedicated -pg build in <repo>/build-profile (gprof;
#              configured and built on first use) and aggregates
#              the flat profile over all N runs, since one
#              fast-suite pass is too short for the 100 Hz sampler
#              alone. Sample-based: treat small buckets as noise;
#              the point is the shape (where do cycles go, and did
#              an optimization move them), not the third digit.
#   build-dir  defaults to ./build (must contain siwi-run;
#              configured Release by the default CMake setup).
#              Ignored by the --phases profile pass, which always
#              uses build-profile.
#   runs       defaults to 5
#
# Writes BENCH_throughput.json to the current directory and prints
# every sample so outliers are visible.

set -eu

phases=0
if [ "${1:-}" = "--phases" ]; then
    phases=1
    shift
fi

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
runs="${2:-5}"

if [ ! -x "$build/siwi-run" ]; then
    echo "profile_fast_suite: $build/siwi-run not found;" \
         "build first (cmake --build $build --target siwi-run)" >&2
    exit 1
fi

best=""
i=1
while [ "$i" -le "$runs" ]; do
    "$build/siwi-run" --spec "$repo/bench/specs/fast.json" --quiet \
        --throughput-json ".throughput.$i.json" >/dev/null
    secs="$(sed -n 's/.*"seconds": \([0-9.]*\).*/\1/p' \
        ".throughput.$i.json")"
    echo "run $i: ${secs}s"
    if [ -z "$best" ] || \
       awk "BEGIN{exit !($secs < $best)}"; then
        best="$secs"
        cp ".throughput.$i.json" BENCH_throughput.json
    fi
    rm -f ".throughput.$i.json"
    i=$((i + 1))
done

echo "best: ${best}s -> BENCH_throughput.json"
sed -n 's/^ *"cells_per_sec": \(.*\),*$/cells\/sec: \1/p' \
    BENCH_throughput.json

[ "$phases" = 1 ] || exit 0

# ------------------------------------------------------------------
# Per-phase breakdown (gprof).
# ------------------------------------------------------------------
if ! command -v gprof >/dev/null 2>&1; then
    echo "profile_fast_suite: --phases needs gprof on PATH" >&2
    exit 1
fi

pbuild="$repo/build-profile"
if [ ! -x "$pbuild/siwi-run" ]; then
    echo "configuring -pg profile build in $pbuild..."
    cmake -B "$pbuild" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg \
        >/dev/null
fi
cmake --build "$pbuild" --target siwi-run -j >/dev/null

gdir="$(mktemp -d)"
trap 'rm -rf "$gdir"' EXIT
echo "profiling: $runs instrumented run(s)..."
i=1
while [ "$i" -le "$runs" ]; do
    # GMON_OUT_PREFIX makes glibc write gmon.<pid> per run so the
    # samples accumulate instead of each run clobbering gmon.out.
    (cd "$gdir" && GMON_OUT_PREFIX=gmon \
        "$pbuild/siwi-run" --spec "$repo/bench/specs/fast.json" \
        --quiet >/dev/null)
    i=$((i + 1))
done

# Bucket the flat profile's self-time by pipeline phase. This is
# self-time, so shared helpers are charged to their own bucket, not
# split across callers: IBuffer/ctxView serve fetch, issue and the
# sleep predicate alike; Scoreboard serves issue and sleep.
gprof -b -p "$pbuild/siwi-run" "$gdir"/gmon.* | awk -v RUNS="$runs" '
    $1 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ {
        t = $3
        if (/SM::fetchStage|SM::tryFetch/)              b = "fetch"
        else if (/Policy|poolDomain|::pick|MaskLookup/) b = "select"
        else if (/::issue|Scoreboard::|SM::ready/)      b = "issue"
        else if (/sleepE|timedWakes|wakeWarp|auditSleeping|WarpSet/)\
                                                        b = "sleep-wake"
        else if (/siwi::mem::|MemorySystem/)            b = "mem-tick"
        else if (/siwi::exec::|siwi::isa::/)            b = "exec"
        else if (/siwi::divergence::/)                  b = "divergence"
        else if (/IBuffer::|ctxView|entryFor/)          b = "shared-ibuf-ctx"
        else                                            b = "other"
        self[b] += t; total += t
        next
    }
    END {
        if (!total) { print "no samples (run too short?)"; exit 1 }
        print ""
        printf "per-phase CPU self-time (gprof, %d run(s) pooled):\n", RUNS
        n = split("fetch select issue sleep-wake mem-tick exec " \
                  "divergence shared-ibuf-ctx other", order, " ")
        for (i = 1; i <= n; ++i) {
            b = order[i]
            if (b in self)
                printf "  %-16s %6.2fs  %5.1f%%\n", b, self[b],
                       100 * self[b] / total
        }
        printf "  %-16s %6.2fs\n", "total", total
    }'
