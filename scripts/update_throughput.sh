#!/usr/bin/env sh
# Append one fast-suite throughput sample to the committed trend
# file bench/BENCH_throughput.json and compare it with the previous
# entry. Each sample times the suite in both stepping modes
# (best-of-N wall clock per mode, minimum = least noise):
#   - cycle skipping on (the default), the headline number
#   - --no-skip, the per-cycle reference the equivalence gate runs
# so the trend records the event-driven speedup alongside raw
# throughput, commit by commit. Each sample also times the result
# cache (docs/SERVE.md): one cold --cache run into a fresh
# directory, then best-of-N warm re-runs (100% hits), so the trend
# records what memoization is worth on this suite.
#
# Usage: scripts/update_throughput.sh [--compare] [--allow-dirty]
#            [--max-regress PCT] [build-dir] [runs]
#   --compare  measure and report the delta against the last
#              committed trend entry without appending (the CI
#              mode: the working tree stays clean, the job log
#              carries the numbers)
#   --allow-dirty
#              permit appending from a dirty working tree. By
#              default appending refuses when the tree is dirty:
#              a trend entry tagged "<commit>+dirty" is not
#              reproducible from any commit, which defeats the
#              point of a committed trend. Measure-only
#              (--compare) runs never need this.
#   --max-regress PCT
#              with --compare: exit non-zero when the skip-mode
#              wall clock is more than PCT percent slower than
#              the last committed entry (the CI perf-smoke gate).
#              Wall clock is machine-dependent, so keep the
#              threshold generous; the committed entry should be
#              refreshed whenever the hot path changes speed on
#              purpose.
#   build-dir  defaults to ./build (must contain siwi-run)
#   runs       defaults to 5
#
# Extra siwi-run flags (e.g. chip overrides like
# "--set l2.slices=8 --set dram.channels=4") can be passed through
# the SIWI_RUN_FLAGS environment variable; they apply to both
# stepping modes so the speedup column stays apples-to-apples.

set -eu

compare_only=0
allow_dirty=0
max_regress=""
while [ "$#" -gt 0 ]; do
    case "$1" in
      --compare) compare_only=1; shift ;;
      --allow-dirty) allow_dirty=1; shift ;;
      --max-regress) max_regress="$2"; shift 2 ;;
      *) break ;;
    esac
done

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
runs="${2:-5}"
trend="$repo/bench/BENCH_throughput.json"

if [ ! -x "$build/siwi-run" ]; then
    echo "update_throughput: $build/siwi-run not found;" \
         "build first (cmake --build $build --target siwi-run)" >&2
    exit 1
fi

commit="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null \
    || echo unknown)"
if ! git -C "$repo" diff --quiet 2>/dev/null; then
    commit="$commit+dirty"
    if [ "$compare_only" = 0 ] && [ "$allow_dirty" = 0 ]; then
        echo "update_throughput: working tree is dirty; a trend" \
             "entry must be reproducible from its commit." >&2
        echo "Commit first, or pass --allow-dirty to record" \
             "'$commit' anyway (or --compare to measure without" \
             "appending)." >&2
        exit 1
    fi
fi

measure() {
    # $1: extra siwi-run flags ('' or --no-skip). Prints best secs.
    best=""
    i=1
    while [ "$i" -le "$runs" ]; do
        # shellcheck disable=SC2086  # flags intentionally split
        "$build/siwi-run" --spec "$repo/bench/specs/fast.json" \
            --quiet $1 \
            ${SIWI_RUN_FLAGS:-} \
            --throughput-json "$repo/.throughput.tmp.json" \
            >/dev/null
        secs="$(sed -n 's/.*"seconds": \([0-9.]*\).*/\1/p' \
            "$repo/.throughput.tmp.json")"
        if [ -z "$best" ] || awk "BEGIN{exit !($secs < $best)}"; then
            best="$secs"
        fi
        i=$((i + 1))
    done
    rm -f "$repo/.throughput.tmp.json"
    echo "$best"
}

echo "update_throughput: $runs run(s) per mode..."
skip_secs="$(measure '')"
echo "  skip:    best ${skip_secs}s"
noskip_secs="$(measure --no-skip)"
echo "  no-skip: best ${noskip_secs}s"

# Cold-vs-warm cache wall clock: the cold run populates a fresh
# cache (one run; it computes everything, so it prices a first
# sweep), the warm runs are all hits (best-of-N, they price a
# re-run / resume).
cache_dir="$repo/.throughput.cache.tmp"
rm -rf "$cache_dir"
cold_secs="$(runs=1; measure "--cache $cache_dir")"
echo "  cache cold: ${cold_secs}s"
warm_secs="$(measure "--cache $cache_dir")"
echo "  cache warm: best ${warm_secs}s"
rm -rf "$cache_dir"

SIWI_TREND="$trend" SIWI_COMMIT="$commit" \
SIWI_SKIP="$skip_secs" SIWI_NOSKIP="$noskip_secs" \
SIWI_CACHE_COLD="$cold_secs" SIWI_CACHE_WARM="$warm_secs" \
SIWI_COMPARE_ONLY="$compare_only" \
SIWI_MAX_REGRESS="$max_regress" \
python3 - <<'EOF'
import datetime
import json
import os
import sys

trend_path = os.environ["SIWI_TREND"]
skip_s = float(os.environ["SIWI_SKIP"])
noskip_s = float(os.environ["SIWI_NOSKIP"])
cold_s = float(os.environ["SIWI_CACHE_COLD"])
warm_s = float(os.environ["SIWI_CACHE_WARM"])
compare_only = os.environ["SIWI_COMPARE_ONLY"] == "1"
max_regress = os.environ.get("SIWI_MAX_REGRESS") or None

try:
    with open(trend_path) as f:
        trend = json.load(f)
except FileNotFoundError:
    trend = {"schema": 1, "suite": "fast", "entries": []}

prev = trend["entries"][-1] if trend["entries"] else None
entry = {
    "date": datetime.date.today().isoformat(),
    "commit": os.environ["SIWI_COMMIT"],
    "skip_seconds": round(skip_s, 4),
    "noskip_seconds": round(noskip_s, 4),
    "skip_speedup": round(noskip_s / skip_s, 3) if skip_s else None,
    "cache_cold_seconds": round(cold_s, 4),
    "cache_warm_seconds": round(warm_s, 4),
    "cache_warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
}
summary = (f"skip={entry['skip_seconds']}s "
           f"no-skip={entry['noskip_seconds']}s "
           f"speedup={entry['skip_speedup']}x "
           f"cache cold={entry['cache_cold_seconds']}s "
           f"warm={entry['cache_warm_seconds']}s "
           f"({entry['cache_warm_speedup']}x)")
if compare_only:
    print(f"measured: {entry['commit']} {summary} (not appended)")
else:
    trend["entries"].append(entry)
    with open(trend_path, "w") as f:
        json.dump(trend, f, indent=2)
        f.write("\n")
    print(f"appended: {entry['commit']} {summary}")
if prev:
    delta = (skip_s - prev["skip_seconds"]) / prev["skip_seconds"]
    print(f"vs last committed ({prev['commit']}, "
          f"{prev['skip_seconds']}s): "
          f"{delta:+.1%} wall clock", end="")
    print(" (slower)" if delta > 0.10 else
          " (faster)" if delta < -0.10 else " (within noise)")
    if max_regress is not None and delta * 100 > float(max_regress):
        print(f"FAIL: skip-mode wall clock regressed more than "
              f"{max_regress}% vs the committed trend entry")
        sys.exit(1)
elif max_regress is not None:
    print("no committed trend entry to gate against")
EOF
