#!/usr/bin/env bash
# End-to-end smoke for the result cache (docs/SERVE.md), used by the
# CI cache-smoke job and runnable locally:
#
#   scripts/cache_smoke.sh [build-dir]
#
# Three legs, all through siwi-run --cache:
#
#   warm      fast.json twice on one cache: the second run must
#             compute 0 cells and be byte-identical to the first.
#   baseline  both documents must pass siwi-run --compare against
#             bench/baseline.json (exact: any IPC change, missing
#             or added cell fails).
#   resume    kill -9 a serial fig7.json run once some cells are
#             stored, rerun on the same cache: every stored cell
#             must come back as a hit, and the document must be
#             byte-identical to an uncached run.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
RUN="$BUILD/siwi-run"
BASELINE=bench/baseline.json

if [ ! -x "$RUN" ]; then
    echo "cache_smoke.sh: $RUN not built" >&2
    exit 2
fi

work=$(mktemp -d)
run_pid=""
cleanup() {
    if [ -n "$run_pid" ]; then
        kill -9 "$run_pid" 2>/dev/null || true
        wait "$run_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "cache_smoke.sh: FAIL: $*" >&2
    exit 1
}

# stat_from <file> <unit>: the count before "<unit>" in the cache
# summary line ("109 hit(s), 0 computed").
stat_from() {
    grep -oE "[0-9]+ $2" "$1" | head -n1 | cut -d' ' -f1
}

# blobs <cache-dir>: complete blobs stored (temp files excluded).
blobs() {
    find "$1/objects" -name '*.json' ! -name '*.tmp.*' 2>/dev/null \
        | wc -l
}

# ---------------------------------------------------------------
echo "== leg 1: fast.json cold, then warm on the same cache"
"$RUN" --spec bench/specs/fast.json --cache "$work/cache" \
    --json "$work/cold.json" --quiet 2> "$work/cold.log"
"$RUN" --spec bench/specs/fast.json --cache "$work/cache" \
    --json "$work/warm.json" --quiet 2> "$work/warm.log"

hits=$(stat_from "$work/warm.log" 'hit')
computed=$(stat_from "$work/warm.log" 'computed')
[ "$computed" = "0" ] || fail "warm run computed $computed cell(s)"
[ "$hits" -ge 1 ] || fail "warm run had no cache hits"
cmp "$work/cold.json" "$work/warm.json" \
    || fail "warm run is not byte-identical to the cold run"
echo "   ok: $hits hits, 0 computed, byte-identical"

# ---------------------------------------------------------------
echo "== leg 2: baseline gate on both documents"
"$RUN" --compare "$BASELINE" "$work/cold.json" \
    || fail "cold run deviates from $BASELINE"
"$RUN" --compare "$BASELINE" "$work/warm.json" \
    || fail "warm run deviates from $BASELINE"
echo "   ok: cold and warm match $BASELINE"

# ---------------------------------------------------------------
echo "== leg 3: kill -9 mid-sweep, resume on the same cache"
# One worker, so the Full-size sweep outlives the kill window; poll
# the objects directory and kill as soon as some cells have landed.
"$RUN" --spec bench/specs/fig7.json --cache "$work/resume" -j 1 \
    --quiet 2> "$work/dead.log" &
run_pid=$!
for _ in $(seq 1 600); do
    [ "$(blobs "$work/resume")" -ge 5 ] && break
    kill -0 "$run_pid" 2>/dev/null || break
    sleep 0.05
done
kill -0 "$run_pid" 2>/dev/null \
    || fail "the fig7 run ended before it could be killed"
kill -9 "$run_pid"
wait "$run_pid" 2>/dev/null || true
run_pid=""

stored=$(blobs "$work/resume")
[ "$stored" -ge 5 ] || fail "only $stored cell(s) stored before the kill"

"$RUN" --spec bench/specs/fig7.json --cache "$work/resume" \
    --json "$work/resumed.json" --quiet 2> "$work/resumed.log"
res_hits=$(stat_from "$work/resumed.log" 'hit')
[ "$res_hits" -ge "$stored" ] \
    || fail "resume recomputed finished cells ($res_hits hits < $stored stored)"
"$RUN" --spec bench/specs/fig7.json --json "$work/uncached.json" \
    --quiet 2> /dev/null
cmp "$work/resumed.json" "$work/uncached.json" \
    || fail "resumed run is not byte-identical to an uncached run"
echo "   ok: $stored cells survived the kill, $res_hits served from cache, byte-identical"

echo "cache_smoke.sh: all legs passed"
