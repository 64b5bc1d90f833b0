#!/usr/bin/env sh
# Regenerate bench/baseline.json, the committed reference that the
# ctest case runner.SpecGolden.FastSpecMatchesCommittedBaseline
# (every build-test and ASan CI leg) compares every PR against.
#
# Run this when a PR *intentionally* changes simulated timing, and
# commit the result together with the change (the PR diff then
# shows exactly which cells moved). The simulator is deterministic,
# so the file is identical on every machine and thread count.
#
# Uses a dedicated build directory so it never reconfigures (and
# silently converts to Release) a developer's default build/.
#
# CI's other reference, bench/fast_suite_reference.json, holds
# siwi-bench runs of the fast_suite workload and is host-dependent,
# so this script does not write it. A PR that changes the
# simulator's speed re-records it on a host with 4 or more CPUs,
# with the loop the CI bench-regression job runs:
#
#   rm bench/fast_suite_reference.json
#   for s in 1 2 3; do bash bench/perf/run.sh --workload fast_suite \
#       --seed $s --results bench/fast_suite_reference.json; done
#
# Usage: scripts/update_baseline.sh [build-dir]

set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-baseline}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" --target siwi-run -j
"$build/siwi-run" --spec "$repo/bench/specs/fast.json" --quiet \
    --json "$repo/bench/baseline.json"
echo "wrote $repo/bench/baseline.json"
