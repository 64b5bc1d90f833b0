#!/usr/bin/env bash
# Exactness check for a change that must not move any result:
#
#   scripts/results_identical.sh REV
#
# Builds siwi-run from git revision REV (exported with git archive
# into a temporary directory) and from the working tree (into
# build-identical/), runs every spec of the working tree's
# bench/specs/ on both, and the working tree's fast.json once more
# with --no-skip, and compares each results document byte for byte
# with REV's (the --no-skip one with REV's fast.json). It compares
# the --dump-schema output and each spec's --dump-config output the
# same way. Prints one line per document; exits 0 when all are
# identical, 1 otherwise, 2 on a usage or build error. Writes
# nothing in the repository outside build-identical/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/results_identical.sh REV" >&2
    exit 2
fi
rev="$1"
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "results_identical.sh: unknown revision '$rev'" >&2
    exit 2
fi

jobs="$(nproc)"
work=$(mktemp -d)
cleanup() {
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# build <source> <build-dir>: a Release siwi-run, nothing else.
build() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
        -DSIWI_BUILD_TESTS=OFF -DSIWI_BUILD_BENCH=OFF \
        -DSIWI_BUILD_EXAMPLES=OFF >/dev/null &&
        cmake --build "$2" --target siwi-run -j "$jobs" >/dev/null
}

echo "== building $rev and the working tree"
mkdir "$work/src"
git archive "$rev" | tar -x -C "$work/src"
if ! build "$work/src" "$work/build"; then
    echo "results_identical.sh: $rev does not build" >&2
    exit 2
fi
if ! build . build-identical; then
    echo "results_identical.sh: the working tree does not build" >&2
    exit 2
fi

# run <siwi-run> <out.json> <siwi-run args>...: the exit status
# goes next to the document, which cmp then covers too.
run() {
    local bin="$1" out="$2"
    shift 2
    local status=0
    "$bin" "$@" -j "$jobs" --quiet --json "$out" >/dev/null 2>&1 ||
        status=$?
    echo "$status" >"$out.status"
}

# dump <siwi-run> <out> <siwi-run args>...: a dump's stdout, with
# its exit status next to it.
dump() {
    local bin="$1" out="$2"
    shift 2
    local status=0
    "$bin" "$@" >"$out" 2>/dev/null || status=$?
    echo "$status" >"$out.status"
}

same() {
    cmp -s "$1" "$2" && cmp -s "$1.status" "$2.status"
}

mkdir "$work/old" "$work/new"
differ=0
report() {
    if same "$1" "$2"; then
        echo "identical  $3"
    else
        echo "DIFFERS    $3"
        differ=1
    fi
}

for spec in bench/specs/*.json; do
    name=$(basename "$spec")
    run "$work/build/siwi-run" "$work/old/$name" --spec "$spec"
    run build-identical/siwi-run "$work/new/$name" --spec "$spec"
    report "$work/old/$name" "$work/new/$name" "$name"
done
run build-identical/siwi-run "$work/new/fast-no-skip.json" \
    --spec bench/specs/fast.json --no-skip
report "$work/old/fast.json" "$work/new/fast-no-skip.json" \
    "fast.json --no-skip"

dump "$work/build/siwi-run" "$work/old/schema.json" --dump-schema
dump build-identical/siwi-run "$work/new/schema.json" --dump-schema
report "$work/old/schema.json" "$work/new/schema.json" "--dump-schema"
for spec in bench/specs/*.json; do
    name=config-$(basename "$spec")
    dump "$work/build/siwi-run" "$work/old/$name" --spec "$spec" \
        --dump-config
    dump build-identical/siwi-run "$work/new/$name" --spec "$spec" \
        --dump-config
    report "$work/old/$name" "$work/new/$name" \
        "$(basename "$spec") --dump-config"
done

exit "$differ"
