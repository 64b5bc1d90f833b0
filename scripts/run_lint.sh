#!/usr/bin/env bash
# Shared lint entry point for CI and local use.
#
#   scripts/run_lint.sh [lint|format|tidy|tsan|all]
#
#   lint    build and run siwi-lint over the tree (needs only cmake
#           + a C++20 compiler; always available)
#   format  clang-format --dry-run --Werror over the normalized file
#           list (same list as CI)
#   tidy    full rebuild with SIWI_TIDY=ON: clang-tidy runs alongside
#           compilation with warnings-as-errors
#   tsan    build with -fsanitize=thread and run the multithreaded
#           runner + integration + serve suites
#   all     everything above, in that order
#
# Tools that are not installed locally are skipped with a notice and
# exit 0 so the script stays usable on minimal machines; CI sets
# SIWI_LINT_STRICT=1, which turns a missing tool into a hard error
# instead — the gates never silently pass there.
set -euo pipefail
cd "$(dirname "$0")/.."

STRICT="${SIWI_LINT_STRICT:-0}"
JOBS="${SIWI_LINT_JOBS:-$(nproc)}"

missing_tool() {
    if [ "$STRICT" = "1" ]; then
        echo "run_lint.sh: $1 not found and SIWI_LINT_STRICT=1" >&2
        exit 2
    fi
    echo "run_lint.sh: $1 not found; skipping $2 (install it or run in CI)" >&2
}

# Pinned first: clang-format/clang-tidy output drifts across major
# versions, so CI installs the -18 packages; fall back to the bare
# name for local runs.
find_tool() {
    local name
    for name in "$1-18" "$1-19" "$1-20" "$1"; do
        if command -v "$name" >/dev/null 2>&1; then
            echo "$name"
            return 0
        fi
    done
    return 1
}

# The clang-format gate covers the normalized subsystems (see the
# comment in .github/workflows/ci.yml); keep this list in sync with
# docs/LINTING.md.
format_files() {
    # tools/siwi_lint/fixtures holds deliberately malformed sources
    # (seeded lint violations); they are test data, not code.
    find src/runner tools tests/runner tests/lint \
        src/common/json.hh src/common/json.cc \
        src/core/stats_io.hh src/core/stats_io.cc \
        -path '*/fixtures/*' -prune -o \
        \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \) -print0
}

run_lint() {
    echo "== siwi-lint"
    cmake -B build-lint -S . -DCMAKE_BUILD_TYPE=Release \
        -DSIWI_BUILD_TESTS=OFF -DSIWI_BUILD_EXAMPLES=OFF \
        -DSIWI_BUILD_BENCH=OFF >/dev/null
    cmake --build build-lint --target siwi-lint -j "$JOBS"
    ./build-lint/siwi-lint --root .
}

run_format() {
    echo "== clang-format"
    local cf
    if ! cf="$(find_tool clang-format)"; then
        missing_tool clang-format "the format gate"
        return 0
    fi
    "$cf" --version
    format_files | xargs -0 "$cf" --dry-run --Werror
}

run_tidy() {
    echo "== clang-tidy (SIWI_TIDY=ON rebuild)"
    if ! find_tool clang-tidy >/dev/null; then
        missing_tool clang-tidy "the tidy gate"
        return 0
    fi
    cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=Debug \
        -DSIWI_TIDY=ON -DSIWI_BUILD_BENCH=OFF >/dev/null
    cmake --build build-tidy -j "$JOBS"
}

run_tsan() {
    echo "== ThreadSanitizer (runner + integration + serve suites)"
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSIWI_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"
    ctest --test-dir build-tsan -R '^(runner|integration|serve)\.' \
        --output-on-failure -j "$JOBS"
}

case "${1:-all}" in
    lint)   run_lint ;;
    format) run_format ;;
    tidy)   run_tidy ;;
    tsan)   run_tsan ;;
    all)    run_lint; run_format; run_tidy; run_tsan ;;
    *)
        echo "usage: scripts/run_lint.sh [lint|format|tidy|tsan|all]" >&2
        exit 2
        ;;
esac
