#!/usr/bin/env bash
# Tier-1 verification: build and run the test suite, normally, at -O0 with
# assertions (the Debug build: it links code the optimizer drops, and runs
# the debug-only invariants such as the engine's key order) and under
# ThreadSanitizer (the concurrency in util/thread_pool + the parallel
# experiment runner must stay race-free).
#
#   tools/check.sh            # regular, Debug, then TSan build + tests
#   tools/check.sh --no-tsan  # regular and Debug build + tests only
#   tools/check.sh --tsan-filter 'Parallel|Determinism'
#                             # restrict the (slow) TSan run to a ctest -R regex
#
# Jobs default to the machine's core count; override with JOBS=N.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
RUN_TSAN=1
TSAN_FILTER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-tsan) RUN_TSAN=0 ;;
    --tsan-filter) TSAN_FILTER="$2"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

# Fail fast with a named message when the build tooling is absent —
# a missing generator otherwise surfaces as an opaque CMake backtrace
# halfway through the run.
if ! command -v cmake >/dev/null 2>&1; then
  echo "tools/check.sh: cmake not found in PATH (need CMake >= 3.20)" >&2
  exit 2
fi
if ! command -v ninja >/dev/null 2>&1 && ! command -v make >/dev/null 2>&1; then
  echo "tools/check.sh: no CMake generator found in PATH (need ninja or make)" >&2
  exit 2
fi

# Compiler cache, when available (CI restores it across runs).
LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
  echo "== ccache enabled =="
fi

# A source file that .gitignore swallows builds here but is missing from
# every clone, so the clean-checkout build breaks. Refuse to go on.
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1; then
  IGNORED_SOURCES="$(git ls-files --others --ignored --exclude-standard \
    -- src bench tests tools examples |
    grep -E '(\.cpp|\.hpp|(^|/)CMakeLists\.txt)$' || true)"
  if [[ -n "$IGNORED_SOURCES" ]]; then
    echo "tools/check.sh: source files ignored by .gitignore (they would be" \
      "missing from a clean checkout):" >&2
    echo "$IGNORED_SOURCES" >&2
    exit 1
  fi
fi

echo "== regular build =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo ${LAUNCHER:+$LAUNCHER}
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== Debug build (-O0, assertions on) =="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug ${LAUNCHER:+$LAUNCHER}
cmake --build build-debug -j "$JOBS"
ctest --test-dir build-debug --output-on-failure -j "$JOBS"

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== ThreadSanitizer build =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLMO_TSAN=ON \
    ${LAUNCHER:+$LAUNCHER}
  cmake --build build-tsan -j "$JOBS"
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  if [[ -n "$TSAN_FILTER" ]]; then
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R "$TSAN_FILTER"
  else
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
  fi
fi

echo "all checks passed"
