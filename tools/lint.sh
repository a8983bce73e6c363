#!/usr/bin/env bash
# Repo lint pipeline: cheap structural greps that enforce soda's
# concurrency and durability idioms, then clang-tidy (when available)
# over the compilation database.
#
# Usage:
#   tools/lint.sh             # grep rules + clang-tidy if installed
#   tools/lint.sh --strict    # missing clang-tidy is a failure, not a skip
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
strict=0
[[ "${1:-}" == "--strict" ]] && strict=1

cd "${repo_root}"
failures=0

fail() {
  echo "lint: FAIL: $1" >&2
  shift
  printf '  %s\n' "$@" >&2
  failures=$((failures + 1))
}

# Every lint target: library + test + bench + tool sources.
src_files() {
  git ls-files 'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' \
    'bench/*.h' 'examples/*.cc' 'tools/*.cc'
}

# --- Rule 1: moved into soda-analyze (raw-thread). ---------------------
# tools/analyze/checks.cc bans std::thread outside src/util/thread_pool.*
# token-exactly in src/, bench/, examples/ and tools/ (tests are exempt:
# they race the engine from outside threads on purpose). The control-plane
# threads — server accept loop and session handlers, the durability
# maintenance thread, the chaos driver's writers — carry
# `// analyze:allow(raw-thread: reason)` at each site instead of the old
# path exemptions.

# --- Rule 2: moved into soda-analyze (raw-sync). -----------------------
# tools/analyze/checks.cc bans std::mutex, recursive_mutex, shared_mutex,
# condition_variable, lock_guard, unique_lock and scoped_lock outside
# src/util/mutex.h token-exactly (comments and strings never match), in
# src/, tests/, bench/, examples/ and tools/. Annotate a deliberate
# exception with `// analyze:allow(raw-sync: reason)`.

# --- Rule 3: moved into soda-analyze (fsync-discard). -------------------
# The old grep ('^\s*(::)?(fsync|fdatasync|ftruncate)\(') only saw calls
# that started a line, so a discard behind `} fsync(fd);` or after a
# label slipped through, and an indented-but-checked call needed careful
# anchoring. tools/analyze/checks.cc now does this token-exactly: any
# fsync/fdatasync/ftruncate call in statement position (preceded by
# ';', '{', or '}') is a finding unless annotated
# `// analyze:allow(fsync-discard: reason)`. Run via tools/check.sh or
#   build/tools/soda-analyze --compdb build/compile_commands.json

# --- Rule 4: moved into soda-analyze (raw-annotation). -----------------
# Raw __attribute__((guarded_by / exclusive_locks_required / capability /
# acquire_capability ...)) spellings break the GCC no-op fallback in
# thread_annotations.h; the check flags them token-exactly everywhere but
# that header.

# --- Rule 5: subsumed by soda-analyze (fault-site). ---------------------
# The old grep checked one direction only (probed site -> registry).
# tools/analyze/checks.cc now verifies full set-equality: every probed
# site is registered, every registered site has a reachable probe call,
# and every registered site is referenced from the test tree. Runs in
# tools/check.sh and the static-analysis CI job.

# --- Rule 6: no raw column-buffer access outside src/storage/. ----------
# Column::I64Data()/F64Data()/Strings() (and the Mutable* forms) hand out
# the flat payload pointer. Readers go through ScanSlice/DataChunk; only
# the files below may touch raw buffers:
#   - src/exec/hash_kernels.cc, src/exec/operators.cc: the vectorized
#     kernels — columnar hashing, gather, bulk append — are the bulk
#     loops the raw accessors exist for; they only ever see DataChunk
#     columns, which are always flat.
#   - src/expr/evaluator.cc: vectorized expression evaluation over chunk
#     columns (same flat-by-construction argument).
#   - src/analytics/*.cc: the paper's layer-4 operators (k-means,
#     PageRank, naive Bayes, CC) read materialized operator inputs in
#     tight numeric loops — the zero-overhead raw array access is the
#     paper's point (§3).
#   - src/contenders/single_threaded_engine.cc: the frozen legacy
#     baseline the benchmarks compare against.
#   - bench/bench_micro_kernels.cc: measures exactly those raw loops.
# Tests are exempt wholesale: storage/durability/property tests assert on
# the physical layout itself.
hits="$(src_files | grep -v '^src/storage/' | grep -v '^tests/' \
        | grep -v '^src/exec/hash_kernels\.cc$' \
        | grep -v '^src/exec/operators\.cc$' \
        | grep -v '^src/expr/evaluator\.cc$' \
        | grep -v '^src/analytics/' \
        | grep -v '^src/contenders/single_threaded_engine\.cc$' \
        | grep -v '^bench/bench_micro_kernels\.cc$' \
        | xargs grep -nE '(\.|->)(I64Data|MutableI64Data|F64Data|MutableF64Data|Strings|Validity)\(\)' \
        2>/dev/null | grep -vE '^[^:]+:[0-9]+:\s*//' || true)"
if [[ -n "${hits}" ]]; then
  fail "raw column-buffer access outside src/storage/ (go through ScanSlice/DataChunk, or document an exemption in this rule)" "${hits}"
fi

# --- clang-tidy over the compilation database. --------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  compdb="${repo_root}/build/compile_commands.json"
  if [[ ! -f "${compdb}" ]]; then
    echo "lint: generating compile_commands.json"
    cmake -S "${repo_root}" -B "${repo_root}/build" >/dev/null
  fi
  echo "lint: running clang-tidy (.clang-tidy profile)"
  mapfile -t tidy_files < <(git ls-files 'src/**/*.cc')
  if ! clang-tidy -p "${repo_root}/build" --quiet "${tidy_files[@]}"; then
    fail "clang-tidy reported findings" "(see output above)"
  fi
else
  msg="lint: clang-tidy NOT FOUND — static-analysis pass SKIPPED (grep rules still ran)"
  if [[ "${strict}" == "1" ]]; then
    fail "${msg}" "install clang-tidy or drop --strict"
  else
    echo "${msg}" >&2
    echo "lint: install clang-tidy (or run on a machine that has it) for the full pipeline" >&2
  fi
fi

if [[ "${failures}" -gt 0 ]]; then
  echo "lint: ${failures} rule(s) failed" >&2
  exit 1
fi
echo "lint: clean"
