#!/usr/bin/env bash
# Repo lint pipeline: clang-tidy (when available) over the compilation
# database. The structural rules that used to be greps here now run as
# token-exact soda-analyze checks (see the rule notes below).
#
# Usage:
#   tools/lint.sh             # clang-tidy if installed
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

# --- Rule 6: moved into soda-analyze (raw-column-buffer). --------------
# tools/analyze/checks.cc bans the raw payload accessors
# (.I64Data() / .F64Data() / .Strings() / .Validity() and the Mutable*
# forms, `.` or `->`) token-exactly in src/, bench/, examples/ and tools/
# (tests are exempt: they assert on the physical layout). Storage and the
# bulk loops the accessors exist for are listed in
# AnalyzerConfig::raw_column_buffer_owners; annotate any other deliberate
# use with `// analyze:allow(raw-column-buffer: reason)`.

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
  msg="lint: clang-tidy NOT FOUND — static-analysis pass SKIPPED"
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
