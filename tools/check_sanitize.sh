#!/usr/bin/env bash
# Builds soda with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the full test suite. A separate build tree (build-asan/) is used so the
# regular build/ stays benchmark-clean.
#
# Usage:
#   tools/check_sanitize.sh            # address,undefined (default)
#   tools/check_sanitize.sh thread     # TSan instead (exclusive with ASan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers="${1:-address,undefined}"
build_dir="${repo_root}/build-$(echo "${sanitizers}" | tr ',' '-')"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSODA_SANITIZE="${sanitizers}"
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error keeps a UBSan report from being silently non-fatal.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

if [[ "${sanitizers}" == "thread" ]]; then
  # TSan pass: the concurrency-heavy suites, forced to 4 workers so the
  # morsel scheduler, join build, radix aggregate merge, and WAL group
  # commit all actually interleave (SODA_THREADS would otherwise follow
  # nproc, which is 1 on small CI boxes — zero interleaving, zero signal).
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  # Segment/Partition ride along: sealed scans decode concurrently.
  # Property/Expr: the two-pass join probe and the evaluator kernels on
  # the 4-worker pool. Aggregate/Iterate/ExecKernel: the hash-aggregate
  # consume loop, the probe pass-through and the cross join that every
  # ITERATE round runs, against their row-at-a-time references.
  # KMeans/PageRank/ConnectedComponents/Csr: the analytics operators'
  # striped kernels, lambda evaluation and the CSR builds they share.
  SODA_THREADS=4 ctest --test-dir "${build_dir}" \
    -R 'ParallelExec|Robustness|PhysicalPlan|Durability|Server|Segment|Partition|Cache|Prepared|Property|Expr|Aggregate|Iterate|ExecKernel|KMeans|PageRank|ConnectedComponents|Csr' \
    -j "$(nproc)" --output-on-failure
  echo "check_sanitize: concurrency suites clean under thread (SODA_THREADS=4)"
else
  ctest --test-dir "${build_dir}" -j "$(nproc)" --output-on-failure
  echo "check_sanitize: all tests clean under ${sanitizers}"
fi
