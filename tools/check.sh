#!/usr/bin/env bash
# One-stop verification: the tier-1 build + test cycle, then the
# sanitizer pass. Run this before sending any change for review.
#
# Usage:
#   tools/check.sh              # tier-1 + address,undefined sanitizers
#   tools/check.sh --fast       # tier-1 only (skip sanitizers)
#   tools/check.sh --tsan       # tier-1 + ThreadSanitizer concurrency suites
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
fast=0
tsan=0
[[ "${1:-}" == "--fast" ]] && fast=1
[[ "${1:-}" == "--tsan" ]] && tsan=1

# Fail loudly up front rather than mid-run with a confusing error.
for tool in cmake ctest c++; do
  if ! command -v "${tool}" >/dev/null 2>&1; then
    echo "check: FATAL: required tool '${tool}' not found in PATH" >&2
    exit 1
  fi
done

# Tier 1: the canonical build tree and test suite (ROADMAP.md).
cmake -S "${repo_root}" -B "${repo_root}/build"
cmake --build "${repo_root}/build" -j "$(nproc)"
ctest --test-dir "${repo_root}/build" -j "$(nproc)" --output-on-failure
echo "check: tier-1 tests clean"

# Lint pipeline (grep rules always; clang-tidy when installed).
"${repo_root}/tools/lint.sh"

# Project static analysis: soda-analyze over the compilation database.
# Fails only on findings absent from tools/analyze/baseline.json (which
# is empty — the tree is expected to stay clean; annotate intentional
# exceptions with `// analyze:allow(<check>: reason)` instead of
# growing the baseline).
cmake --build "${repo_root}/build" -j "$(nproc)" --target soda_analyze
"${repo_root}/build/tools/soda-analyze" \
  --compdb "${repo_root}/build/compile_commands.json" \
  --root "${repo_root}" --diff-baseline
echo "check: soda-analyze clean"

# Crash-chaos smoke: a short deterministic-seed run of the kill -9 /
# fault-injection harness (tools/chaos.sh); every ACKed commit must
# survive recovery. The 25-cycle acceptance run is tools/chaos.sh --full.
"${repo_root}/tools/chaos.sh"
echo "check: chaos smoke clean"

if [[ "${tsan}" == "1" ]]; then
  # ThreadSanitizer leg: rebuilds in build-thread/ and runs the
  # concurrency-heavy suites at SODA_THREADS=4 (see check_sanitize.sh).
  "${repo_root}/tools/check_sanitize.sh" thread
  echo "check: TSan concurrency suites clean"
elif [[ "${fast}" == "0" ]]; then
  "${repo_root}/tools/check_sanitize.sh"
  # Crash-recovery suite, explicitly, under ASan/UBSan: the durability
  # layer's rollback and torn-tail paths shuffle raw file offsets and
  # buffers around, exactly where a sanitizer earns its keep. (The full
  # suite above already includes these; this run guards against test
  # filters and makes a recovery regression unmissable in the log.)
  # Partition adds the partitioned-table reopen tests.
  ctest --test-dir "${repo_root}/build-address-undefined" \
    -R 'Durability|CrashRecovery|Dml|Partition' -j "$(nproc)" \
    --output-on-failure
  echo "check: recovery suite clean under address,undefined"
fi
echo "check: all passes clean"
