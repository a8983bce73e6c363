/// \file exec_context.h
/// Per-query execution state: catalog access, named relation bindings
/// (CTE working tables, the ITERATE state), runtime guards, and the
/// instrumentation counters used by the §5.1 memory ablation.

#ifndef SODA_EXEC_EXEC_CONTEXT_H_
#define SODA_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "util/query_guard.h"

namespace soda {

class HtRecycler;

/// Default iteration cap for ITERATE / recursive CTEs; overridable per
/// engine (EngineOptions::max_iterations) and per session
/// (SET soda.max_iterations).
inline constexpr size_t kDefaultMaxIterations = 100000;

/// Counters exposed to benchmarks; tracks how much tuple state iterative
/// constructs materialize (recursive CTE vs ITERATE, paper §5.1).
struct ExecStats {
  size_t cumulative_materialized_tuples = 0;  ///< total tuples written to intermediates
  size_t peak_bound_tuples = 0;   ///< max tuples live in iteration bindings + accumulated results
  size_t iterations_run = 0;      ///< iterations across all iterative constructs
  size_t recycled_joins = 0;      ///< join builds served from the hash-table recycler

  void AccountBoundTuples(size_t tuples) {
    if (tuples > peak_bound_tuples) peak_bound_tuples = tuples;
  }
};

/// Engine health counters served by the soda_status() table function
/// (operations / self-healing storage, DESIGN.md §10): one metric/value
/// row each, in display order.
using StatusRows = std::vector<std::pair<const char*, int64_t>>;

/// Mutable state threaded through plan execution. Not thread-safe for
/// concurrent binding mutation; pipelines only read bindings.
struct ExecContext {
  Catalog* catalog = nullptr;

  /// Named relations visible to kBindingRef (recursive CTE working table,
  /// `iterate` state). Executors save/restore entries around loops.
  std::map<std::string, TablePtr> bindings;

  /// Infinite-loop guard for ITERATE and recursive CTEs (paper §5.1:
  /// "those situations need to be detected and aborted by the database").
  /// Set from EngineOptions::max_iterations by the engine.
  size_t max_iterations = kDefaultMaxIterations;

  /// The query's resource governor; null when executing outside an
  /// engine (direct ExecutePlan calls in tests). Probes still reach the
  /// global FaultInjector through GuardProbe in that case.
  QueryGuard* guard = nullptr;

  /// Run the static plan verifier (exec/plan_verifier.h) on every lowered
  /// plan before executing it. On by default; `SET soda.verify_plans =
  /// off` clears it per session (debug builds verify regardless).
  bool verify_plans = true;

  /// Engine-owned join hash-table recycler (exec/ht_recycler.h). Null
  /// outside an engine or with caching disabled; the join lowering then
  /// always builds fresh.
  HtRecycler* ht_recycler = nullptr;

  /// Supplies soda_status() rows; installed by the engine's SELECT path.
  /// Null when executing outside an engine — the table function then
  /// fails cleanly instead of reporting fabricated health.
  std::function<StatusRows()> status_provider;

  /// Cooperative governance probe for executor loops.
  Status Probe(const char* site) { return GuardProbe(guard, site); }

  ExecStats stats;
};

/// Shared abort message for the iteration caps of ITERATE and recursive
/// CTEs: reports what ran, the governing cap, and the knob that raises it.
inline Status IterationCapExceeded(const std::string& construct,
                                   size_t iterations_run, size_t cap) {
  return Status::ExecutionError(
      construct + " aborted after " + std::to_string(iterations_run) +
      " iterations (cap " + std::to_string(cap) +
      "; possible divergence — raise with SET soda.max_iterations or "
      "EngineOptions::max_iterations)");
}

}  // namespace soda

#endif  // SODA_EXEC_EXEC_CONTEXT_H_
