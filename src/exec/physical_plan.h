/// \file physical_plan.h
/// The physical plan: a whole query lowered once into a DAG of pipelines.
///
/// `LowerPlan` walks the optimized logical plan and decomposes it into
/// `PhysicalPipeline`s — each a source (table scan, runtime binding, or a
/// previously finished pipeline's output), a chain of streaming
/// `Transform`s, and a pipeline-breaking `Sink` — executed in dependency
/// order by `PhysicalPlan::Execute`. This replaces the old recursive
/// `ExecutePlan -> TablePtr` interpreter that materialized a full relation
/// at every plan-node boundary: aggregates, Top-N, limits and UNION ALL now
/// consume their input pipeline directly, ORDER BY sorts its input's one
/// materialized relation, and the analytics table functions
/// (paper §6) are physical operators whose relation inputs are pipelines of
/// the same plan — the paper's Fig. 3 property made literal in the engine.
///
/// Every operator carries `OperatorMetrics` (rows in/out, chunks, wall
/// time); `EXPLAIN <stmt>` prints the pipeline decomposition and
/// `EXPLAIN ANALYZE <stmt>` executes the plan and reports the metrics —
/// the harness every perf PR proves itself against.
///
/// Lowering performs no execution and touches no data: all table
/// resolution, hash-table builds, and lambda compilation happen inside
/// `Execute` (or the per-pipeline `prepares` closures), which is what lets
/// plain EXPLAIN print pipelines without running the query.
///
/// Lifetime: a PhysicalPlan holds pointers into the logical plan it was
/// lowered from; the PlanNode tree must outlive it.

#ifndef SODA_EXEC_PHYSICAL_PLAN_H_
#define SODA_EXEC_PHYSICAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "sql/logical_plan.h"
#include "storage/table.h"
#include "util/status.h"

namespace soda {

/// Per-operator runtime counters; updated with relaxed atomics from every
/// worker thread of the operator's pipeline.
struct OperatorMetrics {
  std::atomic<uint64_t> rows_in{0};   ///< rows entering the operator
  std::atomic<uint64_t> rows_out{0};  ///< rows emitted / in the result
  std::atomic<uint64_t> chunks{0};    ///< chunks processed
  std::atomic<uint64_t> nanos{0};     ///< wall time, inclusive of the
                                      ///< downstream chain it pushed into
                                      ///< (like Postgres' "actual time")
  std::atomic<uint64_t> self_nanos{0};  ///< streaming transforms: `nanos`
                                        ///< minus the time spent in the
                                        ///< downstream chain
  std::atomic<uint64_t> rounds{0};  ///< iterative operators: rounds run
};

/// One display/metrics row of the physical plan (a source, transform,
/// prepare step, sink, or whole-relation operator).
struct PhysicalOperator {
  explicit PhysicalOperator(std::string n) : name(std::move(n)) {}
  std::string name;
  OperatorMetrics metrics;
  /// ITERATE and recursive CTEs: `metrics.rounds` is the number of steps
  /// the operator's own loop ran (not those of iterative constructs nested
  /// in its step), shown as `rounds=` by EXPLAIN ANALYZE.
  bool counts_rounds = false;
};
using PhysOpPtr = std::shared_ptr<PhysicalOperator>;

class PhysicalPlan;

/// One schedulable unit. Exactly one of these forms:
///  - streaming: a source (`table_source` or `input_pipeline`) pushed
///    through `transforms` into `sink`;
///  - finalize-only: `sink` set but no source (closes a sink shared by
///    earlier pipelines, e.g. UNION ALL);
///  - operator: `op_fn` computes the result relation directly (column
///    selections of a whole relation through FlatView, VALUES, ITERATE,
///    recursive CTEs, analytics table functions, ORDER BY).
struct PhysicalPipeline {
  static constexpr size_t kNoInput = std::numeric_limits<size_t>::max();
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  // --- streaming form -----------------------------------------------------
  /// Resolves the source relation at run time (catalog scan / binding).
  std::function<Result<TablePtr>(ExecContext&)> table_source;
  /// Index of the pipeline whose result feeds this one (when no
  /// `table_source`).
  size_t input_pipeline = kNoInput;
  /// Scan at most this many source rows (bounded LIMIT over a
  /// cardinality-preserving chain).
  size_t scan_limit = kUnbounded;
  /// The logical scan node feeding this pipeline, when the source is a
  /// base-table scan: carries pushed predicates and the pruned partition
  /// set. Null for bindings and pipeline-fed sources. Points into the
  /// logical plan (which must outlive the PhysicalPlan).
  const PlanNode* scan_node = nullptr;
  /// Fused scan projection: physical column indexes the scan materializes,
  /// in output order (a pure-column-ref Project collapsed into the scan, so
  /// sealed tables never decode dropped columns). Empty = all columns.
  std::vector<size_t> scan_columns;
  PhysOpPtr source_op;
  /// UNION ALL child index this pipeline streams into the shared sink
  /// with (`SinkContext::branch`); 0 for every other pipeline.
  uint32_t branch = 0;

  /// The transform chain. Entries may be null until a `prepares` closure
  /// fills them (join probes wait for their build pipeline's result);
  /// `transform_ops` always has matching display entries.
  std::vector<std::shared_ptr<const Transform>> transforms;
  std::vector<PhysOpPtr> transform_ops;

  /// Run after all dependencies finished, before streaming starts (hash
  /// join builds). May patch `transforms` slots of this pipeline.
  std::vector<std::function<Status(PhysicalPlan&, PhysicalPipeline&,
                                   ExecContext&)>>
      prepares;
  std::vector<PhysOpPtr> prepare_ops;

  /// The breaker. Possibly shared with sibling pipelines (UNION ALL);
  /// only the pipeline with `finalize_sink` set closes it and publishes
  /// `result`.
  std::shared_ptr<TableSink> sink;
  bool finalize_sink = true;
  /// Adds the finalized row count to
  /// `ctx.stats.cumulative_materialized_tuples` (kept compatible with the
  /// pre-physical-plan accounting used by the §5.1 ablation).
  bool count_materialization = false;
  PhysOpPtr sink_op;

  // --- operator form ------------------------------------------------------
  std::function<Result<TablePtr>(PhysicalPlan&, ExecContext&)> op_fn;
  PhysOpPtr op;

  /// Pre-execution gate, evaluated once before *any* pipeline runs:
  /// returning true skips the whole pipeline (its `result` stays null)
  /// and, transitively, every earlier pipeline feeding skipped pipelines
  /// exclusively. Installed on hash-join build pipelines whose table may
  /// come from the recycler — the dependent probe prepare knows how to
  /// proceed without the result, and the build's upstream subtree (e.g.
  /// an aggregation producing a derived build side) is elided with it.
  /// Gates must depend only on the context, never on pipeline results.
  std::function<Result<bool>(ExecContext&)> skip_if;

  /// Pipelines whose results this one reads (join builds, table-function
  /// inputs); shown by EXPLAIN. Always indices of earlier pipelines.
  std::vector<size_t> inputs;

  // --- filled by Execute --------------------------------------------------
  TablePtr result;
  uint64_t bytes_reserved = 0;  ///< QueryGuard bytes charged while running
};

/// The lowered query: pipelines in dependency order (every pipeline only
/// reads results of earlier ones), executed sequentially; morsel
/// parallelism lives inside each pipeline.
class PhysicalPlan {
 public:
  /// Runs every pipeline. On failure the already-produced intermediate
  /// results are dropped with the plan; the error Status is returned as-is
  /// (cancellation, deadline, memory budget, and injected faults at the
  /// "exec.pipeline" probe site all surface here).
  Status Execute(ExecContext& ctx);

  /// The root pipeline's relation; valid after a successful Execute.
  TablePtr result() const {
    return pipelines_.empty() ? nullptr : pipelines_.back().result;
  }

  size_t num_pipelines() const { return pipelines_.size(); }
  PhysicalPipeline& pipeline(size_t i) { return pipelines_[i]; }
  const PhysicalPipeline& pipeline(size_t i) const { return pipelines_[i]; }

  /// Pipeline decomposition, one line per pipeline ("P0: Scan t -> Filter
  /// [...] -> Materialize"). With `analyze`, one line per operator with
  /// rows/chunks/time and per-pipeline reserved bytes.
  std::string ToString(bool analyze = false) const;

 private:
  friend class PhysicalPlanBuilder;

  Status RunStreaming(PhysicalPipeline& p, ExecContext& ctx);

  std::vector<PhysicalPipeline> pipelines_;
};

/// Lowers a logical plan into pipelines. Pure: executes nothing, reads no
/// tables. `plan` must outlive the returned PhysicalPlan.
Result<PhysicalPlan> LowerPlan(const PlanNode& plan);

}  // namespace soda

#endif  // SODA_EXEC_PHYSICAL_PLAN_H_
