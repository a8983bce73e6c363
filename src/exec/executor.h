/// \file executor.h
/// Plan execution: morsel-parallel push pipelines over the plan IR.
///
/// Pipeline model (paper §3): a pipeline is a source relation plus a chain
/// of streaming transforms (filter, project, join probe) ending in a
/// pipeline-breaking sink (materialize, aggregate build, Top-N, limit).
/// Workers pull morsels from the source and push chunks through the chain
/// into thread-local sink state, which is merged once at the end — the
/// same structure HyPer generates code for; soda interprets it with
/// vectorized transforms (DESIGN.md §3).
///
/// Since the physical-plan refactor the lowering of a whole query into a
/// DAG of such pipelines lives in exec/physical_plan.{h,cc}; this header
/// holds the unified operator interface every pipeline stage implements:
/// `Transform` for streaming operators and `Sink` / `TableSink` for
/// pipeline breakers, plus the whole-relation ORDER BY core (`SortTable`).

#ifndef SODA_EXEC_EXECUTOR_H_
#define SODA_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "sql/logical_plan.h"
#include "storage/table.h"
#include "util/status.h"

namespace soda {

/// Executes a plan tree to a fully materialized relation (lowers it to a
/// physical plan and runs the pipelines; see exec/physical_plan.h).
Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext& ctx);

// --- unified physical operator interface ---------------------------------

/// A streaming chunk-to-chunks operator. Implementations must be reentrant
/// (Apply is called concurrently from several workers with distinct
/// chunks).
class Transform {
 public:
  virtual ~Transform() = default;
  using Emit = std::function<Status(DataChunk&)>;
  /// Transforms `chunk`, invoking `emit` for every output chunk (0..n
  /// times). The transform owns `chunk` for the call: it may move columns
  /// out of it (the join probe hands a 1:1-matched chunk's columns to its
  /// output), and the caller does not read it afterwards. An emitted chunk
  /// belongs to the downstream stage in the same way.
  virtual Status Apply(DataChunk& chunk, const Emit& emit) const = 0;
  /// True when the transform emits exactly the rows it receives, in order
  /// (pure projection). Lets LIMIT bound the source scan to offset+limit
  /// rows instead of relying on the early-exit flag.
  virtual bool preserves_cardinality() const { return false; }
  /// EXPLAIN display name, e.g. "Filter [(t.a > 1)]".
  virtual std::string name() const = 0;
};

/// Per-chunk context handed to sinks by the pipeline driver. A row's
/// source position is `(branch, sequence)`: materializing sinks return
/// their rows in that order at every thread count.
struct SinkContext {
  /// Stable worker slot in [0, NumWorkers()); index into per-worker state.
  size_t worker_id = 0;
  /// Index of the UNION ALL child whose pipeline produced the chunk (the
  /// pipelines share one sink); 0 for every other pipeline.
  uint32_t branch = 0;
  /// Source-order id of the originating source chunk (its row offset).
  /// All chunks emitted for one source chunk share its sequence, so
  /// order-sensitive sinks can reassemble source order.
  uint64_t sequence = 0;
};

/// A pipeline-breaking consumer with per-worker state.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Consume(DataChunk& chunk, const SinkContext& sctx) = 0;
  /// Merges worker state; called once, after all Consume calls finished.
  virtual Status Finalize() = 0;
  /// Early-exit signal: true once no row at source position `sequence` or
  /// later can reach the result (cross-worker LIMIT cutoff), so a worker
  /// about to scan that source chunk stops. Must be cheap — polled per
  /// chunk.
  virtual bool done(uint64_t /*sequence*/) const { return false; }
  /// EXPLAIN display name, e.g. "Materialize", "Aggregate groups=1 [...]".
  virtual std::string name() const = 0;
};

/// A sink whose finalized state is a relation.
class TableSink : public Sink {
 public:
  /// Valid after Finalize().
  virtual TablePtr result() const = 0;
};

/// Sink that materializes its input in source order. Each worker appends
/// to its own partial and records one run `(branch, sequence, piece,
/// begin, rows)` per consumed source chunk; Finalize concatenates the runs
/// of all workers ordered by `(branch, sequence)`, so the result is the
/// serial result at every thread count. A row window keeps only rows
/// [offset, offset+limit) of that concatenation (LIMIT), cut while
/// concatenating. When one worker produced every run in that order already
/// (every pipeline at one thread) and the window keeps every row, its
/// partial is adopted without a copy. Otherwise the copy frees each piece
/// of a partial once its runs are copied, and charges the overlap.
class MaterializeSink : public TableSink {
 public:
  static constexpr size_t kAllRows = std::numeric_limits<size_t>::max();

  explicit MaterializeSink(Schema schema, size_t offset = 0,
                           size_t limit = kAllRows);
  Status Consume(DataChunk& chunk, const SinkContext& sctx) override;
  Status Finalize() override;
  std::string name() const override { return "Materialize"; }
  TablePtr result() const override { return result_; }

 private:
  /// The rows one source chunk contributed to a worker's partial: rows
  /// [begin, begin + rows) of `pieces[piece]`.
  struct Run {
    uint32_t branch;
    uint64_t sequence;
    size_t piece;
    size_t begin;
    size_t rows;
  };
  struct Partial {
    /// Rows in arrival order. With more than one worker a new piece starts
    /// at the first run past kSegmentRows rows, so Finalize can free the
    /// partial piece by piece while it copies.
    std::vector<std::unique_ptr<Table>> pieces;
    std::vector<Run> runs;  ///< in arrival order
  };
  Schema schema_;
  const size_t offset_;  ///< row window kept by Finalize
  const size_t limit_;
  std::vector<Partial> partials_;
  TablePtr result_;
};

// --- breaker sink factories (implemented in sibling .cc files) -----------
// All factories keep a reference to `plan`; the plan node must outlive the
// sink (physical plans never outlive the logical plan they were lowered
// from).

/// Hash aggregation sink for a kAggregate node (aggregate.cc).
std::shared_ptr<TableSink> MakeAggregateSink(const PlanNode& plan);

/// Top-N sink for `Limit(Sort(x))` with limit >= 0 (operators.cc): fed
/// with x's rows, keeps the best offset+limit candidates per worker plus
/// a bounded buffer and emits rows [offset, offset+limit) of the stable
/// sort by `sort.sort_keys`. `columns` picks and orders the x columns it
/// outputs (a pure column-ref Project between Limit and Sort folds into
/// it); the result has `limit.schema`.
std::shared_ptr<TableSink> MakeTopNSink(const PlanNode& limit,
                                        const PlanNode& sort,
                                        std::vector<size_t> columns);

/// LIMIT/OFFSET sink for a kLimit node (operators.cc): stores its rows
/// through a MaterializeSink windowed to [offset, offset+limit); once the
/// chunks up to some sequence hold offset+limit rows, `done()` stops the
/// scan past that sequence (cross-worker early exit) and the result is the
/// serial one.
std::shared_ptr<TableSink> MakeLimitSink(const PlanNode& plan);

/// The ORDER BY operator for a kSort node (operators.cc): sorts the
/// materialized `input` by `plan.sort_keys` (stable, NULLs first) into a
/// fresh table. Column-ref keys are read in place; computed keys are
/// evaluated morsel-parallel. The computed keys, the permutation and the
/// output are charged at "exec.sort".
Result<TablePtr> SortTable(const Table& input, const PlanNode& plan,
                           ExecContext& ctx);

/// EXPLAIN name of a kSort node, e.g. "Sort [b#1 DESC, a#0]".
std::string SortName(const PlanNode& plan);

// --- operator-style executors (implemented in sibling .cc files) ---------

/// WITH RECURSIVE and ITERATE. `*rounds` counts the steps this loop ran,
/// also when it fails; steps of iterative constructs nested in its step
/// (another ITERATE, KMEANS, PAGERANK) are not counted, while
/// ExecStats::iterations_run sums them all.
Result<TablePtr> ExecuteRecursiveCte(const PlanNode& plan, ExecContext& ctx,
                                     size_t* rounds);
Result<TablePtr> ExecuteIterate(const PlanNode& plan, ExecContext& ctx,
                                size_t* rounds);

}  // namespace soda

#endif  // SODA_EXEC_EXECUTOR_H_
