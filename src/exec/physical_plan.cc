/// \file physical_plan.cc
/// Lowering of the logical plan into pipelines and their scheduler.

#include "exec/physical_plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "exec/hash_join.h"
#include "exec/ht_recycler.h"
#include "exec/plan_fingerprint.h"
#include "exec/table_function.h"
#include "expr/evaluator.h"
#include "util/first_error.h"
#include "util/parallel.h"

namespace soda {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kRelaxed = std::memory_order_relaxed;

// --- streaming transforms -------------------------------------------------

/// Streaming WHERE: evaluates the predicate and compacts the chunk.
class FilterTransform : public Transform {
 public:
  explicit FilterTransform(ExprPtr predicate)
      : predicate_(std::move(predicate)) {}

  Status Apply(DataChunk& chunk, const Emit& emit) const override {
    std::vector<uint32_t> selection;
    SODA_RETURN_NOT_OK(EvaluatePredicate(*predicate_, chunk, &selection));
    if (selection.size() == chunk.num_rows()) return emit(chunk);
    if (selection.empty()) return Status::OK();
    DataChunk out = GatherRows(chunk.columns(), selection);
    return emit(out);
  }

  std::string name() const override {
    return "Filter [" + predicate_->ToString() + "]";
  }

 private:
  ExprPtr predicate_;
};

/// Streaming SELECT-list evaluation. Emits exactly one row per input row,
/// in order, so it preserves cardinality (LIMIT can bound the scan through
/// it).
class ProjectTransform : public Transform {
 public:
  explicit ProjectTransform(std::vector<ExprPtr> exprs)
      : exprs_(std::move(exprs)) {}

  Status Apply(DataChunk& chunk, const Emit& emit) const override {
    DataChunk out;
    for (const auto& e : exprs_) {
      Column col;
      SODA_RETURN_NOT_OK(EvaluateExpression(*e, chunk, &col));
      out.AddColumn(std::move(col));
    }
    return emit(out);
  }

  bool preserves_cardinality() const override { return true; }

  std::string name() const override {
    std::string s = "Project [";
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (i) s += ", ";
      s += exprs_[i]->ToString();
    }
    return s + "]";
  }

 private:
  std::vector<ExprPtr> exprs_;
};

// --- lowering helpers -----------------------------------------------------

PhysOpPtr Op(std::string name) {
  return std::make_shared<PhysicalOperator>(std::move(name));
}

Result<TablePtr> ExecuteValues(const PlanNode& plan) {
  auto table = std::make_shared<Table>("values", plan.schema);
  // analyze:allow(guard-probe: statement-literal rows; AppendRow charges storage.append)
  for (const auto& row : plan.rows) {
    SODA_RETURN_NOT_OK(table->AppendRow(row));
  }
  return table;
}

std::string SourceName(const PlanNode& node) {
  if (node.kind == PlanKind::kScan) {
    std::string s = "Scan " + node.table_name;
    if (!node.scan_predicates.empty()) {
      s += " pushed[";
      for (size_t i = 0; i < node.scan_predicates.size(); ++i) {
        if (i) s += ", ";
        const size_t c = node.scan_predicates[i].column;
        s += node.scan_predicates[i].ToString(
            c < node.schema.num_fields() ? node.schema.field(c).name
                                         : "#" + std::to_string(c));
      }
      s += "]";
    }
    if (node.scan_total_partitions > 0) {
      s += " [partitions: " + std::to_string(node.scan_partitions.size()) +
           "/" + std::to_string(node.scan_total_partitions) + " scanned]";
    }
    return s;
  }
  return "Binding " + node.binding_name;
}

/// Deferred resolution of a base relation (catalog table or runtime
/// binding): lowering must not touch data, and CTE/ITERATE bindings change
/// between executions of the same plan subtree.
std::function<Result<TablePtr>(ExecContext&)> MakeSourceResolver(
    const PlanNode& node) {
  if (node.kind == PlanKind::kScan) {
    return [&node](ExecContext& ctx) -> Result<TablePtr> {
      return ctx.catalog->GetTable(node.table_name);
    };
  }
  return [&node](ExecContext& ctx) -> Result<TablePtr> {
    auto it = ctx.bindings.find(node.binding_name);
    if (it == ctx.bindings.end()) {
      return Status::Internal("unbound relation: " + node.binding_name);
    }
    return it->second;
  };
}

std::string ExprListString(const std::vector<ExprPtr>& exprs) {
  std::string s = "[";
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i) s += ", ";
    s += exprs[i]->ToString();
  }
  return s + "]";
}

std::string JoinProbeName(const PlanNode& node) {
  if (node.left_keys.empty()) return "CrossJoin";
  std::string s = "HashJoinProbe [";
  for (size_t i = 0; i < node.left_keys.size(); ++i) {
    if (i) s += ", ";
    s += "#" + std::to_string(node.left_keys[i]) + "=#" +
         std::to_string(node.right_keys[i]);
  }
  return s + "]";
}

// --- join hash-table recycling (DESIGN.md §11) ----------------------------

/// Per-execution hand-off between a build pipeline's skip gate and the
/// probe pipeline's prepare closure. Both capture the same slot; the gate
/// fills it, the prepare consumes it. A PhysicalPlan executes at most
/// once, so the slot carries no cross-execution state.
struct RecycleSlot {
  bool checked = false;  ///< the gate ran and computed key/deps
  uint64_t key = 0;
  std::vector<PlanDependency> deps;
  std::shared_ptr<const JoinHashTable> ht;  ///< non-null on a cache hit
};

/// A build fragment is recyclable only when its result is a pure function
/// of versioned catalog state: runtime bindings (CTE working tables,
/// ITERATE state) and table functions vary per execution and must never
/// be served across queries.
bool RecyclableBuild(const PlanNode& node) {
  if (node.kind == PlanKind::kBindingRef ||
      node.kind == PlanKind::kTableFunction ||
      node.kind == PlanKind::kRecursiveCte || node.kind == PlanKind::kIterate) {
    return false;
  }
  for (const PlanPtr& c : node.children) {
    if (!RecyclableBuild(*c)) return false;
  }
  return true;
}

/// Folds the join's build-key columns into the fragment fingerprint: two
/// joins over the same build subtree with different key sets need
/// different hash tables.
uint64_t MixJoinKeys(uint64_t h, const std::vector<size_t>& keys) {
  for (size_t k : keys) {
    h ^= k + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string FormatTime(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(nanos) / 1e6);
  return buf;
}

}  // namespace

// --- lowering -------------------------------------------------------------

/// Walks the logical plan, appending pipelines to `plan_` in dependency
/// order. `Complete` lowers a subtree to a pipeline producing a full
/// relation; `Stream` lowers a subtree to an *open* pipeline (source +
/// transforms, no sink) a breaker can attach its sink to.
class PhysicalPlanBuilder {
 public:
  Result<PhysicalPlan> Build(const PlanNode& root) {
    SODA_ASSIGN_OR_RETURN(size_t idx, Complete(root));
    (void)idx;
    return std::move(plan_);
  }

 private:
  size_t Push(PhysicalPipeline p) {
    plan_.pipelines_.push_back(std::move(p));
    return plan_.pipelines_.size() - 1;
  }

  /// Open pipeline for a streaming subtree: scans, bindings, and chains of
  /// filter/project/join-probe. Any other node materializes via Complete
  /// and becomes the open pipeline's source.
  Result<PhysicalPipeline> Stream(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan:
      case PlanKind::kBindingRef: {
        PhysicalPipeline p;
        p.table_source = MakeSourceResolver(node);
        if (node.kind == PlanKind::kScan) p.scan_node = &node;
        p.source_op = Op(SourceName(node));
        return p;
      }
      case PlanKind::kFilter: {
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(*node.children[0]));
        auto t = std::make_shared<FilterTransform>(node.predicate->Clone());
        p.transform_ops.push_back(Op(t->name()));
        p.transforms.push_back(std::move(t));
        return p;
      }
      case PlanKind::kProject: {
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(*node.children[0]));
        // Pure column selections directly over a base relation fuse into
        // the scan: the source materializes only the referenced columns,
        // so sealed tables never decode dropped segments (the common
        // aggregate-input shape `Project [args] over Scan`).
        const PlanNode& child = *node.children[0];
        if ((child.kind == PlanKind::kScan ||
             child.kind == PlanKind::kBindingRef) &&
            p.transforms.empty() && AllColumnRefs(node.exprs)) {
          p.scan_columns.clear();
          p.scan_columns.reserve(node.exprs.size());
          for (const auto& e : node.exprs) {
            p.scan_columns.push_back(e->column_index);
          }
          p.source_op = Op(SourceName(child) + " project " +
                          ExprListString(node.exprs));
          return p;
        }
        std::vector<ExprPtr> exprs;
        exprs.reserve(node.exprs.size());
        for (const auto& e : node.exprs) exprs.push_back(e->Clone());
        auto t = std::make_shared<ProjectTransform>(std::move(exprs));
        p.transform_ops.push_back(Op(t->name()));
        p.transforms.push_back(std::move(t));
        return p;
      }
      case PlanKind::kJoin: {
        // The build (right) side is its own pipeline, finished before this
        // one starts; the probe side extends the open pipeline — joins only
        // break the pipeline on one side, as in HyPer. The probe transform
        // slot stays null until the prepare closure builds the hash table
        // from the build pipeline's result.
        SODA_ASSIGN_OR_RETURN(size_t build_idx, Complete(*node.children[1]));
        // Hash-join builds over recyclable fragments get a skip gate on
        // the build pipeline: a recycler hit elides both the build-side
        // materialization and the morsel-parallel exec.join_build pass.
        auto recycle = std::make_shared<RecycleSlot>();
        if (!node.left_keys.empty() && RecyclableBuild(*node.children[1])) {
          plan_.pipelines_[build_idx].skip_if =
              [&node, recycle](ExecContext& ctx) -> Result<bool> {
            if (ctx.ht_recycler == nullptr || ctx.catalog == nullptr) {
              return false;
            }
            std::vector<PlanDependency> deps;
            uint64_t key =
                FingerprintPlan(*node.children[1], *ctx.catalog, &deps);
            key = MixJoinKeys(key, node.right_keys);
            for (const PlanDependency& d : deps) {
              // Quarantined build sides neither hit nor publish: a
              // recycled table would bypass the CheckReadable gate.
              if (d.quarantined) return false;
            }
            SODA_ASSIGN_OR_RETURN(
                std::shared_ptr<const JoinHashTable> ht,
                ctx.ht_recycler->Lookup(key, ctx.guard));
            recycle->checked = true;
            recycle->key = key;
            recycle->deps = std::move(deps);
            recycle->ht = std::move(ht);
            return recycle->ht != nullptr;
          };
        }
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(*node.children[0]));
        const size_t slot = p.transforms.size();
        p.transforms.push_back(nullptr);
        p.transform_ops.push_back(Op(JoinProbeName(node)));
        const size_t prep_idx = p.prepares.size();
        Schema concat =
            node.children[0]->schema.Concat(node.children[1]->schema);
        p.prepares.push_back(
            [&node, build_idx, slot, prep_idx, concat, recycle](
                PhysicalPlan& pp, PhysicalPipeline& self,
                ExecContext& ctx) -> Status {
              if (recycle->ht) {
                self.transforms[slot] =
                    std::make_shared<HashJoinProbeTransform>(
                        recycle->ht, node.left_keys, concat);
                ++ctx.stats.recycled_joins;
                return Status::OK();
              }
              TablePtr build = pp.pipeline(build_idx).result;
              if (!build) {
                return Status::Internal("join build input not materialized");
              }
              if (prep_idx < self.prepare_ops.size()) {
                self.prepare_ops[prep_idx]->metrics.rows_in.fetch_add(
                    build->num_rows(), kRelaxed);
              }
              if (node.left_keys.empty()) {
                self.transforms[slot] = std::make_shared<CrossJoinTransform>(
                    std::move(build), concat);
              } else {
                SODA_ASSIGN_OR_RETURN(
                    std::shared_ptr<JoinHashTable> ht,
                    JoinHashTable::Build(std::move(build), node.right_keys,
                                         ctx.guard));
                if (ctx.ht_recycler != nullptr && recycle->checked) {
                  ctx.ht_recycler->Publish(recycle->key, ht,
                                           std::move(recycle->deps));
                }
                self.transforms[slot] =
                    std::make_shared<HashJoinProbeTransform>(
                        std::move(ht), node.left_keys, concat);
              }
              return Status::OK();
            });
        p.prepare_ops.push_back(
            Op(node.left_keys.empty() ? "CrossJoinBuild" : "HashBuild"));
        p.inputs.push_back(build_idx);
        if (node.predicate) {
          auto t = std::make_shared<FilterTransform>(node.predicate->Clone());
          p.transform_ops.push_back(Op(t->name()));
          p.transforms.push_back(std::move(t));
        }
        return p;
      }
      default: {
        // Pipeline breaker below: finish it, then stream its result.
        SODA_ASSIGN_OR_RETURN(size_t idx, Complete(node));
        PhysicalPipeline p;
        p.input_pipeline = idx;
        p.inputs.push_back(idx);
        p.source_op = Op("P" + std::to_string(idx));
        return p;
      }
    }
  }

  /// Pipeline handing `rel` to a random-access consumer through FlatView:
  /// whole, or the columns a column-ref `project` over it selects, named as
  /// `project` binds them. Flat: passed by reference or sharing the
  /// selected columns. Sealed: decoded into a per-statement flat table.
  /// `rel` is a base relation or a pipeline breaker, completed first.
  Result<size_t> Select(const PlanNode& rel, const PlanNode* project) {
    const bool base =
        rel.kind == PlanKind::kScan || rel.kind == PlanKind::kBindingRef;
    PhysicalPipeline p;
    if (!base) {
      SODA_ASSIGN_OR_RETURN(size_t in, Complete(rel));
      p.inputs.push_back(in);
    }
    std::string name = base ? SourceName(rel) : "";
    std::vector<size_t> cols;
    if (project) {
      for (const auto& e : project->exprs) cols.push_back(e->column_index);
      name += base ? " project " : "Project ";
      name += ExprListString(project->exprs);
    }
    p.op = Op(std::move(name));
    p.op_fn = [resolve = base ? MakeSourceResolver(rel) : nullptr,
               in = p.inputs, project,
               cols](PhysicalPlan& pp, ExecContext& ctx) -> Result<TablePtr> {
      SODA_ASSIGN_OR_RETURN(
          TablePtr t, resolve ? resolve(ctx)
                              : Result<TablePtr>(pp.pipeline(in[0]).result));
      if (!t) return Status::Internal("selection input not materialized");
      return FlatView(std::move(t), ctx.guard, project ? &cols : nullptr,
                      project ? &project->schema : nullptr);
    };
    return Push(std::move(p));
  }

  /// Pipeline producing the subtree's full relation; returns its index.
  Result<size_t> Complete(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan:
      case PlanKind::kBindingRef:
        return Select(node, nullptr);
      case PlanKind::kValues: {
        PhysicalPipeline p;
        p.op = Op("Values (" + std::to_string(node.rows.size()) + " rows)");
        p.op_fn = [&node](PhysicalPlan&, ExecContext&) {
          return ExecuteValues(node);
        };
        return Push(std::move(p));
      }
      case PlanKind::kProject: {
        // A column-ref Project over a relation that is not streamed (a
        // base relation or a pipeline breaker's result) selects columns of
        // that whole relation; over a stream it streams into the sink.
        const PlanKind child = node.children[0]->kind;
        if (AllColumnRefs(node.exprs) && child != PlanKind::kFilter &&
            child != PlanKind::kProject && child != PlanKind::kJoin) {
          return Select(*node.children[0], &node);
        }
        [[fallthrough]];
      }
      case PlanKind::kFilter:
      case PlanKind::kJoin: {
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(node));
        p.sink = std::make_shared<MaterializeSink>(node.schema);
        p.sink_op = Op(p.sink->name());
        p.count_materialization = true;
        return Push(std::move(p));
      }
      case PlanKind::kAggregate: {
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(*node.children[0]));
        p.sink = MakeAggregateSink(node);
        p.sink_op = Op(p.sink->name());
        p.count_materialization = true;
        return Push(std::move(p));
      }
      case PlanKind::kSort: {
        // The one ORDER BY path: materialize the input once (a selection
        // of a base relation, a finished pipeline's result, or the input's
        // stream into a MaterializeSink), then sort that relation.
        SODA_ASSIGN_OR_RETURN(size_t in, Complete(*node.children[0]));
        PhysicalPipeline p;
        p.inputs.push_back(in);
        p.op = Op(SortName(node));
        p.op_fn = [&node, in](PhysicalPlan& pp,
                              ExecContext& ctx) -> Result<TablePtr> {
          const TablePtr& t = pp.pipeline(in).result;
          if (!t) return Status::Internal("sort input not materialized");
          return SortTable(*t, node, ctx);
        };
        return Push(std::move(p));
      }
      case PlanKind::kLimit: {
        // ORDER BY ... LIMIT: one Top-N sink over the sort's input replaces
        // the Sort and Limit pipelines. A pure column-ref Project between
        // them (the binder's hidden sort columns) becomes the sink's
        // output column list.
        const PlanNode* sort = node.children[0].get();
        const PlanNode* project = nullptr;
        if (sort->kind == PlanKind::kProject && AllColumnRefs(sort->exprs) &&
            sort->children[0]->kind == PlanKind::kSort) {
          project = sort;
          sort = sort->children[0].get();
        }
        if (node.limit >= 0 && sort->kind == PlanKind::kSort) {
          SODA_ASSIGN_OR_RETURN(PhysicalPipeline p,
                                Stream(*sort->children[0]));
          std::vector<size_t> columns;
          if (project) {
            for (const auto& e : project->exprs) {
              columns.push_back(e->column_index);
            }
          } else {
            columns.resize(sort->schema.num_fields());
            std::iota(columns.begin(), columns.end(), 0);
          }
          p.sink = MakeTopNSink(node, *sort, std::move(columns));
          p.sink_op = Op(p.sink->name());
          return Push(std::move(p));
        }
        SODA_ASSIGN_OR_RETURN(PhysicalPipeline p, Stream(*node.children[0]));
        // When every transform preserves cardinality, offset+limit output
        // rows need exactly offset+limit source rows: bound the scan
        // itself (deterministic O(k) path). Otherwise the sink's done()
        // stops workers past the source chunk that completes the rows.
        bool bounded = node.limit >= 0;
        for (const auto& t : p.transforms) {
          if (!t || !t->preserves_cardinality()) {
            bounded = false;
            break;
          }
        }
        if (bounded) {
          const size_t off =
              node.offset > 0 ? static_cast<size_t>(node.offset) : 0;
          p.scan_limit = off + static_cast<size_t>(node.limit);
        }
        p.sink = MakeLimitSink(node);
        p.sink_op = Op(p.sink->name());
        return Push(std::move(p));
      }
      case PlanKind::kUnionAll: {
        // Every child streams into one shared sink, stamped with its child
        // index as the branch, so the result holds the children's rows in
        // child order, each in source order; a final source-less pipeline
        // closes the sink.
        auto shared = std::make_shared<MaterializeSink>(node.schema);
        auto shared_op = Op("UnionAll (materialize)");
        std::vector<size_t> child_idx;
        child_idx.reserve(node.children.size());
        for (size_t b = 0; b < node.children.size(); ++b) {
          SODA_ASSIGN_OR_RETURN(PhysicalPipeline cp,
                                Stream(*node.children[b]));
          cp.branch = static_cast<uint32_t>(b);
          cp.sink = shared;
          cp.sink_op = shared_op;
          cp.finalize_sink = false;
          child_idx.push_back(Push(std::move(cp)));
        }
        PhysicalPipeline fin;
        fin.sink = shared;
        fin.sink_op = shared_op;
        fin.finalize_sink = true;
        fin.inputs = child_idx;
        // Every union funnels through this merge point, so probe here. The
        // null display slot keeps the probe out of EXPLAIN output.
        fin.prepares.push_back(
            [](PhysicalPlan&, PhysicalPipeline&, ExecContext& ctx) {
              return ctx.Probe("exec.union");
            });
        fin.prepare_ops.push_back(nullptr);
        return Push(std::move(fin));
      }
      case PlanKind::kRecursiveCte: {
        PhysicalPipeline p;
        p.op = Op("RecursiveCte " + node.binding_name);
        p.op->counts_rounds = true;
        p.op_fn = [&node, op = p.op](PhysicalPlan&, ExecContext& ctx) {
          size_t rounds = 0;
          auto result = ExecuteRecursiveCte(node, ctx, &rounds);
          op->metrics.rounds.fetch_add(rounds, kRelaxed);
          return result;
        };
        return Push(std::move(p));
      }
      case PlanKind::kIterate: {
        PhysicalPipeline p;
        p.op = Op("Iterate");
        p.op->counts_rounds = true;
        p.op_fn = [&node, op = p.op](PhysicalPlan&, ExecContext& ctx) {
          size_t rounds = 0;
          auto result = ExecuteIterate(node, ctx, &rounds);
          op->metrics.rounds.fetch_add(rounds, kRelaxed);
          return result;
        };
        return Push(std::move(p));
      }
      case PlanKind::kTableFunction: {
        // The analytics operator's relation inputs are pipelines of this
        // same plan (paper Fig. 3); the operator runs once they finished.
        std::vector<size_t> in_idx;
        in_idx.reserve(node.children.size());
        for (const auto& child : node.children) {
          SODA_ASSIGN_OR_RETURN(size_t idx, Complete(*child));
          in_idx.push_back(idx);
        }
        PhysicalPipeline p;
        p.inputs = in_idx;
        p.op = Op("TableFunction " + node.function_name);
        p.op_fn = [&node, in_idx](PhysicalPlan& pp,
                                  ExecContext& ctx) -> Result<TablePtr> {
          std::vector<TablePtr> inputs;
          inputs.reserve(in_idx.size());
          for (size_t i : in_idx) {
            if (!pp.pipeline(i).result) {
              return Status::Internal(
                  "table function input not materialized");
            }
            inputs.push_back(pp.pipeline(i).result);
          }
          return ExecuteTableFunctionWithInputs(node, inputs, ctx);
        };
        return Push(std::move(p));
      }
    }
    return Status::Internal("unknown plan kind");
  }

  PhysicalPlan plan_;
};

Result<PhysicalPlan> LowerPlan(const PlanNode& plan) {
  PhysicalPlanBuilder builder;
  return builder.Build(plan);
}

// --- scheduling -----------------------------------------------------------

Status PhysicalPlan::Execute(ExecContext& ctx) {
  // Evaluate the recycler gates before anything runs: gates depend only
  // on the context (a cache lookup), never on upstream results, and a
  // skipped build pipeline also skips every earlier pipeline that feeds
  // skipped pipelines exclusively. That elides the *whole* derived build
  // subtree — a recycled build over `(SELECT ... GROUP BY ...)` skips the
  // aggregation of the base table, not just the final hash-table pass.
  std::vector<char> skipped(pipelines_.size(), 0);
  bool any_skipped = false;
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    if (!pipelines_[i].skip_if) continue;
    SODA_ASSIGN_OR_RETURN(bool skip, pipelines_[i].skip_if(ctx));
    skipped[i] = skip ? 1 : 0;
    any_skipped |= skip;
  }
  if (any_skipped) {
    // Consumers always have a larger index (pipelines are in dependency
    // order), so one backward sweep settles the transitive closure: a
    // pipeline with consumers, all of which are skipped, is dead.
    for (size_t i = pipelines_.size(); i-- > 0;) {
      if (skipped[i]) continue;
      bool has_consumer = false;
      bool has_live_consumer = false;
      for (size_t k = i + 1; k < pipelines_.size() && !has_live_consumer;
           ++k) {
        const PhysicalPipeline& c = pipelines_[k];
        bool consumes = c.input_pipeline == i;
        for (size_t in : c.inputs) consumes |= in == i;
        if (!consumes) continue;
        has_consumer = true;
        has_live_consumer = !skipped[k];
      }
      if (has_consumer && !has_live_consumer) skipped[i] = 1;
    }
  }
  size_t index = 0;
  for (auto& p : pipelines_) {
    SODA_RETURN_NOT_OK(ctx.Probe("exec.pipeline"));
    if (skipped[index++]) continue;
    const uint64_t bytes_before =
        ctx.guard ? ctx.guard->bytes_reserved() : 0;
    for (size_t j = 0; j < p.prepares.size(); ++j) {
      const uint64_t t0 = NowNanos();
      Status st = p.prepares[j](*this, p, ctx);
      if (j < p.prepare_ops.size() && p.prepare_ops[j]) {
        p.prepare_ops[j]->metrics.nanos.fetch_add(NowNanos() - t0, kRelaxed);
      }
      SODA_RETURN_NOT_OK(st);
    }
    if (p.op_fn) {
      const uint64_t t0 = NowNanos();
      SODA_ASSIGN_OR_RETURN(p.result, p.op_fn(*this, ctx));
      if (p.op) {
        p.op->metrics.nanos.fetch_add(NowNanos() - t0, kRelaxed);
        if (p.result) {
          p.op->metrics.rows_out.fetch_add(p.result->num_rows(), kRelaxed);
        }
      }
    } else {
      if (p.table_source || p.input_pipeline != PhysicalPipeline::kNoInput) {
        SODA_RETURN_NOT_OK(RunStreaming(p, ctx));
      }
      if (p.sink && p.finalize_sink) {
        const uint64_t t0 = NowNanos();
        SODA_RETURN_NOT_OK(p.sink->Finalize());
        p.result = p.sink->result();
        if (p.sink_op) {
          p.sink_op->metrics.nanos.fetch_add(NowNanos() - t0, kRelaxed);
          if (p.result) {
            p.sink_op->metrics.rows_out.fetch_add(p.result->num_rows(),
                                                  kRelaxed);
          }
        }
        if (p.count_materialization && p.result) {
          ctx.stats.cumulative_materialized_tuples += p.result->num_rows();
        }
      }
    }
    if (ctx.guard) {
      p.bytes_reserved = ctx.guard->bytes_reserved() - bytes_before;
    }
  }
  return Status::OK();
}

Status PhysicalPlan::RunStreaming(PhysicalPipeline& p, ExecContext& ctx) {
  for (const auto& t : p.transforms) {
    if (!t) return Status::Internal("unprepared transform in pipeline");
  }
  TablePtr source_table;
  if (p.table_source) {
    SODA_ASSIGN_OR_RETURN(source_table, p.table_source(ctx));
  } else {
    source_table = pipelines_[p.input_pipeline].result;
    if (!source_table) {
      return Status::Internal("pipeline input not materialized");
    }
  }
  const Table& source = *source_table;

  // Whole-table quarantine gate, up front: a table-level quarantined stub
  // has zero rows, so the per-chunk CheckReadable below would never run
  // and `SELECT count(*)` would silently read 0 from lost data.
  // CheckReadable(0, 0) reports table-level quarantine and nothing else.
  SODA_RETURN_NOT_OK(source.CheckReadable(0, 0));

  // Partition pruning (sealed partitioned scans only): the scan iterates a
  // *virtual* row space — the concatenation of the kept partitions'
  // physical row ranges — so ParallelFor still sees one dense range and
  // morsel distribution is unchanged. The plan's partition count must
  // match the table's (it always does: SELECT pins one catalog snapshot
  // for planning and execution); on mismatch pruning is skipped, which is
  // merely slower, never wrong.
  struct ScanRange {
    size_t virt_begin;  // first virtual row of this range
    size_t phys_begin;  // corresponding physical row
    size_t rows;
  };
  std::vector<ScanRange> ranges;
  bool pruned = false;
  const PlanNode* scan = p.scan_node;
  if (scan && scan->scan_total_partitions > 0 && source.sealed() &&
      source.partition_offsets().size() == scan->scan_total_partitions + 1 &&
      scan->scan_partitions.size() < scan->scan_total_partitions) {
    SODA_RETURN_NOT_OK(ctx.Probe("storage.partition_prune"));
    const auto& po = source.partition_offsets();
    size_t virt = 0;
    for (size_t part : scan->scan_partitions) {
      const size_t rows = po[part + 1] - po[part];
      if (rows == 0) continue;
      ranges.push_back({virt, po[part], rows});
      virt += rows;
    }
    pruned = true;
  }
  const size_t virt_rows =
      pruned ? (ranges.empty() ? 0 : ranges.back().virt_begin +
                                         ranges.back().rows)
             : source.num_rows();
  const size_t total = std::min(virt_rows, p.scan_limit);

  // Pushed predicates evaluate on the encoded payload (dict codes, FOR
  // data) before any decode; the downstream Filter re-checks the full
  // predicate, so a scan that cannot use them just returns more rows.
  const std::vector<ScanPredicate>* pushed =
      scan && !scan->scan_predicates.empty() && source.sealed()
          ? &scan->scan_predicates
          : nullptr;

  Sink& sink = *p.sink;

  FirstError first_error;

  // Guard-aware: every morsel boundary probes cancellation / deadline /
  // memory budget / fault injection, and worker-side table appends are
  // charged to the query's accountant.
  Status guard_status = ParallelFor(
      ctx.guard, total,
      [&](size_t begin, size_t end, size_t worker_id) {
        if (first_error.failed()) return;
        if (source.sealed()) {
          Status st = ctx.Probe("storage.segment_decode");
          if (!st.ok()) {
            first_error.Record(std::move(st));
            return;
          }
        }
        for (size_t offset = begin; offset < end;) {
          if (first_error.failed()) return;
          // Cross-worker early exit (LIMIT): rows from this source chunk
          // on cannot reach the result, so they are never even scanned.
          if (sink.done(offset)) return;
          size_t count = std::min(kChunkCapacity, end - offset);
          size_t phys = offset;
          if (pruned) {
            // Map the virtual offset into its physical range; chunks never
            // straddle a range boundary (partition boundaries are also
            // row-group boundaries, so this keeps decodes group-local).
            const auto it =
                std::upper_bound(ranges.begin(), ranges.end(), offset,
                                 [](size_t v, const ScanRange& r) {
                                   return v < r.virt_begin;
                                 }) -
                1;
            phys = it->phys_begin + (offset - it->virt_begin);
            count = std::min(count, it->virt_begin + it->rows - offset);
          }
          // Quarantine gate, after the pruning remap: a query whose kept
          // partitions are healthy proceeds even when another partition's
          // row group is quarantined (degraded reads, DESIGN.md §10).
          Status readable = source.CheckReadable(phys, count);
          if (!readable.ok()) {
            first_error.Record(std::move(readable));
            return;
          }
          const uint64_t t0 = NowNanos();
          DataChunk chunk;
          const std::vector<size_t>* proj =
              p.scan_columns.empty() ? nullptr : &p.scan_columns;
          if (!pushed ||
              !source.ScanSliceFiltered(phys, count, *pushed, &chunk, proj)) {
            source.ScanSlice(phys, count, &chunk, proj);
          }
          if (p.source_op) {
            auto& m = p.source_op->metrics;
            m.rows_out.fetch_add(chunk.num_rows(), kRelaxed);
            m.chunks.fetch_add(1, kRelaxed);
            m.nanos.fetch_add(NowNanos() - t0, kRelaxed);
          }
          SinkContext sctx;
          sctx.worker_id = worker_id;
          sctx.branch = p.branch;
          sctx.sequence = offset;  // source order, shared by derived chunks

          // Apply the transform chain with continuation-style emits,
          // metering rows/chunks/time at every stage boundary. Times are
          // inclusive of the downstream chain a stage pushed into.
          std::function<Status(DataChunk&, size_t)> apply =
              [&](DataChunk& c, size_t idx) -> Status {
            if (c.num_rows() == 0) return Status::OK();
            if (idx == p.transforms.size()) {
              auto& m = p.sink_op->metrics;
              m.rows_in.fetch_add(c.num_rows(), kRelaxed);
              m.chunks.fetch_add(1, kRelaxed);
              const uint64_t s0 = NowNanos();
              Status st = sink.Consume(c, sctx);
              m.nanos.fetch_add(NowNanos() - s0, kRelaxed);
              return st;
            }
            auto& m = p.transform_ops[idx]->metrics;
            m.rows_in.fetch_add(c.num_rows(), kRelaxed);
            m.chunks.fetch_add(1, kRelaxed);
            uint64_t downstream = 0;
            const uint64_t s0 = NowNanos();
            Status st = p.transforms[idx]->Apply(
                c, [&](DataChunk& next) -> Status {
                  m.rows_out.fetch_add(next.num_rows(), kRelaxed);
                  const uint64_t d0 = NowNanos();
                  Status down = apply(next, idx + 1);
                  downstream += NowNanos() - d0;
                  return down;
                });
            const uint64_t total = NowNanos() - s0;
            m.nanos.fetch_add(total, kRelaxed);
            m.self_nanos.fetch_add(total - std::min(total, downstream),
                                   kRelaxed);
            return st;
          };
          Status st = apply(chunk, 0);
          if (!st.ok()) {
            first_error.Record(std::move(st));
            return;
          }
          offset += count;
        }
      },
      /*morsel_size=*/kChunkCapacity * 8);

  SODA_RETURN_NOT_OK(first_error.Take());
  SODA_RETURN_NOT_OK(guard_status);
  return Status::OK();
}

// --- display --------------------------------------------------------------

namespace {

enum class StageKind { kPrepare, kOp, kSource, kTransform, kSink };

struct StageRow {
  const PhysicalOperator* op;
  StageKind kind;
  bool shared_sink = false;
};

std::vector<StageRow> CollectStages(const PhysicalPipeline& p) {
  std::vector<StageRow> rows;
  for (const auto& op : p.prepare_ops) {
    if (op) rows.push_back({op.get(), StageKind::kPrepare, false});
  }
  if (p.op) rows.push_back({p.op.get(), StageKind::kOp, false});
  if (p.source_op) rows.push_back({p.source_op.get(), StageKind::kSource, false});
  for (const auto& op : p.transform_ops) {
    if (op) rows.push_back({op.get(), StageKind::kTransform, false});
  }
  if (p.sink_op && !p.op_fn) {
    rows.push_back({p.sink_op.get(), StageKind::kSink, !p.finalize_sink});
  }
  return rows;
}

}  // namespace

std::string PhysicalPlan::ToString(bool analyze) const {
  std::string out;
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    const PhysicalPipeline& p = pipelines_[i];
    std::string header = "P" + std::to_string(i);
    if (!p.inputs.empty()) {
      header += " [<-";
      for (size_t j = 0; j < p.inputs.size(); ++j) {
        header += (j ? ", P" : " P") + std::to_string(p.inputs[j]);
      }
      header += "]";
    }
    std::vector<StageRow> rows = CollectStages(p);
    if (!analyze) {
      out += header + ": ";
      bool first = true;
      // analyze:allow(guard-probe: EXPLAIN rendering; plan-shaped, not data-shaped)
      for (const auto& r : rows) {
        if (r.kind == StageKind::kPrepare) continue;  // shown via [<- Pk]
        if (!first) out += " -> ";
        out += r.op->name;
        if (r.shared_sink) out += " (shared)";
        first = false;
      }
      out += "\n";
      continue;
    }
    out += header + ":\n";
    // analyze:allow(guard-probe: EXPLAIN rendering; plan-shaped, not data-shaped)
    for (const auto& r : rows) {
      const OperatorMetrics& m = r.op->metrics;
      std::string line = "  " + r.op->name;
      if (r.shared_sink) line += " (shared)";
      if (line.size() < 46) line.append(46 - line.size(), ' ');
      if (r.kind == StageKind::kTransform || r.kind == StageKind::kSink ||
          r.kind == StageKind::kPrepare) {
        line += " rows_in=" + std::to_string(m.rows_in.load(kRelaxed));
      }
      if (r.kind != StageKind::kPrepare) {
        line += " rows_out=" + std::to_string(m.rows_out.load(kRelaxed));
      }
      if (r.kind == StageKind::kSource || r.kind == StageKind::kTransform ||
          r.kind == StageKind::kSink) {
        line += " chunks=" + std::to_string(m.chunks.load(kRelaxed));
      }
      line += " time=" + FormatTime(m.nanos.load(kRelaxed));
      if (r.kind == StageKind::kTransform) {
        line += " self=" + FormatTime(m.self_nanos.load(kRelaxed));
      }
      if (r.op->counts_rounds) {
        line += " rounds=" + std::to_string(m.rounds.load(kRelaxed));
      }
      out += line + "\n";
    }
    out += "  bytes_reserved=" + std::to_string(p.bytes_reserved) + "\n";
  }
  return out;
}

}  // namespace soda
