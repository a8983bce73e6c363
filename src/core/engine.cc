#include "core/engine.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <numeric>

#include "core/plan_cache.h"
#include "exec/executor.h"
#include "exec/ht_recycler.h"
#include "exec/physical_plan.h"
#include "exec/plan_fingerprint.h"
#include "exec/plan_verifier.h"
#include "expr/evaluator.h"
#include "expr/fold.h"
#include "sql/binder.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "storage/partition.h"
#include "storage/segment.h"
#include "util/string_util.h"

namespace soda {

namespace {

/// The engine's repeated-traffic caches plus the raw statement text,
/// threaded from Engine::Execute into the SELECT/EXPLAIN/PREPARE paths
/// (DESIGN.md §11). All pointers may be null (tests calling helpers
/// directly, inner selects of CTAS / INSERT..SELECT that have no
/// statement-level SQL key).
struct CacheCtx {
  PlanCache* plan_cache = nullptr;
  HtRecycler* ht_recycler = nullptr;
  PreparedRegistry* prepared = nullptr;
  const std::string* sql = nullptr;  ///< raw text of the outer statement
};

/// The plan-cache key: trimmed statement text plus the optimize flag (a
/// plan-shape test flipping soda's optimizer off must not be served an
/// optimized plan cached moments earlier).
std::string PlanCacheKey(const std::string& sql, bool optimize) {
  return std::string(Trim(sql)) + (optimize ? "|opt" : "|raw");
}

/// A CacheCtx for a nested select (CTAS / INSERT..SELECT body): the
/// recycler still applies, but there is no statement-level SQL text to
/// key a plan-cache entry by, and prepared names are out of scope.
CacheCtx InnerCacheCtx(const CacheCtx& cc) {
  CacheCtx inner;
  inner.ht_recycler = cc.ht_recycler;
  return inner;
}

/// Health counters for soda_status(): durability-layer numbers straight
/// from the manager's atomics, quarantine extent from a walk over the
/// catalog (the caller's snapshot for SELECTs, so the numbers are
/// consistent with what the statement can see). A volatile engine
/// reports durable = 0 with the WAL/checkpoint counters zero.
StatusRows CollectEngineStatus(const Catalog* catalog, DurabilityManager* dur,
                               const CacheCtx& cc) {
  int64_t quarantined_row_groups = 0;
  int64_t quarantined_tables = 0;
  for (const std::string& name : catalog->TableNames()) {
    Result<TablePtr> t = catalog->GetTable(name);
    if (!t.ok()) continue;
    const TablePtr& table = t.ValueOrDie();
    if (table->table_level_quarantined()) ++quarantined_tables;
    for (size_t g = 0; g < table->num_row_groups(); ++g) {
      if (table->group_quarantined(g)) ++quarantined_row_groups;
    }
  }
  const PlanCache::Stats ps =
      cc.plan_cache != nullptr ? cc.plan_cache->stats() : PlanCache::Stats{};
  const HtRecycler::Stats hs = cc.ht_recycler != nullptr
                                   ? cc.ht_recycler->stats()
                                   : HtRecycler::Stats{};
  const bool durable = dur != nullptr;
  auto n = [](auto v) { return static_cast<int64_t>(v); };
  return {
      {"durable", durable ? 1 : 0},
      {"wal_bytes", durable ? n(dur->wal()->size_bytes()) : 0},
      {"wal_records", durable ? n(dur->wal()->record_count()) : 0},
      {"last_checkpoint_lsn", durable ? n(dur->last_checkpoint_lsn()) : 0},
      {"checkpoint_count", durable ? n(dur->checkpoint_count()) : 0},
      {"auto_checkpoint_count",
       durable ? n(dur->auto_checkpoint_count()) : 0},
      {"scrub_pass_count", durable ? n(dur->scrub_pass_count()) : 0},
      {"quarantined_row_groups", quarantined_row_groups},
      {"quarantined_tables", quarantined_tables},
      {"plan_cache_hits", ps.hits},
      {"plan_cache_misses", ps.misses},
      {"plan_cache_entries", ps.entries},
      {"ht_cache_hits", hs.hits},
      {"ht_cache_misses", hs.misses},
      {"ht_cache_evictions", hs.evictions},
      {"ht_cache_bytes", hs.bytes},
  };
}

/// Fills the per-statement ExecContext fields shared by SELECT, EXPLAIN
/// ANALYZE, and EXECUTE.
void InitExecContext(ExecContext* ctx, Catalog* catalog,
                     const EngineOptions& options, DurabilityManager* dur,
                     QueryGuard* guard, const CacheCtx& cc) {
  ctx->catalog = catalog;
  ctx->max_iterations = options.max_iterations;
  ctx->guard = guard;
  ctx->verify_plans = options.verify_plans;
  ctx->ht_recycler = cc.ht_recycler;
  ctx->status_provider = [catalog, dur, cc] {
    return CollectEngineStatus(catalog, dur, cc);
  };
}

/// A SELECT's optimized plan, and whether the plan cache served it.
struct SelectPlan {
  /// Always holds `plan`; fresh plans also carry fingerprint, deps and
  /// the catalog version they were bound at.
  CachedPlan entry;
  bool from_cache = false;
};

/// The SELECT planning step shared by SELECT, EXPLAIN and PREPARE. With
/// a plan cache and statement text, the entry keyed by `text` (validated
/// against the pinned snapshot) skips bind/optimize. Otherwise
/// `stmt` is bound (with PREPARE's `param_types`), optimized and
/// fingerprinted, and cached under `text`.
Result<SelectPlan> PlanSelect(const SelectStmt* stmt, const std::string* text,
                              Catalog* catalog, const EngineOptions& options,
                              QueryGuard* guard, PlanCache* cache,
                              std::vector<DataType>* param_types = nullptr) {
  SelectPlan out;
  const bool cacheable = cache != nullptr && text != nullptr;
  std::string key;
  if (cacheable) {
    key = PlanCacheKey(*text, options.optimize);
    SODA_ASSIGN_OR_RETURN(out.entry.plan,
                          cache->Lookup(key, *catalog, guard));
    out.from_cache = out.entry.plan != nullptr;
    if (out.from_cache) return out;
  }
  Binder binder(catalog);
  binder.set_param_types(param_types);
  SODA_ASSIGN_OR_RETURN(PlanPtr fresh, binder.BindSelectStatement(*stmt));
  if (options.optimize) {
    fresh = OptimizePlan(std::move(fresh), catalog);
  }
  out.entry.plan = std::shared_ptr<const PlanNode>(std::move(fresh));
  out.entry.fingerprint =
      FingerprintPlan(*out.entry.plan, *catalog, &out.entry.deps);
  out.entry.catalog_version = catalog->catalog_version();
  if (cacheable) cache->Insert(key, out.entry);
  return out;
}

Result<QueryResult> ExecuteSelect(const SelectStmt* stmt, Catalog* catalog,
                                  const EngineOptions& options,
                                  DurabilityManager* dur, QueryGuard* guard,
                                  const CacheCtx& cc) {
  SODA_ASSIGN_OR_RETURN(
      SelectPlan planned,
      PlanSelect(stmt, cc.sql, catalog, options, guard, cc.plan_cache));
  ExecContext ctx;
  InitExecContext(&ctx, catalog, options, dur, guard, cc);
  SODA_ASSIGN_OR_RETURN(TablePtr result,
                        ExecutePlan(*planned.entry.plan, ctx));
  return QueryResult(std::move(result), ctx.stats);
}

/// Builds the CREATE TABLE partition spec from the parsed clause,
/// resolving the column against `schema` and validating bounds.
Result<PartitionSpec> BuildPartitionSpec(const CreateTableStmt& stmt,
                                         const Schema& schema) {
  PartitionSpec spec;
  if (stmt.partition_kind == CreateTableStmt::PartitionKind::kNone) {
    return spec;
  }
  SODA_ASSIGN_OR_RETURN(size_t col,
                        schema.FindField(ToLower(stmt.partition_column)));
  spec.column = ToLower(stmt.partition_column);
  spec.column_index = col;
  if (stmt.partition_kind == CreateTableStmt::PartitionKind::kHash) {
    spec.kind = PartitionSpec::Kind::kHash;
    if (stmt.partition_count < 1 || stmt.partition_count > 4096) {
      return Status::InvalidArgument(
          "PARTITION BY HASH: PARTITIONS must be in [1, 4096]");
    }
    spec.num_partitions = static_cast<size_t>(stmt.partition_count);
    return spec;
  }
  spec.kind = PartitionSpec::Kind::kRange;
  if (schema.field(col).type != DataType::kBigInt) {
    return Status::InvalidArgument(
        "PARTITION BY RANGE requires a BIGINT partition column");
  }
  if (stmt.partition_bounds.empty()) {
    return Status::InvalidArgument(
        "PARTITION BY RANGE: at least one bound required");
  }
  for (size_t i = 1; i < stmt.partition_bounds.size(); ++i) {
    if (stmt.partition_bounds[i] <= stmt.partition_bounds[i - 1]) {
      return Status::InvalidArgument(
          "PARTITION BY RANGE: bounds must be strictly ascending");
    }
  }
  spec.bounds = stmt.partition_bounds;
  spec.num_partitions = spec.bounds.size() + 1;
  return spec;
}

/// Applies `delta` to `prev` (null when the delta creates the table), then
/// commits it: log the delta, then publish the next version, so readers
/// holding the old TablePtr keep a consistent snapshot. A delta that
/// creates no table, replaces no group and appends no row commits nothing:
/// the table keeps its version, so plans and join builds over it stay
/// fresh.
Result<QueryResult> CommitWrite(Catalog* catalog, DurabilityManager* dur,
                                const Table* prev, const TableDelta& delta) {
  if (!delta.create && delta.replaced.empty() &&
      (delta.appended.empty() || delta.appended[0].size() == 0)) {
    return QueryResult();
  }
  SODA_ASSIGN_OR_RETURN(TablePtr next, ApplyDelta(prev, delta));
  SODA_RETURN_NOT_OK(CommitDurable(
      dur, [&] { return dur->wal()->AppendTableWrite(delta); },
      [&] {
        return prev ? catalog->ReplaceTable(delta.table, std::move(next))
                    : catalog->RegisterTable(std::move(next));
      }));
  return QueryResult();
}

Result<QueryResult> ExecuteCreate(const CreateTableStmt& stmt,
                                  Catalog* catalog,
                                  const EngineOptions& options,
                                  DurabilityManager* dur, QueryGuard* guard,
                                  const CacheCtx& cc) {
  if (stmt.if_not_exists && catalog->HasTable(stmt.name)) {
    return QueryResult();
  }
  // Name clash is checked before the WAL append so a failing CREATE never
  // reaches the log (the engine is single-writer; see DESIGN.md §6b).
  if (catalog->HasTable(stmt.name)) {
    return Status::AlreadyExists("table already exists: " +
                                 ToLower(stmt.name));
  }
  TableDelta delta;
  delta.table = ToLower(stmt.name);
  delta.create = true;
  if (stmt.as_select) {
    // CREATE TABLE .. AS SELECT: materialize first, log second, register
    // third, so a failing query or a failed commit leaves no half-created
    // table behind (in memory or on disk).
    SODA_ASSIGN_OR_RETURN(
        QueryResult result,
        ExecuteSelect(stmt.as_select.get(), catalog, options, dur, guard,
                      InnerCacheCtx(cc)));
    Table& rows = *result.table();
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      const Field& f = rows.schema().field(c);
      delta.schema.AddField(Field(f.name, f.type));  // strip qualifiers
      delta.appended.push_back(std::move(rows.column(c)));
    }
  } else {
    for (const auto& [name, type] : stmt.columns) {
      delta.schema.AddField(Field(name, type));
    }
    SODA_ASSIGN_OR_RETURN(delta.spec, BuildPartitionSpec(stmt, delta.schema));
  }
  return CommitWrite(catalog, dur, nullptr, delta);
}

/// Binds a DML WHERE clause over `table`'s rows; null when there is none.
Result<ExprPtr> BindDmlWhere(const ParseExpr* where, const Table& table,
                             Catalog* catalog) {
  if (!where) return ExprPtr();
  Binder binder(catalog);
  SODA_ASSIGN_OR_RETURN(
      ExprPtr pred,
      binder.BindScalar(*where, table.schema().WithQualifier(table.name())));
  if (pred->type != DataType::kBool) {
    return Status::BindError("WHERE clause must be boolean");
  }
  return pred;
}

/// The rows of `rows` that `where` selects (every row when it is null).
Status SelectRows(const Expression* where, const DataChunk& rows,
                  std::vector<uint32_t>* sel) {
  if (where) return EvaluatePredicate(*where, rows, sel);
  sel->resize(rows.num_rows());
  for (size_t r = 0; r < sel->size(); ++r) (*sel)[r] = static_cast<uint32_t>(r);
  return Status::OK();
}

/// The rows in [0, n) that the ascending `sel` does not list.
std::vector<uint32_t> Unselected(const std::vector<uint32_t>& sel, size_t n) {
  std::vector<uint32_t> all(n), rest;
  std::iota(all.begin(), all.end(), 0u);
  std::set_difference(all.begin(), all.end(), sel.begin(), sel.end(),
                      std::back_inserter(rest));
  return rest;
}

/// Commits an UPDATE/DELETE: walks `table`'s row groups (a flat table is
/// one) except those the zone maps rule out for a `col <op> constant`
/// conjunct of `where`. `edit(rows, moved)` returns true after editing a
/// group's decoded `*rows` in place; rows it puts in `*moved` leave for the
/// delta's appended rows. An edited sealed group is re-encoded; an edited
/// flat table moves whole into the appended rows.
template <typename Edit>
Result<QueryResult> CommitEdit(Catalog* catalog, DurabilityManager* dur,
                               QueryGuard* guard, const Table& table,
                               const Expression* where, const Edit& edit) {
  TableDelta delta = DeltaFor(table);
  const std::vector<ScanPredicate> preds =
      where ? ExtractScanPredicates(*where, table.schema())
            : std::vector<ScanPredicate>();
  DataChunk rows;
  DataChunk moved(table.schema());
  for (size_t g = 0; g < delta.prev_groups; ++g) {
    if (table.sealed() && !table.GroupMayMatch(g, preds)) continue;
    SODA_RETURN_NOT_OK(GuardProbe(guard, "exec.dml"));
    if (table.sealed()) {
      table.ScanSlice(table.group_offset(g), table.group_rows(g), &rows);
    } else {
      SODA_RETURN_NOT_OK(GuardReserve(guard, table.MemoryUsage(), "exec.dml"));
      table.ScanSlice(0, table.num_rows(), &rows);
    }
    SODA_ASSIGN_OR_RETURN(bool edited, edit(&rows, &moved));
    if (!edited) continue;
    std::vector<RowGroup> replacement;
    if (table.sealed()) {
      SODA_RETURN_NOT_OK(EncodeGroups(rows.columns(), 0, rows.num_rows(),
                                      &replacement));
    } else {
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        moved.column(c).AppendSlice(rows.column(c), 0, rows.num_rows());
      }
    }
    delta.replaced.emplace_back(g, std::move(replacement));
  }
  if (!moved.empty()) delta.appended = std::move(moved.columns());
  return CommitWrite(catalog, dur, &table, delta);
}

/// DELETE: copy-on-write — each touched row group keeps the rows WHERE
/// does not select; the delta replaces only those groups.
Result<QueryResult> ExecuteDelete(const DeleteStmt& stmt, Catalog* catalog,
                                  DurabilityManager* dur, QueryGuard* guard) {
  SODA_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(stmt.table));
  // Writes must see the whole table (copy-on-write rebuild); quarantined
  // payload would silently turn into all-NULL placeholder rows.
  SODA_RETURN_NOT_OK(table->CheckReadable(0, table->num_rows()));
  SODA_ASSIGN_OR_RETURN(ExprPtr where,
                        BindDmlWhere(stmt.where.get(), *table, catalog));
  return CommitEdit(
      catalog, dur, guard, *table, where.get(),
      [&](DataChunk* rows, DataChunk*) -> Result<bool> {
        std::vector<uint32_t> doomed;
        SODA_RETURN_NOT_OK(SelectRows(where.get(), *rows, &doomed));
        if (doomed.empty()) return false;
        *rows =
            GatherRows(rows->columns(), Unselected(doomed, rows->num_rows()));
        return true;
      });
}

/// UPDATE: gather-evaluate-scatter per row group — SET expressions run
/// only over the rows WHERE selects (a failing or expensive expression on
/// an unselected row never executes) and the new values are scattered into
/// the group. When SET assigns the partition column, the updated rows
/// leave their group instead, and ApplyDelta appends them to their new
/// partition.
Result<QueryResult> ExecuteUpdate(const UpdateStmt& stmt, Catalog* catalog,
                                  DurabilityManager* dur, QueryGuard* guard) {
  SODA_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(stmt.table));
  // See ExecuteDelete: no copy-on-write over quarantined payload.
  SODA_RETURN_NOT_OK(table->CheckReadable(0, table->num_rows()));
  const Schema schema = table->schema().WithQualifier(table->name());
  Binder binder(catalog);

  // Bind assignments; insert casts for compatible numeric mismatches.
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  bool moves_rows = false;
  for (const auto& [col_name, parse_expr] : stmt.assignments) {
    SODA_ASSIGN_OR_RETURN(size_t col, schema.FindField(col_name));
    SODA_ASSIGN_OR_RETURN(ExprPtr expr,
                          binder.BindScalar(*parse_expr, schema));
    DataType want = schema.field(col).type;
    if (expr->type != want) {
      if (!(IsNumeric(expr->type) && IsNumeric(want))) {
        return Status::TypeError("cannot assign " +
                                 std::string(DataTypeToString(expr->type)) +
                                 " to column '" + col_name + "' of type " +
                                 DataTypeToString(want));
      }
      expr = Expression::Cast(std::move(expr), want);
    }
    moves_rows |= table->partition_spec().partitioned() &&
                  col == table->partition_spec().column_index;
    assignments.emplace_back(col, std::move(expr));
  }
  SODA_ASSIGN_OR_RETURN(ExprPtr where,
                        BindDmlWhere(stmt.where.get(), *table, catalog));

  auto edit = [&](DataChunk* rows, DataChunk* moved) -> Result<bool> {
    std::vector<uint32_t> sel;
    SODA_RETURN_NOT_OK(SelectRows(where.get(), *rows, &sel));
    if (sel.empty()) return false;
    // Every SET expression reads the pre-update values.
    DataChunk updated = GatherRows(rows->columns(), sel);
    std::vector<Column> values(assignments.size());
    for (size_t a = 0; a < assignments.size(); ++a) {
      SODA_RETURN_NOT_OK(
          EvaluateExpression(*assignments[a].second, updated, &values[a]));
    }
    for (size_t a = 0; a < assignments.size(); ++a) {
      updated.column(assignments[a].first) = std::move(values[a]);
    }
    if (moves_rows) {
      for (size_t c = 0; c < updated.num_columns(); ++c) {
        moved->column(c).AppendSlice(updated.column(c), 0, sel.size());
      }
      *rows = GatherRows(rows->columns(), Unselected(sel, rows->num_rows()));
      return true;
    }
    for (const auto& [col, expr] : assignments) {
      Column& dst = rows->column(col);
      Column merged(dst.type());
      merged.Reserve(dst.size());
      for (uint32_t r = 0, k = 0; r < dst.size(); ++r) {
        const bool hit = k < sel.size() && sel[k] == r;
        merged.AppendFrom(hit ? updated.column(col) : dst, hit ? k++ : r);
      }
      dst = std::move(merged);
    }
    return true;
  };
  return CommitEdit(catalog, dur, guard, *table, where.get(), edit);
}

Result<QueryResult> ExecuteDrop(const DropTableStmt& stmt, Catalog* catalog,
                                DurabilityManager* dur) {
  if (stmt.if_exists && !catalog->HasTable(stmt.name)) {
    return QueryResult();
  }
  if (!catalog->HasTable(stmt.name)) {
    return Status::KeyError("table not found: " + ToLower(stmt.name));
  }
  SODA_RETURN_NOT_OK(CommitDurable(
      dur, [&] { return dur->wal()->AppendDropTable(ToLower(stmt.name)); },
      [&] { return catalog->DropTable(stmt.name); }));
  return QueryResult();
}

/// INSERT: all-or-nothing. New rows are staged into a side table; only
/// when every row has evaluated and type-checked is the next version
/// built, write-ahead-logged and atomically swapped in. A failure at any
/// point (bad row, tripped guard, injected fault, failed commit) leaves
/// the table — in memory and on disk — exactly as it was.
Result<QueryResult> ExecuteInsert(const InsertStmt& stmt, Catalog* catalog,
                                  const EngineOptions& options,
                                  DurabilityManager* dur, QueryGuard* guard,
                                  const CacheCtx& cc) {
  SODA_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(stmt.table));
  // INSERT appends to the current payload's row groups; a quarantined
  // table rejects the write rather than splice rows onto placeholder data.
  // DROP TABLE still works.
  SODA_RETURN_NOT_OK(table->CheckReadable(0, table->num_rows()));
  Table staged(table->name(), table->schema());

  if (!stmt.values_rows.empty()) {
    Binder binder(catalog);
    for (const auto& parse_row : stmt.values_rows) {
      SODA_RETURN_NOT_OK(GuardProbe(guard, "exec.dml"));
      if (parse_row.size() != table->num_columns()) {
        return Status::BindError(
            "INSERT arity mismatch: table has " +
            std::to_string(table->num_columns()) + " columns, row has " +
            std::to_string(parse_row.size()));
      }
      std::vector<Value> row;
      row.reserve(parse_row.size());
      for (const auto& e : parse_row) {
        SODA_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(*e, Schema()));
        SODA_ASSIGN_OR_RETURN(Value v, EvaluateConstantExpression(*bound));
        row.push_back(std::move(v));
      }
      SODA_RETURN_NOT_OK(staged.AppendRow(row));
    }
  } else {
    // INSERT .. SELECT.
    SODA_ASSIGN_OR_RETURN(
        QueryResult sub,
        ExecuteSelect(stmt.select.get(), catalog, options, dur, guard,
                      InnerCacheCtx(cc)));
    const Table& src = *sub.table();
    if (src.num_columns() != table->num_columns()) {
      return Status::BindError("INSERT .. SELECT arity mismatch");
    }
    // Positional insert with implicit numeric coercion. Each AppendChunk
    // is charged to the memory budget at "storage.append" (via the
    // thread's MemoryScope); the probe here adds cancellation/deadline
    // coverage.
    DataChunk chunk;
    const size_t n = src.num_rows();
    for (size_t offset = 0; offset < n; offset += kChunkCapacity) {
      SODA_RETURN_NOT_OK(GuardProbe(guard, "exec.dml"));
      src.ScanSlice(offset, std::min(kChunkCapacity, n - offset), &chunk);
      DataChunk coerced;
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        DataType want = table->schema().field(c).type;
        if (chunk.column(c).type() == want) {
          coerced.AddColumn(std::move(chunk.column(c)));
          continue;
        }
        if (!(IsNumeric(chunk.column(c).type()) && IsNumeric(want))) {
          return Status::TypeError(
              "INSERT .. SELECT type mismatch in column '" +
              table->schema().field(c).name + "'");
        }
        Column col(want);
        const Column& in = chunk.column(c);
        col.Reserve(in.size());
        for (size_t i = 0; i < in.size(); ++i) {
          if (in.IsNull(i)) {
            col.AppendNull();
          } else if (want == DataType::kDouble) {
            col.AppendDouble(in.GetNumeric(i));
          } else {
            col.AppendBigInt(static_cast<int64_t>(in.GetNumeric(i)));
          }
        }
        coerced.AddColumn(std::move(col));
      }
      SODA_RETURN_NOT_OK(staged.AppendChunk(coerced));
    }
  }

  TableDelta delta = DeltaFor(*table);
  for (size_t c = 0; c < staged.num_columns(); ++c) {
    delta.appended.push_back(std::move(staged.column(c)));
  }
  return CommitWrite(catalog, dur, table.get(), delta);
}

/// Builds the background-maintenance thresholds from the engine knobs.
MaintenanceOptions MaintenanceFromOptions(const EngineOptions& o) {
  MaintenanceOptions m;
  m.wal_auto_checkpoint_bytes = o.wal_auto_checkpoint_mb << 20;
  m.wal_auto_checkpoint_records = o.wal_auto_checkpoint_records;
  m.scrub_interval = std::chrono::milliseconds(
      o.scrub_interval_ms > 0 ? o.scrub_interval_ms : 0);
  return m;
}

/// One scrub pass (see Engine::RunScrub). The CRC sweep runs lock-free
/// over a catalog snapshot; only quarantine publication takes the
/// statement lock, and it re-verifies each suspect group against the
/// then-current table version (DML may have swapped in a new one whose
/// group indices differ).
Status RunScrubPass(Catalog* catalog, Mutex* write_mu, DurabilityManager* dur,
                    ScrubReport* report) {
  std::vector<TablePtr> tables;
  for (const std::string& name : catalog->TableNames()) {
    Result<TablePtr> t = catalog->GetTable(name);
    if (t.ok()) tables.push_back(std::move(t.ValueOrDie()));
  }
  auto publish = [catalog, write_mu](
                     const std::string& name,
                     const std::vector<size_t>& groups) -> Status {
    MutexLock lock(write_mu);
    Result<TablePtr> tr = catalog->GetTable(name);
    if (!tr.ok()) return Status::OK();  // dropped since the sweep
    const TablePtr& t = tr.ValueOrDie();
    if (!t->sealed()) return Status::OK();  // replaced by a flat rebuild
    // Copy-on-write clone sharing every segment pointer — readers keep
    // their pinned version; only the quarantine flags change.
    auto next = std::make_shared<Table>(t->name(), t->schema());
    next->set_partition_spec(t->partition_spec());
    std::vector<RowGroup> cloned;
    for (size_t g = 0; g < t->num_row_groups(); ++g) {
      cloned.push_back(t->row_group(g));
    }
    SODA_RETURN_NOT_OK(
        next->AdoptSealed(std::move(cloned), t->partition_offsets()));
    for (size_t g = 0; g < t->num_row_groups(); ++g) {
      if (t->group_quarantined(g)) next->MarkGroupQuarantined(g);
    }
    bool newly_quarantined = false;
    for (size_t g : groups) {
      if (g >= next->num_row_groups() || next->group_quarantined(g)) continue;
      bool corrupt = false;
      for (size_t c = 0; c < next->num_columns() && !corrupt; ++c) {
        const SegmentPtr& seg = next->group_segment(g, c);
        corrupt = seg != nullptr && seg->crc != 0 &&
                  ComputeSegmentCrc(*seg) != seg->crc;
      }
      if (corrupt) {
        next->MarkGroupQuarantined(g);
        newly_quarantined = true;
      }
    }
    if (!newly_quarantined) return Status::OK();
    return catalog->ReplaceTable(name, std::move(next));
  };
  SODA_RETURN_NOT_OK(ScrubTables(tables, publish, report));
  if (dur) SODA_RETURN_NOT_OK(dur->VerifyAndHealCheckpoint(*catalog, report));
  return Status::OK();
}

/// SCRUB: one synchronous integrity pass; the result relation reports
/// what was checked and what was quarantined/healed.
Result<QueryResult> ExecuteScrub(Catalog* catalog, Mutex* write_mu,
                                 DurabilityManager* dur) {
  ScrubReport report;
  SODA_RETURN_NOT_OK(RunScrubPass(catalog, write_mu, dur, &report));
  if (dur) dur->NoteScrubPass();
  auto table = std::make_shared<Table>(
      "scrub", Schema({Field("metric", DataType::kVarchar),
                       Field("value", DataType::kBigInt)}));
  const std::pair<const char*, int64_t> rows[] = {
      {"tables_checked", static_cast<int64_t>(report.tables_checked)},
      {"segments_checked", static_cast<int64_t>(report.segments_checked)},
      {"corrupt_segments", static_cast<int64_t>(report.corrupt_segments)},
      {"quarantined_groups", static_cast<int64_t>(report.quarantined_groups)},
      {"checkpoint_present", report.checkpoint_present ? 1 : 0},
      {"checkpoint_ok", report.checkpoint_ok ? 1 : 0},
      {"checkpoint_rewritten", report.checkpoint_rewritten ? 1 : 0},
  };
  for (const auto& [metric, value] : rows) {
    SODA_RETURN_NOT_OK(
        table->AppendRow({Value::Varchar(metric), Value::BigInt(value)}));
  }
  return QueryResult(std::move(table), ExecStats{});
}

/// CHECKPOINT: persist every table atomically and truncate the WAL.
Result<QueryResult> ExecuteCheckpoint(Catalog* catalog,
                                      DurabilityManager* dur) {
  if (!dur) {
    return Status::InvalidArgument(
        "CHECKPOINT requires a durable engine (set EngineOptions::data_dir "
        "or run soda_shell --data-dir <dir>)");
  }
  SODA_RETURN_NOT_OK(dur->Checkpoint(*catalog));
  return QueryResult();
}

/// EXPLAIN [ANALYZE]: the optimized plan tree plus the physical pipeline
/// decomposition, rendered as a one-column relation, one row per line.
/// With ANALYZE the plan is executed (under the statement's QueryGuard)
/// and every pipeline operator reports rows/chunks/time.
/// Strips the leading EXPLAIN [ANALYZE] keywords from the raw statement
/// text, leaving the SELECT text a bare execution of the same query would
/// present — so EXPLAIN shares the SELECT's plan-cache entry and can
/// report whether the plan was served from cache.
std::string StripExplainPrefix(const std::string& sql) {
  std::string_view s = Trim(sql);
  auto strip_word = [&s](std::string_view word) {
    if (s.size() >= word.size() &&
        EqualsIgnoreCase(s.substr(0, word.size()), word) &&
        (s.size() == word.size() ||
         std::isspace(static_cast<unsigned char>(s[word.size()])))) {
      s = Trim(s.substr(word.size()));
      return true;
    }
    return false;
  };
  if (strip_word("explain")) strip_word("analyze");
  return std::string(s);
}

Result<QueryResult> ExecuteExplain(const SelectStmt& stmt, bool analyze,
                                   Catalog* catalog,
                                   const EngineOptions& options,
                                   DurabilityManager* dur, QueryGuard* guard,
                                   const CacheCtx& cc) {
  // EXPLAIN consults (and fills) the same plan-cache slot the bare SELECT
  // uses, so `EXPLAIN ANALYZE <q>` after `<q>` reports "plan: cached".
  const std::string select_text =
      cc.sql != nullptr ? StripExplainPrefix(*cc.sql) : std::string();
  SODA_ASSIGN_OR_RETURN(
      SelectPlan planned,
      PlanSelect(&stmt, cc.sql != nullptr ? &select_text : nullptr, catalog,
                 options, guard, cc.plan_cache));
  const PlanNode* plan = planned.entry.plan.get();
  SODA_ASSIGN_OR_RETURN(PhysicalPlan physical, LowerPlan(*plan));
  // EXPLAIN always reports the verifier verdict, even when the session
  // knob is off — it is the cheapest way to audit a suspect plan.
  Status verdict = VerifyPlan(*plan, physical);
  ExecStats stats;
  if (analyze) {
    if (options.verify_plans || kPlanVerifierAlwaysOn) {
      SODA_RETURN_NOT_OK(verdict);
    }
    ExecContext ctx;
    InitExecContext(&ctx, catalog, options, dur, guard, cc);
    ctx.verify_plans = false;  // already verified above
    SODA_RETURN_NOT_OK(physical.Execute(ctx));
    stats = ctx.stats;
  }
  auto table = std::make_shared<Table>(
      "explain", Schema({Field("plan", DataType::kVarchar)}));
  std::string text = plan->ToString();
  if (!text.empty() && text.back() != '\n') text += "\n";
  text += "=== Pipelines ===\n" + physical.ToString(analyze);
  if (!text.empty() && text.back() != '\n') text += "\n";
  text += std::string("plan: ") + (planned.from_cache ? "cached" : "fresh") +
          "\n";
  if (analyze) {
    text += std::string("join build: ") +
            (stats.recycled_joins > 0 ? "recycled" : "built") + "\n";
  }
  text += verdict.ok() ? "Verifier: OK"
                       : "Verifier: FAILED — " + verdict.ToString();
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    SODA_RETURN_NOT_OK(
        table->AppendRow({Value::Varchar(text.substr(start, end - start))}));
    start = end + 1;
  }
  return QueryResult(std::move(table), stats);
}

/// SET soda.<knob> = <value>: mutates the engine-level defaults. Knobs map
/// onto EngineOptions; unknown names and invalid values are rejected with
/// a clean error, leaving the options untouched. The WAL knobs
/// (soda.wal_fsync, soda.wal_group_bytes) additionally apply to the live
/// log immediately.
Result<QueryResult> ExecuteSet(const SetStmt& stmt, EngineOptions* options,
                               DurabilityManager* dur, const CacheCtx& cc) {
  if (stmt.name == "soda.plan_cache") {
    std::string value = stmt.has_text ? ToLower(stmt.text_value) : "";
    if (value != "on" && value != "off") {
      return Status::InvalidArgument(
          "SET soda.plan_cache: expected on or off");
    }
    if (cc.plan_cache) cc.plan_cache->SetEnabled(value == "on");
    return QueryResult();
  }
  if (stmt.name == "soda.wal_fsync") {
    if (!stmt.has_text) {
      return Status::InvalidArgument(
          "SET soda.wal_fsync: expected on, off, or group");
    }
    SODA_ASSIGN_OR_RETURN(WalFsyncMode mode,
                          WalFsyncModeFromString(ToLower(stmt.text_value)));
    options->wal_fsync = mode;
    if (dur) dur->SetFsyncMode(mode, options->wal_group_bytes);
    return QueryResult();
  }
  if (stmt.name == "soda.verify_plans") {
    std::string value = stmt.has_text ? ToLower(stmt.text_value) : "";
    if (value != "on" && value != "off") {
      return Status::InvalidArgument(
          "SET soda.verify_plans: expected on or off");
    }
    options->verify_plans = value == "on";
    return QueryResult();
  }
  if (stmt.has_text) {
    return Status::InvalidArgument("SET " + stmt.name +
                                   ": expected an integer value");
  }
  if (stmt.value < 0) {
    return Status::InvalidArgument("SET " + stmt.name +
                                   ": value must be >= 0 (0 = unlimited)");
  }
  if (stmt.name == "soda.timeout_ms") {
    options->timeout_ms = stmt.value;
  } else if (stmt.name == "soda.memory_limit_mb") {
    options->memory_limit_bytes = stmt.value * int64_t{1024} * 1024;
  } else if (stmt.name == "soda.max_iterations") {
    if (stmt.value == 0) {
      return Status::InvalidArgument(
          "SET soda.max_iterations: value must be >= 1");
    }
    options->max_iterations = static_cast<size_t>(stmt.value);
  } else if (stmt.name == "soda.wal_group_bytes") {
    if (stmt.value == 0) {
      return Status::InvalidArgument(
          "SET soda.wal_group_bytes: value must be >= 1");
    }
    options->wal_group_bytes = static_cast<size_t>(stmt.value);
    if (dur) dur->SetFsyncMode(options->wal_fsync, options->wal_group_bytes);
  } else if (stmt.name == "soda.wal_auto_checkpoint_mb") {
    options->wal_auto_checkpoint_mb = static_cast<size_t>(stmt.value);
    if (dur) dur->ConfigureMaintenance(MaintenanceFromOptions(*options));
  } else if (stmt.name == "soda.wal_auto_checkpoint_records") {
    options->wal_auto_checkpoint_records = static_cast<size_t>(stmt.value);
    if (dur) dur->ConfigureMaintenance(MaintenanceFromOptions(*options));
  } else if (stmt.name == "soda.scrub_interval_ms") {
    options->scrub_interval_ms = stmt.value;
    if (dur) dur->ConfigureMaintenance(MaintenanceFromOptions(*options));
  } else if (stmt.name == "soda.ht_cache_mb") {
    if (cc.ht_recycler) {
      cc.ht_recycler->SetBudget(static_cast<size_t>(stmt.value) << 20);
    }
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + stmt.name +
        "' (supported: soda.timeout_ms, soda.memory_limit_mb, "
        "soda.max_iterations, soda.wal_fsync, soda.wal_group_bytes, "
        "soda.verify_plans, soda.wal_auto_checkpoint_mb, "
        "soda.wal_auto_checkpoint_records, soda.scrub_interval_ms, "
        "soda.plan_cache, soda.ht_cache_mb)");
  }
  return QueryResult();
}

// --- PREPARE / EXECUTE / DEALLOCATE (DESIGN.md §11) -----------------------

/// Grows `types` to cover every $n slot the parse tree references
/// (undeclared slots stay kInvalid until inference fills them).
void ScanParseParams(const ParseExpr& e, std::vector<DataType>* types) {
  if (e.kind == ParseExprKind::kParameter && types->size() < e.param_index) {
    types->resize(e.param_index, DataType::kInvalid);
  }
  for (const auto& c : e.children) ScanParseParams(*c, types);
}

/// Deep-clones a parse expression, replacing $n placeholders with literal
/// nodes from `args` (already cast to the declared parameter types).
Result<ParseExprPtr> CloneParseSubst(const ParseExpr& e,
                                     const std::vector<Value>& args) {
  if (e.kind == ParseExprKind::kParameter) {
    if (e.param_index == 0 || e.param_index > args.size()) {
      return Status::InvalidArgument(
          "EXECUTE provides " + std::to_string(args.size()) +
          " parameter(s) but the statement references $" +
          std::to_string(e.param_index));
    }
    auto lit = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
    lit->literal = args[e.param_index - 1];
    return lit;
  }
  auto out = std::make_unique<ParseExpr>(e.kind);
  out->literal = e.literal;
  out->qualifier = e.qualifier;
  out->name = e.name;
  out->binary_op = e.binary_op;
  out->unary_op = e.unary_op;
  out->case_has_else = e.case_has_else;
  out->cast_type = e.cast_type;
  out->lambda_params = e.lambda_params;
  out->source_text = e.source_text;
  out->param_index = e.param_index;
  for (const auto& c : e.children) {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr child, CloneParseSubst(*c, args));
    out->children.push_back(std::move(child));
  }
  return out;
}

/// Binds + optimizes a prepared SELECT body against `catalog`, filling
/// `entry`'s plan, deps, parameter types, and validation version. Used at
/// PREPARE and again whenever EXECUTE finds the dependencies stale.
Status BindPreparedSelect(PreparedStatement* entry, Catalog* catalog,
                          const EngineOptions& options) {
  SODA_ASSIGN_OR_RETURN(
      SelectPlan planned,
      PlanSelect(entry->body->select.get(), nullptr, catalog, options,
                 nullptr, nullptr, &entry->param_types));
  entry->plan = std::move(planned.entry.plan);
  entry->deps = std::move(planned.entry.deps);
  entry->catalog_version = planned.entry.catalog_version;
  return Status::OK();
}

/// PREPARE name [(types)] AS body: resolves parameter types now (declared
/// list, then inference from the body), binds SELECT bodies to an
/// optimized parameterized plan, and registers the result. Re-preparing
/// an existing name replaces it (divergence from Postgres' error — it
/// keeps the shell's shed-retry loop idempotent).
Result<QueryResult> ExecutePrepare(PrepareStmt& stmt, Catalog* catalog,
                                   const EngineOptions& options,
                                   const CacheCtx& cc) {
  if (cc.prepared == nullptr) {
    return Status::InvalidArgument(
        "PREPARE requires an engine-managed session");
  }
  if (stmt.body == nullptr) {
    return Status::Internal("PREPARE without a body");
  }
  auto entry = std::make_shared<PreparedStatement>();
  entry->name = ToLower(stmt.name);
  entry->param_types = stmt.param_types;
  entry->body = std::shared_ptr<const Statement>(std::move(stmt.body));
  if (entry->body->kind == StatementKind::kSelect) {
    SODA_RETURN_NOT_OK(BindPreparedSelect(entry.get(), catalog, options));
  } else if (entry->body->kind == StatementKind::kInsert) {
    const InsertStmt& ins = *entry->body->insert;
    for (const auto& row : ins.values_rows) {
      for (const auto& cell : row) ScanParseParams(*cell, &entry->param_types);
    }
    // Undeclared parameters standing directly in a VALUES cell take the
    // target column's type; nested occurrences ($1 + 1) stay untyped and
    // pass through uncast (the INSERT path coerces on append).
    Result<TablePtr> t = catalog->GetTable(ins.table);
    if (t.ok()) {
      const Schema& schema = (*t)->schema();
      for (const auto& row : ins.values_rows) {
        for (size_t c = 0; c < row.size() && c < schema.num_fields(); ++c) {
          if (row[c]->kind != ParseExprKind::kParameter) continue;
          DataType& slot = entry->param_types[row[c]->param_index - 1];
          if (slot == DataType::kInvalid) slot = schema.field(c).type;
        }
      }
    }
  } else {
    return Status::InvalidArgument(
        "PREPARE supports SELECT and INSERT statements only");
  }
  cc.prepared->Put(std::move(entry));
  return QueryResult();
}

/// Evaluates EXECUTE's constant arguments and casts each to the prepared
/// statement's parameter type. Arity and cast failures are reported with
/// the 1-based slot number.
Result<std::vector<Value>> EvaluateExecuteArgs(const ExecuteStmt& stmt,
                                               const PreparedStatement& prep,
                                               Catalog* catalog) {
  if (stmt.args.size() != prep.param_types.size()) {
    return Status::InvalidArgument(
        "prepared statement '" + prep.name + "' expects " +
        std::to_string(prep.param_types.size()) + " parameter(s), got " +
        std::to_string(stmt.args.size()));
  }
  Binder binder(catalog);
  std::vector<Value> args;
  args.reserve(stmt.args.size());
  for (size_t i = 0; i < stmt.args.size(); ++i) {
    SODA_ASSIGN_OR_RETURN(ExprPtr bound,
                          binder.BindScalar(*stmt.args[i], Schema()));
    SODA_ASSIGN_OR_RETURN(Value v, EvaluateConstantExpression(*bound));
    const DataType want = prep.param_types[i];
    if (want != DataType::kInvalid) {
      Result<Value> cast = v.CastTo(want);
      if (!cast.ok()) {
        return Status::TypeError("parameter $" + std::to_string(i + 1) +
                                 ": " + cast.status().message());
      }
      v = std::move(cast.ValueOrDie());
    }
    args.push_back(std::move(v));
  }
  return args;
}

/// EXECUTE name [(args)]: SELECT bodies clone the prepared plan and
/// substitute literals — skipping lex/parse/bind and all of optimize but
/// the scan pushdown the literals enable; when a
/// dependency went stale (DML/DDL republished a table) the body is
/// transparently re-bound first. INSERT bodies clone the VALUES parse
/// rows with parameters substituted and run the normal INSERT path.
Result<QueryResult> ExecuteExecute(const ExecuteStmt& stmt, Catalog* catalog,
                                   const EngineOptions& options,
                                   DurabilityManager* dur, QueryGuard* guard,
                                   const CacheCtx& cc) {
  if (cc.prepared == nullptr) {
    return Status::InvalidArgument(
        "EXECUTE requires an engine-managed session");
  }
  PreparedPtr prep = cc.prepared->Get(ToLower(stmt.name));
  if (prep == nullptr) {
    return Status::KeyError("unknown prepared statement: " +
                            ToLower(stmt.name));
  }
  SODA_ASSIGN_OR_RETURN(std::vector<Value> args,
                        EvaluateExecuteArgs(stmt, *prep, catalog));
  if (prep->body->kind == StatementKind::kSelect) {
    if (prep->catalog_version != catalog->catalog_version() &&
        !DepsStillValid(prep->deps, *catalog)) {
      auto fresh = std::make_shared<PreparedStatement>(*prep);
      fresh->param_types = prep->param_types;
      SODA_RETURN_NOT_OK(BindPreparedSelect(fresh.get(), catalog, options));
      cc.prepared->Put(fresh);
      prep = std::move(fresh);
    }
    PlanPtr instance = prep->plan->Clone();
    SODA_RETURN_NOT_OK(SubstituteParams(instance.get(), args));
    // The arguments are constants now: harvest the scan predicates and
    // partition pruning `col = $1` could not give at PREPARE. Only on
    // this private clone; the registry plan is shared across EXECUTEs.
    if (options.optimize) PushScanPredicates(instance.get(), catalog);
    ExecContext ctx;
    InitExecContext(&ctx, catalog, options, dur, guard, cc);
    SODA_ASSIGN_OR_RETURN(TablePtr result, ExecutePlan(*instance, ctx));
    return QueryResult(std::move(result), ctx.stats);
  }
  const InsertStmt& ins = *prep->body->insert;
  if (ins.values_rows.empty()) {
    // INSERT .. SELECT body: nothing to substitute (parameters inside the
    // select are rejected at bind time), execute the stored AST directly.
    return ExecuteInsert(ins, catalog, options, dur, guard,
                         InnerCacheCtx(cc));
  }
  InsertStmt sub;
  sub.table = ins.table;
  sub.values_rows.reserve(ins.values_rows.size());
  for (const auto& row : ins.values_rows) {
    std::vector<ParseExprPtr> out;
    out.reserve(row.size());
    for (const auto& cell : row) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr e, CloneParseSubst(*cell, args));
      out.push_back(std::move(e));
    }
    sub.values_rows.push_back(std::move(out));
  }
  return ExecuteInsert(sub, catalog, options, dur, guard, InnerCacheCtx(cc));
}

Result<QueryResult> ExecuteDeallocate(const DeallocateStmt& stmt,
                                      const CacheCtx& cc) {
  if (cc.prepared == nullptr) {
    return Status::InvalidArgument(
        "DEALLOCATE requires an engine-managed session");
  }
  SODA_RETURN_NOT_OK(cc.prepared->Remove(ToLower(stmt.name)));
  return QueryResult();
}

Result<QueryResult> ExecuteStatement(Statement& stmt, Catalog* catalog,
                                     const EngineOptions& options,
                                     DurabilityManager* dur,
                                     QueryGuard* guard, const CacheCtx& cc) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(stmt.select.get(), catalog, options, dur, guard,
                           cc);
    case StatementKind::kCreateTable:
      return ExecuteCreate(*stmt.create_table, catalog, options, dur, guard,
                           cc);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert, catalog, options, dur, guard, cc);
    case StatementKind::kDropTable:
      return ExecuteDrop(*stmt.drop_table, catalog, dur);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update, catalog, dur, guard);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del, catalog, dur, guard);
    case StatementKind::kExplain:
      return ExecuteExplain(*stmt.select, stmt.explain_analyze, catalog,
                            options, dur, guard, cc);
    case StatementKind::kCheckpoint: {
      Result<QueryResult> r = ExecuteCheckpoint(catalog, dur);
      if (r.ok()) {
        // CHECKPOINT doubles as the operator's "drop all caches" lever;
        // correctness never depends on it (fingerprints embed versions),
        // but it gives tests and ops a deterministic cold state.
        if (cc.ht_recycler) cc.ht_recycler->EvictAll();
        if (cc.plan_cache) cc.plan_cache->Clear();
      }
      return r;
    }
    case StatementKind::kPrepare:
      return ExecutePrepare(*stmt.prepare, catalog, options, cc);
    case StatementKind::kExecute:
      return ExecuteExecute(*stmt.execute, catalog, options, dur, guard, cc);
    case StatementKind::kDeallocate:
      return ExecuteDeallocate(*stmt.deallocate, cc);
    case StatementKind::kSet:
      return Status::Internal("SET must be handled by the engine");
    case StatementKind::kScrub:
      // Like SET: dispatched by RunGoverned before the write lock is
      // taken — the scrub publisher acquires it itself.
      return Status::Internal("SCRUB must be handled by the engine");
  }
  return Status::Internal("unknown statement kind");
}

/// One statement under a fresh QueryGuard built from the session (or
/// engine) defaults overlaid with per-call ExecOptions. The guard is
/// installed as the calling thread's MemoryScope so storage appends are
/// charged; the guard-aware ParallelFor extends the scope to worker
/// threads.
Result<QueryResult> RunGoverned(Statement& stmt, Catalog* catalog,
                                Mutex* write_mu,
                                EngineOptions* engine_options,
                                DurabilityManager* dur,
                                const ExecOptions& exec, const CacheCtx& cc) {
  // The session's SET state, when present, shadows the engine-global
  // options for both reads (effective limits) and writes (SET).
  EngineOptions* base =
      exec.session_options ? exec.session_options : engine_options;
  if (stmt.kind == StatementKind::kSet) {
    return ExecuteSet(*stmt.set, base, dur, cc);
  }
  if (stmt.kind == StatementKind::kScrub) {
    // Not under the write lock: the CRC sweep is read-only over pinned
    // table versions, and the quarantine publisher takes write_mu itself
    // for each copy-on-write swap.
    return ExecuteScrub(catalog, write_mu, dur);
  }
  EngineOptions effective = *base;
  if (exec.max_iterations >= 0) {
    effective.max_iterations = static_cast<size_t>(exec.max_iterations);
  }
  QueryLimits limits;
  limits.timeout_ms = exec.timeout_ms >= 0 ? exec.timeout_ms : base->timeout_ms;
  limits.memory_limit_bytes = exec.memory_limit_bytes >= 0
                                  ? exec.memory_limit_bytes
                                  : base->memory_limit_bytes;
  QueryGuard guard(limits, exec.cancel ? exec.cancel->token() : nullptr);
  QueryGuard::MemoryScope scope(&guard);
  // Probe once before any work so a pre-cancelled handle (or an already
  // expired deadline) aborts even plans that touch no other probe site,
  // e.g. a bare table scan that returns the catalog table directly.
  SODA_RETURN_NOT_OK(guard.Check("exec.statement"));

  // EXECUTE routes by the prepared body's kind: SELECT bodies are snapshot
  // reads, INSERT bodies must serialize with other writers. An unknown
  // name falls through to the read path and errors there.
  bool execute_is_write = false;
  if (stmt.kind == StatementKind::kExecute && cc.prepared != nullptr) {
    PreparedPtr prep = cc.prepared->Get(ToLower(stmt.execute->name));
    execute_is_write =
        prep != nullptr && prep->body->kind == StatementKind::kInsert;
  }

  if (stmt.kind == StatementKind::kSelect ||
      stmt.kind == StatementKind::kExplain ||
      stmt.kind == StatementKind::kPrepare ||
      stmt.kind == StatementKind::kDeallocate ||
      (stmt.kind == StatementKind::kExecute && !execute_is_write)) {
    // Snapshot read: pin every table's current version for the whole
    // statement. Concurrent DML swaps in new versions without disturbing
    // us, and a statement scanning one table twice (self-join, CTE reuse)
    // sees exactly one version. Readers take no lock beyond the O(#tables)
    // map copy.
    Catalog snapshot;
    catalog->SnapshotInto(&snapshot);
    return ExecuteStatement(stmt, &snapshot, effective, dur, &guard, cc);
  }

  // Write statements are read-modify-swap over table versions; serialize
  // them so concurrent UPDATEs cannot lose each other's swap. Lock order:
  // write_mu_ → commit_mu_ → leaf mutexes (see engine.h).
  MutexLock write_lock(write_mu);
  return ExecuteStatement(stmt, catalog, effective, dur, &guard, cc);
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  // Any catalog change (DML/DDL/quarantine/recovery replay) invalidates
  // recycled hash tables built over that table. Installed before recovery
  // so replayed writes also flow through (harmless on the empty cache).
  // The listener fires outside Catalog::mu_, and HtRecycler::mu_ is a
  // leaf, so this cannot deadlock (see the lock order in engine.h).
  catalog_.SetChangeListener(
      [this](const std::string& table) { ht_recycler_.InvalidateTable(table); });
  if (options_.data_dir.empty()) return;
  Result<std::unique_ptr<DurabilityManager>> dur = DurabilityManager::Open(
      options_.data_dir, &catalog_, options_.wal_fsync,
      options_.wal_group_bytes);
  if (!dur.ok()) {
    startup_status_ = dur.status();
    return;
  }
  durability_ = std::move(dur.ValueOrDie());
  durability_->StartMaintenance(&catalog_, MaintenanceFromOptions(options_),
                                [this] {
                                  ScrubReport report;
                                  return RunScrub(&report);
                                });
}

Engine::~Engine() {
  // Members destroy in reverse declaration order, so write_mu_ (and the
  // catalog the scrub closure captures) would be gone before durability_.
  // Stop the maintenance thread while everything it touches is alive.
  if (durability_) durability_->StopMaintenance();
}

Status Engine::RunScrub(ScrubReport* report) {
  SODA_RETURN_NOT_OK(startup_status_);
  return RunScrubPass(&catalog_, &write_mu_, durability_.get(), report);
}

Result<QueryResult> Engine::Execute(const std::string& sql) {
  return Execute(sql, ExecOptions{});
}

Result<QueryResult> Engine::Execute(const std::string& sql,
                                    const ExecOptions& exec) {
  SODA_RETURN_NOT_OK(startup_status_);
  CacheCtx cc;
  cc.plan_cache = &plan_cache_;
  cc.ht_recycler = &ht_recycler_;
  cc.prepared = exec.prepared ? exec.prepared : &prepared_;
  cc.sql = &sql;
  SODA_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return RunGoverned(stmt, &catalog_, &write_mu_, &options_,
                     durability_.get(), exec, cc);
}

Result<QueryResult> Engine::ExecutePrepared(const std::string& name,
                                            const std::vector<Value>& params,
                                            const ExecOptions& exec) {
  SODA_RETURN_NOT_OK(startup_status_);
  // Synthesize the EXECUTE AST directly from the typed values — the whole
  // point of the wire fast path is that no SQL text exists to lex/parse.
  Statement stmt;
  stmt.kind = StatementKind::kExecute;
  stmt.execute = std::make_unique<ExecuteStmt>();
  stmt.execute->name = name;
  stmt.execute->args.reserve(params.size());
  for (const Value& v : params) {
    auto lit = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
    lit->literal = v;
    stmt.execute->args.push_back(std::move(lit));
  }
  CacheCtx cc;
  cc.plan_cache = &plan_cache_;
  cc.ht_recycler = &ht_recycler_;
  cc.prepared = exec.prepared ? exec.prepared : &prepared_;
  return RunGoverned(stmt, &catalog_, &write_mu_, &options_,
                     durability_.get(), exec, cc);
}

Result<QueryResult> Engine::ExecuteScript(const std::string& sql) {
  SODA_RETURN_NOT_OK(startup_status_);
  SODA_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  if (stmts.empty()) return QueryResult();
  QueryResult last;
  for (auto& stmt : stmts) {
    // Script statements skip the plan cache (no per-statement SQL text is
    // recovered from the split); PREPARE/EXECUTE still work.
    CacheCtx cc;
    cc.ht_recycler = &ht_recycler_;
    cc.prepared = &prepared_;
    // SET takes effect for the remaining statements of the script.
    Result<QueryResult> r =
        RunGoverned(stmt, &catalog_, &write_mu_, &options_,
                    durability_.get(), ExecOptions{}, cc);
    SODA_RETURN_NOT_OK(r.status());
    last = std::move(r.ValueOrDie());
  }
  return last;
}

Result<std::string> Engine::Explain(const std::string& sql) {
  SODA_RETURN_NOT_OK(startup_status_);
  SODA_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements only");
  }
  // The SQL EXPLAIN path: same snapshot, guard and plan-cache slot.
  SODA_ASSIGN_OR_RETURN(QueryResult result, Execute("EXPLAIN " + sql));
  std::string text;
  for (size_t i = 0; i < result.num_rows(); ++i) {
    text += result.GetString(i, 0) + "\n";
  }
  return text;
}

}  // namespace soda
