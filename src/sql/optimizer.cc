#include "sql/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "expr/fold.h"
#include "storage/partition.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace soda {

namespace {

/// Splits a predicate on AND into conjuncts.
void CollectConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(std::move(e->children[0]), out);
    CollectConjuncts(std::move(e->children[1]), out);
    return;
  }
  out->push_back(std::move(e));
}

ExprPtr AndAll(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (auto& c : conjuncts) {
    if (!result) {
      result = std::move(c);
    } else {
      result = Expression::Binary(BinaryOp::kAnd, std::move(result),
                                  std::move(c), DataType::kBool);
    }
  }
  return result;
}

/// Range of column indices referenced by an expression.
struct ColRange {
  size_t min = SIZE_MAX;
  size_t max = 0;
  bool any = false;
};

void GetColRange(const Expression& e, ColRange* r) {
  if (e.kind == ExprKind::kColumnRef) {
    r->any = true;
    r->min = std::min(r->min, e.column_index);
    r->max = std::max(r->max, e.column_index);
  }
  for (const auto& c : e.children) GetColRange(*c, r);
}

/// Shifts every column reference by `delta` (rebasing right-side
/// predicates onto the right child's schema).
void ShiftColumns(Expression* e, long delta) {
  if (e->kind == ExprKind::kColumnRef) {
    e->column_index = static_cast<size_t>(
        static_cast<long>(e->column_index) + delta);
  }
  for (auto& c : e->children) ShiftColumns(c.get(), delta);
}

bool IsTrueLiteral(const Expression& e) {
  return e.kind == ExprKind::kLiteral && !e.literal.is_null() &&
         e.literal.type() == DataType::kBool && e.literal.bool_value();
}

/// Classifies `conjuncts` relative to a join with `left_width` left
/// columns. Appends to the respective outputs; right-side and key
/// expressions are rebased as needed.
void ClassifyJoinConjuncts(std::vector<ExprPtr> conjuncts, size_t left_width,
                           std::vector<ExprPtr>* left_filters,
                           std::vector<ExprPtr>* right_filters,
                           std::vector<size_t>* left_keys,
                           std::vector<size_t>* right_keys,
                           std::vector<ExprPtr>* residual) {
  for (auto& c : conjuncts) {
    if (IsTrueLiteral(*c)) continue;
    ColRange r;
    GetColRange(*c, &r);
    if (!r.any) {
      residual->push_back(std::move(c));  // constant-ish; keep safe
      continue;
    }
    if (r.max < left_width) {
      left_filters->push_back(std::move(c));
      continue;
    }
    if (r.min >= left_width) {
      ShiftColumns(c.get(), -static_cast<long>(left_width));
      right_filters->push_back(std::move(c));
      continue;
    }
    // Spans both sides: an equi-key candidate?
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      size_t a = c->children[0]->column_index;
      size_t b = c->children[1]->column_index;
      if (a < left_width && b >= left_width) {
        left_keys->push_back(a);
        right_keys->push_back(b - left_width);
        continue;
      }
      if (b < left_width && a >= left_width) {
        left_keys->push_back(b);
        right_keys->push_back(a - left_width);
        continue;
      }
    }
    residual->push_back(std::move(c));
  }
}

// --- scan pushdown + partition pruning ------------------------------------

/// Maps a comparison onto the storage CompareOp; `flipped` when the
/// literal was on the left (`5 < x` reads as `x > 5`).
bool ToCompareOp(BinaryOp op, bool flipped, CompareOp* out) {
  switch (op) {
    case BinaryOp::kEq:
      *out = CompareOp::kEq;
      return true;
    case BinaryOp::kLt:
      *out = flipped ? CompareOp::kGt : CompareOp::kLt;
      return true;
    case BinaryOp::kLe:
      *out = flipped ? CompareOp::kGe : CompareOp::kLe;
      return true;
    case BinaryOp::kGt:
      *out = flipped ? CompareOp::kLt : CompareOp::kGt;
      return true;
    case BinaryOp::kGe:
      *out = flipped ? CompareOp::kLe : CompareOp::kGe;
      return true;
    default:
      return false;
  }
}

/// Converts a literal to the exact payload family the storage layer
/// evaluates (Table::ScanSliceFiltered rejects anything else). Lossy
/// conversions fail — the predicate then simply stays un-pushed and the
/// Filter transform handles it.
bool NormalizeConstant(const Value& literal, DataType col_type, Value* out) {
  if (literal.is_null()) return false;
  switch (col_type) {
    case DataType::kBigInt:
      if (literal.type() == DataType::kBigInt) {
        *out = literal;
        return true;
      }
      if (literal.type() == DataType::kDouble) {
        const double d = literal.double_value();
        int64_t i = 0;
        if (!DoubleToBigInt(d, &i) || static_cast<double>(i) != d) {
          return false;  // NaN, out of range or not integral
        }
        *out = Value::BigInt(i);
        return true;
      }
      return false;
    case DataType::kBool:
      if (literal.type() == DataType::kBool) {
        *out = Value::BigInt(literal.bool_value() ? 1 : 0);
        return true;
      }
      if (literal.type() == DataType::kBigInt) {
        *out = literal;
        return true;
      }
      return false;
    case DataType::kDouble:
      if (literal.type() == DataType::kDouble) {
        *out = literal;
        return true;
      }
      if (literal.type() == DataType::kBigInt) {
        *out = Value::Double(static_cast<double>(literal.bigint_value()));
        return true;
      }
      return false;
    case DataType::kVarchar:
      if (literal.type() == DataType::kVarchar) {
        *out = literal;
        return true;
      }
      return false;
    default:
      return false;
  }
}

void CollectConstConjuncts(const Expression& e,
                           std::vector<const Expression*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    CollectConstConjuncts(*e.children[0], out);
    CollectConstConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

}  // namespace

std::vector<ScanPredicate> ExtractScanPredicates(const Expression& pred,
                                                 const Schema& schema) {
  std::vector<const Expression*> conjuncts;
  CollectConstConjuncts(pred, &conjuncts);
  std::vector<ScanPredicate> out;
  for (const Expression* c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->children.size() != 2) continue;
    const Expression* col = c->children[0].get();
    const Expression* lit = c->children[1].get();
    bool flipped = false;
    if (col->kind == ExprKind::kLiteral && lit->kind == ExprKind::kColumnRef) {
      std::swap(col, lit);
      flipped = true;
    }
    if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
      continue;
    }
    CompareOp op;
    if (!ToCompareOp(c->binary_op, flipped, &op)) continue;
    if (col->column_index >= schema.num_fields()) continue;
    ScanPredicate sp;
    sp.column = col->column_index;
    sp.op = op;
    if (!NormalizeConstant(lit->literal, schema.field(col->column_index).type,
                           &sp.constant)) {
      continue;
    }
    out.push_back(std::move(sp));
  }
  return out;
}

namespace {

/// Recomputes the scan's partition set from its pushed predicates. Hash
/// layouts prune on equality only; range layouts prune on any comparison
/// (the bounds are ascending, so a predicate selects a partition
/// interval). Predicates on other columns are ignored.
void PruneScanPartitions(PlanNode* scan, const PartitionSpec& spec) {
  scan->scan_total_partitions = spec.num_partitions;
  std::vector<uint8_t> keep(spec.num_partitions, 1);
  for (const ScanPredicate& pred : scan->scan_predicates) {
    if (pred.column != spec.column_index) continue;
    std::vector<uint8_t> allow(spec.num_partitions, 0);
    if (spec.kind == PartitionSpec::Kind::kHash) {
      if (pred.op != CompareOp::kEq) continue;
      // Hashing reads a DOUBLE's bits, but -0.0 equals 0.0 and every NaN
      // equals every other (CompareDoubles): those constants cannot name
      // one partition.
      if (pred.constant.type() == DataType::kDouble &&
          (pred.constant.double_value() == 0.0 ||
           std::isnan(pred.constant.double_value()))) {
        continue;
      }
      allow[PartitionOfValue(spec, pred.constant)] = 1;
    } else {
      const int64_t v = pred.constant.AsBigInt();
      size_t lo = 0;
      size_t hi = spec.num_partitions - 1;
      bool empty = false;
      switch (pred.op) {
        case CompareOp::kEq:
          lo = hi = PartitionOfValue(spec, pred.constant);
          break;
        case CompareOp::kLe:
          hi = PartitionOfValue(spec, pred.constant);
          break;
        case CompareOp::kLt:
          if (v == INT64_MIN) {
            empty = true;
          } else {
            hi = PartitionOfValue(spec, Value::BigInt(v - 1));
          }
          break;
        case CompareOp::kGe:
          lo = PartitionOfValue(spec, pred.constant);
          break;
        case CompareOp::kGt:
          if (v == INT64_MAX) {
            empty = true;
          } else {
            lo = PartitionOfValue(spec, Value::BigInt(v + 1));
          }
          break;
      }
      if (!empty) {
        for (size_t p = lo; p <= hi && p < spec.num_partitions; ++p) {
          allow[p] = 1;
        }
      }
    }
    for (size_t p = 0; p < keep.size(); ++p) keep[p] &= allow[p];
  }
  scan->scan_partitions.clear();
  for (size_t p = 0; p < keep.size(); ++p) {
    if (keep[p]) scan->scan_partitions.push_back(p);
  }
}

/// Annotates a base-table scan: resolves the table's partition spec and
/// prunes against whatever predicates have been pushed so far. Bare scans
/// of partitioned tables report the full set (N/N scanned) so EXPLAIN
/// always shows the pruning dimension.
void AnnotateScan(PlanNode* scan, Catalog* catalog) {
  if (!catalog) return;
  Result<TablePtr> t = catalog->GetTable(scan->table_name);
  if (!t.ok()) return;
  const PartitionSpec& spec = (*t)->partition_spec();
  if (!spec.partitioned() || spec.num_partitions == 0) return;
  if (spec.column_index >= scan->schema.num_fields()) return;
  PruneScanPartitions(scan, spec);
}

void FoldNodeExpressions(PlanNode* plan) {
  if (plan->predicate) plan->predicate = FoldConstants(std::move(plan->predicate));
  for (auto& e : plan->exprs) e = FoldConstants(std::move(e));
  for (auto& k : plan->sort_keys) k.expr = FoldConstants(std::move(k.expr));
}

PlanPtr OptimizeNode(PlanPtr plan, Catalog* catalog);

/// Pushes filters into a join and extracts equi keys; `extra_conjuncts`
/// come from a Filter node sitting on top of the join (may be empty).
PlanPtr RewriteJoin(PlanPtr join, std::vector<ExprPtr> extra_conjuncts,
                    Catalog* catalog) {
  size_t left_width = join->children[0]->schema.num_fields();
  std::vector<ExprPtr> conjuncts = std::move(extra_conjuncts);
  if (join->predicate) {
    CollectConjuncts(std::move(join->predicate), &conjuncts);
    join->predicate = nullptr;
  }

  std::vector<ExprPtr> left_filters, right_filters, residual;
  ClassifyJoinConjuncts(std::move(conjuncts), left_width, &left_filters,
                        &right_filters, &join->left_keys, &join->right_keys,
                        &residual);

  if (!left_filters.empty()) {
    join->children[0] =
        MakeFilter(std::move(join->children[0]), AndAll(std::move(left_filters)));
    join->children[0] = OptimizeNode(std::move(join->children[0]), catalog);
  }
  if (!right_filters.empty()) {
    join->children[1] = MakeFilter(std::move(join->children[1]),
                                   AndAll(std::move(right_filters)));
    join->children[1] = OptimizeNode(std::move(join->children[1]), catalog);
  }
  if (!residual.empty()) {
    join->predicate = AndAll(std::move(residual));
  }

  // Build-side selection: probe the larger input, build on the smaller
  // (the hash table is built from children[1]).
  if (!join->left_keys.empty()) {
    double left_rows = EstimateRows(*join->children[0], catalog);
    double right_rows = EstimateRows(*join->children[1], catalog);
    if (left_rows < right_rows) {
      std::swap(join->children[0], join->children[1]);
      std::swap(join->left_keys, join->right_keys);
      // The concatenated output schema changes order; rebuild it and remap
      // any residual predicate.
      size_t new_left_width = join->children[0]->schema.num_fields();
      if (join->predicate) {
        // Old layout: [L (left_width), R]; new: [R', L'] where R' was R.
        // Old index i < left_width -> i + new_left_width; else i - left_width.
        struct Remap {
          size_t old_left_width;
          size_t new_left_width;
          void Apply(Expression* e) const {
            if (e->kind == ExprKind::kColumnRef) {
              if (e->column_index < old_left_width) {
                e->column_index += new_left_width;
              } else {
                e->column_index -= old_left_width;
              }
            }
            for (auto& c : e->children) Apply(c.get());
          }
        } remap{left_width, new_left_width};
        remap.Apply(join->predicate.get());
      }
      join->schema =
          join->children[0]->schema.Concat(join->children[1]->schema);
      // Keep the original output column order for parents by re-projecting.
      std::vector<ExprPtr> exprs;
      Schema original;
      size_t right_width = join->children[0]->schema.num_fields();
      for (size_t i = 0; i < left_width; ++i) {
        const Field& f = join->children[1]->schema.field(i);
        exprs.push_back(Expression::ColumnRef(right_width + i, f.type, f.name));
        original.AddField(f);
      }
      for (size_t i = 0; i < right_width; ++i) {
        const Field& f = join->children[0]->schema.field(i);
        exprs.push_back(Expression::ColumnRef(i, f.type, f.name));
        original.AddField(f);
      }
      return MakeProject(std::move(join), std::move(exprs),
                         std::move(original));
    }
  }
  return join;
}

PlanPtr OptimizeNode(PlanPtr plan, Catalog* catalog) {
  // Children first (bottom-up), except joins which are rewritten via
  // RewriteJoin below (it optimizes the children it wraps).
  for (auto& child : plan->children) {
    child = OptimizeNode(std::move(child), catalog);
  }
  FoldNodeExpressions(plan.get());

  switch (plan->kind) {
    case PlanKind::kFilter: {
      // Drop trivially-true filters.
      if (IsTrueLiteral(*plan->predicate)) {
        return std::move(plan->children[0]);
      }
      // Merge stacked filters.
      if (plan->children[0]->kind == PlanKind::kFilter) {
        PlanPtr child = std::move(plan->children[0]);
        plan->predicate =
            Expression::Binary(BinaryOp::kAnd, std::move(plan->predicate),
                               std::move(child->predicate), DataType::kBool);
        plan->children[0] = std::move(child->children[0]);
        return OptimizeNode(std::move(plan), catalog);
      }
      // Push into a join.
      if (plan->children[0]->kind == PlanKind::kJoin) {
        std::vector<ExprPtr> conjuncts;
        CollectConjuncts(std::move(plan->predicate), &conjuncts);
        return RewriteJoin(std::move(plan->children[0]), std::move(conjuncts),
                           catalog);
      }
      if (plan->children[0]->kind == PlanKind::kScan) {
        PushScanPredicates(plan.get(), catalog);
      }
      return plan;
    }
    case PlanKind::kProject: {
      // A column-ref Project over another Project selects the inner
      // expressions it references: one projection, not two (over a
      // pipeline breaker and with column refs only, one that copies
      // nothing), and the inner expressions it drops are never computed.
      // A computed inner expression referenced twice stays put, so no
      // expression is evaluated more often than written. The outer schema
      // keeps the aliases.
      PlanNode& inner = *plan->children[0];
      if (inner.kind == PlanKind::kProject && AllColumnRefs(plan->exprs)) {
        std::vector<int> uses(inner.exprs.size(), 0);
        bool once = true;
        for (const auto& e : plan->exprs) {
          const ExprPtr& ref = inner.exprs[e->column_index];
          once = once && (ref->kind == ExprKind::kColumnRef ||
                          ++uses[e->column_index] == 1);
        }
        if (once) {
          for (auto& e : plan->exprs) {
            e = inner.exprs[e->column_index]->Clone();
          }
          PlanPtr input = std::move(inner.children[0]);
          plan->children[0] = std::move(input);
        }
      }
      return plan;
    }
    case PlanKind::kJoin:
      return RewriteJoin(std::move(plan), {}, catalog);
    case PlanKind::kScan:
      AnnotateScan(plan.get(), catalog);
      return plan;
    default:
      return plan;
  }
}

}  // namespace

double EstimateRows(const PlanNode& plan, Catalog* catalog) {
  switch (plan.kind) {
    case PlanKind::kScan: {
      auto t = catalog ? catalog->GetTable(plan.table_name)
                       : Result<TablePtr>(Status::KeyError("no catalog"));
      return t.ok() ? static_cast<double>((*t)->num_rows()) : 1e4;
    }
    case PlanKind::kValues:
      return static_cast<double>(plan.rows.size());
    case PlanKind::kFilter:
      return EstimateRows(*plan.children[0], catalog) / 3.0 + 1.0;
    case PlanKind::kProject:
    case PlanKind::kSort:
      return EstimateRows(*plan.children[0], catalog);
    case PlanKind::kLimit: {
      double child = EstimateRows(*plan.children[0], catalog);
      return plan.limit < 0 ? child
                            : std::min(child, static_cast<double>(plan.limit));
    }
    case PlanKind::kJoin: {
      double l = EstimateRows(*plan.children[0], catalog);
      double r = EstimateRows(*plan.children[1], catalog);
      return plan.left_keys.empty() ? l * r : std::max(l, r);
    }
    case PlanKind::kAggregate: {
      double child = EstimateRows(*plan.children[0], catalog);
      return plan.num_group_cols == 0 ? 1.0 : std::sqrt(child) + 1.0;
    }
    case PlanKind::kUnionAll: {
      double sum = 0;
      for (const auto& c : plan.children) sum += EstimateRows(*c, catalog);
      return sum;
    }
    case PlanKind::kRecursiveCte:
      // Grows by roughly the init size each iteration (paper §5.2: output
      // cardinality of iterative constructs is hard to estimate).
      return EstimateRows(*plan.children[0], catalog) * 10.0;
    case PlanKind::kIterate:
      // Non-appending: cardinality is typically that of the init relation.
      return EstimateRows(*plan.children[0], catalog);
    case PlanKind::kBindingRef:
      return 1024.0;
    case PlanKind::kTableFunction:
      return 1024.0;
  }
  return 1e4;
}

void PushScanPredicates(PlanNode* plan, Catalog* catalog) {
  // The Filter stays: pushed predicates are exact, but the full predicate
  // may have more conjuncts.
  if (plan->kind == PlanKind::kFilter &&
      plan->children[0]->kind == PlanKind::kScan) {
    PlanNode* scan = plan->children[0].get();
    scan->scan_predicates =
        ExtractScanPredicates(*plan->predicate, scan->schema);
    AnnotateScan(plan->children[0].get(), catalog);
    return;
  }
  for (auto& child : plan->children) PushScanPredicates(child.get(), catalog);
}

PlanPtr OptimizePlan(PlanPtr plan, Catalog* catalog) {
  return OptimizeNode(std::move(plan), catalog);
}

}  // namespace soda
