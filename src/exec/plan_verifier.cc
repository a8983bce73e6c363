#include "exec/plan_verifier.h"

#include <string>
#include <unordered_map>

#include "exec/executor.h"

namespace soda {

namespace {

Status Violation(const std::string& where, const std::string& problem) {
  return Status::Internal("plan verifier: " + where + ": " + problem);
}

/// Checks a bound expression tree against the schema it reads from.
/// `where` names the plan operator for diagnostics.
Status VerifyExpr(const Expression& expr, const Schema& input,
                  const std::string& where) {
  if (expr.type == DataType::kInvalid) {
    return Violation(where, "expression '" + expr.ToString() +
                                "' has invalid result type");
  }
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      if (expr.column_index >= input.num_fields()) {
        return Violation(
            where, "column reference #" + std::to_string(expr.column_index) +
                       " out of bounds for input of " +
                       std::to_string(input.num_fields()) + " columns");
      }
      const Field& f = input.field(expr.column_index);
      if (f.type != expr.type) {
        return Violation(
            where, "column reference #" + std::to_string(expr.column_index) +
                       " typed " + DataTypeToString(expr.type) +
                       " but input column is " + DataTypeToString(f.type));
      }
      break;
    }
    case ExprKind::kLiteral:
      break;
    case ExprKind::kBinary: {
      if (expr.children.size() != 2) {
        return Violation(where, "binary expression with " +
                                    std::to_string(expr.children.size()) +
                                    " children");
      }
      if ((IsComparison(expr.binary_op) || IsLogical(expr.binary_op)) &&
          expr.type != DataType::kBool) {
        return Violation(where, "comparison '" + expr.ToString() +
                                    "' does not produce BOOLEAN");
      }
      break;
    }
    case ExprKind::kUnary:
    case ExprKind::kCast: {
      if (expr.children.size() != 1) {
        return Violation(where, "unary/cast expression with " +
                                    std::to_string(expr.children.size()) +
                                    " children");
      }
      break;
    }
    case ExprKind::kFunction:
      break;
    case ExprKind::kParameter:
      // Prepared-plan placeholder: legal in a stored plan (it is replaced
      // by a literal before execution) as long as it carries a concrete
      // type — the kInvalid check above already rejects untyped ones.
      if (!expr.children.empty()) {
        return Violation(where, "parameter with children");
      }
      break;
    case ExprKind::kCase: {
      // children = [when1, then1, ..., else]; the else branch is always
      // bound, so the count is odd.
      if (expr.children.empty() || expr.children.size() % 2 == 0) {
        return Violation(where, "CASE expression with " +
                                    std::to_string(expr.children.size()) +
                                    " children (expected odd count)");
      }
      break;
    }
  }
  for (const ExprPtr& child : expr.children) {
    SODA_RETURN_NOT_OK(VerifyExpr(*child, input, where));
  }
  return Status::OK();
}

Status CheckChildCount(const PlanNode& plan, size_t want) {
  if (plan.children.size() != want) {
    return Violation(PlanKindToString(plan.kind),
                     "expected " + std::to_string(want) + " children, has " +
                         std::to_string(plan.children.size()));
  }
  return Status::OK();
}

/// `schema` must be positionally type-compatible with `other`.
Status CheckTypesEqual(const PlanNode& plan, const Schema& other,
                       const std::string& what) {
  if (!plan.schema.TypesEqual(other)) {
    return Violation(PlanKindToString(plan.kind),
                     "output schema " + plan.schema.ToString() +
                         " does not match " + what + " " + other.ToString());
  }
  return Status::OK();
}

}  // namespace

Status VerifyLogicalPlan(const PlanNode& plan) {
  const std::string where = PlanKindToString(plan.kind);
  switch (plan.kind) {
    case PlanKind::kScan: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 0));
      if (plan.table_name.empty()) {
        return Violation(where, "scan without a table name");
      }
      for (const ScanPredicate& pred : plan.scan_predicates) {
        if (pred.column >= plan.schema.num_fields()) {
          return Violation(where,
                           "pushed predicate on column #" +
                               std::to_string(pred.column) +
                               " out of bounds for " +
                               std::to_string(plan.schema.num_fields()) +
                               " columns");
        }
        if (pred.constant.is_null()) {
          return Violation(where,
                           "pushed predicate with a NULL constant (never "
                           "matches; must not be pushed)");
        }
        // The storage layer evaluates pushed predicates on the encoded
        // payload without coercion; the optimizer must have normalized
        // the constant to the column's payload family.
        const DataType col = plan.schema.field(pred.column).type;
        const DataType want = col == DataType::kBool ? DataType::kBigInt : col;
        if (pred.constant.type() != want) {
          return Violation(
              where, "pushed predicate constant typed " +
                         std::string(DataTypeToString(pred.constant.type())) +
                         " for column of type " + DataTypeToString(col));
        }
      }
      if (plan.scan_total_partitions == 0) {
        if (!plan.scan_partitions.empty()) {
          return Violation(where,
                           "partition list set but total partitions is 0");
        }
      } else {
        size_t prev = 0;
        bool first = true;
        for (size_t p : plan.scan_partitions) {
          if (p >= plan.scan_total_partitions) {
            return Violation(where,
                             "partition #" + std::to_string(p) +
                                 " out of bounds for " +
                                 std::to_string(plan.scan_total_partitions) +
                                 " partitions");
          }
          if (!first && p <= prev) {
            return Violation(where,
                             "partition list is not strictly ascending");
          }
          prev = p;
          first = false;
        }
      }
      break;
    }
    case PlanKind::kValues: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 0));
      // analyze:allow(guard-probe: VALUES literals; size bounded by the SQL text)
      for (size_t r = 0; r < plan.rows.size(); ++r) {
        if (plan.rows[r].size() != plan.schema.num_fields()) {
          return Violation(where, "row " + std::to_string(r) + " has " +
                                      std::to_string(plan.rows[r].size()) +
                                      " values for a " +
                                      std::to_string(plan.schema.num_fields()) +
                                      "-column schema");
        }
      }
      break;
    }
    case PlanKind::kFilter: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 1));
      if (!plan.predicate) return Violation(where, "missing predicate");
      const Schema& child = plan.children[0]->schema;
      SODA_RETURN_NOT_OK(VerifyExpr(*plan.predicate, child, where));
      if (plan.predicate->type != DataType::kBool) {
        return Violation(where, "predicate '" + plan.predicate->ToString() +
                                    "' is not BOOLEAN");
      }
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, child, "child schema"));
      break;
    }
    case PlanKind::kProject: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 1));
      if (plan.exprs.size() != plan.schema.num_fields()) {
        return Violation(where, std::to_string(plan.exprs.size()) +
                                    " expressions for a " +
                                    std::to_string(plan.schema.num_fields()) +
                                    "-column schema");
      }
      const Schema& child = plan.children[0]->schema;
      for (size_t i = 0; i < plan.exprs.size(); ++i) {
        SODA_RETURN_NOT_OK(VerifyExpr(*plan.exprs[i], child, where));
        if (plan.exprs[i]->type != plan.schema.field(i).type) {
          return Violation(
              where, "expression " + std::to_string(i) + " produces " +
                         DataTypeToString(plan.exprs[i]->type) +
                         " but schema field is " +
                         DataTypeToString(plan.schema.field(i).type));
        }
      }
      break;
    }
    case PlanKind::kJoin: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 2));
      const Schema& left = plan.children[0]->schema;
      const Schema& right = plan.children[1]->schema;
      if (plan.left_keys.size() != plan.right_keys.size()) {
        return Violation(where,
                         "key arity mismatch: " +
                             std::to_string(plan.left_keys.size()) +
                             " left vs " +
                             std::to_string(plan.right_keys.size()) +
                             " right");
      }
      for (size_t k : plan.left_keys) {
        if (k >= left.num_fields()) {
          return Violation(where, "left key #" + std::to_string(k) +
                                      " out of bounds for " +
                                      std::to_string(left.num_fields()) +
                                      " columns");
        }
      }
      for (size_t k : plan.right_keys) {
        if (k >= right.num_fields()) {
          return Violation(where, "right key #" + std::to_string(k) +
                                      " out of bounds for " +
                                      std::to_string(right.num_fields()) +
                                      " columns");
        }
      }
      Schema concat = left.Concat(right);
      SODA_RETURN_NOT_OK(
          CheckTypesEqual(plan, concat, "concatenated child schemas"));
      if (plan.predicate) {
        SODA_RETURN_NOT_OK(VerifyExpr(*plan.predicate, concat, where));
        if (plan.predicate->type != DataType::kBool) {
          return Violation(where, "residual predicate is not BOOLEAN");
        }
      }
      break;
    }
    case PlanKind::kAggregate: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 1));
      const Schema& child = plan.children[0]->schema;
      if (plan.num_group_cols > child.num_fields()) {
        return Violation(where, std::to_string(plan.num_group_cols) +
                                    " group columns but child has only " +
                                    std::to_string(child.num_fields()));
      }
      const size_t want =
          plan.num_group_cols + plan.aggregates.size();
      if (plan.schema.num_fields() != want) {
        return Violation(
            where, "schema has " + std::to_string(plan.schema.num_fields()) +
                       " columns, expected " + std::to_string(want) +
                       " (groups + aggregates)");
      }
      for (size_t i = 0; i < plan.aggregates.size(); ++i) {
        const AggregateSpec& spec = plan.aggregates[i];
        if (spec.arg_index >= 0 &&
            static_cast<size_t>(spec.arg_index) >= child.num_fields()) {
          return Violation(
              where, spec.function + " argument column #" +
                         std::to_string(spec.arg_index) +
                         " out of bounds for " +
                         std::to_string(child.num_fields()) + " columns");
        }
        if (plan.schema.field(plan.num_group_cols + i).type !=
            spec.result_type) {
          return Violation(
              where, spec.function + " result type " +
                         DataTypeToString(spec.result_type) +
                         " does not match schema field " +
                         DataTypeToString(
                             plan.schema.field(plan.num_group_cols + i)
                                 .type));
        }
      }
      break;
    }
    case PlanKind::kSort: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 1));
      const Schema& child = plan.children[0]->schema;
      if (plan.sort_keys.empty()) {
        return Violation(where, "sort without keys");
      }
      for (const SortKey& key : plan.sort_keys) {
        if (!key.expr) return Violation(where, "sort key without expression");
        SODA_RETURN_NOT_OK(VerifyExpr(*key.expr, child, where));
      }
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, child, "child schema"));
      break;
    }
    case PlanKind::kLimit: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 1));
      if (plan.limit < -1) {
        return Violation(where,
                         "negative limit " + std::to_string(plan.limit));
      }
      if (plan.offset < 0) {
        return Violation(where,
                         "negative offset " + std::to_string(plan.offset));
      }
      SODA_RETURN_NOT_OK(
          CheckTypesEqual(plan, plan.children[0]->schema, "child schema"));
      break;
    }
    case PlanKind::kUnionAll: {
      if (plan.children.size() < 2) {
        return Violation(where, "union of " +
                                    std::to_string(plan.children.size()) +
                                    " branches (expected >= 2)");
      }
      for (size_t i = 0; i < plan.children.size(); ++i) {
        SODA_RETURN_NOT_OK(CheckTypesEqual(
            plan, plan.children[i]->schema,
            "branch " + std::to_string(i) + " schema"));
      }
      break;
    }
    case PlanKind::kRecursiveCte: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 2));
      if (plan.binding_name.empty()) {
        return Violation(where, "recursive CTE without a binding name");
      }
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, plan.children[0]->schema,
                                         "initializer schema"));
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, plan.children[1]->schema,
                                         "recursive step schema"));
      break;
    }
    case PlanKind::kIterate: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 3));
      if (plan.binding_name.empty()) {
        return Violation(where, "ITERATE without a binding name");
      }
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, plan.children[0]->schema,
                                         "initializer schema"));
      SODA_RETURN_NOT_OK(CheckTypesEqual(plan, plan.children[1]->schema,
                                         "step schema"));
      break;
    }
    case PlanKind::kBindingRef: {
      SODA_RETURN_NOT_OK(CheckChildCount(plan, 0));
      if (plan.binding_name.empty()) {
        return Violation(where, "binding reference without a name");
      }
      break;
    }
    case PlanKind::kTableFunction: {
      if (plan.function_name.empty()) {
        return Violation(where, "table function without a name");
      }
      break;
    }
  }
  if (plan.kind != PlanKind::kScan &&
      (!plan.scan_predicates.empty() || !plan.scan_partitions.empty() ||
       plan.scan_total_partitions != 0)) {
    return Violation(where,
                     "scan pushdown/pruning fields set on a non-scan node");
  }
  for (const PlanPtr& child : plan.children) {
    SODA_RETURN_NOT_OK(VerifyLogicalPlan(*child));
  }
  return Status::OK();
}

Status VerifyPhysicalPlan(const PhysicalPlan& plan) {
  // First pass: per-pipeline structure + dependency-order (acyclicity).
  // Pipelines are stored in dependency order, so any edge to a pipeline
  // at the same or a later index is a cycle or forward reference.
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    const PhysicalPipeline& p = plan.pipeline(i);
    const std::string where = "pipeline P" + std::to_string(i);

    for (size_t dep : p.inputs) {
      if (dep >= i) {
        return Violation(where, "input P" + std::to_string(dep) +
                                    " is not an earlier pipeline (cyclic or "
                                    "forward dependency)");
      }
    }
    if (p.input_pipeline != PhysicalPipeline::kNoInput &&
        p.input_pipeline >= i) {
      return Violation(where,
                       "source pipeline P" + std::to_string(p.input_pipeline) +
                           " is not an earlier pipeline (cyclic or forward "
                           "dependency)");
    }

    const bool streaming = p.table_source != nullptr ||
                           p.input_pipeline != PhysicalPipeline::kNoInput;
    if (p.op_fn) {
      if (p.sink || streaming) {
        return Violation(where,
                         "operator form mixed with a streaming source/sink");
      }
      continue;
    }
    if (!p.sink) {
      return Violation(where, "pipeline has neither op_fn nor sink");
    }
    if (p.table_source && p.input_pipeline != PhysicalPipeline::kNoInput) {
      return Violation(where, "both a table source and an input pipeline");
    }
    if (p.transforms.size() != p.transform_ops.size()) {
      return Violation(where,
                       "transform/display arity mismatch (" +
                           std::to_string(p.transforms.size()) + " vs " +
                           std::to_string(p.transform_ops.size()) + ")");
    }
    if (p.prepares.size() != p.prepare_ops.size()) {
      return Violation(where,
                       "prepare/display arity mismatch (" +
                           std::to_string(p.prepares.size()) + " vs " +
                           std::to_string(p.prepare_ops.size()) + ")");
    }
    if (streaming && !p.sink_op) {
      return Violation(where, "streaming pipeline without a sink operator");
    }
    for (size_t t = 0; t < p.transforms.size(); ++t) {
      // A null transform slot is legal only when a prepare closure will
      // patch it before streaming starts (join probes).
      if (!p.transforms[t] && p.prepares.empty()) {
        const std::string name =
            p.transform_ops[t] ? p.transform_ops[t]->name : "?";
        return Violation(where, "transform " + std::to_string(t) + " (" +
                                    name + ") is unpatched and the pipeline "
                                    "has no prepare step");
      }
    }
    if (streaming && !p.finalize_sink) {
      // A feeder into a shared sink: some later pipeline must finalize it
      // (checked in the sink pass below).
      continue;
    }
  }

  // Second pass: sink contract. Every sink is finalized exactly once, a
  // sink shared by several pipelines must be a MaterializeSink (aggregate
  // / Top-N / limit sinks are fed only by their own declared pipeline), and
  // the finalizing pipeline must come after every feeder.
  std::unordered_map<const Sink*, std::vector<size_t>> users;
  std::unordered_map<const Sink*, size_t> finalizers;
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    const PhysicalPipeline& p = plan.pipeline(i);
    if (!p.sink) continue;
    users[p.sink.get()].push_back(i);
    if (p.finalize_sink) {
      auto [it, inserted] = finalizers.emplace(p.sink.get(), i);
      if (!inserted) {
        return Violation("pipeline P" + std::to_string(i),
                         "sink '" + p.sink->name() +
                             "' already finalized by P" +
                             std::to_string(it->second));
      }
    }
  }
  for (const auto& [sink, pipelines] : users) {
    auto fin = finalizers.find(sink);
    if (fin == finalizers.end()) {
      return Violation("pipeline P" + std::to_string(pipelines.front()),
                       "sink '" + sink->name() + "' is never finalized");
    }
    if (fin->second != pipelines.back()) {
      return Violation(
          "pipeline P" + std::to_string(fin->second),
          "sink '" + sink->name() + "' finalized before feeder P" +
              std::to_string(pipelines.back()) + " ran");
    }
    if (pipelines.size() > 1 &&
        dynamic_cast<const MaterializeSink*>(sink) == nullptr) {
      return Violation("pipeline P" + std::to_string(pipelines.front()),
                       "sink '" + sink->name() + "' shared by " +
                           std::to_string(pipelines.size()) +
                           " pipelines but only MaterializeSink may be "
                           "shared");
    }
  }
  return Status::OK();
}

Status VerifyPlan(const PlanNode& logical, const PhysicalPlan& physical) {
  SODA_RETURN_NOT_OK(VerifyLogicalPlan(logical));
  return VerifyPhysicalPlan(physical);
}

}  // namespace soda
