#include "sql/binder.h"

#include <set>

#include "exec/table_function.h"
#include "expr/evaluator.h"
#include "expr/fold.h"
#include "expr/type_inference.h"
#include "util/string_util.h"

namespace soda {

namespace {

/// True if the parse tree contains an aggregate function call.
bool ContainsAggregate(const ParseExpr& e) {
  if (e.kind == ParseExprKind::kFunctionCall && IsAggregateFunction(e.name)) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

/// Collects aggregate calls in evaluation order.
void CollectAggregates(const ParseExpr& e,
                       std::vector<const ParseExpr*>* out) {
  if (e.kind == ParseExprKind::kFunctionCall && IsAggregateFunction(e.name)) {
    out->push_back(&e);
    return;  // nested aggregates rejected later
  }
  for (const auto& c : e.children) CollectAggregates(*c, out);
}

/// Output column name for an unaliased select item.
std::string DeriveName(const ParseExpr& e, size_t index) {
  switch (e.kind) {
    case ParseExprKind::kColumnRef:
      return e.name;
    case ParseExprKind::kFunctionCall:
      return e.name;
    case ParseExprKind::kCast:
      return DeriveName(*e.children[0], index);
    default:
      return "_col" + std::to_string(index + 1);
  }
}

}  // namespace

/// State for binding select items / HAVING in the presence of GROUP BY.
struct Binder::AggContext {
  const Schema* input_schema = nullptr;      ///< pre-aggregation schema
  std::vector<std::string> group_reprs;      ///< ToString of bound group exprs
  std::vector<DataType> group_types;
  std::vector<std::string> group_names;
  std::map<const ParseExpr*, size_t> agg_index;  ///< call -> aggregate slot
  std::vector<AggregateSpec> specs;
  Binder* binder = nullptr;
};

Result<PlanPtr> Binder::BindSelectStatement(const SelectStmt& stmt) {
  return BindSelect(stmt);
}

Status Binder::BindCtes(const SelectStmt& stmt) {
  for (const auto& cte : stmt.ctes) {
    const SelectStmt& q = *cte.query;
    PlanPtr plan;
    if (stmt.recursive && q.union_next) {
      // WITH RECURSIVE name AS (init UNION ALL step).
      if (q.union_next->union_next) {
        return Status::BindError(
            "recursive CTE '" + cte.name +
            "' must have exactly two UNION ALL branches (init and step)");
      }
      // Bind the initial branch without the recursive binding in scope.
      // Build a temporary SelectStmt view for the init branch only.
      SODA_ASSIGN_OR_RETURN(PlanPtr init, BindSelectCore(q));

      // Rename columns per the CTE alias list.
      Schema binding_schema = init->schema;
      if (!cte.column_aliases.empty()) {
        if (cte.column_aliases.size() != binding_schema.num_fields()) {
          return Status::BindError("CTE column alias count mismatch for '" +
                                   cte.name + "'");
        }
        std::vector<Field> fields;
        for (size_t i = 0; i < binding_schema.num_fields(); ++i) {
          fields.emplace_back(cte.column_aliases[i],
                              binding_schema.field(i).type);
        }
        binding_schema = Schema(std::move(fields));
      }
      binding_schema = binding_schema.WithQualifier(cte.name);

      // The step sees the working table under the CTE's name.
      auto saved = runtime_bindings_;
      runtime_bindings_[cte.name] = binding_schema;
      auto step = BindSelectCore(*q.union_next);
      runtime_bindings_ = std::move(saved);
      SODA_RETURN_NOT_OK(step.status());

      if (!(*step)->schema.TypesEqual(binding_schema)) {
        return Status::BindError(
            "recursive CTE '" + cte.name +
            "' branches have incompatible types: " + init->schema.ToString() +
            " vs " + (*step)->schema.ToString());
      }

      auto node = std::make_unique<PlanNode>(PlanKind::kRecursiveCte);
      node->binding_name = cte.name;
      node->schema = binding_schema;
      node->children.push_back(std::move(init));
      node->children.push_back(std::move(step.ValueOrDie()));
      plan = std::move(node);
    } else {
      SODA_ASSIGN_OR_RETURN(plan, BindSelect(q));
      if (!cte.column_aliases.empty()) {
        if (cte.column_aliases.size() != plan->schema.num_fields()) {
          return Status::BindError("CTE column alias count mismatch for '" +
                                   cte.name + "'");
        }
        std::vector<Field> fields;
        for (size_t i = 0; i < plan->schema.num_fields(); ++i) {
          fields.emplace_back(cte.column_aliases[i],
                              plan->schema.field(i).type);
        }
        plan->schema = Schema(std::move(fields));
      }
      plan->schema = plan->schema.WithQualifier(cte.name);
    }
    ctes_[cte.name] = std::move(plan);
  }
  return Status::OK();
}

Result<PlanPtr> Binder::BindSelect(const SelectStmt& stmt) {
  // CTEs are visible to the main query and to later CTEs; save/restore the
  // scope so sibling queries are unaffected.
  auto saved_ctes = ctes_;
  Status st = BindCtes(stmt);
  if (!st.ok()) {
    ctes_ = std::move(saved_ctes);
    return st;
  }

  auto bind_branches = [&]() -> Result<PlanPtr> {
    SODA_ASSIGN_OR_RETURN(PlanPtr plan, BindSelectCore(stmt));
    if (stmt.union_next) {
      auto node = std::make_unique<PlanNode>(PlanKind::kUnionAll);
      node->schema = plan->schema;
      node->children.push_back(std::move(plan));
      for (const SelectStmt* branch = stmt.union_next.get(); branch;
           branch = branch->union_next.get()) {
        SODA_ASSIGN_OR_RETURN(PlanPtr b, BindSelectCore(*branch));
        if (!b->schema.TypesEqual(node->schema)) {
          return Status::BindError(
              "UNION ALL branches have incompatible types: " +
              node->schema.ToString() + " vs " + b->schema.ToString());
        }
        node->children.push_back(std::move(b));
      }
      plan = std::move(node);
    }

    // ORDER BY over the select output (ordinals, aliases, or expressions).
    // Keys referencing *input* columns not present in the output (e.g.
    // `SELECT b FROM t ORDER BY a`) are supported by threading hidden sort
    // columns through the top projection and dropping them afterwards.
    if (!stmt.order_by.empty()) {
      const size_t visible = plan->schema.num_fields();
      std::vector<ExprPtr> hidden;  // bound over the projection's input
      auto node = std::make_unique<PlanNode>(PlanKind::kSort);
      for (const auto& item : stmt.order_by) {
        SortKey key;
        key.descending = item.descending;
        if (item.expr->kind == ParseExprKind::kLiteral &&
            !item.expr->literal.is_null() &&
            item.expr->literal.type() == DataType::kBigInt) {
          int64_t ordinal = item.expr->literal.bigint_value();
          if (ordinal < 1 || ordinal > static_cast<int64_t>(visible)) {
            return Status::BindError("ORDER BY ordinal out of range: " +
                                     std::to_string(ordinal));
          }
          size_t idx = static_cast<size_t>(ordinal - 1);
          key.expr = Expression::ColumnRef(idx, plan->schema.field(idx).type,
                                           plan->schema.field(idx).name);
          node->sort_keys.push_back(std::move(key));
          continue;
        }
        auto bound = BindExpr(*item.expr, plan->schema);
        if (!bound.ok() && item.expr->kind == ParseExprKind::kColumnRef &&
            !item.expr->qualifier.empty()) {
          // Output columns are unqualified; allow `ORDER BY t.c` to match
          // the output column `c`.
          ParseExpr unqualified(ParseExprKind::kColumnRef);
          unqualified.name = item.expr->name;
          bound = BindExpr(unqualified, plan->schema);
        }
        if (!bound.ok() && plan->kind == PlanKind::kProject) {
          // Hidden sort column bound against the projection input.
          auto input_bound =
              BindExpr(*item.expr, plan->children[0]->schema);
          if (input_bound.ok()) {
            size_t idx = visible + hidden.size();
            key.expr = Expression::ColumnRef(idx, (*input_bound)->type,
                                             "_sort" + std::to_string(idx));
            hidden.push_back(std::move(input_bound.ValueOrDie()));
            node->sort_keys.push_back(std::move(key));
            continue;
          }
        }
        SODA_RETURN_NOT_OK(bound.status());
        // A constant key (`ORDER BY NULL`) orders nothing: drop it, as
        // PostgreSQL does, so rows keep their source order.
        if (bound.ValueOrDie()->IsConstant()) continue;
        key.expr = std::move(bound.ValueOrDie());
        node->sort_keys.push_back(std::move(key));
      }

      if (!hidden.empty()) {
        // Extend the projection, sort, then drop the hidden columns.
        for (size_t h = 0; h < hidden.size(); ++h) {
          plan->schema.AddField(Field("_sort" + std::to_string(visible + h),
                                      hidden[h]->type));
          plan->exprs.push_back(std::move(hidden[h]));
        }
        node->schema = plan->schema;
        node->children.push_back(std::move(plan));
        plan = std::move(node);
        std::vector<ExprPtr> keep;
        Schema keep_schema;
        for (size_t i = 0; i < visible; ++i) {
          const Field& f = plan->schema.field(i);
          keep.push_back(Expression::ColumnRef(i, f.type, f.name));
          keep_schema.AddField(f);
        }
        plan = MakeProject(std::move(plan), std::move(keep),
                           std::move(keep_schema));
      } else if (!node->sort_keys.empty()) {  // else only constant keys
        node->schema = plan->schema;
        node->children.push_back(std::move(plan));
        plan = std::move(node);
      }
    }

    if (stmt.limit >= 0 || stmt.offset > 0) {
      plan = MakeLimit(std::move(plan), stmt.limit, stmt.offset);
    }
    return plan;
  };

  auto result = bind_branches();
  ctes_ = std::move(saved_ctes);
  return result;
}

namespace {

/// SELECT DISTINCT: dedupe by grouping on every output column (an
/// aggregation with no aggregate functions).
PlanPtr WrapDistinct(PlanPtr input) {
  auto agg = std::make_unique<PlanNode>(PlanKind::kAggregate);
  agg->num_group_cols = input->schema.num_fields();
  agg->schema = input->schema;
  agg->children.push_back(std::move(input));
  return agg;
}

}  // namespace

Result<PlanPtr> Binder::BindSelectCore(const SelectStmt& stmt) {
  // FROM.
  PlanPtr plan;
  bool has_from = stmt.from != nullptr;
  if (has_from) {
    SODA_ASSIGN_OR_RETURN(plan, BindTableRef(*stmt.from));
  } else {
    // SELECT without FROM: a single-row dummy relation.
    auto values = std::make_unique<PlanNode>(PlanKind::kValues);
    values->schema = Schema({Field("_dummy", DataType::kBigInt)});
    values->rows.push_back({Value::BigInt(0)});
    plan = std::move(values);
  }
  const Schema input_schema = plan->schema;

  // WHERE.
  if (stmt.where) {
    SODA_ASSIGN_OR_RETURN(ExprPtr pred, BindExpr(*stmt.where, input_schema));
    if (pred->type != DataType::kBool) {
      return Status::BindError("WHERE clause must be boolean");
    }
    plan = MakeFilter(std::move(plan), std::move(pred));
  }

  // Aggregation?
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr->kind != ParseExprKind::kStar &&
        ContainsAggregate(*item.expr)) {
      has_agg = true;
    }
  }
  if (stmt.having) has_agg = true;

  if (!has_agg) {
    // Plain projection.
    std::vector<ExprPtr> exprs;
    Schema out_schema;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.expr->kind == ParseExprKind::kStar) {
        if (!has_from) {
          return Status::BindError("SELECT * requires a FROM clause");
        }
        for (size_t f = 0; f < input_schema.num_fields(); ++f) {
          const Field& fld = input_schema.field(f);
          if (!item.expr->qualifier.empty() &&
              fld.qualifier != ToLower(item.expr->qualifier)) {
            continue;
          }
          exprs.push_back(Expression::ColumnRef(f, fld.type, fld.name));
          out_schema.AddField(Field(fld.name, fld.type));
        }
        continue;
      }
      SODA_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*item.expr, input_schema));
      std::string name =
          item.alias.empty() ? DeriveName(*item.expr, i) : item.alias;
      out_schema.AddField(Field(name, e->type));
      exprs.push_back(FoldConstants(std::move(e)));
    }
    if (exprs.empty()) return Status::BindError("empty select list");
    plan = MakeProject(std::move(plan), std::move(exprs),
                       std::move(out_schema));
    return stmt.distinct ? WrapDistinct(std::move(plan)) : std::move(plan);
  }

  // --- aggregation path ---------------------------------------------------
  AggContext agg;
  agg.input_schema = &input_schema;
  agg.binder = this;

  // Bind GROUP BY expressions.
  std::vector<ExprPtr> pre_exprs;
  Schema pre_schema;
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    SODA_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*stmt.group_by[g], input_schema));
    agg.group_reprs.push_back(e->ToString());
    agg.group_types.push_back(e->type);
    std::string name = stmt.group_by[g]->kind == ParseExprKind::kColumnRef
                           ? stmt.group_by[g]->name
                           : "_g" + std::to_string(g + 1);
    agg.group_names.push_back(name);
    pre_schema.AddField(Field(name, e->type));
    pre_exprs.push_back(std::move(e));
  }

  // Collect aggregate calls from select items and HAVING.
  std::vector<const ParseExpr*> calls;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ParseExprKind::kStar) {
      return Status::BindError("SELECT * cannot be combined with GROUP BY");
    }
    CollectAggregates(*item.expr, &calls);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &calls);

  const size_t num_groups = agg.group_reprs.size();
  for (const ParseExpr* call : calls) {
    AggregateSpec spec;
    spec.function = call->name;
    if (call->children.size() != 1) {
      return Status::BindError("aggregate " + call->name +
                               " expects exactly one argument");
    }
    const ParseExpr& arg = *call->children[0];
    if (ContainsAggregate(arg)) {
      return Status::BindError("nested aggregate functions are not allowed");
    }
    if (arg.kind == ParseExprKind::kStar) {
      if (call->name != "count") {
        return Status::BindError("only count(*) accepts '*'");
      }
      spec.arg_index = -1;
      spec.result_type = DataType::kBigInt;
    } else {
      SODA_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(arg, input_schema));
      SODA_ASSIGN_OR_RETURN(spec.result_type,
                            InferAggregateType(call->name, bound->type));
      spec.arg_index =
          static_cast<int>(num_groups + (pre_exprs.size() - num_groups));
      pre_schema.AddField(
          Field("_a" + std::to_string(pre_exprs.size()), bound->type));
      pre_exprs.push_back(std::move(bound));
    }
    agg.agg_index[call] = agg.specs.size();
    agg.specs.push_back(std::move(spec));
  }

  // Ensure at least one column in the pre-projection (count(*) only case).
  if (pre_exprs.empty()) {
    pre_exprs.push_back(Expression::Literal(Value::BigInt(0)));
    pre_schema.AddField(Field("_dummy", DataType::kBigInt));
  }
  plan = MakeProject(std::move(plan), std::move(pre_exprs), pre_schema);

  auto agg_node = std::make_unique<PlanNode>(PlanKind::kAggregate);
  agg_node->num_group_cols = num_groups;
  agg_node->aggregates = agg.specs;
  Schema agg_schema;
  for (size_t g = 0; g < num_groups; ++g) {
    agg_schema.AddField(Field(agg.group_names[g], agg.group_types[g]));
  }
  for (size_t s = 0; s < agg.specs.size(); ++s) {
    agg_schema.AddField(
        Field("_agg" + std::to_string(s + 1), agg.specs[s].result_type));
  }
  agg_node->schema = agg_schema;
  agg_node->children.push_back(std::move(plan));
  plan = std::move(agg_node);

  // HAVING: bound in the aggregate scope, applied above the aggregation.
  if (stmt.having) {
    SODA_ASSIGN_OR_RETURN(ExprPtr pred, BindAggScopeExpr(*stmt.having, agg));
    if (pred->type != DataType::kBool) {
      return Status::BindError("HAVING clause must be boolean");
    }
    plan = MakeFilter(std::move(plan), std::move(pred));
  }

  // Final projection of the select items in the aggregate scope.
  std::vector<ExprPtr> exprs;
  Schema out_schema;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    SODA_ASSIGN_OR_RETURN(ExprPtr e, BindAggScopeExpr(*item.expr, agg));
    std::string name =
        item.alias.empty() ? DeriveName(*item.expr, i) : item.alias;
    out_schema.AddField(Field(name, e->type));
    exprs.push_back(FoldConstants(std::move(e)));
  }
  plan = MakeProject(std::move(plan), std::move(exprs), std::move(out_schema));
  return stmt.distinct ? WrapDistinct(std::move(plan)) : std::move(plan);
}

Result<PlanPtr> Binder::BindTableRef(const TableRef& ref) {
  switch (ref.kind) {
    case TableRefKind::kNamed: {
      std::string name = ToLower(ref.name);
      std::string alias = ref.alias.empty() ? name : ref.alias;
      // CTE?
      if (auto it = ctes_.find(name); it != ctes_.end()) {
        PlanPtr plan = it->second->Clone();
        plan->schema = plan->schema.WithQualifier(alias);
        return plan;
      }
      // Runtime binding (recursive CTE working table / `iterate`)?
      if (auto it = runtime_bindings_.find(name);
          it != runtime_bindings_.end()) {
        auto node = std::make_unique<PlanNode>(PlanKind::kBindingRef);
        node->binding_name = name;
        node->schema = it->second.WithQualifier(alias);
        return node;
      }
      // Base table.
      auto table = catalog_->GetTable(name);
      if (!table.ok()) {
        return Status::BindError("unknown relation: " + name);
      }
      return MakeScan(name, (*table)->schema().WithQualifier(alias));
    }
    case TableRefKind::kSubquery: {
      SODA_ASSIGN_OR_RETURN(PlanPtr plan, BindSelect(*ref.subquery));
      if (!ref.alias.empty()) {
        plan->schema = plan->schema.WithQualifier(ref.alias);
      }
      return plan;
    }
    case TableRefKind::kIterate:
      return BindIterate(ref);
    case TableRefKind::kTableFunction:
      return BindTableFunction(ref);
    case TableRefKind::kJoin: {
      SODA_ASSIGN_OR_RETURN(PlanPtr left, BindTableRef(*ref.left));
      SODA_ASSIGN_OR_RETURN(PlanPtr right, BindTableRef(*ref.right));
      auto node = std::make_unique<PlanNode>(PlanKind::kJoin);
      node->schema = left->schema.Concat(right->schema);
      if (ref.join_condition) {
        SODA_ASSIGN_OR_RETURN(ExprPtr pred,
                              BindExpr(*ref.join_condition, node->schema));
        if (pred->type != DataType::kBool) {
          return Status::BindError("JOIN condition must be boolean");
        }
        node->predicate = std::move(pred);
      }
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      return node;
    }
  }
  return Status::Internal("unknown table ref kind");
}

Result<PlanPtr> Binder::BindIterate(const TableRef& ref) {
  SODA_ASSIGN_OR_RETURN(PlanPtr init, BindSelect(*ref.init));
  Schema state_schema = init->schema.WithQualifier("iterate");

  auto saved = runtime_bindings_;
  runtime_bindings_["iterate"] = state_schema;
  auto step = BindSelect(*ref.step);
  auto stop = BindSelect(*ref.stop);
  runtime_bindings_ = std::move(saved);
  SODA_RETURN_NOT_OK(step.status());
  SODA_RETURN_NOT_OK(stop.status());

  if (!(*step)->schema.TypesEqual(state_schema)) {
    return Status::BindError(
        "ITERATE step schema " + (*step)->schema.ToString() +
        " is incompatible with the initialization schema " +
        init->schema.ToString());
  }

  auto node = std::make_unique<PlanNode>(PlanKind::kIterate);
  node->binding_name = "iterate";
  node->schema = ref.alias.empty()
                     ? state_schema
                     : init->schema.WithQualifier(ref.alias);
  node->children.push_back(std::move(init));
  node->children.push_back(std::move(step.ValueOrDie()));
  node->children.push_back(std::move(stop.ValueOrDie()));
  return node;
}

Result<PlanPtr> Binder::BindTableFunction(const TableRef& ref) {
  std::string name = ToLower(ref.name);
  const TableFunction* fn = FindTableFunction(name);
  if (fn == nullptr) return Status::KeyError("unknown table function: " + name);
  const TableFunctionSignature& sig = fn->signature;

  // Partition arguments by kind, preserving per-kind order.
  std::vector<PlanPtr> relations;
  std::vector<const ParseExpr*> lambda_args;
  std::vector<Value> scalar_args;
  for (const auto& arg : ref.args) {
    if (arg.subquery) {
      SODA_ASSIGN_OR_RETURN(PlanPtr plan, BindSelect(*arg.subquery));
      relations.push_back(std::move(plan));
    } else if (arg.expr->kind == ParseExprKind::kLambda) {
      lambda_args.push_back(arg.expr.get());
    } else {
      // Scalar parameters must be constants (paper Listing 2/3: damping
      // factor, epsilon, max iterations).
      SODA_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*arg.expr, Schema()));
      SODA_ASSIGN_OR_RETURN(Value v, EvaluateConstantExpression(*bound));
      scalar_args.push_back(std::move(v));
    }
  }

  const size_t lambda_limit = sig.lambda_param_relations.size();
  if (lambda_args.size() > lambda_limit) {
    return Status::BindError(name + " accepts at most " +
                             std::to_string(lambda_limit) +
                             " lambda argument(s)");
  }
  if (relations.size() != sig.num_relations) {
    return Status::BindError(name + " expects " +
                             std::to_string(sig.num_relations) +
                             " relation argument(s), got " +
                             std::to_string(relations.size()));
  }
  if (scalar_args.size() < sig.min_scalars ||
      scalar_args.size() > sig.scalar_types.size()) {
    return Status::BindError(name + ": wrong number of scalar arguments");
  }
  // Each scalar takes its declared type, so operators read it unchecked.
  for (size_t i = 0; i < scalar_args.size(); ++i) {
    Value& v = scalar_args[i];
    if (v.is_null() || !IsNumeric(v.type())) {
      return Status::TypeError(name + ": scalar argument " +
                               std::to_string(i + 1) +
                               " must be numeric, got " + v.ToString());
    }
    SODA_ASSIGN_OR_RETURN(v, v.CastTo(sig.scalar_types[i]));
  }

  std::vector<Schema> relation_schemas;
  relation_schemas.reserve(relations.size());
  for (const auto& r : relations) relation_schemas.push_back(r->schema);

  auto node = std::make_unique<PlanNode>(PlanKind::kTableFunction);
  node->function_name = name;
  node->scalar_args = std::move(scalar_args);

  // Bind lambdas: parameters are tuple variables over the relation inputs
  // designated by the signature (paper §7: "the operator expects a lambda
  // function that takes two tuple variables as input arguments").
  for (size_t li = 0; li < lambda_args.size(); ++li) {
    const ParseExpr& lam = *lambda_args[li];
    const std::vector<size_t>& param_rels = sig.lambda_param_relations[li];
    if (lam.lambda_params.size() != param_rels.size()) {
      return Status::BindError(
          name + ": lambda must take " + std::to_string(param_rels.size()) +
          " tuple parameter(s), got " +
          std::to_string(lam.lambda_params.size()));
    }
    Schema lambda_schema;
    size_t a_width = 0;
    for (size_t p = 0; p < param_rels.size(); ++p) {
      Schema part =
          relation_schemas[param_rels[p]].WithQualifier(lam.lambda_params[p]);
      if (p == 0) a_width = part.num_fields();
      lambda_schema = lambda_schema.Concat(part);
    }
    SODA_ASSIGN_OR_RETURN(ExprPtr body,
                          BindExpr(*lam.children[0], lambda_schema));
    if (!IsNumeric(body->type)) {
      return Status::BindError(
          name + ": lambda must return a numeric value, got " +
          DataTypeToString(body->type));
    }
    BoundLambda bound;
    bound.body = FoldConstants(std::move(body));
    bound.a_width = a_width;
    bound.source_text = lam.source_text;
    node->lambdas.push_back(std::move(bound));
  }

  SODA_ASSIGN_OR_RETURN(Schema out_schema, fn->bind(relation_schemas));
  node->schema =
      out_schema.WithQualifier(ref.alias.empty() ? name : ref.alias);
  for (auto& r : relations) node->children.push_back(std::move(r));
  return node;
}

Result<ExprPtr> Binder::BindScalar(const ParseExpr& expr,
                                   const Schema& schema) {
  return BindExpr(expr, schema);
}

Result<ExprPtr> Binder::BindExpr(const ParseExpr& expr, const Schema& schema) {
  switch (expr.kind) {
    case ParseExprKind::kLiteral:
      return Expression::Literal(expr.literal);
    case ParseExprKind::kColumnRef: {
      SODA_ASSIGN_OR_RETURN(size_t idx,
                            schema.FindField(expr.qualifier, expr.name));
      return Expression::ColumnRef(idx, schema.field(idx).type,
                                   expr.name);
    }
    case ParseExprKind::kStar:
      return Status::BindError("'*' is only allowed in the select list");
    case ParseExprKind::kParameter: {
      if (param_types_ == nullptr) {
        return Status::BindError(
            "parameter placeholders ($n) are only allowed inside PREPARE");
      }
      const size_t slot = expr.param_index;
      if (slot > param_types_->size()) {
        param_types_->resize(slot, DataType::kInvalid);
      }
      const DataType t = (*param_types_)[slot - 1];
      if (t == DataType::kInvalid) {
        return Status::BindError(
            "cannot infer the type of parameter $" + std::to_string(slot) +
            "; declare it (PREPARE name (TYPE, ...) AS ...) or cast it "
            "(CAST($" + std::to_string(slot) + " AS TYPE))");
      }
      return Expression::Parameter(slot, t);
    }
    case ParseExprKind::kBinary: {
      // An undeclared parameter takes the type of its peer operand:
      // `a = $1` types $1 as a's type before the slot is bound.
      InferParamFromPeer(*expr.children[0], *expr.children[1], schema);
      InferParamFromPeer(*expr.children[1], *expr.children[0], schema);
      SODA_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*expr.children[0], schema));
      SODA_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(*expr.children[1], schema));
      SODA_ASSIGN_OR_RETURN(DataType t,
                            InferBinaryType(expr.binary_op, l->type, r->type));
      return Expression::Binary(expr.binary_op, std::move(l), std::move(r), t);
    }
    case ParseExprKind::kUnary: {
      SODA_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*expr.children[0], schema));
      SODA_ASSIGN_OR_RETURN(DataType t, InferUnaryType(expr.unary_op, c->type));
      return Expression::Unary(expr.unary_op, std::move(c), t);
    }
    case ParseExprKind::kFunctionCall: {
      if (IsAggregateFunction(expr.name)) {
        return Status::BindError(
            "aggregate function '" + expr.name +
            "' is not allowed here (only in SELECT list or HAVING)");
      }
      std::vector<ExprPtr> args;
      std::vector<DataType> arg_types;
      for (const auto& c : expr.children) {
        SODA_ASSIGN_OR_RETURN(ExprPtr a, BindExpr(*c, schema));
        arg_types.push_back(a->type);
        args.push_back(std::move(a));
      }
      SODA_ASSIGN_OR_RETURN(DataType t,
                            InferFunctionType(expr.name, arg_types));
      return Expression::Function(expr.name, std::move(args), t);
    }
    case ParseExprKind::kCase: {
      size_t num_when = expr.children.size() / 2;
      std::vector<ExprPtr> children;
      DataType result = DataType::kInvalid;
      for (size_t w = 0; w < num_when; ++w) {
        SODA_ASSIGN_OR_RETURN(ExprPtr cond,
                              BindExpr(*expr.children[2 * w], schema));
        if (cond->type != DataType::kBool) {
          return Status::BindError("CASE WHEN condition must be boolean");
        }
        SODA_ASSIGN_OR_RETURN(ExprPtr then,
                              BindExpr(*expr.children[2 * w + 1], schema));
        result = result == DataType::kInvalid
                     ? then->type
                     : CommonType(result, then->type);
        children.push_back(std::move(cond));
        children.push_back(std::move(then));
      }
      ExprPtr else_expr;
      if (expr.case_has_else) {
        SODA_ASSIGN_OR_RETURN(else_expr,
                              BindExpr(*expr.children.back(), schema));
        result = CommonType(result, else_expr->type);
      } else {
        else_expr = Expression::Literal(Value::Null());
        else_expr->type = result;
      }
      if (result == DataType::kInvalid) {
        return Status::BindError("CASE branches have incompatible types");
      }
      children.push_back(std::move(else_expr));
      return Expression::Case(std::move(children), result);
    }
    case ParseExprKind::kCast: {
      // CAST($n AS T) is the explicit escape hatch for typing a slot no
      // peer operand can type.
      SetParamType(*expr.children[0], expr.cast_type);
      SODA_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*expr.children[0], schema));
      return Expression::Cast(std::move(c), expr.cast_type);
    }
    case ParseExprKind::kLambda:
      return Status::BindError(
          "lambda expressions are only allowed as analytics operator "
          "arguments (paper §7)");
  }
  return Status::Internal("unknown parse expression kind");
}

void Binder::SetParamType(const ParseExpr& expr, DataType type) {
  if (param_types_ == nullptr || expr.kind != ParseExprKind::kParameter ||
      type == DataType::kInvalid) {
    return;
  }
  const size_t slot = expr.param_index;
  if (slot > param_types_->size()) {
    param_types_->resize(slot, DataType::kInvalid);
  }
  if ((*param_types_)[slot - 1] == DataType::kInvalid) {
    (*param_types_)[slot - 1] = type;
  }
}

void Binder::InferParamFromPeer(const ParseExpr& param, const ParseExpr& peer,
                                const Schema& schema) {
  if (param_types_ == nullptr || param.kind != ParseExprKind::kParameter) {
    return;
  }
  const size_t slot = param.param_index;
  if (slot <= param_types_->size() &&
      (*param_types_)[slot - 1] != DataType::kInvalid) {
    return;  // already declared or inferred
  }
  // Best-effort: a peer that fails to bind (or is itself untyped) leaves
  // the slot unknown; the kParameter case reports the actionable error.
  auto bound = BindExpr(peer, schema);
  if (bound.ok()) SetParamType(param, (*bound)->type);
}

Result<ExprPtr> Binder::BindAggScopeExpr(const ParseExpr& expr,
                                         AggContext& agg) {
  // Aggregate call -> reference into the aggregate node's output.
  if (expr.kind == ParseExprKind::kFunctionCall &&
      IsAggregateFunction(expr.name)) {
    auto it = agg.agg_index.find(&expr);
    if (it == agg.agg_index.end()) {
      return Status::Internal("uncollected aggregate call");
    }
    const AggregateSpec& spec = agg.specs[it->second];
    return Expression::ColumnRef(agg.group_reprs.size() + it->second,
                                 spec.result_type, expr.name);
  }

  // Structural match against a GROUP BY expression.
  {
    auto bound = BindExpr(expr, *agg.input_schema);
    if (bound.ok()) {
      std::string repr = (*bound)->ToString();
      for (size_t g = 0; g < agg.group_reprs.size(); ++g) {
        if (agg.group_reprs[g] == repr) {
          return Expression::ColumnRef(g, agg.group_types[g],
                                       agg.group_names[g]);
        }
      }
      // Constants are fine outside the group list.
      if ((*bound)->IsConstant()) return std::move(bound.ValueOrDie());
    }
  }

  // Recurse into composite expressions, rebuilding bound nodes.
  switch (expr.kind) {
    case ParseExprKind::kBinary: {
      SODA_ASSIGN_OR_RETURN(ExprPtr l, BindAggScopeExpr(*expr.children[0], agg));
      SODA_ASSIGN_OR_RETURN(ExprPtr r, BindAggScopeExpr(*expr.children[1], agg));
      SODA_ASSIGN_OR_RETURN(DataType t,
                            InferBinaryType(expr.binary_op, l->type, r->type));
      return Expression::Binary(expr.binary_op, std::move(l), std::move(r), t);
    }
    case ParseExprKind::kUnary: {
      SODA_ASSIGN_OR_RETURN(ExprPtr c, BindAggScopeExpr(*expr.children[0], agg));
      SODA_ASSIGN_OR_RETURN(DataType t, InferUnaryType(expr.unary_op, c->type));
      return Expression::Unary(expr.unary_op, std::move(c), t);
    }
    case ParseExprKind::kFunctionCall: {
      std::vector<ExprPtr> args;
      std::vector<DataType> arg_types;
      for (const auto& c : expr.children) {
        SODA_ASSIGN_OR_RETURN(ExprPtr a, BindAggScopeExpr(*c, agg));
        arg_types.push_back(a->type);
        args.push_back(std::move(a));
      }
      SODA_ASSIGN_OR_RETURN(DataType t,
                            InferFunctionType(expr.name, arg_types));
      return Expression::Function(expr.name, std::move(args), t);
    }
    case ParseExprKind::kCase: {
      size_t num_when = expr.children.size() / 2;
      std::vector<ExprPtr> children;
      DataType result = DataType::kInvalid;
      for (size_t w = 0; w < num_when; ++w) {
        SODA_ASSIGN_OR_RETURN(ExprPtr cond,
                              BindAggScopeExpr(*expr.children[2 * w], agg));
        SODA_ASSIGN_OR_RETURN(ExprPtr then,
                              BindAggScopeExpr(*expr.children[2 * w + 1], agg));
        result = result == DataType::kInvalid
                     ? then->type
                     : CommonType(result, then->type);
        children.push_back(std::move(cond));
        children.push_back(std::move(then));
      }
      ExprPtr else_expr;
      if (expr.case_has_else) {
        SODA_ASSIGN_OR_RETURN(else_expr,
                              BindAggScopeExpr(*expr.children.back(), agg));
        result = CommonType(result, else_expr->type);
      } else {
        else_expr = Expression::Literal(Value::Null());
        else_expr->type = result;
      }
      children.push_back(std::move(else_expr));
      return Expression::Case(std::move(children), result);
    }
    case ParseExprKind::kCast: {
      SODA_ASSIGN_OR_RETURN(ExprPtr c, BindAggScopeExpr(*expr.children[0], agg));
      return Expression::Cast(std::move(c), expr.cast_type);
    }
    case ParseExprKind::kParameter:
      // Parameters are scalars; bind them like any non-grouped constant
      // (HAVING count(*) > $1).
      return BindExpr(expr, *agg.input_schema);
    case ParseExprKind::kColumnRef:
      return Status::BindError(
          "column '" + expr.name +
          "' must appear in the GROUP BY clause or inside an aggregate");
    default:
      return Status::BindError(
          "expression not allowed in aggregate context");
  }
}

}  // namespace soda
