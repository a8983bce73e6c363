/// \file recursive_cte.cc
/// SQL:1999 `WITH RECURSIVE` execution — the *appending* fixpoint
/// iteration the paper uses as its layer-3 baseline (§5.1): the recursive
/// term sees the previous iteration's rows (the working table) and every
/// iteration's output is appended to the final result, so the relation
/// grows to n*i tuples over i iterations.

#include <optional>
#include <utility>

#include "exec/executor.h"

namespace soda {

Result<TablePtr> ExecuteRecursiveCte(const PlanNode& plan, ExecContext& ctx,
                                     size_t* rounds) {
  SODA_ASSIGN_OR_RETURN(TablePtr init, ExecutePlan(*plan.children[0], ctx));

  auto result = std::make_shared<Table>(plan.binding_name, plan.schema);
  for (size_t c = 0; c < init->num_columns(); ++c) {
    result->column(c).AppendSlice(std::as_const(*init).column(c), 0,
                                  init->num_rows());
  }
  ctx.stats.cumulative_materialized_tuples += init->num_rows();

  TablePtr working = init;
  // Save/restore any outer binding of the same name (nested CTEs).
  auto saved = ctx.bindings.find(plan.binding_name) != ctx.bindings.end()
                   ? std::optional<TablePtr>(ctx.bindings[plan.binding_name])
                   : std::nullopt;

  auto restore = [&] {
    ctx.bindings.erase(plan.binding_name);
    if (saved) ctx.bindings[plan.binding_name] = *saved;
  };

  size_t iterations = 0;
  while (working->num_rows() > 0) {
    if (++iterations > ctx.max_iterations) {
      restore();
      return IterationCapExceeded("recursive CTE '" + plan.binding_name + "'",
                                  iterations - 1, ctx.max_iterations);
    }
    // Governance probe per step; divergent recursions abort cleanly
    // instead of appending until the process dies (paper §5.1).
    if (Status st = ctx.Probe("cte.step"); !st.ok()) {
      restore();
      return st;
    }
    ctx.bindings[plan.binding_name] = working;
    auto step = ExecutePlan(*plan.children[1], ctx);
    if (!step.ok()) {
      restore();
      return step.status();
    }
    working = step.MoveValueOrDie();
    // The appending copy below bypasses Table::AppendChunk, so charge the
    // growth to the memory budget explicitly.
    if (Status st = GuardReserve(ctx.guard, working->MemoryUsage(),
                                 "cte.append");
        !st.ok()) {
      restore();
      return st;
    }
    for (size_t c = 0; c < working->num_columns(); ++c) {
      result->column(c).AppendSlice(std::as_const(*working).column(c), 0,
                                    working->num_rows());
    }
    ctx.stats.cumulative_materialized_tuples += working->num_rows();
    // Appending semantics: the result keeps every iteration, and the
    // working table rides on top (paper §5.1's memory argument).
    ctx.stats.AccountBoundTuples(result->num_rows() + working->num_rows());
    ctx.stats.iterations_run++;
    ++*rounds;
  }

  restore();
  return result;
}

}  // namespace soda
