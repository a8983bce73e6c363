/// \file iterate.cc
/// The paper's non-appending ITERATE construct (§5.1, Listing 1):
///
///   SELECT * FROM ITERATE((init), (step), (stop));
///
/// A temporary relation named `iterate` initially holds the result of
/// `init`. Each round, `stop` is evaluated against the current state; if
/// it produces at least one row (EXISTS semantics) iteration ends and the
/// current state is the operator's result. Otherwise `step` — which may
/// reference `iterate` — *replaces* the state. Peak memory is therefore
/// 2·n tuples (previous + next state) instead of the recursive CTE's n·i.

#include <optional>

#include "exec/executor.h"

namespace soda {

Result<TablePtr> ExecuteIterate(const PlanNode& plan, ExecContext& ctx,
                                size_t* rounds) {
  const std::string& name = plan.binding_name;  // "iterate"
  SODA_ASSIGN_OR_RETURN(TablePtr current, ExecutePlan(*plan.children[0], ctx));
  ctx.stats.cumulative_materialized_tuples += current->num_rows();

  auto saved = ctx.bindings.find(name) != ctx.bindings.end()
                   ? std::optional<TablePtr>(ctx.bindings[name])
                   : std::nullopt;
  auto restore = [&] {
    ctx.bindings.erase(name);
    if (saved) ctx.bindings[name] = *saved;
  };

  for (size_t iteration = 0;; ++iteration) {
    if (iteration >= ctx.max_iterations) {
      restore();
      return IterationCapExceeded("ITERATE", iteration, ctx.max_iterations);
    }
    // Governance probe per step: a divergent loop is cancellable, killed
    // by a deadline, and stopped by the memory budget (paper §5.1).
    if (Status st = ctx.Probe("iterate.step"); !st.ok()) {
      restore();
      return st;
    }
    ctx.bindings[name] = current;

    auto stop = ExecutePlan(*plan.children[2], ctx);
    if (!stop.ok()) {
      restore();
      return stop.status();
    }
    if ((*stop)->num_rows() > 0) break;  // stop condition fulfilled

    auto next = ExecutePlan(*plan.children[1], ctx);
    if (!next.ok()) {
      restore();
      return next.status();
    }
    // Non-appending: the new state replaces the old one; only the two of
    // them are ever live simultaneously.
    ctx.stats.AccountBoundTuples(current->num_rows() + (*next)->num_rows());
    ctx.stats.cumulative_materialized_tuples += (*next)->num_rows();
    ctx.stats.iterations_run++;
    ++*rounds;
    // Empty -> empty is a fixpoint: no stop condition over an empty state
    // can ever fire, so iterating further cannot change anything.
    bool empty_fixpoint =
        current->num_rows() == 0 && (*next)->num_rows() == 0;
    current = next.MoveValueOrDie();
    if (empty_fixpoint) break;
  }

  restore();
  return current;
}

}  // namespace soda
