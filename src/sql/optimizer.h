/// \file optimizer.h
/// Plan rewrites (paper §5.2): constant folding, filter merging, predicate
/// pushdown through joins, equi-join key extraction from cross joins and
/// ON conditions, and hash-join build-side selection by estimated
/// cardinality.
///
/// As §5.2 observes, analytical operators (ITERATE, recursive CTEs, table
/// functions) act as optimization fences — their result depends on whole
/// inputs, so selections are not pushed through them; the optimizer simply
/// recurses into their input subplans and optimizes those independently.

#ifndef SODA_SQL_OPTIMIZER_H_
#define SODA_SQL_OPTIMIZER_H_

#include "sql/logical_plan.h"
#include "storage/catalog.h"

namespace soda {

/// Rewrites the plan in place (returns the possibly-new root).
PlanPtr OptimizePlan(PlanPtr plan, Catalog* catalog);

/// Scan pushdown: harvests the `col <op> constant` conjuncts of every
/// Filter sitting directly on a base-table scan (at or below `plan`) into
/// that scan's pushed predicates and re-prunes its partitions. Part of
/// OptimizePlan; EXECUTE also runs it on its private plan instance after
/// substituting parameters, since `col = $1` is no constant at PREPARE.
void PushScanPredicates(PlanNode* plan, Catalog* catalog);

/// The `col <op> constant` conjuncts of `pred`, a predicate over
/// `schema`, as scan predicates with constants in the column's payload
/// type. They are accelerators (zone maps, encoded filters, pruning); the
/// caller still evaluates the full predicate.
std::vector<ScanPredicate> ExtractScanPredicates(const Expression& pred,
                                                 const Schema& schema);

/// Rough output-cardinality estimate used for join build-side selection.
double EstimateRows(const PlanNode& plan, Catalog* catalog);

}  // namespace soda

#endif  // SODA_SQL_OPTIMIZER_H_
