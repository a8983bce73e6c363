/// \file connected_components.h
/// Connected components — an *extension* operator demonstrating how new
/// algorithms slot into the paper's layer-4 framework (§6): it reuses the
/// temporary-CSR building block of the PageRank operator (dense
/// re-labeling, parallel per-vertex iterations, reverse id mapping) and is
/// exposed as the CONNECTED_COMPONENTS((edges)) table function, freely
/// composable with relational operators.
///
/// Algorithm: synchronous min-label propagation. Labels start as each
/// vertex's dense id; each round every vertex adopts the minimum label in
/// its closed neighborhood (parallel, double-buffered); termination when a
/// round changes nothing. Edges are treated as undirected: the CSR holds
/// both directions of every edge.

#ifndef SODA_ANALYTICS_CONNECTED_COMPONENTS_H_
#define SODA_ANALYTICS_CONNECTED_COMPONENTS_H_

#include <cstdint>

#include "storage/table.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

struct ConnectedComponentsStats {
  int64_t iterations_run = 0;
  size_t num_components = 0;
  size_t num_vertices = 0;
};

/// Computes connected components over an edge relation whose first two
/// columns are BIGINT (src, dst). Output: (vertex BIGINT,
/// component BIGINT) where `component` is the smallest *original* vertex
/// id in the component (stable, order-independent labels).
///
/// `guard` (nullable) is probed at "cc.iteration" every propagation round;
/// the undirected CSR, built from the edge columns in place, is charged to
/// the memory budget at "cc.csr".
Result<TablePtr> RunConnectedComponents(const Table& edges,
                                        ConnectedComponentsStats* stats =
                                            nullptr,
                                        QueryGuard* guard = nullptr);

}  // namespace soda

#endif  // SODA_ANALYTICS_CONNECTED_COMPONENTS_H_
