/// \file pagerank.h
/// The physical PageRank operator (paper §6.3).
///
/// Builds a temporary CSR index with dense re-labeled vertex ids (so every
/// neighbor-rank access is a single array read), runs the damped power
/// iteration in parallel without synchronization inside an iteration, and
/// translates the dense ids back to the original ids through the reverse
/// mapping operator. An optional edge-weight lambda (paper §4.3/§7:
/// "define edge weights in PageRank") turns the uniform transition matrix
/// into a weighted one; its body runs on the vectorized expression
/// evaluator over chunks of the edge columns.

#ifndef SODA_ANALYTICS_PAGERANK_H_
#define SODA_ANALYTICS_PAGERANK_H_

#include <cstdint>

#include "expr/expression.h"
#include "storage/table.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

struct PageRankOptions {
  /// Damping factor d (probability the random surfer follows an edge);
  /// the paper uses 0.85.
  double damping = 0.85;
  /// Convergence threshold on the L1 rank change; 0 disables early exit
  /// (the paper's experiments use e = 0 with 45 fixed iterations).
  double epsilon = 0.0001;
  int64_t max_iterations = 45;
  /// Optional edge-weight lambda: a bound body over the edge tuple (one
  /// column ref per column of the edges input, numeric ones typed DOUBLE,
  /// as the binder types them), evaluated with the expression evaluator.
  /// Inputs carry no validity (a NULL cell reads as 0.0); a negative, NaN
  /// or NULL weight fails the call. nullptr = uniform weights.
  const Expression* edge_weight = nullptr;
  /// Resource governor probed at "pagerank.iteration" each power-iteration
  /// round; the CSR build is charged at "pagerank.csr". null = ungoverned.
  QueryGuard* guard = nullptr;
};

struct PageRankStats {
  int64_t iterations_run = 0;
  double last_delta = 0;  ///< L1 change of the final iteration
  size_t num_vertices = 0;
  size_t num_edges = 0;
};

/// Computes PageRank for the graph induced by `edges`, whose first two
/// columns are integer (src, dst) vertex ids; additional numeric columns
/// are visible to the edge-weight lambda. Returns a relation
/// (vertex BIGINT, rank DOUBLE) keyed by original vertex ids.
/// Dangling vertices' rank mass is redistributed uniformly, so ranks sum
/// to 1 (a tested invariant).
Result<TablePtr> RunPageRank(const Table& edges, const PageRankOptions& options,
                             PageRankStats* stats = nullptr);

}  // namespace soda

#endif  // SODA_ANALYTICS_PAGERANK_H_
