/// \file kmeans.h
/// The physical k-Means operator (paper §6.1).
///
/// Lloyd's algorithm with morsel-parallel assignment: each morsel (a
/// stripe of the input) assigns its tuples to the nearest center and
/// accumulates per-cluster sums in its own state; synchronization happens
/// only for the final merge, in stripe order, and the center update, as
/// §6.1 describes. Stripes do not depend on the worker count, so neither do
/// the centers.
///
/// The input columns are read in place, 256 rows at a time: distances are
/// computed center-major over a block, one weighted squared (or absolute)
/// difference per dimension, in loops with a fixed trip count. The
/// distance metric is a variation point: the built-in squared L2 (unit
/// weights), a compiled SQL lambda (paper §7) whose pattern form has one
/// `a[j] - b[j]` term per dimension and so runs the same loops, or any
/// other lambda, evaluated per (point, center) pair over a row-major copy
/// of the block.

#ifndef SODA_ANALYTICS_KMEANS_H_
#define SODA_ANALYTICS_KMEANS_H_

#include <cstdint>

#include "expr/lambda_kernel.h"
#include "storage/table.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

struct KMeansOptions {
  /// Maximum number of assignment/update rounds (the paper's experiments
  /// use 3).
  int64_t max_iterations = 3;
  /// Optional user distance metric d(a, b) over (point, center); nullptr
  /// selects the built-in squared Euclidean distance.
  const LambdaKernel* distance = nullptr;
  /// Softened convergence criterion (paper §6.1: "the algorithm is
  /// interrupted if only a small fraction of tuples changed its assigned
  /// cluster"): stop once changed_tuples <= min_change_fraction * n.
  /// 0 keeps the strict no-change criterion.
  double min_change_fraction = 0.0;
  /// Resource governor probed at the "kmeans.iteration" site each round
  /// and at every assignment morsel; null = ungoverned.
  QueryGuard* guard = nullptr;
};

struct KMeansResult {
  /// Final centers: (cluster BIGINT, <center coordinates...> DOUBLE) with
  /// coordinate names taken from the centers input.
  TablePtr centers;
  int64_t iterations_run = 0;
  /// True when no tuple changed its assignment in the last round (the
  /// classical convergence criterion, §6.1).
  bool converged = false;
};

/// Runs k-Means over `data` starting from `initial_centers`. Both inputs
/// must be all-numeric; their column counts must match; `initial_centers`
/// must be non-empty.
Result<KMeansResult> RunKMeans(const Table& data, const Table& initial_centers,
                               const KMeansOptions& options);

/// Assigns each row of `data` to its nearest center (0-based index) —
/// the model-application step; used by examples and tests.
Result<std::vector<uint32_t>> AssignClusters(const Table& data,
                                             const Table& centers,
                                             const LambdaKernel* distance);

}  // namespace soda

#endif  // SODA_ANALYTICS_KMEANS_H_
