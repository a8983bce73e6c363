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
/// The distance metric is a variation point (paper §7). The built-in
/// squared L2, and every SQL lambda with a per-dimension form (one weighted
/// `(a[j] - b[j])^2` or `|a[j] - b[j]|` term per dimension, see
/// PerDimensionForm), run one column-blocked kernel: the input columns are
/// read in place, 256 rows at a time, and distances are computed
/// center-major, one weighted difference per dimension, in loops with a
/// fixed trip count. Any other lambda runs on the vectorized expression
/// evaluator, the one every SQL expression uses: each round substitutes
/// every center's coordinates into the body as DOUBLE literals, and each
/// body is evaluated over DOUBLE chunks of the input.

#ifndef SODA_ANALYTICS_KMEANS_H_
#define SODA_ANALYTICS_KMEANS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "expr/expression.h"
#include "storage/table.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

struct KMeansOptions {
  /// Maximum number of assignment/update rounds (the paper's experiments
  /// use 3).
  int64_t max_iterations = 3;
  /// Optional user distance metric d(a, b) over (point, center): a bound
  /// lambda body whose column refs [0, d) read the point and [d, 2d) the
  /// center, all DOUBLE (the binder types them so). Inputs carry no
  /// validity: a NULL cell reads as its 0.0 payload. A NULL or NaN
  /// distance never wins. nullptr selects the built-in squared Euclidean
  /// distance.
  const Expression* distance = nullptr;
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
/// the model-application step; used by examples and tests. `distance` is
/// as in KMeansOptions.
Result<std::vector<uint32_t>> AssignClusters(const Table& data,
                                             const Table& centers,
                                             const Expression* distance);

/// A distance over d-wide tuples that sums one weighted term per
/// dimension: weights[j] * (a[j] - b[j])^2 when `squared`, else
/// weights[j] * |a[j] - b[j]|.
struct DimensionForm {
  bool squared = true;
  std::vector<double> weights;
};

/// The DimensionForm of a distance body over (a, b) tuples of d columns
/// each (column refs [0, d) are a, [d, 2d) are b), when the body is a sum
/// of terms `(x - y)^2` / `pow(x - y, 2)` (or all `abs(x - y)`), each
/// optionally scaled by a constant on either side, with exactly one term
/// `a[j] - b[j]` (or `b[j] - a[j]`) for every j in [0, d), in any order.
/// `(w * t) * t` and `w * |t|` give each term's bits; the block kernel sums
/// the terms in dimension order, which may differ from the body's own
/// order in the last bit. Empty for every other body, including a cross
/// index (`a[0] - b[1]`), a missing or repeated dimension and mixed
/// families: k-Means evaluates those with the expression evaluator.
std::optional<DimensionForm> PerDimensionForm(const Expression& body,
                                              size_t d);

}  // namespace soda

#endif  // SODA_ANALYTICS_KMEANS_H_
