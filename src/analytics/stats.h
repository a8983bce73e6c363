/// \file stats.h
/// Shared statistics building block (paper §6.2: "the generation of
/// additional statistical measures is handled by two additional operators
/// that are not limited to Naive Bayes but can be used as a building block
/// for multiple algorithms, for example k-Means").
///
/// Computes, per (class, attribute): tuple count, sum and sum of squares —
/// exactly the sufficient statistics the Naive Bayes training operator
/// accumulates per thread — plus derived mean and standard deviation.

#ifndef SODA_ANALYTICS_STATS_H_
#define SODA_ANALYTICS_STATS_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

/// Sufficient statistics for one (class, attribute) cell.
struct Moments {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;

  void Update(double v) {
    ++count;
    sum += v;
    sumsq += v * v;
  }
  void Merge(const Moments& o) {
    count += o.count;
    sum += o.sum;
    sumsq += o.sumsq;
  }
  double Mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Population variance (what the Gaussian MLE uses).
  double Variance() const {
    if (!count) return 0;
    double m = Mean();
    double v = sumsq / static_cast<double>(count) - m * m;
    return v < 0 ? 0 : v;  // numeric noise
  }
};

/// Per-class moments for every attribute, keyed by int64 class label.
struct GroupedMoments {
  std::vector<int64_t> classes;              ///< distinct labels, first-seen order
  std::vector<std::vector<Moments>> cells;   ///< [class][attribute]
  size_t num_attributes = 0;

  int64_t total_count() const {
    int64_t t = 0;
    for (const auto& c : cells) {
      if (!c.empty()) t += c[0].count;
    }
    return t;
  }
};

/// Computes grouped moments over `input`, whose first column is an integer
/// class label and whose remaining columns are numeric attributes.
/// Parallel: per-morsel accumulation, merged once in morsel order (the
/// paper's operator structure, §6.2), so the result does not depend on the
/// thread count. `guard` (nullable) is probed at every morsel.
Result<GroupedMoments> ComputeGroupedMoments(const Table& input,
                                             QueryGuard* guard = nullptr);

/// The SUMMARIZE table function's relational output:
/// (class BIGINT, attr BIGINT, cnt BIGINT, sum DOUBLE, sumsq DOUBLE,
///  mean DOUBLE, stddev DOUBLE); `attr` is 1-based.
Result<TablePtr> SummarizeByClass(const Table& input,
                                  QueryGuard* guard = nullptr);

}  // namespace soda

#endif  // SODA_ANALYTICS_STATS_H_
