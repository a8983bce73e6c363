#include "analytics/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/parallel.h"

namespace soda {

namespace {

/// Rows per block of the distance kernel. The per-center loops run over
/// exactly this many rows: GCC vectorizes a loop at -O2 only when its trip
/// count is a compile-time multiple of the vector width.
constexpr size_t kBlock = 256;
static_assert(kDefaultMorselSize % kBlock == 0,
              "blocks must tile the stripes");

/// Centers per tile: the kernel holds one block's distances to this many
/// centers at a time.
constexpr size_t kTile = 16;

/// One all-numeric input column, read in place.
struct NumericColumn {
  const double* f64 = nullptr;
  const int64_t* i64 = nullptr;
};

Result<std::vector<NumericColumn>> NumericColumns(const Table& t) {
  std::vector<NumericColumn> cols(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    if (!IsNumeric(col.type())) {
      return Status::TypeError("k-Means requires numeric columns; column '" +
                               t.schema().field(c).name + "' is " +
                               DataTypeToString(col.type()));
    }
    if (col.type() == DataType::kDouble) {
      cols[c].f64 = col.F64Data();
    } else {
      cols[c].i64 = col.I64Data();
    }
  }
  return cols;
}

/// Row-major k x d copy of the centers.
Result<std::vector<double>> CenterMatrix(const Table& centers) {
  SODA_ASSIGN_OR_RETURN(std::vector<NumericColumn> cols,
                        NumericColumns(centers));
  const size_t d = cols.size();
  std::vector<double> out(centers.num_rows() * d);
  for (size_t c = 0; c < centers.num_rows(); ++c) {
    for (size_t j = 0; j < d; ++j) {
      out[c * d + j] = cols[j].f64 ? cols[j].f64[c]
                                   : static_cast<double>(cols[j].i64[c]);
    }
  }
  return out;
}

/// How distances are computed: one weighted squared or absolute
/// difference per dimension (the built-in squared L2 has unit weights), or
/// a lambda with no per-dimension form, evaluated per (row, center) pair.
struct Metric {
  bool squared = true;
  std::vector<double> weights;
  const LambdaKernel* lambda = nullptr;
};

Metric MakeMetric(const LambdaKernel* distance, size_t d) {
  Metric m;
  if (distance == nullptr) {
    m.weights.assign(d, 1.0);
  } else if (auto form = distance->PerDimensionForm(d)) {
    m.squared = form->squared;
    m.weights = std::move(form->weights);
  } else {
    m.lambda = distance;
  }
  return m;
}

/// dist[i] += w * (x[i] - c)^2 over one block.
void AddSquaredDiffs(const double* __restrict x, double c, double w,
                     double* __restrict dist) {
  for (size_t i = 0; i < kBlock; ++i) {
    const double t = x[i] - c;
    dist[i] += w * t * t;
  }
}

/// dist[i] += w * |x[i] - c| over one block.
void AddAbsDiffs(const double* __restrict x, double c, double w,
                 double* __restrict dist) {
  for (size_t i = 0; i < kBlock; ++i) dist[i] += w * std::fabs(x[i] - c);
}

/// Scratch for assigning one block of rows. Distances are computed for at
/// most kTile centers at a time, so it stays O((d + kTile) * kBlock)
/// whatever k is.
struct BlockScratch {
  BlockScratch(size_t d, bool lambda)
      : x(d), cols(d * kBlock), dist(kTile * kBlock),
        rows(lambda ? kBlock * d : 0) {}

  std::vector<const double*> x;  // d block columns: in place, or in `cols`
  std::vector<double> cols;      // d x kBlock, zero-padded copies
  std::vector<double> dist;      // kTile x kBlock, center-major
  std::vector<double> rows;      // kBlock x d, for a lambda
  double best_dist[kBlock] = {};
  uint32_t best[kBlock] = {};
};

/// Assigns rows [lo, lo + len), len <= kBlock, to their nearest centers:
/// s->best[i] for row lo + i. Leaves the block's columns in s->x. Centers
/// are visited in order, one tile at a time; ties go to the lowest center
/// and a NaN distance never wins.
void AssignBlock(const std::vector<NumericColumn>& in, size_t lo, size_t len,
                 const std::vector<double>& centers, size_t k,
                 const Metric& m, BlockScratch* s) {
  const size_t d = in.size();
  for (size_t j = 0; j < d; ++j) {
    if (in[j].f64 && len == kBlock) {
      s->x[j] = in[j].f64 + lo;
      continue;
    }
    double* buf = s->cols.data() + j * kBlock;
    for (size_t i = 0; i < len; ++i) {
      buf[i] = in[j].f64 ? in[j].f64[lo + i]
                         : static_cast<double>(in[j].i64[lo + i]);
    }
    std::fill(buf + len, buf + kBlock, 0.0);
    s->x[j] = buf;
  }
  if (m.lambda) {
    for (size_t i = 0; i < len; ++i) {
      for (size_t j = 0; j < d; ++j) s->rows[i * d + j] = s->x[j][i];
    }
  }

  std::fill(s->best_dist, s->best_dist + len,
            std::numeric_limits<double>::infinity());
  std::fill(s->best, s->best + len, 0u);
  for (size_t c0 = 0; c0 < k; c0 += kTile) {
    const size_t tile = std::min(kTile, k - c0);
    for (size_t t = 0; t < tile; ++t) {
      const double* center = centers.data() + (c0 + t) * d;
      double* dc = s->dist.data() + t * kBlock;
      if (m.lambda) {
        for (size_t i = 0; i < len; ++i) {
          dc[i] = m.lambda->Eval(s->rows.data() + i * d, center);
        }
        continue;
      }
      std::fill(dc, dc + kBlock, 0.0);
      for (size_t j = 0; j < d; ++j) {
        if (m.squared) {
          AddSquaredDiffs(s->x[j], center[j], m.weights[j], dc);
        } else {
          AddAbsDiffs(s->x[j], center[j], m.weights[j], dc);
        }
      }
    }
    for (size_t i = 0; i < len; ++i) {
      double best_dist = s->best_dist[i];
      uint32_t best = s->best[i];
      for (size_t t = 0; t < tile; ++t) {
        if (s->dist[t * kBlock + i] < best_dist) {
          best_dist = s->dist[t * kBlock + i];
          best = static_cast<uint32_t>(c0 + t);
        }
      }
      s->best_dist[i] = best_dist;
      s->best[i] = best;
    }
  }
}

/// One stripe's accumulation state for one assignment round.
struct StripeAccum {
  std::vector<double> sums;     // k * d
  std::vector<int64_t> counts;  // k
  size_t changed = 0;

  void Reset(size_t k, size_t d) {
    sums.assign(k * d, 0.0);
    counts.assign(k, 0);
    changed = 0;
  }
};

}  // namespace

Result<KMeansResult> RunKMeans(const Table& data,
                               const Table& initial_centers,
                               const KMeansOptions& options) {
  const size_t n = data.num_rows();
  const size_t d = data.num_columns();
  const size_t k = initial_centers.num_rows();
  if (k == 0) {
    return Status::InvalidArgument("k-Means requires at least one center");
  }
  if (initial_centers.num_columns() != d) {
    return Status::InvalidArgument(
        "k-Means centers must have the same number of columns as the data (" +
        std::to_string(initial_centers.num_columns()) + " vs " +
        std::to_string(d) + ")");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }
  if (options.min_change_fraction < 0 || options.min_change_fraction > 1) {
    return Status::InvalidArgument(
        "min_change_fraction must be in [0, 1]");
  }

  SODA_ASSIGN_OR_RETURN(std::vector<NumericColumn> points,
                        NumericColumns(data));
  SODA_ASSIGN_OR_RETURN(std::vector<double> centers,
                        CenterMatrix(initial_centers));
  const Metric metric = MakeMetric(options.distance, d);

  // Partials are kept per stripe — one morsel of the guarded ParallelFor,
  // whose boundaries do not depend on the worker count — and merged in
  // stripe order, so the centers are the same at every thread count.
  const size_t stripes = NumMorsels(n);
  // The operator holds the assignment vector, the centers and the stripe
  // partials; the input columns are read in place.
  SODA_RETURN_NOT_OK(GuardReserve(
      options.guard,
      n * sizeof(uint32_t) + k * d * sizeof(double) +
          stripes * k * (d * sizeof(double) + sizeof(int64_t)),
      "kmeans.densify"));
  std::vector<StripeAccum> partials(stripes);

  // Previous assignment per tuple, for the convergence check (§6.1: the
  // algorithm converges when no tuple changes its assigned cluster).
  std::vector<uint32_t> assignment(n, std::numeric_limits<uint32_t>::max());

  KMeansResult result;
  for (int64_t iter = 0; iter < options.max_iterations; ++iter) {
    // Governance probe per round: a k-Means that never converges is
    // exactly the runaway the paper says the database must abort (§5.1).
    SODA_RETURN_NOT_OK(GuardProbe(options.guard, "kmeans.iteration"));

    SODA_RETURN_NOT_OK(ParallelFor(
        options.guard, n, [&](size_t begin, size_t end, size_t) {
      StripeAccum& acc = partials[MorselIndex(begin)];
      acc.Reset(k, d);
      BlockScratch s(d, metric.lambda != nullptr);
      for (size_t lo = begin; lo < end; lo += kBlock) {
        const size_t len = std::min(kBlock, end - lo);
        AssignBlock(points, lo, len, centers, k, metric, &s);
        for (size_t i = 0; i < len; ++i) {
          if (assignment[lo + i] != s.best[i]) {
            assignment[lo + i] = s.best[i];
            acc.changed++;
          }
          acc.counts[s.best[i]]++;
        }
        for (size_t j = 0; j < d; ++j) {
          const double* x = s.x[j];
          for (size_t i = 0; i < len; ++i) acc.sums[s.best[i] * d + j] += x[i];
        }
      }
    }));

    // Global merge in stripe order — the only synchronized step.
    std::vector<double> sums(k * d, 0.0);
    std::vector<int64_t> counts(k, 0);
    size_t changed = 0;
    for (const StripeAccum& p : partials) {
      for (size_t c = 0; c < k; ++c) counts[c] += p.counts[c];
      for (size_t j = 0; j < k * d; ++j) sums[j] += p.sums[j];
      changed += p.changed;
    }

    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its center
      double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        centers[c * d + j] = sums[c * d + j] * inv;
      }
    }

    result.iterations_run = iter + 1;
    if (static_cast<double>(changed) <=
        options.min_change_fraction * static_cast<double>(n)) {
      result.converged = true;
      break;
    }
  }

  // Output relation: cluster id + final center coordinates.
  Schema out_schema;
  out_schema.AddField(Field("cluster", DataType::kBigInt));
  for (const auto& f : initial_centers.schema().fields()) {
    out_schema.AddField(Field(f.name, DataType::kDouble));
  }
  auto out = std::make_shared<Table>("kmeans", out_schema);
  out->Reserve(k);
  for (size_t c = 0; c < k; ++c) {
    out->column(0).AppendBigInt(static_cast<int64_t>(c));
    for (size_t j = 0; j < d; ++j) {
      out->column(j + 1).AppendDouble(centers[c * d + j]);
    }
  }
  result.centers = std::move(out);
  return result;
}

Result<std::vector<uint32_t>> AssignClusters(const Table& data,
                                             const Table& centers,
                                             const LambdaKernel* distance) {
  const size_t n = data.num_rows();
  const size_t d = data.num_columns();
  if (centers.num_columns() != d || centers.num_rows() == 0) {
    return Status::InvalidArgument("centers incompatible with data");
  }
  SODA_ASSIGN_OR_RETURN(std::vector<NumericColumn> points,
                        NumericColumns(data));
  SODA_ASSIGN_OR_RETURN(std::vector<double> ctrs, CenterMatrix(centers));
  const size_t k = centers.num_rows();
  const Metric metric = MakeMetric(distance, d);
  std::vector<uint32_t> assignment(n);
  ParallelFor(n, [&](size_t begin, size_t end, size_t) {
    BlockScratch s(d, metric.lambda != nullptr);
    for (size_t lo = begin; lo < end; lo += kBlock) {
      const size_t len = std::min(kBlock, end - lo);
      AssignBlock(points, lo, len, ctrs, k, metric, &s);
      std::copy(s.best, s.best + len, assignment.data() + lo);
    }
  });
  return assignment;
}

}  // namespace soda
