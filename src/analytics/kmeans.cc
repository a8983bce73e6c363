#include "analytics/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "expr/evaluator.h"
#include "storage/data_chunk.h"
#include "util/first_error.h"
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

bool GetConstant(const Expression& e, double* v) {
  if (e.kind != ExprKind::kLiteral || e.literal.is_null() ||
      !IsNumeric(e.literal.type())) {
    return false;
  }
  *v = e.literal.AsDouble();
  return true;
}

/// The `x - y` node of a term core `(x - y)^2`, `pow(x - y, 2)` or
/// `abs(x - y)` over column refs x and y, with *squared telling which; null
/// for any other shape.
const Expression* CoreDiff(const Expression& e, bool* squared) {
  double exponent = 0;
  const bool pow2 =
      e.children.size() == 2 && GetConstant(*e.children[1], &exponent) &&
      exponent == 2.0 &&
      ((e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kPow) ||
       (e.kind == ExprKind::kFunction &&
        (e.function_name == "pow" || e.function_name == "power")));
  const bool abs = e.kind == ExprKind::kFunction &&
                   e.function_name == "abs" && e.children.size() == 1;
  if (!pow2 && !abs) return nullptr;
  *squared = pow2;
  const Expression& diff = *e.children[0];
  const bool is_diff = diff.kind == ExprKind::kBinary &&
                       diff.binary_op == BinaryOp::kSub &&
                       diff.children[0]->kind == ExprKind::kColumnRef &&
                       diff.children[1]->kind == ExprKind::kColumnRef;
  return is_diff ? &diff : nullptr;
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
  explicit BlockScratch(size_t d)
      : x(d), cols(d * kBlock), dist(kTile * kBlock) {}

  std::vector<const double*> x;  // d block columns: in place, or in `cols`
  std::vector<double> cols;      // d x kBlock, zero-padded copies
  std::vector<double> dist;      // kTile x kBlock, center-major
  double best_dist[kBlock] = {};
  uint32_t best[kBlock] = {};
};

/// Replaces every center column ref (index >= d) in `*e` with that
/// coordinate of `center` as a DOUBLE literal.
void SubstituteCenter(ExprPtr* e, size_t d, const double* center) {
  Expression& x = **e;
  if (x.kind == ExprKind::kColumnRef && x.column_index >= d) {
    *e = Expression::Literal(Value::Double(center[x.column_index - d]));
    return;
  }
  for (ExprPtr& child : x.children) SubstituteCenter(&child, d, center);
}

/// One round's nearest-center assignment. The built-in squared L2 (unit
/// weights) and a lambda with a per-dimension form run the block kernel,
/// one weighted squared or absolute difference per dimension; any other
/// lambda runs as k bodies with the round's centers substituted.
struct Round {
  const std::vector<NumericColumn>& in;
  const std::vector<double>& centers;  // k x d
  size_t k;
  bool squared = true;
  std::vector<double> weights;
  std::vector<ExprPtr> bodies;  // for a lambda with no per-dimension form

  Round(const std::vector<NumericColumn>& columns, const Expression* distance,
        const std::vector<double>& round_centers, size_t num_centers)
      : in(columns), centers(round_centers), k(num_centers) {
    const size_t d = in.size();
    std::optional<DimensionForm> form =
        distance ? PerDimensionForm(*distance, d)
                 : DimensionForm{true, std::vector<double>(d, 1.0)};
    if (form) {
      squared = form->squared;
      weights = std::move(form->weights);
      return;
    }
    for (size_t c = 0; c < k; ++c) {
      ExprPtr body = distance->Clone();
      if (body->type != DataType::kDouble) {
        body = Expression::Cast(std::move(body), DataType::kDouble);
      }
      SubstituteCenter(&body, d, &centers[c * d]);
      bodies.push_back(std::move(body));
    }
  }

  /// Assigns rows [begin, end) to their nearest centers and hands them to
  /// `consume(lo, len, x, best)` one piece at a time: x[j] is the piece's
  /// column j as doubles and best[i] the center of row lo + i. Centers are
  /// visited in order; ties go to the lowest center, and a NaN or NULL
  /// distance never wins.
  template <typename Consume>
  Status Assign(size_t begin, size_t end, Consume&& consume) const {
    if (bodies.empty()) {
      BlockScratch s(in.size());
      for (size_t lo = begin; lo < end; lo += kBlock) {
        const size_t len = std::min(kBlock, end - lo);
        AssignBlock(lo, len, &s);
        consume(lo, len, s.x.data(), s.best);
      }
      return Status::OK();
    }
    // A lambda: each center's body is evaluated over the piece's rows as
    // one DOUBLE chunk, and its distances are folded into the running
    // argmin in center order.
    const size_t d = in.size();
    DataChunk chunk;
    for (size_t j = 0; j < d; ++j) chunk.AddColumn(Column(DataType::kDouble));
    std::vector<const double*> x(d);
    std::vector<double> best_dist;
    std::vector<uint32_t> best;
    Column dist;
    for (size_t lo = begin; lo < end; lo += kChunkCapacity) {
      const size_t len = std::min(kChunkCapacity, end - lo);
      for (size_t j = 0; j < d; ++j) {
        Column& col = chunk.column(j);
        col.ResizeNumeric(len);
        double* out = col.MutableF64Data();
        for (size_t i = 0; i < len; ++i) {
          out[i] = in[j].f64 ? in[j].f64[lo + i]
                             : static_cast<double>(in[j].i64[lo + i]);
        }
        x[j] = out;
      }
      best_dist.assign(len, std::numeric_limits<double>::infinity());
      best.assign(len, 0);
      for (size_t c = 0; c < k; ++c) {
        SODA_RETURN_NOT_OK(EvaluateExpression(*bodies[c], chunk, &dist));
        const double* v = dist.F64Data();
        const std::vector<uint8_t>& valid = dist.Validity();
        for (size_t i = 0; i < len; ++i) {
          if ((valid.empty() || valid[i]) && v[i] < best_dist[i]) {
            best_dist[i] = v[i];
            best[i] = static_cast<uint32_t>(c);
          }
        }
      }
      consume(lo, len, x.data(), best.data());
    }
    return Status::OK();
  }

  /// The block kernel for rows [lo, lo + len), len <= kBlock: s->best[i]
  /// for row lo + i, the block's columns in s->x. Centers are visited in
  /// order, one tile at a time.
  void AssignBlock(size_t lo, size_t len, BlockScratch* s) const {
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

    std::fill(s->best_dist, s->best_dist + len,
              std::numeric_limits<double>::infinity());
    std::fill(s->best, s->best + len, 0u);
    for (size_t c0 = 0; c0 < k; c0 += kTile) {
      const size_t tile = std::min(kTile, k - c0);
      for (size_t t = 0; t < tile; ++t) {
        const double* center = centers.data() + (c0 + t) * d;
        double* dc = s->dist.data() + t * kBlock;
        std::fill(dc, dc + kBlock, 0.0);
        for (size_t j = 0; j < d; ++j) {
          if (squared) {
            AddSquaredDiffs(s->x[j], center[j], weights[j], dc);
          } else {
            AddAbsDiffs(s->x[j], center[j], weights[j], dc);
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
};

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

std::optional<DimensionForm> PerDimensionForm(const Expression& body,
                                              size_t d) {
  DimensionForm out;
  out.weights.assign(d, 0.0);
  std::vector<bool> seen(d, false);
  size_t terms = 0;
  // Flatten the +-tree; every leaf must be one term of the same family.
  std::vector<const Expression*> stack = {&body};
  while (!stack.empty()) {
    const Expression* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAdd) {
      stack.push_back(e->children[0].get());
      stack.push_back(e->children[1].get());
      continue;
    }
    // A term is a core, optionally scaled by a constant on either side.
    double w = 1.0;
    bool squared = true;
    const Expression* diff = CoreDiff(*e, &squared);
    if (diff == nullptr && e->kind == ExprKind::kBinary &&
        e->binary_op == BinaryOp::kMul) {
      for (size_t side = 0; side < 2 && diff == nullptr; ++side) {
        if (GetConstant(*e->children[side], &w)) {
          diff = CoreDiff(*e->children[1 - side], &squared);
        }
      }
    }
    if (diff == nullptr || (terms > 0 && squared != out.squared)) {
      return std::nullopt;
    }
    // One a[j] - b[j] (or b[j] - a[j]) term per dimension j.
    const size_t x = diff->children[0]->column_index;
    const size_t y = diff->children[1]->column_index;
    const size_t j = x < d ? x : x - d;
    if (j >= d || y != (x < d ? j + d : j) || seen[j]) return std::nullopt;
    seen[j] = true;
    out.weights[j] = w;
    out.squared = squared;
    ++terms;
  }
  if (terms != d) return std::nullopt;
  return out;
}

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

    const Round round(points, options.distance, centers, k);
    FirstError error;
    SODA_RETURN_NOT_OK(ParallelFor(
        options.guard, n, [&](size_t begin, size_t end, size_t) {
      StripeAccum& acc = partials[MorselIndex(begin)];
      acc.Reset(k, d);
      error.Record(round.Assign(
          begin, end, [&](size_t lo, size_t len, const double* const* x,
                          const uint32_t* best) {
            for (size_t i = 0; i < len; ++i) {
              if (assignment[lo + i] != best[i]) {
                assignment[lo + i] = best[i];
                acc.changed++;
              }
              acc.counts[best[i]]++;
            }
            for (size_t j = 0; j < d; ++j) {
              const double* xj = x[j];
              for (size_t i = 0; i < len; ++i) {
                acc.sums[best[i] * d + j] += xj[i];
              }
            }
          }));
    }));
    SODA_RETURN_NOT_OK(error.Take());

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
                                             const Expression* distance) {
  const size_t n = data.num_rows();
  const size_t d = data.num_columns();
  if (centers.num_columns() != d || centers.num_rows() == 0) {
    return Status::InvalidArgument("centers incompatible with data");
  }
  SODA_ASSIGN_OR_RETURN(std::vector<NumericColumn> points,
                        NumericColumns(data));
  SODA_ASSIGN_OR_RETURN(std::vector<double> ctrs, CenterMatrix(centers));
  const Round round(points, distance, ctrs, centers.num_rows());
  std::vector<uint32_t> assignment(n);
  FirstError error;
  ParallelFor(n, [&](size_t begin, size_t end, size_t) {
    error.Record(round.Assign(
        begin, end,
        [&](size_t lo, size_t len, const double* const*,
            const uint32_t* best) {
          std::copy(best, best + len, assignment.data() + lo);
        }));
  });
  SODA_RETURN_NOT_OK(error.Take());
  return assignment;
}

}  // namespace soda
