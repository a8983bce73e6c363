#include "analytics/pagerank.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "expr/evaluator.h"
#include "graph/csr.h"
#include "storage/data_chunk.h"
#include "util/first_error.h"
#include "util/parallel.h"

namespace soda {

namespace {

/// weights[i] = body(edge i) for the edges in [begin, end), evaluated one
/// chunk at a time. Numeric columns are fed as DOUBLE without validity (a
/// NULL cell reads as its 0.0 payload), other columns as they are. A NULL
/// the body produces becomes NaN, which the caller rejects.
Status EvaluateWeights(const Expression& body, const Table& edges,
                       size_t begin, size_t end, double* weights) {
  Column out;
  for (size_t lo = begin; lo < end; lo += kChunkCapacity) {
    const size_t len = std::min(kChunkCapacity, end - lo);
    DataChunk chunk;
    for (size_t c = 0; c < edges.num_columns(); ++c) {
      const Column& in = edges.column(c);
      Column col(IsNumeric(in.type()) ? DataType::kDouble : in.type());
      if (!IsNumeric(in.type())) {
        col.AppendSlice(in, lo, len);
      } else if (in.type() == DataType::kDouble) {
        col.ResizeNumeric(len);
        std::copy_n(in.F64Data() + lo, len, col.MutableF64Data());
      } else {
        col.ResizeNumeric(len);
        double* x = col.MutableF64Data();
        const int64_t* v = in.I64Data() + lo;
        for (size_t i = 0; i < len; ++i) x[i] = static_cast<double>(v[i]);
      }
      chunk.AddColumn(std::move(col));
    }
    SODA_RETURN_NOT_OK(EvaluateExpression(body, chunk, &out));
    const std::vector<uint8_t>& valid = out.Validity();
    for (size_t i = 0; i < len; ++i) {
      weights[lo + i] = !valid.empty() && !valid[i]
                            ? std::numeric_limits<double>::quiet_NaN()
                            : out.GetNumeric(i);
    }
  }
  return Status::OK();
}

}  // namespace

Result<TablePtr> RunPageRank(const Table& edges,
                             const PageRankOptions& options,
                             PageRankStats* stats) {
  if (edges.num_columns() < 2) {
    return Status::InvalidArgument(
        "PageRank requires an edge relation with (src, dst) columns");
  }
  const Column& src_col = edges.column(0);
  const Column& dst_col = edges.column(1);
  if (src_col.type() != DataType::kBigInt ||
      dst_col.type() != DataType::kBigInt) {
    return Status::TypeError("PageRank edge endpoints must be BIGINT");
  }
  if (!(options.damping >= 0.0 && options.damping <= 1.0)) {
    return Status::InvalidArgument("damping factor must be in [0, 1]");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }

  const size_t e = edges.num_rows();
  const size_t weight_bytes = options.edge_weight ? e * sizeof(double) : 0;
  // The per-edge arrays are the operator's dominant allocations: the
  // lambda's weights, the CSR's targets and weights, and the builder's two
  // dense-id arrays. Charge them before building; the per-vertex arrays
  // are charged once the vertex count is known.
  const size_t csr_edge_bytes = e * sizeof(uint32_t) + weight_bytes;
  SODA_RETURN_NOT_OK(GuardReserve(
      options.guard, weight_bytes + csr_edge_bytes + 2 * e * sizeof(uint32_t),
      "pagerank.csr"));

  // Optional per-edge weights: the lambda body evaluated over chunks of
  // the edge rows, numeric columns as DOUBLE.
  std::vector<double> weights;
  if (options.edge_weight) {
    weights.resize(e);
    FirstError error;
    SODA_RETURN_NOT_OK(ParallelFor(
        options.guard, e, [&](size_t begin, size_t end, size_t) {
          error.Record(EvaluateWeights(*options.edge_weight, edges, begin,
                                       end, weights.data()));
        }));
    SODA_RETURN_NOT_OK(error.Take());
    for (size_t i = 0; i < e; ++i) {
      if (!(weights[i] >= 0)) {
        return Status::ExecutionError(
            "edge-weight lambda produced a negative or NaN weight");
      }
    }
  }

  // Temporary CSR over *incoming* edges (pull-based iteration: vertex v
  // reads its in-neighbors' ranks), paper §6.3, built from the edge
  // columns in place. Re-labeling to dense ids happens inside the builder.
  SODA_ASSIGN_OR_RETURN(
      CsrGraph in_csr,
      CsrBuilder::Build({dst_col.I64Data(), e}, {src_col.I64Data(), e},
                        weights));
  const size_t v = in_csr.num_vertices();
  if (stats) {
    stats->num_vertices = v;
    stats->num_edges = e;
  }

  Schema out_schema(
      {Field("vertex", DataType::kBigInt), Field("rank", DataType::kDouble)});
  auto out = std::make_shared<Table>("pagerank", out_schema);
  if (v == 0) return out;
  // The CSR's per-vertex arrays plus out_weight, inv_out, rank, next and
  // contrib below.
  SODA_RETURN_NOT_OK(GuardReserve(
      options.guard,
      in_csr.MemoryUsage() - csr_edge_bytes + 5 * v * sizeof(double),
      "pagerank.csr"));

  // Out-degree (or total outgoing weight) per dense vertex: the in-CSR's
  // targets are the edges' sources.
  std::vector<double> out_weight(v, 0.0);
  const std::vector<uint32_t>& sources = in_csr.targets();
  if (in_csr.has_weights()) {
    const std::vector<double>& w = in_csr.weights();
    for (size_t i = 0; i < e; ++i) out_weight[sources[i]] += w[i];
  } else {
    for (size_t i = 0; i < e; ++i) out_weight[sources[i]] += 1.0;
  }

  std::vector<double> rank(v, 1.0 / static_cast<double>(v));
  std::vector<double> next(v, 0.0);
  // Per-edge transition contribution rank[u] * w(u,v) / W_out(u); 1/W_out
  // is precomputed, and contrib[u] = rank[u] / W_out(u) is formed once per
  // round, so the inner loop gathers one array.
  std::vector<double> inv_out(v, 0.0);
  for (size_t i = 0; i < v; ++i) {
    if (out_weight[i] > 0) inv_out[i] = 1.0 / out_weight[i];
  }
  std::vector<double> contrib(v, 0.0);

  const double d = options.damping;
  const double base = (1.0 - d) / static_cast<double>(v);
  double delta = 0;
  int64_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Governance probe per round (paper §6.3 runs 45 fixed iterations;
    // a deadline or cancellation aborts between rounds, never mid-round).
    SODA_RETURN_NOT_OK(GuardProbe(options.guard, "pagerank.iteration"));
    // Dangling mass: vertices without outgoing edges distribute their rank
    // uniformly (keeps the ranks a probability distribution).
    double dangling = 0;
    for (size_t i = 0; i < v; ++i) {
      if (out_weight[i] == 0) dangling += rank[i];
      contrib[i] = rank[i] * inv_out[i];
    }
    const double redistribute = d * dangling / static_cast<double>(v);

    // New ranks, one vertex per slot — no synchronization inside the
    // iteration (paper §6.3), since each v writes only next[v]. Each sum
    // runs over one neighbour list in CSR order, whatever the schedule.
    SODA_RETURN_NOT_OK(ParallelFor(
        options.guard, v, [&](size_t begin, size_t end, size_t) {
          const uint32_t* targets = in_csr.targets().data();
          const uint64_t* offsets = in_csr.offsets().data();
          const double* w =
              in_csr.has_weights() ? in_csr.weights().data() : nullptr;
          for (size_t vert = begin; vert < end; ++vert) {
            double acc = 0;
            if (w) {
              for (uint64_t j = offsets[vert]; j < offsets[vert + 1]; ++j) {
                acc += contrib[targets[j]] * w[j];
              }
            } else {
              for (uint64_t j = offsets[vert]; j < offsets[vert + 1]; ++j) {
                acc += contrib[targets[j]];
              }
            }
            next[vert] = base + redistribute + d * acc;
          }
        }));

    // End-of-iteration aggregation of the workers' delta (paper §6.3:
    // "at the end of each iteration we aggregate each worker's data to
    // determine how much the new ranks differ").
    delta = 0;
    for (size_t i = 0; i < v; ++i) delta += std::fabs(next[i] - rank[i]);
    rank.swap(next);
    if (options.epsilon > 0 && delta <= options.epsilon) {
      ++iter;
      break;
    }
  }
  if (stats) {
    stats->iterations_run = iter;
    stats->last_delta = delta;
  }

  // Reverse mapping operator: dense internal ids -> original ids (§6.3).
  out->Reserve(v);
  for (uint32_t i = 0; i < v; ++i) {
    out->column(0).AppendBigInt(in_csr.OriginalId(i));
    out->column(1).AppendDouble(rank[i]);
  }
  return out;
}

}  // namespace soda
