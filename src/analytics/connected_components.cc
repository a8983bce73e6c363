#include "analytics/connected_components.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "graph/csr.h"
#include "util/parallel.h"

namespace soda {

Result<TablePtr> RunConnectedComponents(const Table& edges,
                                        ConnectedComponentsStats* stats,
                                        QueryGuard* guard) {
  if (edges.num_columns() < 2 ||
      edges.column(0).type() != DataType::kBigInt ||
      edges.column(1).type() != DataType::kBigInt) {
    return Status::InvalidArgument(
        "connected components require BIGINT (src, dst) edge columns");
  }
  const size_t e = edges.num_rows();
  // The undirected CSR is built from the edge columns in place. Charge its
  // targets (both directions of every edge) and the builder's two dense-id
  // arrays before building; the per-vertex arrays once the vertex count is
  // known.
  const size_t csr_edge_bytes = 2 * e * sizeof(uint32_t);
  SODA_RETURN_NOT_OK(GuardReserve(
      guard, csr_edge_bytes + 2 * e * sizeof(uint32_t), "cc.csr"));
  SODA_ASSIGN_OR_RETURN(
      CsrGraph csr,
      CsrBuilder::BuildUndirected({edges.column(0).I64Data(), e},
                                  {edges.column(1).I64Data(), e}));
  const size_t v = csr.num_vertices();

  Schema out_schema({Field("vertex", DataType::kBigInt),
                     Field("component", DataType::kBigInt)});
  auto out = std::make_shared<Table>("components", out_schema);
  if (v == 0) {
    if (stats) *stats = {};
    return out;
  }

  // The CSR's per-vertex arrays plus label and next below.
  SODA_RETURN_NOT_OK(GuardReserve(
      guard, csr.MemoryUsage() - csr_edge_bytes + 2 * v * sizeof(int64_t),
      "cc.csr"));

  // Labels carry the *original* ids so the final component label is the
  // component's smallest original id (stable across input orders).
  std::vector<int64_t> label(v), next(v);
  for (uint32_t i = 0; i < v; ++i) label[i] = csr.OriginalId(i);

  int64_t iterations = 0;
  for (;;) {
    // Governance probe per propagation round; label propagation runs at
    // most diameter+1 rounds but huge graphs still deserve a deadline.
    SODA_RETURN_NOT_OK(GuardProbe(guard, "cc.iteration"));
    std::atomic<bool> changed{false};
    SODA_RETURN_NOT_OK(ParallelFor(
        guard, v, [&](size_t begin, size_t end, size_t) {
          bool local_changed = false;
          for (size_t vert = begin; vert < end; ++vert) {
            int64_t best = label[vert];
            for (const uint32_t* n =
                     csr.NeighborsBegin(static_cast<uint32_t>(vert));
                 n != csr.NeighborsEnd(static_cast<uint32_t>(vert)); ++n) {
              best = std::min(best, label[*n]);
            }
            next[vert] = best;
            if (best != label[vert]) local_changed = true;
          }
          if (local_changed) changed.store(true, std::memory_order_relaxed);
        }));
    ++iterations;
    label.swap(next);
    if (!changed.load()) break;
  }

  std::unordered_set<int64_t> distinct(label.begin(), label.end());
  if (stats) {
    stats->iterations_run = iterations;
    stats->num_components = distinct.size();
    stats->num_vertices = v;
  }

  out->Reserve(v);
  for (uint32_t i = 0; i < v; ++i) {
    out->column(0).AppendBigInt(csr.OriginalId(i));
    out->column(1).AppendBigInt(label[i]);
  }
  return out;
}

}  // namespace soda
