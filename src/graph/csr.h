/// \file csr.h
/// Compressed sparse row graph representation (paper §6.3).
///
/// The PageRank operator "ensures [efficient neighbor traversal] by
/// efficiently creating a temporary compressed sparse row (CSR)
/// representation that is optimized for the query at hand. We avoid
/// storage overhead and an access indirection ... by re-labeling all
/// vertices and doing a direct mapping." This module implements exactly
/// that: a serial, stable builder that densifies arbitrary int64 vertex ids
/// into [0, V) through one open-addressing table, the CSR arrays, and the
/// reverse mapping used to translate internal ids back to the original ids
/// after the computation. Dense ids follow first appearance in the edge
/// list and each neighbour list keeps edge order, so the graph (and every
/// sum an operator forms over a neighbour list) does not depend on the
/// thread count.

#ifndef SODA_GRAPH_CSR_H_
#define SODA_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace soda {

/// Immutable CSR adjacency structure with dense internal vertex ids.
class CsrGraph {
 public:
  /// Number of vertices (dense ids are [0, num_vertices())).
  size_t num_vertices() const { return offsets_.size() - 1; }
  size_t num_edges() const { return targets_.size(); }

  /// Neighbor list of dense vertex `v` as a (begin, end) pointer pair.
  const uint32_t* NeighborsBegin(uint32_t v) const {
    return targets_.data() + offsets_[v];
  }
  const uint32_t* NeighborsEnd(uint32_t v) const {
    return targets_.data() + offsets_[v + 1];
  }
  size_t OutDegree(uint32_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Original id for dense id `v` (the reverse mapping operator of §6.3).
  int64_t OriginalId(uint32_t v) const { return original_ids_[v]; }
  const std::vector<int64_t>& original_ids() const { return original_ids_; }

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& targets() const { return targets_; }

  /// Optional per-edge weights, parallel to `targets()`. Empty when the
  /// graph was built without an edge-weight lambda.
  const std::vector<double>& weights() const { return weights_; }
  bool has_weights() const { return !weights_.empty(); }

  size_t MemoryUsage() const {
    return offsets_.size() * sizeof(uint64_t) +
           targets_.size() * sizeof(uint32_t) +
           original_ids_.size() * sizeof(int64_t) +
           weights_.size() * sizeof(double);
  }

 private:
  friend class CsrBuilder;
  std::vector<uint64_t> offsets_;     // V+1 entries
  std::vector<uint32_t> targets_;     // E entries (dense ids)
  std::vector<int64_t> original_ids_; // dense id -> original id
  std::vector<double> weights_;       // optional, E entries
};

/// Builds a CsrGraph from an edge list of original (src, dst) id pairs.
class CsrBuilder {
 public:
  /// Relabels ids in first-appearance order (src before dst within an
  /// edge), counts out-degrees, prefix-sums them and scatters the targets
  /// in edge order (a stable counting sort). The edge arrays are read in
  /// place (a table's columns or a vector). `src` and `dst` must have equal
  /// length; `weights`, when not empty, must be parallel to the edges.
  static Result<CsrGraph> Build(std::span<const int64_t> src,
                                std::span<const int64_t> dst,
                                std::span<const double> weights = {});

  /// The undirected graph over the same edges: each edge is scattered in
  /// both directions, src -> dst and then dst -> src, so the graph equals
  /// Build over the edge list with every edge followed by its reverse (the
  /// same dense ids and neighbour order), without materializing that list.
  static Result<CsrGraph> BuildUndirected(std::span<const int64_t> src,
                                          std::span<const int64_t> dst);

 private:
  CsrBuilder() = default;
  static Result<CsrGraph> BuildImpl(std::span<const int64_t> src,
                                    std::span<const int64_t> dst,
                                    std::span<const double> weights,
                                    bool undirected);
};

}  // namespace soda

#endif  // SODA_GRAPH_CSR_H_
