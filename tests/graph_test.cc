/// Tests for the graph substrate: CSR builder (vs a naive adjacency-list
/// reference), re-labeling/reverse mapping (paper §6.3), and the LDBC-like
/// generator's structural properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/ldbc_generator.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace soda {
namespace {

TEST(CsrTest, EmptyGraph) {
  auto g = CsrBuilder::Build({}, {});
  ASSERT_OK(g.status());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(CsrTest, ArityMismatchRejected) {
  const std::vector<int64_t> two = {1, 2};
  EXPECT_FALSE(CsrBuilder::Build(two, std::vector<int64_t>{3}).ok());
  std::vector<double> w = {1.0};
  EXPECT_FALSE(CsrBuilder::Build(two, std::vector<int64_t>{3, 4}, w).ok());
}

TEST(CsrTest, RelabelingIsDenseAndReversible) {
  // Sparse original ids must be mapped to [0, V) and back (§6.3).
  std::vector<int64_t> src = {1000, 5000, 1000, 99};
  std::vector<int64_t> dst = {5000, 99, 99, 1000};
  auto g = CsrBuilder::Build(src, dst);
  ASSERT_OK(g.status());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 4u);
  std::set<int64_t> originals(g->original_ids().begin(),
                              g->original_ids().end());
  EXPECT_EQ(originals, (std::set<int64_t>{99, 1000, 5000}));
  // Every dense id maps back to a unique original id.
  std::set<int64_t> via_lookup;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    via_lookup.insert(g->OriginalId(v));
  }
  EXPECT_EQ(via_lookup, originals);
}

TEST(CsrTest, AdjacencyMatchesReference) {
  // Randomized comparison against a naive adjacency-list build.
  Rng rng(5);
  const size_t v_count = 50, e_count = 500;
  std::vector<int64_t> src(e_count), dst(e_count);
  for (size_t i = 0; i < e_count; ++i) {
    src[i] = static_cast<int64_t>(rng.Below(v_count)) * 3 + 7;  // sparse ids
    dst[i] = static_cast<int64_t>(rng.Below(v_count)) * 3 + 7;
  }
  auto g = CsrBuilder::Build(src, dst);
  ASSERT_OK(g.status());

  std::map<int64_t, std::multiset<int64_t>> reference;
  for (size_t i = 0; i < e_count; ++i) reference[src[i]].insert(dst[i]);

  size_t covered = 0;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    std::multiset<int64_t> neighbors;
    for (const uint32_t* n = g->NeighborsBegin(v); n != g->NeighborsEnd(v);
         ++n) {
      neighbors.insert(g->OriginalId(*n));
    }
    auto it = reference.find(g->OriginalId(v));
    if (it == reference.end()) {
      EXPECT_TRUE(neighbors.empty());
    } else {
      EXPECT_EQ(neighbors, it->second);
      ++covered;
    }
  }
  EXPECT_EQ(covered, reference.size());
}

TEST(CsrTest, OutDegreesSumToEdgeCount) {
  Rng rng(6);
  std::vector<int64_t> src, dst;
  for (int i = 0; i < 1000; ++i) {
    src.push_back(static_cast<int64_t>(rng.Below(20)));
    dst.push_back(static_cast<int64_t>(rng.Below(20)));
  }
  auto g = CsrBuilder::Build(src, dst);
  ASSERT_OK(g.status());
  size_t total = 0;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) total += g->OutDegree(v);
  EXPECT_EQ(total, 1000u);
  // Offsets are monotone.
  for (size_t i = 0; i + 1 < g->offsets().size(); ++i) {
    EXPECT_LE(g->offsets()[i], g->offsets()[i + 1]);
  }
}

TEST(CsrTest, WeightsTravelWithEdges) {
  std::vector<int64_t> src = {1, 1, 2};
  std::vector<int64_t> dst = {2, 3, 3};
  std::vector<double> w = {0.5, 1.5, 2.5};
  auto g = CsrBuilder::Build(src, dst, w);
  ASSERT_OK(g.status());
  ASSERT_TRUE(g->has_weights());
  // For each vertex, the (target, weight) pairs must match the input.
  std::multiset<std::pair<int64_t, double>> expected = {
      {2, 0.5}, {3, 1.5}, {3, 2.5}};
  std::multiset<std::pair<int64_t, double>> actual;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    const uint32_t* begin = g->NeighborsBegin(v);
    for (const uint32_t* n = begin; n != g->NeighborsEnd(v); ++n) {
      size_t edge_idx = static_cast<size_t>(n - g->targets().data());
      actual.insert({g->OriginalId(*n), g->weights()[edge_idx]});
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(CsrTest, SelfLoopsAndParallelEdgesPreserved) {
  auto g = CsrBuilder::Build(std::vector<int64_t>{1, 1, 1},
                             std::vector<int64_t>{1, 2, 2});
  ASSERT_OK(g.status());
  EXPECT_EQ(g->num_edges(), 3u);
  uint32_t v1 = 0;
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    if (g->OriginalId(v) == 1) v1 = v;
  }
  EXPECT_EQ(g->OutDegree(v1), 3u);
}

/// The build the CSR must equal exactly: dense ids in first-appearance
/// order (src before dst within an edge), neighbour lists in edge order.
void ExpectMatchesOrderedReference(const std::vector<int64_t>& src,
                                   const std::vector<int64_t>& dst,
                                   const std::vector<double>& weights) {
  std::map<int64_t, uint32_t> dense;
  std::vector<int64_t> original;
  auto intern = [&](int64_t id) {
    auto [it, inserted] =
        dense.emplace(id, static_cast<uint32_t>(original.size()));
    if (inserted) original.push_back(id);
    return it->second;
  };
  std::vector<std::vector<std::pair<uint32_t, double>>> adjacency;
  for (size_t i = 0; i < src.size(); ++i) {
    const uint32_t s = intern(src[i]);
    const uint32_t d = intern(dst[i]);
    if (adjacency.size() < original.size()) adjacency.resize(original.size());
    adjacency[s].push_back({d, weights.empty() ? 0.0 : weights[i]});
  }
  auto g = CsrBuilder::Build(src, dst, weights);
  ASSERT_OK(g.status());
  ASSERT_EQ(g->original_ids(), original);
  ASSERT_EQ(g->num_edges(), src.size());
  ASSERT_EQ(g->has_weights(), !weights.empty());
  for (uint32_t v = 0; v < g->num_vertices(); ++v) {
    ASSERT_EQ(g->OutDegree(v), adjacency[v].size()) << v;
    for (size_t j = 0; j < adjacency[v].size(); ++j) {
      const uint64_t slot = g->offsets()[v] + j;
      EXPECT_EQ(g->targets()[slot], adjacency[v][j].first) << v << " " << j;
      if (g->has_weights()) {
        EXPECT_EQ(g->weights()[slot], adjacency[v][j].second) << v << " " << j;
      }
    }
  }
}

TEST(CsrTest, MatchesOrderedReferenceOnExtremeIds) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Extreme and negative ids, a duplicate edge and self-loops.
  std::vector<int64_t> src = {kMin, kMax, -1, 0, kMin, -7, kMax, -1};
  std::vector<int64_t> dst = {kMax, kMin, -1, kMin, kMax, 0, kMax, 3};
  ExpectMatchesOrderedReference(src, dst, {});
  ExpectMatchesOrderedReference(src, dst,
                                {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5});
  ExpectMatchesOrderedReference({}, {}, {});

  // More than 1,024 distinct ids, so the relabel table grows several
  // times; ids spread over the whole int64 range.
  Rng rng(17);
  src.clear();
  dst.clear();
  std::vector<double> w;
  for (int i = 0; i < 20000; ++i) {
    const auto pick = [&] {
      const int64_t slot = static_cast<int64_t>(rng.Below(5000));
      return slot % 3 == 0 ? kMin + slot : slot % 3 == 1 ? kMax - slot
                                                         : -slot * 1000003;
    };
    src.push_back(pick());
    dst.push_back(i % 97 == 0 ? src.back() : pick());
    w.push_back(rng.Uniform(0, 1));
  }
  ExpectMatchesOrderedReference(src, dst, {});
  ExpectMatchesOrderedReference(src, dst, w);
  auto g = CsrBuilder::Build(src, dst);
  ASSERT_OK(g.status());
  EXPECT_GT(g->num_vertices(), 1024u);
}

TEST(CsrTest, UndirectedBuildEqualsDoubledEdgeList) {
  // The undirected build over (src, dst) is byte-identical to the directed
  // build over the edge list with every edge followed by its reverse: same
  // dense ids, offsets and neighbour order. Self-loops, duplicate edges,
  // extreme ids and a social graph included.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  GeneratedGraph social = GenerateSocialGraph(500, 12, 5);
  const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      inputs = {{{}, {}},
                {{kMin, 3, 3, 9, 3}, {3, kMin, 3, 4, 9}},
                {social.src, social.dst}};
  for (const auto& [src, dst] : inputs) {
    std::vector<int64_t> both_src, both_dst;
    for (size_t i = 0; i < src.size(); ++i) {
      both_src.insert(both_src.end(), {src[i], dst[i]});
      both_dst.insert(both_dst.end(), {dst[i], src[i]});
    }
    auto doubled = CsrBuilder::Build(both_src, both_dst);
    auto undirected = CsrBuilder::BuildUndirected(src, dst);
    ASSERT_OK(doubled.status());
    ASSERT_OK(undirected.status());
    EXPECT_EQ(undirected->original_ids(), doubled->original_ids());
    EXPECT_EQ(undirected->offsets(), doubled->offsets());
    EXPECT_EQ(undirected->targets(), doubled->targets());
    EXPECT_FALSE(undirected->has_weights());
  }
  EXPECT_FALSE(CsrBuilder::BuildUndirected(std::vector<int64_t>{1},
                                           std::vector<int64_t>{})
                   .ok());
}

TEST(LdbcGeneratorTest, PaperScalesMatchRatios) {
  auto scales = PaperLdbcScales();
  ASSERT_EQ(scales.size(), 3u);
  // Paper Fig. 5: 11k/452k, 73k/4.6M, 499k/46M vertices/edges.
  EXPECT_EQ(scales[0].vertices, 11000u);
  EXPECT_EQ(scales[2].vertices, 499000u);
  EXPECT_NEAR(static_cast<double>(scales[0].avg_degree), 452000.0 / 11000,
              2.0);
  EXPECT_NEAR(static_cast<double>(scales[2].avg_degree), 46e6 / 499000, 3.0);
}

TEST(LdbcGeneratorTest, Deterministic) {
  auto a = GenerateSocialGraph(500, 8, 42);
  auto b = GenerateSocialGraph(500, 8, 42);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  auto c = GenerateSocialGraph(500, 8, 43);
  EXPECT_NE(a.src, c.src);
}

TEST(LdbcGeneratorTest, UndirectedBothDirectionsPresent) {
  auto g = GenerateSocialGraph(300, 6, 1);
  std::multiset<std::pair<int64_t, int64_t>> edges;
  for (size_t i = 0; i < g.src.size(); ++i) {
    edges.insert({g.src[i], g.dst[i]});
  }
  for (size_t i = 0; i < g.src.size(); ++i) {
    EXPECT_TRUE(edges.count({g.dst[i], g.src[i]}) > 0)
        << g.src[i] << "->" << g.dst[i];
  }
}

TEST(LdbcGeneratorTest, EdgeCountNearTarget) {
  const size_t v = 2000, deg = 10;
  auto g = GenerateSocialGraph(v, deg, 3);
  double avg = static_cast<double>(g.num_edges) / static_cast<double>(v);
  EXPECT_GT(avg, deg * 0.5);
  EXPECT_LT(avg, deg * 2.0);
}

TEST(LdbcGeneratorTest, DegreeDistributionIsSkewed) {
  // Preferential attachment should create a heavy tail: max degree well
  // above the average (real social networks have hubs).
  auto g = GenerateSocialGraph(3000, 10, 4);
  std::map<int64_t, size_t> deg;
  for (int64_t s : g.src) deg[s]++;
  size_t max_deg = 0, sum = 0;
  for (auto& [_, d] : deg) {
    max_deg = std::max(max_deg, d);
    sum += d;
  }
  double avg = static_cast<double>(sum) / static_cast<double>(deg.size());
  EXPECT_GT(static_cast<double>(max_deg), 5.0 * avg);
}

TEST(LdbcGeneratorTest, SparseShuffledIds) {
  // Original ids must not be the dense range 0..V-1 — the CSR re-labeling
  // path has to do real work (like LDBC person ids).
  auto g = GenerateSocialGraph(100, 4, 5);
  std::set<int64_t> ids(g.src.begin(), g.src.end());
  ids.insert(g.dst.begin(), g.dst.end());
  int64_t max_id = *ids.rbegin();
  EXPECT_GT(max_id, static_cast<int64_t>(g.num_vertices));
}

TEST(LdbcGeneratorTest, NoSelfLoops) {
  auto g = GenerateSocialGraph(500, 8, 6);
  for (size_t i = 0; i < g.src.size(); ++i) {
    ASSERT_NE(g.src[i], g.dst[i]);
  }
}

TEST(LdbcGeneratorTest, TinyGraphs) {
  auto empty = GenerateSocialGraph(0, 5, 1);
  EXPECT_EQ(empty.num_edges, 0u);
  auto one = GenerateSocialGraph(1, 5, 1);
  EXPECT_EQ(one.num_edges, 0u);  // single vertex, no self loops
  auto two = GenerateSocialGraph(2, 5, 1);
  EXPECT_GE(two.num_edges, 0u);
}

}  // namespace
}  // namespace soda
