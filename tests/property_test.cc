/// Parameterized property tests sweeping workload shapes: invariants of
/// the analytics operators across n/d/k and graph families, and SQL
/// aggregate/join agreement with brute-force references.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "analytics/kmeans.h"
#include "analytics/pagerank.h"
#include "bench_support/workloads.h"
#include "graph/ldbc_generator.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace soda {
namespace {

using testing::RunQuery;

// --- k-Means invariants across (n, d, k) -----------------------------------

class KMeansPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(KMeansPropertyTest, CentersStayInDataHullAndClustersPartition) {
  auto [n, d, k] = GetParam();
  Engine e;
  auto data = workloads::GenerateVectorTable(&e.catalog(), "d", n, d, n + d);
  ASSERT_OK(data.status());
  auto centers = workloads::SampleInitialCenters(&e.catalog(), "c", **data, k,
                                                 k + 1);
  ASSERT_OK(centers.status());

  // Feature-only views.
  Schema feat;
  for (size_t j = 1; j <= d; ++j) {
    feat.AddField(Field("x" + std::to_string(j), DataType::kDouble));
  }
  auto feature_view = [&](const Table& t) {
    auto out = std::make_shared<Table>("v", feat);
    for (size_t j = 0; j < d; ++j) {
      Column col(DataType::kDouble);
      col.AppendSlice(t.column(j + 1), 0, t.num_rows());
      EXPECT_TRUE(out->SetColumn(j, std::move(col)).ok());
    }
    return out;
  };
  auto dview = feature_view(**data);
  auto cview = feature_view(**centers);

  KMeansOptions opt;
  opt.max_iterations = 3;
  auto r = RunKMeans(*dview, *cview, opt);
  ASSERT_OK(r.status());
  ASSERT_EQ(r->centers->num_rows(), k);

  // Invariant 1: every center coordinate lies within the data's bounding
  // box (means of subsets; empty clusters keep sampled-from-data seeds).
  for (size_t j = 0; j < d; ++j) {
    double lo = 1e300, hi = -1e300;
    const double* col = dview->column(j).F64Data();
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, col[i]);
      hi = std::max(hi, col[i]);
    }
    for (size_t c = 0; c < k; ++c) {
      double v = r->centers->column(j + 1).GetDouble(c);
      EXPECT_GE(v, lo - 1e-9);
      EXPECT_LE(v, hi + 1e-9);
    }
  }

  // Invariant 2: assignments form a partition (every tuple assigned to a
  // valid cluster). The centers relation leads with the cluster-id column;
  // feature_view strips it (it reads columns 1..d).
  auto final_centers = feature_view(*r->centers);
  auto assign = AssignClusters(*dview, *final_centers, nullptr);
  ASSERT_OK(assign.status());
  ASSERT_EQ(assign->size(), n);
  for (uint32_t a : *assign) {
    ASSERT_LT(a, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KMeansPropertyTest,
    ::testing::Values(std::make_tuple(200, 2, 2),
                      std::make_tuple(1000, 3, 5),
                      std::make_tuple(500, 10, 3),
                      std::make_tuple(2000, 5, 10),
                      std::make_tuple(100, 1, 4),
                      std::make_tuple(3000, 2, 25)));

// --- PageRank invariants across graph families ------------------------------

struct GraphCase {
  const char* name;
  size_t vertices;
  size_t degree;
  uint64_t seed;
};

// Keeps pointer bytes out of the listed test names (see contenders_test.cc).
void PrintTo(const GraphCase& gc, std::ostream* os) {
  *os << gc.name << " (" << gc.vertices << ", " << gc.degree << ", "
      << gc.seed << ")";
}

class PageRankPropertyTest : public ::testing::TestWithParam<GraphCase> {};

TEST_P(PageRankPropertyTest, ProbabilityDistributionInvariants) {
  const GraphCase& gc = GetParam();
  auto g = GenerateSocialGraph(gc.vertices, gc.degree, gc.seed);
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  Table edges("e", schema);
  ASSERT_OK(edges.SetColumn(0, Column::FromBigInts(g.src)));
  ASSERT_OK(edges.SetColumn(1, Column::FromBigInts(g.dst)));

  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 25;
  auto r = RunPageRank(edges, opt);
  ASSERT_OK(r.status());

  double sum = 0;
  double min_rank = 1e300;
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    double rank = (*r)->column(1).GetDouble(i);
    EXPECT_GT(rank, 0.0);
    sum += rank;
    min_rank = std::min(min_rank, rank);
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
  // Every vertex receives at least the teleport mass (1-d)/N.
  double floor_rank = 0.15 / static_cast<double>((*r)->num_rows());
  EXPECT_GE(min_rank, floor_rank - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, PageRankPropertyTest,
    ::testing::Values(GraphCase{"tiny", 50, 4, 1},
                      GraphCase{"small", 500, 8, 2},
                      GraphCase{"denser", 300, 20, 3},
                      GraphCase{"sparse", 1000, 2, 4}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return info.param.name;
    });

// --- SQL joins vs brute force across sizes ---------------------------------

class JoinPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(JoinPropertyTest, HashJoinMatchesNestedLoopReference) {
  auto [left_n, right_n] = GetParam();
  Engine e;
  ASSERT_OK(e.Execute("CREATE TABLE l (k INTEGER, v INTEGER)").status());
  ASSERT_OK(e.Execute("CREATE TABLE r (k INTEGER, w INTEGER)").status());
  auto lt = e.catalog().GetTable("l");
  auto rt = e.catalog().GetTable("r");
  ASSERT_OK(lt.status());
  ASSERT_OK(rt.status());
  Rng rng(left_n * 31 + right_n);
  std::vector<int64_t> lk(left_n), lv(left_n), rk(right_n), rw(right_n);
  for (size_t i = 0; i < left_n; ++i) {
    lk[i] = static_cast<int64_t>(rng.Below(20));
    lv[i] = static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < right_n; ++i) {
    rk[i] = static_cast<int64_t>(rng.Below(20));
    rw[i] = static_cast<int64_t>(i);
  }
  ASSERT_OK((*lt)->SetColumn(0, Column::FromBigInts(lk)));
  ASSERT_OK((*lt)->SetColumn(1, Column::FromBigInts(lv)));
  ASSERT_OK((*rt)->SetColumn(0, Column::FromBigInts(rk)));
  ASSERT_OK((*rt)->SetColumn(1, Column::FromBigInts(rw)));

  // Brute-force reference.
  size_t expected = 0;
  int64_t checksum = 0;
  for (size_t i = 0; i < left_n; ++i) {
    for (size_t j = 0; j < right_n; ++j) {
      if (lk[i] == rk[j]) {
        ++expected;
        checksum += lv[i] * 7 + rw[j];
      }
    }
  }
  auto result = RunQuery(e,
                    "SELECT count(*) c, sum(l.v * 7 + r.w) s "
                    "FROM l JOIN r ON l.k = r.k");
  EXPECT_EQ(result.GetInt(0, 0), static_cast<int64_t>(expected));
  if (expected > 0) {
    EXPECT_EQ(result.GetInt(0, 1), checksum);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, JoinPropertyTest,
                         ::testing::Values(std::make_pair(0, 10),
                                           std::make_pair(10, 0),
                                           std::make_pair(100, 100),
                                           std::make_pair(3000, 50),
                                           std::make_pair(50, 3000),
                                           std::make_pair(5000, 5000)));

// --- ITERATE vs manual loop across iteration counts ------------------------

class IteratePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IteratePropertyTest, GeometricSeriesMatchesClosedForm) {
  int iters = GetParam();
  Engine e;
  auto r = RunQuery(e,
               "SELECT * FROM ITERATE((SELECT 1 v, 0 i), "
               "(SELECT v * 2, i + 1 FROM iterate), "
               "(SELECT 1 FROM iterate WHERE i >= " +
                   std::to_string(iters) + "))");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetInt(0, 0), int64_t{1} << iters);
  EXPECT_EQ(r.stats().iterations_run, static_cast<size_t>(iters));
}

INSTANTIATE_TEST_SUITE_P(Counts, IteratePropertyTest,
                         ::testing::Values(0, 1, 2, 5, 10, 30));

// --- aggregation invariants across group counts ----------------------------

class AggregatePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AggregatePropertyTest, PartialSumsEqualTotal) {
  size_t groups = GetParam();
  Engine e;
  ASSERT_OK(e.Execute("CREATE TABLE t (k INTEGER, v FLOAT)").status());
  auto table = e.catalog().GetTable("t");
  ASSERT_OK(table.status());
  const size_t n = 10000;
  Rng rng(groups);
  std::vector<int64_t> keys(n);
  std::vector<double> vals(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<int64_t>(rng.Below(groups));
    vals[i] = rng.Uniform(0, 1);
    total += vals[i];
  }
  ASSERT_OK((*table)->SetColumn(0, Column::FromBigInts(std::move(keys))));
  ASSERT_OK((*table)->SetColumn(1, Column::FromDoubles(std::move(vals))));

  auto per_group = RunQuery(e, "SELECT k, sum(v) s FROM t GROUP BY k");
  double recombined = 0;
  for (size_t i = 0; i < per_group.num_rows(); ++i) {
    recombined += per_group.GetDouble(i, 1);
  }
  EXPECT_NEAR(recombined, total, 1e-6);
  EXPECT_LE(per_group.num_rows(), groups);

  auto counts = RunQuery(e, "SELECT sum(c) FROM (SELECT k, count(*) c FROM t "
                       "GROUP BY k) sub");
  EXPECT_EQ(counts.GetInt(0, 0), static_cast<int64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, AggregatePropertyTest,
                         ::testing::Values(1, 2, 16, 256, 5000));

}  // namespace
}  // namespace soda
