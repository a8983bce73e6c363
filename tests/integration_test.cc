/// Cross-layer integration tests: the layer-3 SQL implementations
/// (ITERATE and recursive CTE, from bench_support/workloads) must agree
/// with the layer-4 physical operators — the correctness backbone of the
/// paper's evaluation (§8: all systems implement the same algorithms).

#include <gtest/gtest.h>

#include <map>

#include "bench_support/workloads.h"
#include "tests/test_util.h"
#include "util/parallel.h"

namespace soda {
namespace {

using testing::RunQuery;

class KMeansVariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = workloads::GenerateVectorTable(&engine_.catalog(), "data",
                                               1500, 3, /*seed=*/7);
    ASSERT_OK(data.status());
    auto centers = workloads::SampleInitialCenters(&engine_.catalog(),
                                                   "centers", **data, 4,
                                                   /*seed=*/13);
    ASSERT_OK(centers.status());
  }
  Engine engine_;
};

TEST_F(KMeansVariantsTest, IterateAndCteAgreeExactly) {
  auto iterate = RunQuery(engine_,
                     workloads::KMeansIterateSql("data", "centers", 3, 3));
  auto cte = RunQuery(engine_,
                 workloads::KMeansRecursiveCteSql("data", "centers", 3, 3));
  ASSERT_EQ(iterate.num_rows(), cte.num_rows());
  for (size_t r = 0; r < iterate.num_rows(); ++r) {
    EXPECT_EQ(iterate.GetInt(r, 0), cte.GetInt(r, 0));
    for (size_t c = 1; c <= 3; ++c) {
      EXPECT_NEAR(iterate.GetDouble(r, c), cte.GetDouble(r, c), 1e-9);
    }
  }
}

TEST_F(KMeansVariantsTest, SqlVariantsMatchOperatorShiftedByOne) {
  // The SQL formulation's i steps equal the operator's i+1 Lloyd rounds
  // (the SQL init performs the first assignment; the trailing aggregation
  // performs the final update). Tie-breaking matches: both pick the
  // lowest-indexed center among equidistant ones.
  auto sql = RunQuery(engine_, workloads::KMeansIterateSql("data", "centers", 3, 2));
  auto op = RunQuery(engine_, workloads::KMeansOperatorSql("data", "centers", 3, 3));
  ASSERT_EQ(sql.num_rows(), op.num_rows());
  for (size_t r = 0; r < sql.num_rows(); ++r) {
    ASSERT_EQ(sql.GetInt(r, 0), op.GetInt(r, 0));
    for (size_t c = 1; c <= 3; ++c) {
      EXPECT_NEAR(sql.GetDouble(r, c), op.GetDouble(r, c), 1e-7)
          << "center " << r << " dim " << c;
    }
  }
}

TEST_F(KMeansVariantsTest, IterateUsesLessPeakMemoryThanCte) {
  auto iterate = RunQuery(engine_,
                     workloads::KMeansIterateSql("data", "centers", 3, 4));
  auto cte = RunQuery(engine_,
                 workloads::KMeansRecursiveCteSql("data", "centers", 3, 4));
  // Paper §5.1: ITERATE keeps ~2n bound tuples, the CTE accumulates n·i.
  EXPECT_LT(iterate.stats().peak_bound_tuples,
            cte.stats().peak_bound_tuples);
}

TEST_F(KMeansVariantsTest, OperatorLambdaEquivalence) {
  auto builtin = RunQuery(engine_,
                     workloads::KMeansOperatorSql("data", "centers", 3, 3));
  auto custom = RunQuery(
      engine_,
      workloads::KMeansOperatorSql(
          "data", "centers", 3, 3,
          "(a.x1-b.x1)^2 + (a.x2-b.x2)^2 + (a.x3-b.x3)^2"));
  ASSERT_EQ(builtin.num_rows(), custom.num_rows());
  for (size_t r = 0; r < builtin.num_rows(); ++r) {
    for (size_t c = 1; c <= 3; ++c) {
      EXPECT_DOUBLE_EQ(builtin.GetDouble(r, c), custom.GetDouble(r, c));
    }
  }
}

TEST_F(KMeansVariantsTest, SqlStepCentersEqualOperatorCentersExactly) {
  // Centers as the ITERATE state: each step assigns every point to its
  // nearest center by `(a.x - b.x)^2` written in SQL and averages the
  // points per center, so after i steps the centers are the operator's
  // after i Lloyd rounds. `^ 2` multiplies, as the operator's lambda does,
  // so both pick the same nearest center and the centers are equal, not
  // merely close. One worker: per-worker float sums merge in schedule
  // order.
  auto distance = [](const std::string& a, const std::string& b) {
    return "(" + a + ".x1 - " + b + ".x1)^2 + (" + a + ".x2 - " + b +
           ".x2)^2 + (" + a + ".x3 - " + b + ".x3)^2";
  };
  const std::string dist = distance("d", "c");
  const std::string dist2 = distance("d2", "c2");
  const std::string assign =
      "SELECT d.id id, min(c.cid) cid FROM data d, iterate c, "
      "(SELECT d2.id did, min(" + dist2 + ") mind FROM data d2, iterate c2 "
      "GROUP BY d2.id) m WHERE m.did = d.id AND (" + dist + ") = m.mind "
      "GROUP BY d.id";
  const std::string step =
      "SELECT max(s.i) + 1 i, a.cid cid, avg(v.x1) x1, avg(v.x2) x2, "
      "avg(v.x3) x3 FROM (" + assign + ") a JOIN data v ON v.id = a.id, "
      "(SELECT max(i) i FROM iterate) s GROUP BY a.cid";
  const std::string sql =
      "SELECT cid, x1, x2, x3 FROM ITERATE((SELECT 0 i, cid, x1, x2, x3 "
      "FROM centers), (" + step + "), (SELECT 1 FROM iterate WHERE i >= 3)) "
      "ORDER BY cid";
  ScopedSerialExecution one_worker;
  auto iterated = RunQuery(engine_, sql);
  auto op = RunQuery(engine_,
                     workloads::KMeansOperatorSql("data", "centers", 3, 3));
  ASSERT_EQ(iterated.num_rows(), op.num_rows());
  for (size_t r = 0; r < iterated.num_rows(); ++r) {
    ASSERT_EQ(iterated.GetInt(r, 0), op.GetInt(r, 0));
    for (size_t c = 1; c <= 3; ++c) {
      EXPECT_EQ(iterated.GetDouble(r, c), op.GetDouble(r, c))
          << "center " << r << " dim " << c;
    }
  }
}

class PageRankVariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateSocialGraph(400, 8, /*seed=*/42);
    ASSERT_OK(workloads::RegisterGraph(&engine_.catalog(), "edges", graph_)
                  .status());
    ASSERT_OK(engine_.Execute("CREATE TABLE deg (src INTEGER, cnt INTEGER)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("INSERT INTO deg " +
                           workloads::DegreeTableSql("edges"))
                  .status());
  }
  Engine engine_;
  GeneratedGraph graph_;
};

TEST_F(PageRankVariantsTest, AllThreeVariantsAgree) {
  const size_t nv = graph_.num_vertices;
  auto op = RunQuery(engine_, workloads::PageRankOperatorSql("edges", 0.85, 0.0, 8));
  auto it = RunQuery(engine_,
                workloads::PageRankIterateSql("edges", "deg", nv, 0.85, 8));
  auto cte = RunQuery(engine_, workloads::PageRankRecursiveCteSql("edges", "deg",
                                                             nv, 0.85, 8));
  ASSERT_EQ(op.num_rows(), it.num_rows());
  ASSERT_EQ(op.num_rows(), cte.num_rows());
  // Near-equal ranks may order differently across variants (different
  // floating-point summation orders), so compare as vertex -> rank maps.
  auto to_map = [](const QueryResult& r) {
    std::map<int64_t, double> m;
    for (size_t i = 0; i < r.num_rows(); ++i) {
      m[r.GetInt(i, 0)] = r.GetDouble(i, 1);
    }
    return m;
  };
  auto mo = to_map(op), mi = to_map(it), mc = to_map(cte);
  size_t common = 0;
  for (const auto& [v, rank] : mo) {
    if (mi.count(v)) {
      EXPECT_NEAR(rank, mi[v], 1e-9) << "vertex " << v;
      ++common;
    }
    if (mc.count(v)) {
      EXPECT_NEAR(rank, mc[v], 1e-9) << "vertex " << v;
    }
  }
  // The top-100 sets must agree almost entirely.
  EXPECT_GE(common, op.num_rows() - 5);
}

TEST_F(PageRankVariantsTest, IterateMemoryAdvantage) {
  const size_t nv = graph_.num_vertices;
  auto it = RunQuery(engine_,
                workloads::PageRankIterateSql("edges", "deg", nv, 0.85, 10));
  auto cte = RunQuery(engine_, workloads::PageRankRecursiveCteSql("edges", "deg",
                                                             nv, 0.85, 10));
  EXPECT_LT(it.stats().peak_bound_tuples, cte.stats().peak_bound_tuples);
  // ITERATE: 2 generations; CTE: 11 generations + working table.
  EXPECT_GE(static_cast<double>(cte.stats().peak_bound_tuples) /
                static_cast<double>(it.stats().peak_bound_tuples),
            4.0);
}

TEST(NaiveBayesVariantsTest, SqlAggregationMatchesOperatorStatistics) {
  Engine engine;
  auto labeled = workloads::GenerateLabeledTable(&engine.catalog(), "labeled",
                                                 5000, 3, /*seed=*/11);
  ASSERT_OK(labeled.status());
  auto sql = RunQuery(engine, workloads::NaiveBayesSql("labeled", 3));
  auto op = RunQuery(engine, workloads::NaiveBayesOperatorSql("labeled", 3));
  // sql rows: one per label with cnt, s_j, q_j; op rows: per (class, attr)
  // with prior/mean/variance. Check mean/variance agreement.
  ASSERT_EQ(sql.num_rows(), 2u);
  ASSERT_EQ(op.num_rows(), 6u);
  for (size_t lr = 0; lr < sql.num_rows(); ++lr) {
    int64_t label = sql.GetInt(lr, 0);
    double cnt = static_cast<double>(sql.GetInt(lr, 1));
    for (size_t a = 1; a <= 3; ++a) {
      double s = sql.GetDouble(lr, 2 * a);
      double q = sql.GetDouble(lr, 2 * a + 1);
      double mean = s / cnt;
      double var = q / cnt - mean * mean;
      // Find the operator row.
      bool found = false;
      for (size_t orow = 0; orow < op.num_rows(); ++orow) {
        if (op.GetInt(orow, 0) == label &&
            op.GetInt(orow, 1) == static_cast<int64_t>(a)) {
          EXPECT_NEAR(op.GetDouble(orow, 3), mean, 1e-7);
          EXPECT_NEAR(op.GetDouble(orow, 4), var, 1e-4);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "label " << label << " attr " << a;
    }
  }
}

TEST(WorkloadsTest, GeneratorsAreDeterministic) {
  Engine a, b;
  ASSERT_OK(workloads::GenerateVectorTable(&a.catalog(), "d", 1000, 4, 3)
                .status());
  ASSERT_OK(workloads::GenerateVectorTable(&b.catalog(), "d", 1000, 4, 3)
                .status());
  auto ra = RunQuery(a, "SELECT sum(x1), sum(x4) FROM d");
  auto rb = RunQuery(b, "SELECT sum(x1), sum(x4) FROM d");
  EXPECT_DOUBLE_EQ(ra.GetDouble(0, 0), rb.GetDouble(0, 0));
  EXPECT_DOUBLE_EQ(ra.GetDouble(0, 1), rb.GetDouble(0, 1));
}

TEST(WorkloadsTest, VectorTableShape) {
  Engine e;
  auto t = workloads::GenerateVectorTable(&e.catalog(), "d", 5000, 10, 1);
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->num_rows(), 5000u);
  EXPECT_EQ((*t)->num_columns(), 11u);  // id + 10 dims
  auto r = RunQuery(e, "SELECT min(x1), max(x1), count(*) FROM d");
  EXPECT_GE(r.GetDouble(0, 0), 0.0);
  EXPECT_LT(r.GetDouble(0, 1), 100.0);
}

TEST(WorkloadsTest, LabeledTableHasTwoUniformLabels) {
  Engine e;
  ASSERT_OK(workloads::GenerateLabeledTable(&e.catalog(), "l", 10000, 2, 4)
                .status());
  auto r = RunQuery(e, "SELECT label, count(*) c FROM l GROUP BY label "
                  "ORDER BY label");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetInt(0, 0), 0);
  EXPECT_EQ(r.GetInt(1, 0), 1);
  // Roughly uniform priors (§8.1.2).
  EXPECT_NEAR(static_cast<double>(r.GetInt(0, 1)), 5000.0, 500.0);
}

TEST(WorkloadsTest, InitialCentersComeFromData) {
  Engine e;
  auto data = workloads::GenerateVectorTable(&e.catalog(), "d", 100, 2, 9);
  ASSERT_OK(data.status());
  auto centers = workloads::SampleInitialCenters(&e.catalog(), "c", **data,
                                                 5, 17);
  ASSERT_OK(centers.status());
  EXPECT_EQ((*centers)->num_rows(), 5u);
  auto joined = RunQuery(e,
                    "SELECT count(*) FROM c JOIN d ON c.x1 = d.x1 "
                    "AND c.x2 = d.x2");
  EXPECT_GE(joined.GetInt(0, 0), 5);
}

TEST(WorkloadsTest, CenterSamplingValidation) {
  Engine e;
  auto data = workloads::GenerateVectorTable(&e.catalog(), "d", 3, 2, 9);
  ASSERT_OK(data.status());
  EXPECT_FALSE(
      workloads::SampleInitialCenters(&e.catalog(), "c", **data, 10).ok());
}

}  // namespace
}  // namespace soda
