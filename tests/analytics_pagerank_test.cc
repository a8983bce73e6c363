/// Tests for the physical PageRank operator (paper §6.3): CSR temp index,
/// dense re-labeling + reverse mapping, parallel iterations, dangling
/// mass, epsilon/max-iteration stopping, and the edge-weight lambda.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analytics/pagerank.h"
#include "graph/ldbc_generator.h"
#include "tests/test_util.h"
#include "util/parallel.h"

namespace soda {
namespace {

TablePtr MakeEdges(const std::vector<std::pair<int64_t, int64_t>>& edges) {
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  auto t = std::make_shared<Table>("edges", schema);
  for (auto [s, d] : edges) {
    EXPECT_TRUE(t->AppendRow({Value::BigInt(s), Value::BigInt(d)}).ok());
  }
  return t;
}

std::map<int64_t, double> RankMap(const TablePtr& t) {
  std::map<int64_t, double> out;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    out[t->column(0).GetBigInt(i)] = t->column(1).GetDouble(i);
  }
  return out;
}

TEST(PageRankTest, RanksSumToOne) {
  auto edges = MakeEdges({{1, 2}, {2, 3}, {3, 1}, {1, 3}});
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 30;
  auto r = RunPageRank(*edges, opt);
  ASSERT_OK(r.status());
  double sum = 0;
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    sum += (*r)->column(1).GetDouble(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, SymmetricCycleIsUniform) {
  // A directed 4-cycle: all ranks equal 1/4.
  auto edges = MakeEdges({{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 50;
  auto r = RunPageRank(*edges, opt);
  ASSERT_OK(r.status());
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    EXPECT_NEAR((*r)->column(1).GetDouble(i), 0.25, 1e-9);
  }
}

TEST(PageRankTest, StarGraphCenterDominates) {
  // Spokes all point at the hub; hub must hold the highest rank, and its
  // closed-form value for d=0.85, n=5: spokes get (1-d)/n + d*hub_backflow.
  auto edges = MakeEdges({{1, 0}, {2, 0}, {3, 0}, {4, 0},
                          {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 100;
  auto r = RunPageRank(*edges, opt);
  ASSERT_OK(r.status());
  auto ranks = RankMap(*r);
  for (int64_t spoke = 1; spoke <= 4; ++spoke) {
    EXPECT_GT(ranks[0], ranks[spoke]);
    EXPECT_NEAR(ranks[spoke], ranks[1], 1e-9);  // spokes symmetric
  }
  // Stationary solution: hub = (1-d)/5 + d * 4 * spoke;
  // spoke = (1-d)/5 + d * hub / 4. Convergence rate is ~0.85 per
  // iteration, so after 100 iterations residuals are ~1e-7.
  EXPECT_NEAR(ranks[0], (0.15 / 5 + 0.85 * 4 * ranks[1]), 1e-6);
  EXPECT_NEAR(ranks[1], 0.15 / 5 + 0.85 * ranks[0] / 4, 1e-6);
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // Vertex 2 has no outgoing edges; ranks must still sum to 1.
  auto edges = MakeEdges({{1, 2}, {3, 2}, {2, 2}});
  // Remove self loop? keep: 2->2 makes 2 non-dangling. Build true dangling:
  auto dangling = MakeEdges({{1, 2}, {3, 2}, {3, 1}});
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 60;
  auto r = RunPageRank(*dangling, opt);
  ASSERT_OK(r.status());
  double sum = 0;
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    sum += (*r)->column(1).GetDouble(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  auto ranks = RankMap(*r);
  EXPECT_GT(ranks[2], ranks[1]);  // the sink accumulates rank
}

TEST(PageRankTest, ReverseMappingRestoresOriginalIds) {
  // Sparse, shuffled ids (paper §6.3: re-label, compute, map back).
  auto edges = MakeEdges({{1000000, 42}, {42, 777}, {777, 1000000}});
  auto r = RunPageRank(*edges, {});
  ASSERT_OK(r.status());
  auto ranks = RankMap(*r);
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_TRUE(ranks.count(42));
  EXPECT_TRUE(ranks.count(777));
  EXPECT_TRUE(ranks.count(1000000));
}

TEST(PageRankTest, EpsilonStopsEarly) {
  auto edges = MakeEdges({{0, 1}, {1, 0}});
  PageRankOptions strict, loose;
  strict.epsilon = 0;
  strict.max_iterations = 45;
  loose.epsilon = 0.1;
  loose.max_iterations = 45;
  PageRankStats s1, s2;
  ASSERT_OK(RunPageRank(*edges, strict, &s1).status());
  ASSERT_OK(RunPageRank(*edges, loose, &s2).status());
  EXPECT_EQ(s1.iterations_run, 45);
  EXPECT_LT(s2.iterations_run, 45);
}

TEST(PageRankTest, InputValidation) {
  Schema bad({Field("src", DataType::kDouble), Field("dst", DataType::kBigInt)});
  Table t("bad", bad);
  ASSERT_OK(t.AppendRow({Value::Double(1), Value::BigInt(2)}));
  EXPECT_FALSE(RunPageRank(t, {}).ok());

  auto edges = MakeEdges({{1, 2}});
  PageRankOptions neg;
  neg.max_iterations = -1;
  EXPECT_FALSE(RunPageRank(*edges, neg).ok());
  PageRankOptions damp;
  damp.damping = 1.5;
  EXPECT_FALSE(RunPageRank(*edges, damp).ok());

  Table single("one", Schema({Field("src", DataType::kBigInt)}));
  EXPECT_FALSE(RunPageRank(single, {}).ok());
}

TEST(PageRankTest, EmptyGraphYieldsEmptyResult) {
  auto edges = MakeEdges({});
  auto r = RunPageRank(*edges, {});
  ASSERT_OK(r.status());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST(PageRankTest, ParallelMatchesSerial) {
  auto g = GenerateSocialGraph(2000, 8, 17);
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  auto edges = std::make_shared<Table>("edges", schema);
  ASSERT_OK(edges->SetColumn(0, Column::FromBigInts(g.src)));
  ASSERT_OK(edges->SetColumn(1, Column::FromBigInts(g.dst)));
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 15;
  auto parallel = RunPageRank(*edges, opt);
  ASSERT_OK(parallel.status());
  TablePtr serial;
  {
    ScopedSerialExecution scope;
    auto r = RunPageRank(*edges, opt);
    ASSERT_OK(r.status());
    serial = *r;
  }
  auto pm = RankMap(*parallel);
  auto sm = RankMap(serial);
  ASSERT_EQ(pm.size(), sm.size());
  for (const auto& [v, rank] : pm) {
    EXPECT_NEAR(rank, sm[v], 1e-12) << "vertex " << v;
  }
}

TEST(PageRankTest, WeightedLambdaShiftsRank) {
  // Weight lambda: prefer edges into vertex 2 (w=10 on (1,2), w=1 else).
  // Edge schema: (src, dst); lambda over the edge tuple, whose columns the
  // binder types DOUBLE:
  // w(e) = CASE WHEN e.dst = 2 THEN 10.0 ELSE 1.0 END.
  std::vector<ExprPtr> kids;
  kids.push_back(Expression::Binary(
      BinaryOp::kEq, Expression::ColumnRef(1, DataType::kDouble, "dst"),
      Expression::Literal(Value::BigInt(2)), DataType::kBool));
  kids.push_back(Expression::Literal(Value::Double(10.0)));
  kids.push_back(Expression::Literal(Value::Double(1.0)));
  auto body = Expression::Case(std::move(kids), DataType::kDouble);

  auto edges = MakeEdges({{1, 2}, {1, 3}, {2, 1}, {3, 1}, {2, 3}, {3, 2}});
  PageRankOptions uniform;
  uniform.epsilon = 0;
  uniform.max_iterations = 60;
  PageRankOptions weighted = uniform;
  weighted.edge_weight = body.get();
  auto u = RunPageRank(*edges, uniform);
  auto w = RunPageRank(*edges, weighted);
  ASSERT_OK(u.status());
  ASSERT_OK(w.status());
  auto um = RankMap(*u);
  auto wm = RankMap(*w);
  EXPECT_GT(wm[2], um[2]);  // vertex 2 gains rank under the biased weights
  double sum = 0;
  for (auto& [_, rank] : wm) sum += rank;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, NegativeLambdaWeightRejected) {
  // A negative weight, and a NULL one the body produces (a CASE with no
  // matching branch and no ELSE), fail the call.
  auto negative = Expression::Literal(Value::Double(-1.0));
  std::vector<ExprPtr> kids;
  kids.push_back(Expression::Binary(
      BinaryOp::kEq, Expression::ColumnRef(1, DataType::kDouble, "dst"),
      Expression::Literal(Value::BigInt(99)), DataType::kBool));
  kids.push_back(Expression::Literal(Value::Double(1.0)));
  kids.push_back(Expression::Literal(Value::Null()));
  auto null_weight = Expression::Case(std::move(kids), DataType::kDouble);
  auto edges = MakeEdges({{1, 2}});
  for (const Expression* body : {negative.get(), null_weight.get()}) {
    PageRankOptions opt;
    opt.edge_weight = body;
    auto r = RunPageRank(*edges, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  }
}

TEST(PageRankTest, StatsPopulated) {
  auto g = GenerateSocialGraph(100, 4, 3);
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  auto edges = std::make_shared<Table>("edges", schema);
  ASSERT_OK(edges->SetColumn(0, Column::FromBigInts(g.src)));
  ASSERT_OK(edges->SetColumn(1, Column::FromBigInts(g.dst)));
  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 7;
  PageRankStats stats;
  ASSERT_OK(RunPageRank(*edges, opt, &stats).status());
  EXPECT_EQ(stats.iterations_run, 7);
  EXPECT_EQ(stats.num_vertices, g.num_vertices);
  EXPECT_EQ(stats.num_edges, g.num_edges);
  EXPECT_GE(stats.last_delta, 0.0);
}

}  // namespace
}  // namespace soda
