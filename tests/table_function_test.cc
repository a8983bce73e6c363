/// Tests for the SQL surface of the analytics operators (paper §6,
/// Listings 2 and 3): table functions composed with relational pre- and
/// post-processing in a single query.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::RunQuery;

class TableFunctionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Paper Listing 3's schema.
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE data (x FLOAT, y INTEGER, z FLOAT, "
                           "descr VARCHAR(500))")
                  .status());
    ASSERT_OK(engine_
                  .Execute("INSERT INTO data VALUES "
                           "(0.0, 0, 0.0, 'a'), (1.0, 0, 0.0, 'b'), "
                           "(0.0, 1, 0.0, 'c'), (10.0, 10, 0.0, 'd'), "
                           "(11.0, 10, 0.0, 'e'), (10.0, 11, 0.0, 'f')")
                  .status());
    ASSERT_OK(engine_.Execute("CREATE TABLE center (x FLOAT, y INTEGER)")
                  .status());
    ASSERT_OK(engine_.Execute("INSERT INTO center VALUES (0.0, 0), (10.0, 10)")
                  .status());
    ASSERT_OK(engine_.Execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("INSERT INTO edges VALUES (1,2), (2,1), (2,3), "
                           "(3,2), (3,1), (1,3), (4,1)")
                  .status());
  }
  Engine engine_;
};

TEST_F(TableFunctionTest, PaperListing3KMeansWithLambda) {
  auto r = RunQuery(engine_,
               "SELECT * FROM KMEANS ("
               "  (SELECT x, y FROM data), "
               "  (SELECT x, y FROM center), "
               "  λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, "
               "  3) ORDER BY cluster");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.schema().field(0).name, "cluster");
  EXPECT_NEAR(r.GetDouble(0, 1), 1.0 / 3, 1e-9);
  EXPECT_NEAR(r.GetDouble(1, 1), 31.0 / 3, 1e-9);
}

TEST_F(TableFunctionTest, KMeansDefaultLambdaIsSquaredL2) {
  auto with_lambda = RunQuery(engine_,
                         "SELECT * FROM KMEANS((SELECT x, y FROM data), "
                         "(SELECT x, y FROM center), "
                         "λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, 3) "
                         "ORDER BY cluster");
  auto without = RunQuery(engine_,
                     "SELECT * FROM KMEANS((SELECT x, y FROM data), "
                     "(SELECT x, y FROM center), 3) ORDER BY cluster");
  ASSERT_EQ(with_lambda.num_rows(), without.num_rows());
  for (size_t i = 0; i < with_lambda.num_rows(); ++i) {
    for (size_t c = 1; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(with_lambda.GetDouble(i, c), without.GetDouble(i, c));
    }
  }
}

TEST_F(TableFunctionTest, KMeansManhattanLambda) {
  // k-Medians-style distance (§7) — must execute and produce two centers.
  auto r = RunQuery(engine_,
               "SELECT * FROM KMEANS((SELECT x, y FROM data), "
               "(SELECT x, y FROM center), "
               "λ(a, b) abs(a.x - b.x) + abs(a.y - b.y), 3)");
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST_F(TableFunctionTest, KMeansComposesWithPrePostProcessing) {
  // Pre-processing: filter the data subquery. Post-processing: aggregate
  // the operator output — all one query (paper Fig. 2a).
  auto r = RunQuery(engine_,
               "SELECT count(*) c, avg(k.x) ax FROM KMEANS("
               "(SELECT x, y FROM data WHERE x < 5.0), "
               "(SELECT x, y FROM center), 3) k");
  EXPECT_EQ(r.GetInt(0, 0), 2);
}

TEST_F(TableFunctionTest, PaperListing2PageRank) {
  auto r = RunQuery(engine_,
               "SELECT * FROM PAGERANK ((SELECT src, dest FROM edges), "
               "0.85, 0.0001) ORDER BY rank DESC");
  ASSERT_EQ(r.num_rows(), 4u);
  // Vertex 1 has the most incoming edges (2, 3, 4 point to it).
  EXPECT_EQ(r.GetInt(0, 0), 1);
  double sum = 0;
  for (size_t i = 0; i < r.num_rows(); ++i) sum += r.GetDouble(i, 1);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(TableFunctionTest, PageRankJoinedBackToVertexNames) {
  ASSERT_OK(engine_.Execute("CREATE TABLE people (id INTEGER, name TEXT)")
                .status());
  ASSERT_OK(engine_
                .Execute("INSERT INTO people VALUES (1, 'alice'), "
                         "(2, 'bob'), (3, 'carol'), (4, 'dave')")
                .status());
  auto r = RunQuery(engine_,
               "SELECT p.name, pr.rank FROM PAGERANK("
               "(SELECT src, dest FROM edges), 0.85, 0.0, 30) pr "
               "JOIN people p ON p.id = pr.vertex ORDER BY pr.rank DESC");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.GetString(0, 0), "alice");
}

TEST_F(TableFunctionTest, PageRankEdgeWeightLambda) {
  auto r = RunQuery(engine_,
               "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
               "0.85, 0.0, 30, λ(e) 1.0 + 0.0 * e.src) ORDER BY rank DESC");
  EXPECT_EQ(r.num_rows(), 4u);
}

TEST_F(TableFunctionTest, NaiveBayesTrainAndPredictInSql) {
  ASSERT_OK(engine_
                .Execute("CREATE TABLE labeled (label INTEGER, f1 FLOAT, "
                         "f2 FLOAT)")
                .status());
  ASSERT_OK(engine_
                .Execute("INSERT INTO labeled VALUES "
                         "(0, 1.0, 1.0), (0, 2.0, 2.0), (0, 1.5, 1.2), "
                         "(1, 10.0, 10.0), (1, 11.0, 12.0), (1, 10.5, 11.0)")
                .status());
  auto model = RunQuery(engine_,
                   "SELECT * FROM NAIVE_BAYES_TRAIN("
                   "(SELECT label, f1, f2 FROM labeled)) ORDER BY class, attr");
  ASSERT_EQ(model.num_rows(), 4u);
  EXPECT_EQ(model.schema().field(0).name, "class");

  // Model feeds directly into the testing operator (paper §6.2: "the
  // results and the class labels are fed into the next operator").
  auto pred = RunQuery(engine_,
                  "SELECT * FROM NAIVE_BAYES_PREDICT("
                  "(SELECT * FROM NAIVE_BAYES_TRAIN("
                  "(SELECT label, f1, f2 FROM labeled))), "
                  "(SELECT f1, f2 FROM labeled)) ORDER BY f1");
  ASSERT_EQ(pred.num_rows(), 6u);
  EXPECT_EQ(pred.schema().field(2).name, "predicted");
  // Training data is separable: predictions match labels.
  EXPECT_EQ(pred.GetInt(0, 2), 0);
  EXPECT_EQ(pred.GetInt(5, 2), 1);
}

TEST_F(TableFunctionTest, SummarizeBuildingBlock) {
  ASSERT_OK(engine_
                .Execute("CREATE TABLE lab2 (label INTEGER, v FLOAT)")
                .status());
  ASSERT_OK(engine_
                .Execute("INSERT INTO lab2 VALUES (0, 2.0), (0, 4.0), "
                         "(1, 10.0)")
                .status());
  auto r = RunQuery(engine_,
               "SELECT class, mean, stddev FROM SUMMARIZE("
               "(SELECT label, v FROM lab2)) ORDER BY class");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1.0);  // population stddev of {2,4}
}

TEST_F(TableFunctionTest, OperatorOutputFeedsOperatorInput) {
  // Deep composition: cluster the PageRank scores (rank as 1-d vectors).
  auto r = RunQuery(engine_,
               "SELECT * FROM KMEANS("
               "(SELECT rank FROM PAGERANK((SELECT src, dest FROM edges), "
               "0.85, 0.0, 20) pr), "
               "(SELECT rank FROM PAGERANK((SELECT src, dest FROM edges), "
               "0.85, 0.0, 20) pr2 ORDER BY rank LIMIT 2), 5)");
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST_F(TableFunctionTest, IterationStatsExposedForOperators) {
  auto r = RunQuery(engine_,
               "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
               "0.85, 0.0, 12)");
  EXPECT_EQ(r.stats().iterations_run, 12u);
}

TEST_F(TableFunctionTest, BindingErrors) {
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x FROM data))",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x FROM data), "
              "(SELECT x, y FROM center))",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT descr FROM data), "
              "(SELECT descr FROM data), 1)",
              StatusCode::kTypeError);
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT x, y FROM data), 0.85)",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT x, y FROM data))",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT x FROM data), "
              "(SELECT x FROM data))",
              StatusCode::kBindError);
  // Arity: too many scalars, a second lambda, a lambda with the wrong
  // number of tuple parameters, arguments to a zero-argument function.
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
              "0.85, 0.0, 5, 1)",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
              "λ(e) 1.0, λ(e) 2.0)",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x, y FROM data), "
              "(SELECT x, y FROM center), λ(a) a.x)",
              StatusCode::kBindError);
  ExpectError(engine_,
              "SELECT * FROM SODA_STATUS((SELECT x FROM data))",
              StatusCode::kBindError);
  ExpectError(engine_, "SELECT * FROM SODA_STATUS(1)",
              StatusCode::kBindError);
  // Scalars take their declared type; NULL and text are TypeErrors, not
  // aborts inside the operator.
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), NULL)",
              StatusCode::kTypeError);
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 'abc')",
              StatusCode::kTypeError);
  ExpectError(engine_,
              "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
              "0.85, 0.0001, NULL)",
              StatusCode::kTypeError);
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x, y FROM data), "
              "(SELECT x, y FROM center), NULL)",
              StatusCode::kTypeError);
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x, y FROM data), "
              "(SELECT x, y FROM center), 3, 'abc')",
              StatusCode::kTypeError);
}

TEST_F(TableFunctionTest, ScalarArgumentsTakeTheirDeclaredType) {
  // An integer damping factor and a fractional iteration cap are cast,
  // not rejected: 1 means damping 1.0, 2.9 means two iterations.
  auto as_double = RunQuery(engine_,
                            "SELECT * FROM PAGERANK((SELECT src, dest FROM "
                            "edges), 1.0, 0.0, 2) ORDER BY vertex");
  auto as_int = RunQuery(engine_,
                         "SELECT * FROM PAGERANK((SELECT src, dest FROM "
                         "edges), 1, 0, 2.9) ORDER BY vertex");
  ASSERT_EQ(as_double.num_rows(), as_int.num_rows());
  for (size_t i = 0; i < as_double.num_rows(); ++i) {
    EXPECT_EQ(as_double.GetInt(i, 0), as_int.GetInt(i, 0));
    EXPECT_DOUBLE_EQ(as_double.GetDouble(i, 1), as_int.GetDouble(i, 1));
  }
}

TEST_F(TableFunctionTest, LambdaBindsAgainstBothTupleParameters) {
  // Mixed references: data columns through `a`, center columns through `b`
  // — with intentionally swapped names to prove qualification works.
  auto r = RunQuery(engine_,
               "SELECT * FROM KMEANS((SELECT x, y FROM data), "
               "(SELECT x, y FROM center), "
               "λ(p, q) (p.x - q.x)^2 + (p.y - q.y)^2, 3)");
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST_F(TableFunctionTest, UnknownLambdaColumnRejected) {
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x, y FROM data), "
              "(SELECT x, y FROM center), λ(a, b) a.nope, 3)",
              StatusCode::kBindError);
}

}  // namespace
}  // namespace soda
