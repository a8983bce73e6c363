/// Tests for the physical k-Means operator (paper §6.1) and its lambda
/// variation points (§7).

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/kmeans.h"
#include "expr/evaluator.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/data_chunk.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace soda {
namespace {

TablePtr MakePoints(const std::vector<std::vector<double>>& rows) {
  Schema schema;
  for (size_t j = 0; j < rows[0].size(); ++j) {
    schema.AddField(Field("x" + std::to_string(j + 1), DataType::kDouble));
  }
  auto t = std::make_shared<Table>("pts", schema);
  for (const auto& row : rows) {
    std::vector<Value> vals;
    for (double v : row) vals.push_back(Value::Double(v));
    EXPECT_TRUE(t->AppendRow(vals).ok());
  }
  return t;
}

TEST(KMeansTest, TwoObviousClusters) {
  auto data = MakePoints({{0, 0}, {1, 0}, {0, 1}, {10, 10}, {11, 10}, {10, 11}});
  auto centers = MakePoints({{0, 0}, {10, 10}});
  KMeansOptions opt;
  opt.max_iterations = 10;
  auto r = RunKMeans(*data, *centers, opt);
  ASSERT_OK(r.status());
  EXPECT_TRUE(r->converged);
  ASSERT_EQ(r->centers->num_rows(), 2u);
  EXPECT_NEAR(r->centers->column(1).GetDouble(0), 1.0 / 3, 1e-9);
  EXPECT_NEAR(r->centers->column(2).GetDouble(0), 1.0 / 3, 1e-9);
  EXPECT_NEAR(r->centers->column(1).GetDouble(1), 31.0 / 3, 1e-9);
}

TEST(KMeansTest, OutputSchemaHasClusterColumn) {
  auto data = MakePoints({{1, 2}, {3, 4}});
  auto centers = MakePoints({{0, 0}});
  auto r = RunKMeans(*data, *centers, {});
  ASSERT_OK(r.status());
  EXPECT_EQ(r->centers->schema().field(0).name, "cluster");
  EXPECT_EQ(r->centers->schema().field(0).type, DataType::kBigInt);
  EXPECT_EQ(r->centers->num_columns(), 3u);
  EXPECT_EQ(r->centers->column(0).GetBigInt(0), 0);
}

TEST(KMeansTest, SingleClusterConvergesToMean) {
  auto data = MakePoints({{1, 1}, {3, 3}, {5, 5}});
  auto centers = MakePoints({{100, 100}});
  KMeansOptions opt;
  opt.max_iterations = 5;
  auto r = RunKMeans(*data, *centers, opt);
  ASSERT_OK(r.status());
  EXPECT_NEAR(r->centers->column(1).GetDouble(0), 3.0, 1e-9);
  EXPECT_NEAR(r->centers->column(2).GetDouble(0), 3.0, 1e-9);
  EXPECT_TRUE(r->converged);
  EXPECT_LE(r->iterations_run, 3);
}

TEST(KMeansTest, EmptyClusterKeepsItsCenter) {
  // A center far away from all points attracts nothing and must not move
  // (nor produce NaNs).
  auto data = MakePoints({{0, 0}, {1, 1}});
  auto centers = MakePoints({{0.5, 0.5}, {1000, 1000}});
  KMeansOptions opt;
  opt.max_iterations = 3;
  auto r = RunKMeans(*data, *centers, opt);
  ASSERT_OK(r.status());
  EXPECT_DOUBLE_EQ(r->centers->column(1).GetDouble(1), 1000.0);
  EXPECT_FALSE(std::isnan(r->centers->column(1).GetDouble(0)));
}

TEST(KMeansTest, MaxIterationsRespected) {
  Rng rng(4);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  auto data = MakePoints(rows);
  auto centers = MakePoints({rows[0], rows[1], rows[2], rows[3], rows[4]});
  KMeansOptions opt;
  opt.max_iterations = 2;
  auto r = RunKMeans(*data, *centers, opt);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->iterations_run, 2);
}

TEST(KMeansTest, InputValidation) {
  auto data = MakePoints({{1, 2}});
  auto centers1 = MakePoints({{1}});
  EXPECT_FALSE(RunKMeans(*data, *centers1, {}).ok());  // dim mismatch
  Table empty("e", data->schema());
  EXPECT_FALSE(RunKMeans(*data, empty, {}).ok());  // no centers
  KMeansOptions bad;
  bad.max_iterations = -1;
  EXPECT_FALSE(RunKMeans(*data, *MakePoints({{0, 0}}), bad).ok());
  // Non-numeric column.
  Table strings("s", Schema({Field("s", DataType::kVarchar)}));
  ASSERT_OK(strings.AppendRow({Value::Varchar("x")}));
  EXPECT_FALSE(RunKMeans(strings, *MakePoints({{0.0}}), {}).ok());
}

TEST(KMeansTest, IntegerColumnsAccepted) {
  Schema schema({Field("a", DataType::kBigInt), Field("b", DataType::kBigInt)});
  auto t = std::make_shared<Table>("ints", schema);
  ASSERT_OK(t->AppendRow({Value::BigInt(0), Value::BigInt(0)}));
  ASSERT_OK(t->AppendRow({Value::BigInt(10), Value::BigInt(10)}));
  auto centers = MakePoints({{0, 0}, {10, 10}});
  auto r = RunKMeans(*t, *centers, {});
  ASSERT_OK(r.status());
  EXPECT_EQ(r->centers->num_rows(), 2u);
}

/// The bound lambda body |a-b|_1 over d dims (k-Medians-style distance
/// from §7).
ExprPtr L1Body(size_t d) {
  ExprPtr sum;
  for (size_t j = 0; j < d; ++j) {
    std::vector<ExprPtr> args;
    args.push_back(Expression::Binary(
        BinaryOp::kSub, Expression::ColumnRef(j, DataType::kDouble, "a"),
        Expression::ColumnRef(d + j, DataType::kDouble, "b"),
        DataType::kDouble));
    auto abs_e = Expression::Function("abs", std::move(args),
                                      DataType::kDouble);
    sum = sum ? Expression::Binary(BinaryOp::kAdd, std::move(sum),
                                   std::move(abs_e), DataType::kDouble)
              : std::move(abs_e);
  }
  return sum;
}

ExprPtr L2Body(size_t d) {
  ExprPtr sum;
  for (size_t j = 0; j < d; ++j) {
    auto diff = Expression::Binary(
        BinaryOp::kSub, Expression::ColumnRef(j, DataType::kDouble, "a"),
        Expression::ColumnRef(d + j, DataType::kDouble, "b"),
        DataType::kDouble);
    auto sq = Expression::Binary(BinaryOp::kPow, std::move(diff),
                                 Expression::Literal(Value::BigInt(2)),
                                 DataType::kDouble);
    sum = sum ? Expression::Binary(BinaryOp::kAdd, std::move(sum),
                                   std::move(sq), DataType::kDouble)
              : std::move(sq);
  }
  return sum;
}

TEST(KMeansTest, LambdaL2MatchesBuiltinExactly) {
  // A λ-provided squared-L2 must reproduce the built-in default bit for
  // bit (the §7 claim: lambdas change semantics only, not correctness).
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100),
                    rng.Uniform(0, 100)});
  }
  auto data = MakePoints(rows);
  auto centers = MakePoints({rows[0], rows[10], rows[20]});
  KMeansOptions builtin;
  builtin.max_iterations = 5;
  auto a = RunKMeans(*data, *centers, builtin);
  ASSERT_OK(a.status());

  ExprPtr l2 = L2Body(3);
  KMeansOptions with_lambda;
  with_lambda.max_iterations = 5;
  with_lambda.distance = l2.get();
  auto b = RunKMeans(*data, *centers, with_lambda);
  ASSERT_OK(b.status());

  ASSERT_EQ(a->centers->num_rows(), b->centers->num_rows());
  for (size_t r = 0; r < a->centers->num_rows(); ++r) {
    for (size_t c = 1; c < a->centers->num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(a->centers->column(c).GetDouble(r),
                       b->centers->column(c).GetDouble(r));
    }
  }
}

TEST(KMeansTest, ManhattanLambdaChangesAssignments) {
  // Points chosen so L1 and L2 argmin disagree: (3.5, 0) vs centers
  // (0,0) and (2.4, 2.4):  L2: d0 = 12.25 > d1 = 1.21+5.76=6.97 -> c1;
  // L1: d0 = 3.5 < d1 = 1.1+2.4 = 3.5 ... make it strict: point (4, 0):
  // L2: d0=16, d1=2.56+5.76=8.32 -> c1; L1: d0=4, d1=1.6+2.4=4.0 (tie);
  // use (3.8, 0): L2: 14.44 vs 1.96+5.76=7.72 -> c1. L1: 3.8 vs
  // 1.4+2.4=3.8 (tie again, ha). Use center (2.5, 2.5), point (4.2, 0):
  // L2: 17.64 vs 2.89+6.25=9.14 -> c1; L1: 4.2 vs 1.7+2.5=4.2... ties are
  // a property of l1 geometry here; pick asymmetric point (4.2, 0.3):
  // L2: 17.64+0.09=17.73 vs 2.89+4.84=7.73 -> c1. L1: 4.5 vs 3.9 -> c1.
  // Instead verify on aggregate: with max_iter=1 and well-spread data the
  // two metrics produce different centers.
  Rng rng(21);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  auto data = MakePoints(rows);
  auto centers = MakePoints({{2, 2}, {8, 8}, {2, 8}});
  ExprPtr l1 = L1Body(2);
  ExprPtr l2 = L2Body(2);
  KMeansOptions o1, o2;
  o1.max_iterations = o2.max_iterations = 4;
  o1.distance = l1.get();
  o2.distance = l2.get();
  auto a = RunKMeans(*data, *centers, o1);
  auto b = RunKMeans(*data, *centers, o2);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  bool any_diff = false;
  for (size_t r = 0; r < a->centers->num_rows(); ++r) {
    for (size_t c = 1; c < a->centers->num_columns(); ++c) {
      if (std::fabs(a->centers->column(c).GetDouble(r) -
                    b->centers->column(c).GetDouble(r)) > 1e-9) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(KMeansTest, ParallelMatchesSerialExactly) {
  // Thread-local accumulation + merge must be numerically identical to a
  // serial run (sums are added in a fixed merge order).
  Rng rng(33);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto data = MakePoints(rows);
  auto centers = MakePoints({rows[0], rows[1], rows[2], rows[3]});
  KMeansOptions opt;
  opt.max_iterations = 3;
  auto parallel = RunKMeans(*data, *centers, opt);
  ASSERT_OK(parallel.status());
  KMeansResult serial;
  {
    ScopedSerialExecution serial_scope;
    auto r = RunKMeans(*data, *centers, opt);
    ASSERT_OK(r.status());
    serial = std::move(*r);
  }
  for (size_t r = 0; r < parallel->centers->num_rows(); ++r) {
    for (size_t c = 1; c < parallel->centers->num_columns(); ++c) {
      EXPECT_NEAR(parallel->centers->column(c).GetDouble(r),
                  serial.centers->column(c).GetDouble(r), 1e-9)
          << "center " << r << " dim " << c;
    }
  }
}

/// `rows` as a table of `type` columns x1..xd.
TablePtr MakeTable(const std::vector<std::vector<double>>& rows,
                   DataType type) {
  Schema schema;
  for (size_t j = 0; j < rows[0].size(); ++j) {
    schema.AddField(Field("x" + std::to_string(j + 1), type));
  }
  auto t = std::make_shared<Table>("pts", schema);
  for (size_t j = 0; j < rows[0].size(); ++j) {
    Column col(type);
    for (const auto& row : rows) {
      if (type == DataType::kBigInt) {
        col.AppendBigInt(static_cast<int64_t>(row[j]));
      } else {
        col.AppendDouble(row[j]);
      }
    }
    EXPECT_OK(t->SetColumn(j, std::move(col)));
  }
  return t;
}

/// Nearest center per row, one row at a time: the sum over dimensions, in
/// order, of w_j * (x_j - c_j)^2 (or w_j * |x_j - c_j|), and the first
/// strictly smaller distance in center order.
std::vector<uint32_t> ReferenceAssign(
    const std::vector<std::vector<double>>& rows,
    const std::vector<std::vector<double>>& centers, bool squared,
    const std::vector<double>& w) {
  std::vector<uint32_t> out;
  for (const auto& row : rows) {
    uint32_t best = 0;
    double best_dist = INFINITY;
    for (size_t c = 0; c < centers.size(); ++c) {
      double dist = 0;
      for (size_t j = 0; j < row.size(); ++j) {
        const double t = row[j] - centers[c][j];
        dist += squared ? w[j] * t * t : w[j] * std::fabs(t);
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = static_cast<uint32_t>(c);
      }
    }
    out.push_back(best);
  }
  return out;
}

/// abs(a1-b1) + 2.5 * abs(b2-a2) + 0.5 * abs(a3-b3) over 3 dimensions.
ExprPtr WeightedL1Body() {
  const double weights[3] = {1.0, 2.5, 0.5};
  ExprPtr sum;
  for (size_t j = 0; j < 3; ++j) {
    auto a = Expression::ColumnRef(j, DataType::kDouble, "a");
    auto b = Expression::ColumnRef(3 + j, DataType::kDouble, "b");
    std::vector<ExprPtr> args;
    args.push_back(j == 1 ? Expression::Binary(BinaryOp::kSub, std::move(b),
                                               std::move(a), DataType::kDouble)
                          : Expression::Binary(BinaryOp::kSub, std::move(a),
                                               std::move(b), DataType::kDouble));
    ExprPtr term =
        Expression::Function("abs", std::move(args), DataType::kDouble);
    if (weights[j] != 1.0) {
      term = Expression::Binary(BinaryOp::kMul,
                                Expression::Literal(Value::Double(weights[j])),
                                std::move(term), DataType::kDouble);
    }
    sum = sum ? Expression::Binary(BinaryOp::kAdd, std::move(sum),
                                   std::move(term), DataType::kDouble)
              : std::move(term);
  }
  return sum;
}

TEST(KMeansTest, AssignmentsMatchReferenceAcrossBlockAndStripeEdges) {
  // Row counts below one 256-row block, at one block, and past two 16,384-
  // row stripes with a ragged tail; k above the block width too. The
  // built-in L2, the L2 lambda and a weighted L1 lambda (one b - a term)
  // all assign exactly as the row-at-a-time reference.
  ExprPtr l2 = L2Body(3);
  ExprPtr l1 = WeightedL1Body();
  ASSERT_TRUE(PerDimensionForm(*l2, 3).has_value());
  ASSERT_TRUE(PerDimensionForm(*l1, 3).has_value());
  Rng rng(41);
  for (const size_t n : {size_t{7}, size_t{256}, size_t{2 * 16384 + 300 + 7}}) {
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100),
                      rng.Uniform(-50, 50)});
    }
    for (const size_t k : {size_t{1}, size_t{5}, size_t{300}}) {
      std::vector<std::vector<double>> ctrs;
      for (size_t c = 0; c < k; ++c) {
        ctrs.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100),
                        rng.Uniform(-50, 50)});
      }
      const auto data = MakeTable(rows, DataType::kDouble);
      const auto centers = MakeTable(ctrs, DataType::kDouble);
      const auto l2_ref = ReferenceAssign(rows, ctrs, true, {1, 1, 1});
      const auto l1_ref = ReferenceAssign(rows, ctrs, false, {1, 2.5, 0.5});
      auto builtin = AssignClusters(*data, *centers, nullptr);
      auto with_l2 = AssignClusters(*data, *centers, l2.get());
      auto with_l1 = AssignClusters(*data, *centers, l1.get());
      ASSERT_OK(builtin.status());
      ASSERT_OK(with_l2.status());
      ASSERT_OK(with_l1.status());
      EXPECT_EQ(*builtin, l2_ref) << "n=" << n << " k=" << k;
      EXPECT_EQ(*with_l2, l2_ref) << "n=" << n << " k=" << k;
      EXPECT_EQ(*with_l1, l1_ref) << "n=" << n << " k=" << k;

      // One round moves every center to the mean of its reference members.
      KMeansOptions one_round;
      one_round.max_iterations = 1;
      one_round.distance = l1.get();
      auto r = RunKMeans(*data, *centers, one_round);
      ASSERT_OK(r.status());
      std::vector<std::vector<double>> sums(k, std::vector<double>(3, 0.0));
      std::vector<size_t> counts(k, 0);
      for (size_t i = 0; i < n; ++i) {
        counts[l1_ref[i]]++;
        for (size_t j = 0; j < 3; ++j) sums[l1_ref[i]][j] += rows[i][j];
      }
      for (size_t c = 0; c < k; ++c) {
        for (size_t j = 0; j < 3; ++j) {
          const double expected =
              counts[c] ? sums[c][j] / static_cast<double>(counts[c])
                        : ctrs[c][j];
          EXPECT_NEAR(r->centers->column(j + 1).GetDouble(c), expected,
                      1e-9 * (1 + std::fabs(expected)))
              << "n=" << n << " k=" << k << " center " << c;
        }
      }
    }
  }
}

TEST(KMeansTest, BigIntColumnsMatchDoubleColumns) {
  // Integer values read from BIGINT columns give the same centers, bit for
  // bit, as the same values in DOUBLE columns; d = 1 and k = 1 included.
  Rng rng(43);
  for (const size_t d : {size_t{1}, size_t{3}}) {
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < 20000; ++i) {
      std::vector<double> row;
      for (size_t j = 0; j < d; ++j) {
        row.push_back(static_cast<double>(rng.Below(1000)) - 300);
      }
      rows.push_back(std::move(row));
    }
    for (const size_t k : {size_t{1}, size_t{4}}) {
      const std::vector<std::vector<double>> ctrs(rows.begin(),
                                                  rows.begin() + k);
      KMeansOptions opt;
      opt.max_iterations = 4;
      auto ints = RunKMeans(*MakeTable(rows, DataType::kBigInt),
                            *MakeTable(ctrs, DataType::kBigInt), opt);
      auto doubles = RunKMeans(*MakeTable(rows, DataType::kDouble),
                               *MakeTable(ctrs, DataType::kDouble), opt);
      ASSERT_OK(ints.status());
      ASSERT_OK(doubles.status());
      EXPECT_EQ(ints->iterations_run, doubles->iterations_run);
      for (size_t c = 0; c < k; ++c) {
        for (size_t j = 1; j <= d; ++j) {
          EXPECT_EQ(ints->centers->column(j).GetDouble(c),
                    doubles->centers->column(j).GetDouble(c))
              << "d=" << d << " k=" << k << " center " << c;
        }
      }
    }
  }
}

TEST(KMeansTest, TiesGoToTheLowestCenter) {
  // Centers 0 and 1 coincide: every tie goes to center 0, so in the first
  // round center 1 attracts nothing and keeps its position, under every
  // metric. The second center set repeats centers 0 and 2 after 16 far
  // ones, so the ties also span the kernel's tiles of centers.
  auto data = MakePoints({{0, 0, 0}, {1, 1, 1}, {2, 0, 1}, {9, 9, 9}});
  std::vector<std::vector<double>> many = {{1, 1, 1}, {1, 1, 1}, {9, 9, 9}};
  for (int c = 0; c < 16; ++c) many.push_back({100.0 + c, 100, 100});
  many.push_back({1, 1, 1});
  many.push_back({9, 9, 9});
  ExprPtr l1 = WeightedL1Body();
  ExprPtr l2 = L2Body(3);
  const std::vector<const Expression*> distances = {nullptr, l1.get(),
                                                  l2.get()};
  for (const auto& centers :
       {MakePoints({{1, 1, 1}, {1, 1, 1}, {9, 9, 9}}),
        MakePoints(many)}) {
    for (const Expression* distance : distances) {
      auto assign = AssignClusters(*data, *centers, distance);
      ASSERT_OK(assign.status());
      EXPECT_EQ(*assign, (std::vector<uint32_t>{0, 0, 0, 2}));
      KMeansOptions opt;
      opt.max_iterations = 1;
      opt.distance = distance;
      auto r = RunKMeans(*data, *centers, opt);
      ASSERT_OK(r.status());
      for (size_t j = 1; j <= 3; ++j) {
        EXPECT_EQ(r->centers->column(j).GetDouble(1), 1.0);
      }
    }
  }
}

/// Column ref i of a lambda over two 2-wide tuples: a = 0, 1 and b = 2, 3.
ExprPtr Col(size_t i) {
  return Expression::ColumnRef(i, DataType::kDouble, "c" + std::to_string(i));
}

/// w * (x - y)^2, or w * abs(x - y) when not `squared`, over column refs
/// x and y of the concatenated (a, b) tuple; w == 1 leaves the factor out.
ExprPtr Term(bool squared, size_t x, size_t y, double w = 1.0) {
  ExprPtr diff =
      Expression::Binary(BinaryOp::kSub, Col(x), Col(y), DataType::kDouble);
  ExprPtr core;
  if (squared) {
    core = Expression::Binary(BinaryOp::kPow, std::move(diff),
                              Expression::Literal(Value::BigInt(2)),
                              DataType::kDouble);
  } else {
    std::vector<ExprPtr> args;
    args.push_back(std::move(diff));
    core = Expression::Function("abs", std::move(args), DataType::kDouble);
  }
  if (w == 1.0) return core;
  return Expression::Binary(BinaryOp::kMul,
                            Expression::Literal(Value::Double(w)),
                            std::move(core), DataType::kDouble);
}

/// Left-deep sum of the terms.
template <typename... T>
ExprPtr Sum(ExprPtr first, T... rest) {
  ExprPtr sum = std::move(first);
  ((sum = Expression::Binary(BinaryOp::kAdd, std::move(sum), std::move(rest),
                             DataType::kDouble)),
   ...);
  return sum;
}

/// `body` evaluated at a = (1.25, -2), b = (4, 7.5).
double EvalAtSamplePair(const Expression& body) {
  DataChunk chunk;
  for (double v : {1.25, -2.0, 4.0, 7.5}) {
    chunk.AddColumn(Column::FromDoubles({v}));
  }
  Column out;
  EXPECT_OK(EvaluateExpression(body, chunk, &out));
  return out.GetDouble(0);
}

TEST(KMeansTest, PerDimensionFormReportsWeights) {
  struct Case {
    const char* what;
    ExprPtr body;
    bool squared;
    std::vector<double> weights;
  };
  std::vector<Case> cases;
  cases.push_back({"unit L2", Sum(Term(true, 0, 2), Term(true, 1, 3)), true,
                   {1, 1}});
  cases.push_back({"weighted L2",
                   Sum(Term(true, 0, 2, 4.0), Term(true, 1, 3, 0.5)), true,
                   {4, 0.5}});
  cases.push_back({"weighted L1",
                   Sum(Term(false, 0, 2, 2.0), Term(false, 1, 3, 3.0)), false,
                   {2, 3}});
  cases.push_back({"b - a orientation",
                   Sum(Term(true, 2, 0), Term(true, 1, 3, 1.5)), true,
                   {1, 1.5}});
  cases.push_back({"reversed term order",
                   Sum(Term(false, 3, 1, 3.0), Term(false, 0, 2)), false,
                   {1, 3}});
  const double a[2] = {1.25, -2};
  const double b[2] = {4, 7.5};
  for (const Case& c : cases) {
    const auto form = PerDimensionForm(*c.body, 2);
    ASSERT_TRUE(form.has_value()) << c.what;
    EXPECT_EQ(form->squared, c.squared) << c.what;
    EXPECT_EQ(form->weights, c.weights) << c.what;
    // The weights reproduce the body.
    double dist = 0;
    for (size_t j = 0; j < 2; ++j) {
      const double t = a[j] - b[j];
      dist += form->squared ? form->weights[j] * t * t
                            : form->weights[j] * std::fabs(t);
    }
    EXPECT_DOUBLE_EQ(EvalAtSamplePair(*c.body), dist) << c.what;
  }
  ExprPtr l2 = L2Body(4);
  ASSERT_TRUE(PerDimensionForm(*l2, 4).has_value());
  EXPECT_EQ(PerDimensionForm(*l2, 4)->weights, std::vector<double>(4, 1.0));
  // The form is per width: a 4-wide body has no 3-wide form.
  EXPECT_FALSE(PerDimensionForm(*l2, 3).has_value());
}

TEST(KMeansTest, PerDimensionFormDeclinesOtherShapes) {
  std::vector<std::pair<const char*, ExprPtr>> cases;
  cases.emplace_back("cross index", Sum(Term(true, 0, 3), Term(true, 1, 2)));
  cases.emplace_back("missing dimension", Term(true, 0, 2));
  cases.emplace_back("repeated dimension",
                     Sum(Term(true, 0, 2), Term(true, 2, 0, 2.0)));
  cases.emplace_back("one tuple only",
                     Sum(Term(true, 0, 1), Term(true, 2, 3)));
  cases.emplace_back("mixed families",
                     Sum(Term(false, 0, 2), Term(true, 1, 3)));
  for (const auto& [what, body] : cases) {
    EXPECT_FALSE(PerDimensionForm(*body, 2).has_value()) << what;
  }
}

TEST(KMeansTest, LambdaMeansWhatSelectMeans) {
  // A lambda body means in KMEANS what the same expression means in a
  // SELECT: AssignClusters equals the argmin, in center order with a
  // strict <, of the body evaluated by SELECT against each center's
  // coordinates as literals, where a NULL or NaN distance never wins. The
  // points include NaN, -0.0, exact ties and values that CAST truncates.
  Engine engine;
  std::vector<double> x1, x2;
  Rng rng(47);
  for (size_t i = 0; i < 3000; ++i) {
    x1.push_back(rng.Uniform(-6, 6));
    x2.push_back(static_cast<double>(rng.Below(9)) * 0.5 - 2);
  }
  x1[7] = std::nan("");
  x2[11] = std::nan("");
  x1[13] = -0.0;
  x1[17] = 1.5;  // on center 0
  x2[17] = -0.25;
  std::vector<int64_t> ids(x1.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  auto pts = engine.catalog().CreateTable(
      "pts", Schema({Field("id", DataType::kBigInt),
                     Field("x1", DataType::kDouble),
                     Field("x2", DataType::kDouble)}));
  ASSERT_OK(pts.status());
  ASSERT_OK((*pts)->SetColumn(0, Column::FromBigInts(ids)));
  ASSERT_OK((*pts)->SetColumn(1, Column::FromDoubles(x1)));
  ASSERT_OK((*pts)->SetColumn(2, Column::FromDoubles(x2)));
  const Schema xy({Field("x1", DataType::kDouble),
                   Field("x2", DataType::kDouble)});
  const std::vector<std::vector<std::string>> centers = {
      {"1.5", "-0.25"}, {"3.75", "2.5"}, {"-2.125", "0.5"}, {"0.5", "4.0"}};
  auto ctr = engine.catalog().CreateTable("ctr", xy);
  ASSERT_OK(ctr.status());
  for (const auto& c : centers) {
    ASSERT_OK((*ctr)->AppendRow(
        {Value::Double(std::stod(c[0])), Value::Double(std::stod(c[1]))}));
  }
  auto points = std::make_shared<Table>("points", xy);
  ASSERT_OK(points->SetColumn(0, Column::FromDoubles(x1)));
  ASSERT_OK(points->SetColumn(1, Column::FromDoubles(x2)));

  // Bodies over {a1}, {a2} (the point) and {b1}, {b2} (the center).
  const std::vector<std::string> bodies = {
      "CASE WHEN {a1} > {b1} THEN {a1} - {b1} ELSE ({b2} - {a2}) * 2 END",
      "CASE WHEN {a2} <= {b2} AND {a1} <> {b1} THEN 1.0 ELSE 2.0 END + "
      "abs({a1} - {b1})",
      "CASE WHEN {a1} < {b1} THEN abs({a2} - {b2}) END",
      "abs(({a1} - {b1}) % 2.5) + abs({a2} - {b2}) % 3",
      "sqrt({a1} - {b1}) + abs({a2} - {b2})",
      "CAST(({a1} - {b1}) * 3 AS BIGINT) * CAST(({a1} - {b1}) * 3 AS "
      "BIGINT) + abs({a2} - {b2})",
      "CAST(abs({a1} - {b1}) + abs({a2} - {b2}) AS BIGINT)",
      "greatest(abs({a1} - {b1}), abs({a2} - {b2}))",
      "least(abs({a1} - {b1}) + 0.5, abs({a2} - {b2}), 3.0)",
      "({a1} - {b1}) / ({a2} - {b2})",
  };
  auto fill = [](std::string text, const std::string& a1,
                 const std::string& a2, const std::string& b1,
                 const std::string& b2) {
    for (const auto& [from, to] : std::vector<std::pair<std::string,
                                                        std::string>>{
             {"{a1}", a1}, {"{a2}", a2}, {"{b1}", b1}, {"{b2}", b2}}) {
      for (size_t at = text.find(from); at != std::string::npos;
           at = text.find(from, at + to.size())) {
        text.replace(at, from.size(), to);
      }
    }
    return text;
  };
  for (const std::string& body : bodies) {
    // The reference: one SELECT per center, folded in center order.
    std::vector<uint32_t> expected(x1.size(), 0);
    std::vector<double> best(x1.size(), INFINITY);
    for (size_t c = 0; c < centers.size(); ++c) {
      const std::string expr = "(" +
                               fill(body, "x1", "x2", "(" + centers[c][0] +
                                    ")", "(" + centers[c][1] + ")") +
                               ") * 1.0";
      QueryResult r =
          testing::RunQuery(engine, "SELECT " + expr + " FROM pts ORDER BY id");
      ASSERT_EQ(r.num_rows(), x1.size()) << expr;
      for (size_t i = 0; i < x1.size(); ++i) {
        if (!r.IsNull(i, 0) && r.GetDouble(i, 0) < best[i]) {
          best[i] = r.GetDouble(i, 0);
          expected[i] = static_cast<uint32_t>(c);
        }
      }
    }
    // The lambda, bound as KMEANS binds it.
    const std::string sql =
        "SELECT * FROM KMEANS((SELECT x1, x2 FROM pts), "
        "(SELECT x1, x2 FROM ctr), λ(a, b) " +
        fill(body, "a.x1", "a.x2", "b.x1", "b.x2") + ", 1)";
    auto stmt = ParseStatement(sql);
    ASSERT_OK(stmt.status());
    Binder binder(&engine.catalog());
    auto plan = binder.BindSelectStatement(*stmt->select);
    ASSERT_OK(plan.status());
    const PlanNode* fn = plan->get();
    while (fn->kind != PlanKind::kTableFunction) fn = fn->children[0].get();
    ASSERT_EQ(fn->lambdas.size(), 1u);
    EXPECT_FALSE(PerDimensionForm(*fn->lambdas[0].body, 2).has_value());
    auto assign = AssignClusters(*points, **ctr, fn->lambdas[0].body.get());
    ASSERT_OK(assign.status());
    EXPECT_EQ(*assign, expected) << body;
  }
}

TEST(KMeansTest, AssignClustersConsistentWithTraining) {
  auto data = MakePoints({{0, 0}, {1, 1}, {10, 10}, {11, 11}});
  auto centers = MakePoints({{0.5, 0.5}, {10.5, 10.5}});
  auto assign = AssignClusters(*data, *centers, nullptr);
  ASSERT_OK(assign.status());
  EXPECT_EQ(*assign, (std::vector<uint32_t>{0, 0, 1, 1}));
}

}  // namespace
}  // namespace soda
