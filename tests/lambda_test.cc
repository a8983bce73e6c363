/// Tests for analytics lambda bodies (paper §7): the bound body over two
/// tuple parameters runs on the vectorized expression evaluator, the one
/// every SQL expression uses, and k-Means' per-dimension form detector
/// recognizes the distance families its block kernel runs. (The suite
/// keeps the name it had when lambdas ran on a separate register VM.)

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/kmeans.h"
#include "expr/evaluator.h"
#include "expr/expression.h"
#include "storage/data_chunk.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace soda {
namespace {

ExprPtr A(size_t i) {
  return Expression::ColumnRef(i, DataType::kDouble, "a" + std::to_string(i));
}
ExprPtr LitD(double v) { return Expression::Literal(Value::Double(v)); }

/// Squared L2 over d dimensions: sum_j (a_j - b_j)^2, built as the bound
/// lambda body the binder produces for Listing 3.
ExprPtr SquaredL2Body(size_t d) {
  ExprPtr sum;
  for (size_t j = 0; j < d; ++j) {
    auto diff = Expression::Binary(BinaryOp::kSub, A(j), A(d + j),
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

/// `body` evaluated for one (a, b) tuple pair, as the operators feed it:
/// one DOUBLE column per tuple column.
double Eval(const Expression& body, const std::vector<double>& a,
            const std::vector<double>& b) {
  DataChunk chunk;
  for (double v : a) chunk.AddColumn(Column::FromDoubles({v}));
  for (double v : b) chunk.AddColumn(Column::FromDoubles({v}));
  Column out;
  EXPECT_OK(EvaluateExpression(body, chunk, &out));
  EXPECT_EQ(out.size(), 1u);
  return out.GetNumeric(0);
}

TEST(LambdaKernelTest, SquaredL2MatchesDirect) {
  EXPECT_DOUBLE_EQ(Eval(*SquaredL2Body(3), {1, 2, 3}, {4, 6, 3}), 9 + 16 + 0);
}

TEST(LambdaKernelTest, ManhattanDistance) {
  // abs(a0-b0) + abs(a1-b1) — the k-Medians lambda of §7.
  auto abs_diff = [](size_t x, size_t y) {
    std::vector<ExprPtr> v;
    v.push_back(
        Expression::Binary(BinaryOp::kSub, A(x), A(y), DataType::kDouble));
    return Expression::Function("abs", std::move(v), DataType::kDouble);
  };
  auto body = Expression::Binary(BinaryOp::kAdd, abs_diff(0, 2),
                                 abs_diff(1, 3), DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*body, {0, 0}, {3, -4}), 7.0);
}

TEST(LambdaKernelTest, AllArithmeticOps) {
  // ((a0 + b0) * (a0 - b0)) / (a0 % 7) with a0=5, b0=3 -> (8*2)/(5%7)=3.2
  auto body = Expression::Binary(
      BinaryOp::kDiv,
      Expression::Binary(
          BinaryOp::kMul,
          Expression::Binary(BinaryOp::kAdd, A(0), A(1), DataType::kDouble),
          Expression::Binary(BinaryOp::kSub, A(0), A(1), DataType::kDouble),
          DataType::kDouble),
      Expression::Binary(BinaryOp::kMod, A(0), LitD(7), DataType::kDouble),
      DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*body, {5}, {3}), 16.0 / 5.0);
}

TEST(LambdaKernelTest, ComparisonsAndLogic) {
  // (a0 > b0 AND a0 <= 10) produces 1 / 0.
  auto body = Expression::Binary(
      BinaryOp::kAnd,
      Expression::Binary(BinaryOp::kGt, A(0), A(1), DataType::kBool),
      Expression::Binary(BinaryOp::kLe, A(0), LitD(10), DataType::kBool),
      DataType::kBool);
  EXPECT_DOUBLE_EQ(Eval(*body, {5}, {3}), 1.0);
  EXPECT_DOUBLE_EQ(Eval(*body, {11}, {3}), 0.0);
  EXPECT_DOUBLE_EQ(Eval(*body, {2}, {3}), 0.0);
}

TEST(LambdaKernelTest, CaseLowersToSelect) {
  // CASE WHEN a0 < b0 THEN a0 ELSE b0 END == min.
  std::vector<ExprPtr> kids;
  kids.push_back(
      Expression::Binary(BinaryOp::kLt, A(0), A(1), DataType::kBool));
  kids.push_back(A(0));
  kids.push_back(A(1));
  auto body = Expression::Case(std::move(kids), DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*body, {2}, {5}), 2.0);
  EXPECT_DOUBLE_EQ(Eval(*body, {5}, {2}), 2.0);
}

TEST(LambdaKernelTest, Functions) {
  // sqrt(pow(a0, 2)) == abs(a0)
  std::vector<ExprPtr> pow_args;
  pow_args.push_back(A(0));
  pow_args.push_back(LitD(2));
  std::vector<ExprPtr> sqrt_args;
  sqrt_args.push_back(Expression::Function("pow", std::move(pow_args),
                                           DataType::kDouble));
  auto body = Expression::Function("sqrt", std::move(sqrt_args),
                                   DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*body, {-3.5}, {-3.5}), 3.5);
}

TEST(LambdaKernelTest, LeastGreatestChain) {
  std::vector<ExprPtr> args;
  args.push_back(A(0));
  args.push_back(A(1));
  args.push_back(LitD(0.0));
  auto body = Expression::Function("greatest", std::move(args),
                                   DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*body, {-2}, {-5}), 0.0);
  EXPECT_DOUBLE_EQ(Eval(*body, {4}, {-5}), 4.0);
}

TEST(LambdaKernelTest, AgreesWithVectorizedEvaluatorOnRandomPrograms) {
  // Property: for random (a, b) pairs, the squared-L2 body gives the bits
  // of the direct sum over dimensions, in order, of (a_j - b_j)^2.
  constexpr size_t d = 4;
  auto body = SquaredL2Body(d);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> a(d), b(d);
    for (size_t j = 0; j < d; ++j) a[j] = rng.Uniform(-50, 50);
    for (size_t j = 0; j < d; ++j) b[j] = rng.Uniform(-50, 50);
    double direct = 0;
    for (size_t j = 0; j < d; ++j) direct += (a[j] - b[j]) * (a[j] - b[j]);
    ASSERT_EQ(Eval(*body, a, b), direct);
  }
}

TEST(LambdaKernelTest, SquaredL2IsPatternCompiled) {
  // The Listing 3 distance takes k-Means' column-blocked kernel.
  auto form = PerDimensionForm(*SquaredL2Body(4), 4);
  ASSERT_TRUE(form.has_value());
  EXPECT_TRUE(form->squared);
}

TEST(LambdaKernelTest, WeightedSquaredDiffsArePatternCompiled) {
  // 4.0 * (a0-b0)^2 + (a1-b1)^2
  auto sq = [](size_t x, size_t y) {
    return Expression::Binary(
        BinaryOp::kPow,
        Expression::Binary(BinaryOp::kSub, A(x), A(y), DataType::kDouble),
        Expression::Literal(Value::BigInt(2)), DataType::kDouble);
  };
  auto weighted = Expression::Binary(
      BinaryOp::kAdd,
      Expression::Binary(BinaryOp::kMul, LitD(4.0), sq(0, 2),
                         DataType::kDouble),
      sq(1, 3), DataType::kDouble);
  auto form = PerDimensionForm(*weighted, 2);
  ASSERT_TRUE(form.has_value());
  EXPECT_EQ(form->weights, (std::vector<double>{4, 1}));
  EXPECT_DOUBLE_EQ(Eval(*weighted, {1, 1}, {3, 2}), 4.0 * 4.0 + 1.0);
}

TEST(LambdaKernelTest, MixedFamiliesFallBackToVm) {
  // abs(a0-b0) + (a1-b1)^2: mixed term families have no per-dimension
  // form, so k-Means evaluates them on the evaluator, which is exact.
  std::vector<ExprPtr> abs_args;
  abs_args.push_back(
      Expression::Binary(BinaryOp::kSub, A(0), A(2), DataType::kDouble));
  auto mixed = Expression::Binary(
      BinaryOp::kAdd,
      Expression::Function("abs", std::move(abs_args), DataType::kDouble),
      Expression::Binary(BinaryOp::kPow,
                         Expression::Binary(BinaryOp::kSub, A(1), A(3),
                                            DataType::kDouble),
                         Expression::Literal(Value::BigInt(2)),
                         DataType::kDouble),
      DataType::kDouble);
  EXPECT_FALSE(PerDimensionForm(*mixed, 2).has_value());
  EXPECT_DOUBLE_EQ(Eval(*mixed, {1, 1}, {4, 3}), 3.0 + 4.0);
}

TEST(LambdaKernelTest, PowFastPathMatchesStdPow) {
  // ^2 multiplies; ^2.5 goes through std::pow.
  auto sq = Expression::Binary(BinaryOp::kPow, A(0), LitD(2.0),
                               DataType::kDouble);
  auto frac = Expression::Binary(BinaryOp::kPow, A(0), LitD(2.5),
                                 DataType::kDouble);
  EXPECT_DOUBLE_EQ(Eval(*sq, {3.0}, {}), 9.0);
  EXPECT_DOUBLE_EQ(Eval(*frac, {3.0}, {}), std::pow(3.0, 2.5));
}

}  // namespace
}  // namespace soda
