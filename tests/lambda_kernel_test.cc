/// Tests for the lambda kernel compiler (paper §7): compiled numeric
/// programs over two tuple parameters must agree with direct evaluation.

#include <gtest/gtest.h>

#include <cmath>

#include "expr/evaluator.h"
#include "expr/expression.h"
#include "expr/lambda_kernel.h"
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

TEST(LambdaKernelTest, SquaredL2MatchesDirect) {
  const size_t d = 3;
  auto kernel = LambdaKernel::Compile(*SquaredL2Body(d), d);
  ASSERT_OK(kernel.status());
  double a[3] = {1, 2, 3};
  double b[3] = {4, 6, 3};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 9 + 16 + 0);
}

TEST(LambdaKernelTest, ManhattanDistance) {
  // abs(a0-b0) + abs(a1-b1) — the k-Medians lambda of §7.
  auto body = Expression::Binary(
      BinaryOp::kAdd,
      Expression::Function(
          "abs",
          [] {
            std::vector<ExprPtr> v;
            v.push_back(Expression::Binary(BinaryOp::kSub, A(0), A(2),
                                           DataType::kDouble));
            return v;
          }(),
          DataType::kDouble),
      Expression::Function(
          "abs",
          [] {
            std::vector<ExprPtr> v;
            v.push_back(Expression::Binary(BinaryOp::kSub, A(1), A(3),
                                           DataType::kDouble));
            return v;
          }(),
          DataType::kDouble),
      DataType::kDouble);
  auto kernel = LambdaKernel::Compile(*body, 2);
  ASSERT_OK(kernel.status());
  double a[2] = {0, 0};
  double b[2] = {3, -4};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 7.0);
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
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  double a[1] = {5};
  double b[1] = {3};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 16.0 / 5.0);
}

TEST(LambdaKernelTest, ComparisonsAndLogic) {
  // (a0 > b0 AND a0 <= 10) produces 1.0/0.0.
  auto body = Expression::Binary(
      BinaryOp::kAnd,
      Expression::Binary(BinaryOp::kGt, A(0), A(1), DataType::kBool),
      Expression::Binary(BinaryOp::kLe, A(0), LitD(10), DataType::kBool),
      DataType::kBool);
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  double a1[1] = {5}, b1[1] = {3};
  EXPECT_DOUBLE_EQ(kernel->Eval(a1, b1), 1.0);
  double a2[1] = {11};
  EXPECT_DOUBLE_EQ(kernel->Eval(a2, b1), 0.0);
  double a3[1] = {2};
  EXPECT_DOUBLE_EQ(kernel->Eval(a3, b1), 0.0);
}

TEST(LambdaKernelTest, CaseLowersToSelect) {
  // CASE WHEN a0 < b0 THEN a0 ELSE b0 END == min.
  std::vector<ExprPtr> kids;
  kids.push_back(
      Expression::Binary(BinaryOp::kLt, A(0), A(1), DataType::kBool));
  kids.push_back(A(0));
  kids.push_back(A(1));
  auto body = Expression::Case(std::move(kids), DataType::kDouble);
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  double a[1] = {2}, b[1] = {5};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 2.0);
  EXPECT_DOUBLE_EQ(kernel->Eval(b, a), 2.0);
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
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  double a[1] = {-3.5};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, a), 3.5);
}

TEST(LambdaKernelTest, LeastGreatestChain) {
  std::vector<ExprPtr> args;
  args.push_back(A(0));
  args.push_back(A(1));
  args.push_back(LitD(0.0));
  auto body = Expression::Function("greatest", std::move(args),
                                   DataType::kDouble);
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  double a[1] = {-2}, b[1] = {-5};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 0.0);
  double c[1] = {4};
  EXPECT_DOUBLE_EQ(kernel->Eval(c, b), 4.0);
}

TEST(LambdaKernelTest, RejectsStrings) {
  auto body = Expression::ColumnRef(0, DataType::kVarchar, "s");
  auto kernel = LambdaKernel::Compile(*body, 1);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kTypeError);
}

TEST(LambdaKernelTest, RejectsNullLiterals) {
  auto body = Expression::Literal(Value::Null());
  EXPECT_FALSE(LambdaKernel::Compile(*body, 0).ok());
}

TEST(LambdaKernelTest, AgreesWithVectorizedEvaluatorOnRandomPrograms) {
  // Property: for random (a, b) pairs, the kernel agrees with evaluating
  // the same bound expression through the vectorized evaluator.
  constexpr size_t d = 4;
  auto body = SquaredL2Body(d);
  auto kernel = LambdaKernel::Compile(*body, d);
  ASSERT_OK(kernel.status());

  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    double a[d], b[d];
    DataChunk chunk;
    std::vector<Column> cols;
    for (size_t j = 0; j < d; ++j) a[j] = rng.Uniform(-50, 50);
    for (size_t j = 0; j < d; ++j) b[j] = rng.Uniform(-50, 50);
    for (size_t j = 0; j < d; ++j) {
      chunk.AddColumn(Column::FromDoubles({a[j]}));
    }
    for (size_t j = 0; j < d; ++j) {
      chunk.AddColumn(Column::FromDoubles({b[j]}));
    }
    Column out;
    ASSERT_OK(EvaluateExpression(*body, chunk, &out));
    ASSERT_NEAR(kernel->Eval(a, b), out.GetDouble(0), 1e-9);
  }
}

TEST(LambdaKernelTest, SquaredL2IsPatternCompiled) {
  // The Listing 3 distance must hit the native tier (our stand-in for
  // HyPer's LLVM-compiled lambdas).
  auto kernel = LambdaKernel::Compile(*SquaredL2Body(4), 4);
  ASSERT_OK(kernel.status());
  EXPECT_TRUE(kernel->is_pattern_compiled());
}

TEST(LambdaKernelTest, WeightedSquaredDiffsArePatternCompiled) {
  // 4.0 * (a0-b0)^2 + (a1-b1)^2
  auto weighted = Expression::Binary(
      BinaryOp::kAdd,
      Expression::Binary(
          BinaryOp::kMul, LitD(4.0),
          Expression::Binary(BinaryOp::kPow,
                             Expression::Binary(BinaryOp::kSub, A(0), A(2),
                                                DataType::kDouble),
                             Expression::Literal(Value::BigInt(2)),
                             DataType::kDouble),
          DataType::kDouble),
      Expression::Binary(BinaryOp::kPow,
                         Expression::Binary(BinaryOp::kSub, A(1), A(3),
                                            DataType::kDouble),
                         Expression::Literal(Value::BigInt(2)),
                         DataType::kDouble),
      DataType::kDouble);
  auto kernel = LambdaKernel::Compile(*weighted, 2);
  ASSERT_OK(kernel.status());
  EXPECT_TRUE(kernel->is_pattern_compiled());
  double a[2] = {1, 1};
  double b[2] = {3, 2};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 4.0 * 4.0 + 1.0);
}

TEST(LambdaKernelTest, MixedFamiliesFallBackToVm) {
  // abs(a0-b0) + (a1-b1)^2: mixed term families must use the VM and still
  // be correct.
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
  auto kernel = LambdaKernel::Compile(*mixed, 2);
  ASSERT_OK(kernel.status());
  EXPECT_FALSE(kernel->is_pattern_compiled());
  double a[2] = {1, 1};
  double b[2] = {4, 3};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 3.0 + 4.0);
}

TEST(LambdaKernelTest, VmPeepholeAgreesWithUnfusedSemantics) {
  // A body the peephole rewrites ((x-y) and ^2 fusion) but that is not a
  // pure distance family: ((a0-b0)^2) * ((a0-b0)^2 + 1).
  auto sq = [&] {
    return Expression::Binary(BinaryOp::kPow,
                              Expression::Binary(BinaryOp::kSub, A(0), A(1),
                                                 DataType::kDouble),
                              Expression::Literal(Value::BigInt(2)),
                              DataType::kDouble);
  };
  auto body = Expression::Binary(
      BinaryOp::kMul, sq(),
      Expression::Binary(BinaryOp::kAdd, sq(), LitD(1.0), DataType::kDouble),
      DataType::kDouble);
  auto kernel = LambdaKernel::Compile(*body, 1);
  ASSERT_OK(kernel.status());
  EXPECT_FALSE(kernel->is_pattern_compiled());
  double a[1] = {5};
  double b[1] = {3};
  EXPECT_DOUBLE_EQ(kernel->Eval(a, b), 4.0 * 5.0);
}

/// w * (x - y)^2, or w * abs(x - y) when not `squared`, over column refs
/// x and y of the concatenated (a, b) tuple; w == 1 leaves the factor out.
ExprPtr Term(bool squared, size_t x, size_t y, double w = 1.0) {
  ExprPtr diff =
      Expression::Binary(BinaryOp::kSub, A(x), A(y), DataType::kDouble);
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
  return Expression::Binary(BinaryOp::kMul, LitD(w), std::move(core),
                            DataType::kDouble);
}

/// Left-deep sum of `terms`.
ExprPtr Sum(std::vector<ExprPtr> terms) {
  ExprPtr sum = std::move(terms[0]);
  for (size_t i = 1; i < terms.size(); ++i) {
    sum = Expression::Binary(BinaryOp::kAdd, std::move(sum),
                             std::move(terms[i]), DataType::kDouble);
  }
  return sum;
}

template <typename... T>
ExprPtr Sum(T... terms) {
  std::vector<ExprPtr> v;
  (v.push_back(std::move(terms)), ...);
  return Sum(std::move(v));
}

TEST(LambdaKernelTest, PerDimensionFormReportsWeights) {
  // Two-dimensional tuples: a = columns 0, 1 and b = columns 2, 3.
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
    auto kernel = LambdaKernel::Compile(*c.body, 2);
    ASSERT_OK(kernel.status());
    const auto form = kernel->PerDimensionForm(2);
    ASSERT_TRUE(form.has_value()) << c.what;
    EXPECT_EQ(form->squared, c.squared) << c.what;
    EXPECT_EQ(form->weights, c.weights) << c.what;
    // The weights reproduce Eval.
    double dist = 0;
    for (size_t j = 0; j < 2; ++j) {
      const double t = a[j] - b[j];
      dist += form->squared ? form->weights[j] * t * t
                            : form->weights[j] * std::fabs(t);
    }
    EXPECT_DOUBLE_EQ(kernel->Eval(a, b), dist) << c.what;
  }
  auto l2 = LambdaKernel::Compile(*SquaredL2Body(4), 4);
  ASSERT_OK(l2.status());
  ASSERT_TRUE(l2->PerDimensionForm(4).has_value());
  EXPECT_EQ(l2->PerDimensionForm(4)->weights, std::vector<double>(4, 1.0));
  // The form is per width: a 4-wide body has no 3-wide form.
  EXPECT_FALSE(l2->PerDimensionForm(3).has_value());
}

TEST(LambdaKernelTest, PerDimensionFormDeclinesOtherShapes) {
  struct Case {
    const char* what;
    ExprPtr body;
    double expected;  // Eval at a = (1.25, -2), b = (4, 7.5)
  };
  const double a[2] = {1.25, -2};
  const double b[2] = {4, 7.5};
  auto sq = [](double x) { return x * x; };
  std::vector<Case> cases;
  cases.push_back({"cross index", Sum(Term(true, 0, 3), Term(true, 1, 2)),
                   sq(a[0] - b[1]) + sq(a[1] - b[0])});
  cases.push_back({"missing dimension", Term(true, 0, 2), sq(a[0] - b[0])});
  cases.push_back({"repeated dimension",
                   Sum(Term(true, 0, 2), Term(true, 2, 0, 2.0)),
                   3 * sq(a[0] - b[0])});
  cases.push_back({"one tuple only", Sum(Term(true, 0, 1), Term(true, 2, 3)),
                   sq(a[0] - a[1]) + sq(b[0] - b[1])});
  cases.push_back({"mixed families", Sum(Term(false, 0, 2), Term(true, 1, 3)),
                   std::fabs(a[0] - b[0]) + sq(a[1] - b[1])});
  for (const Case& c : cases) {
    auto kernel = LambdaKernel::Compile(*c.body, 2);
    ASSERT_OK(kernel.status());
    EXPECT_FALSE(kernel->PerDimensionForm(2).has_value()) << c.what;
    EXPECT_DOUBLE_EQ(kernel->Eval(a, b), c.expected) << c.what;
  }
}

TEST(LambdaKernelTest, PowFastPathMatchesStdPow) {
  // ^2 uses a multiply fast path; ^2.5 goes through std::pow.
  auto sq = Expression::Binary(BinaryOp::kPow, A(0), LitD(2.0),
                               DataType::kDouble);
  auto frac = Expression::Binary(BinaryOp::kPow, A(0), LitD(2.5),
                                 DataType::kDouble);
  auto k1 = LambdaKernel::Compile(*sq, 1);
  auto k2 = LambdaKernel::Compile(*frac, 1);
  ASSERT_OK(k1.status());
  ASSERT_OK(k2.status());
  double a[1] = {3.0};
  EXPECT_DOUBLE_EQ(k1->Eval(a, a), 9.0);
  EXPECT_DOUBLE_EQ(k2->Eval(a, a), std::pow(3.0, 2.5));
}

}  // namespace
}  // namespace soda
