/// Parameterized property tests sweeping workload shapes: invariants of
/// the analytics operators across n/d/k and graph families, and SQL
/// aggregate/join agreement with brute-force references.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>
#include <tuple>

#include "analytics/kmeans.h"
#include "analytics/pagerank.h"
#include "bench_support/workloads.h"
#include "exec/hash_kernels.h"
#include "expr/evaluator.h"
#include "graph/ldbc_generator.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace soda {
namespace {

using testing::RunQuery;

// Force a real pool even on single-core machines, so the "4 workers" half
// of the worker-count comparisons below is not serial too.
const bool kForceMultiThreadedPool = [] {
  setenv("SODA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

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

/// Nested-loop key equality, written independently of the engine: NULL
/// never matches, DOUBLEs compare with CompareDoubles (NaN = NaN,
/// -0.0 = 0.0), BIGINT and VARCHAR exactly.
bool ReferenceKeyEqual(const Column& a, size_t i, const Column& b, size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return false;
  switch (a.type()) {
    case DataType::kVarchar:
      return a.GetString(i) == b.GetString(j);
    case DataType::kDouble:
      return CompareDoubles(a.GetDouble(i), b.GetDouble(j)) == 0;
    default:
      return a.GetBigInt(i) == b.GetBigInt(j);
  }
}

/// Registers l(k0.., v) and r(k0.., w) from the given key columns (v and w
/// are row numbers), then checks `count(*)` and `sum(l.v * 7 + r.w)` of
/// the equi-join on every key column against a nested loop, once on one
/// worker and once on the 4-worker pool.
void ExpectJoinMatchesNestedLoop(std::vector<Column> lkeys,
                                 std::vector<Column> rkeys) {
  const size_t left_n = lkeys.empty() ? 0 : lkeys[0].size();
  const size_t right_n = rkeys.empty() ? 0 : rkeys[0].size();
  int64_t expected = 0;
  int64_t checksum = 0;
  for (size_t i = 0; i < left_n; ++i) {
    for (size_t j = 0; j < right_n; ++j) {
      bool equal = true;
      for (size_t c = 0; c < lkeys.size() && equal; ++c) {
        equal = ReferenceKeyEqual(lkeys[c], i, rkeys[c], j);
      }
      if (!equal) continue;
      ++expected;
      checksum += static_cast<int64_t>(i) * 7 + static_cast<int64_t>(j);
    }
  }

  Engine e;
  std::string lcols, rcols, on;
  for (size_t c = 0; c < lkeys.size(); ++c) {
    const std::string k = "k" + std::to_string(c);
    const std::string type = DataTypeToString(lkeys[c].type());
    lcols += k + " " + type + ", ";
    rcols += k + " " + type + ", ";
    on += std::string(c ? " AND " : "") + "l." + k + " = r." + k;
  }
  ASSERT_OK(e.Execute("CREATE TABLE l (" + lcols + "v BIGINT)").status());
  ASSERT_OK(e.Execute("CREATE TABLE r (" + rcols + "w BIGINT)").status());
  auto lt = e.catalog().GetTable("l");
  auto rt = e.catalog().GetTable("r");
  ASSERT_OK(lt.status());
  ASSERT_OK(rt.status());
  auto row_numbers = [](size_t n) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i);
    return Column::FromBigInts(std::move(v));
  };
  for (size_t c = 0; c < lkeys.size(); ++c) {
    ASSERT_OK((*lt)->SetColumn(c, std::move(lkeys[c])));
    ASSERT_OK((*rt)->SetColumn(c, std::move(rkeys[c])));
  }
  ASSERT_OK((*lt)->SetColumn(lkeys.size(), row_numbers(left_n)));
  ASSERT_OK((*rt)->SetColumn(rkeys.size(), row_numbers(right_n)));

  const std::string sql =
      "SELECT count(*) c, sum(l.v * 7 + r.w) s FROM l JOIN r ON " + on;
  for (bool serial : {true, false}) {
    QueryResult result;
    if (serial) {
      ScopedSerialExecution one_worker;
      result = RunQuery(e, sql);
    } else {
      result = RunQuery(e, sql);
    }
    ASSERT_EQ(result.num_rows(), 1u) << sql;
    EXPECT_EQ(result.GetInt(0, 0), expected)
        << sql << (serial ? " (1 worker)" : " (pool)");
    if (expected > 0) {
      EXPECT_EQ(result.GetInt(0, 1), checksum)
          << sql << (serial ? " (1 worker)" : " (pool)");
    }
  }
}

/// A BIGINT column of `n` draws from `domain`, NULL with probability
/// `null_frac`.
Column DrawBigInts(Rng& rng, size_t n, const std::vector<int64_t>& domain,
                   double null_frac = 0.0) {
  Column c(DataType::kBigInt);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Uniform(0, 1) < null_frac) {
      c.AppendNull();
    } else {
      c.AppendBigInt(domain[rng.Below(domain.size())]);
    }
  }
  return c;
}

std::vector<int64_t> Range(int64_t n) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(i);
  return out;
}

TEST_P(JoinPropertyTest, TwoColumnKeysMatchNestedLoop) {
  auto [left_n, right_n] = GetParam();
  Rng rng(left_n * 17 + right_n);
  std::vector<Column> l, r;
  l.push_back(DrawBigInts(rng, left_n, Range(5)));
  l.push_back(DrawBigInts(rng, left_n, Range(6)));
  r.push_back(DrawBigInts(rng, right_n, Range(5)));
  r.push_back(DrawBigInts(rng, right_n, Range(6)));
  ExpectJoinMatchesNestedLoop(std::move(l), std::move(r));
}

TEST_P(JoinPropertyTest, NullKeysOnBothSidesNeverMatch) {
  auto [left_n, right_n] = GetParam();
  Rng rng(left_n * 19 + right_n);
  std::vector<Column> l, r;
  l.push_back(DrawBigInts(rng, left_n, Range(20), 0.3));
  r.push_back(DrawBigInts(rng, right_n, Range(20), 0.3));
  ExpectJoinMatchesNestedLoop(std::move(l), std::move(r));
  // Two key columns, each NULL in some rows.
  std::vector<Column> l2, r2;
  l2.push_back(DrawBigInts(rng, left_n, Range(4), 0.2));
  l2.push_back(DrawBigInts(rng, left_n, Range(4), 0.2));
  r2.push_back(DrawBigInts(rng, right_n, Range(4), 0.2));
  r2.push_back(DrawBigInts(rng, right_n, Range(4), 0.2));
  ExpectJoinMatchesNestedLoop(std::move(l2), std::move(r2));
}

TEST_P(JoinPropertyTest, DoubleKeysMatchNestedLoop) {
  auto [left_n, right_n] = GetParam();
  Rng rng(left_n * 23 + right_n);
  // -0.0 and 0.0 are one key, as are all NaNs; 2.0 also hashes like the
  // BIGINT 2.
  const std::vector<double> domain = {-0.0, 0.0,  2.0, 0.1, -7.25,
                                      1e300, std::nan(""), -HUGE_VAL};
  auto draw = [&](size_t n) {
    Column c(DataType::kDouble);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Below(10) == 0) {
        c.AppendNull();
      } else {
        c.AppendDouble(domain[rng.Below(domain.size())]);
      }
    }
    return c;
  };
  std::vector<Column> l, r;
  l.push_back(draw(left_n));
  r.push_back(draw(right_n));
  ExpectJoinMatchesNestedLoop(std::move(l), std::move(r));
}

TEST_P(JoinPropertyTest, VarcharKeysMatchNestedLoop) {
  auto [left_n, right_n] = GetParam();
  Rng rng(left_n * 29 + right_n);
  auto draw = [&](size_t n) {
    Column c(DataType::kVarchar);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = rng.Below(22);
      if (k == 21) {
        c.AppendNull();
      } else {
        // "" and a long key that defeats the small-string buffer.
        c.AppendString(k == 0 ? "" : k == 1 ? std::string(40, 'z')
                                            : "key" + std::to_string(k));
      }
    }
    return c;
  };
  std::vector<Column> l, r;
  l.push_back(draw(left_n));
  r.push_back(draw(right_n));
  ExpectJoinMatchesNestedLoop(std::move(l), std::move(r));
}

TEST_P(JoinPropertyTest, KeysCollidingInTheBucketMaskMatchNestedLoop) {
  // 16 distinct keys whose hashes agree in the low 16 bits, so every
  // bucket mask up to 65536 buckets (builds up to 32768 rows) chains them
  // all into one bucket.
  std::vector<int64_t> keys;
  uint64_t low = 0;
  for (int64_t k = 1; keys.size() < 16; ++k) {
    Column one = Column::FromBigInts({k});
    uint64_t h = 0;
    HashColumn(one, 0, 1, &h);
    if (keys.empty()) low = h & 0xFFFF;
    if ((h & 0xFFFF) == low) keys.push_back(k);
  }
  auto [left_n, right_n] = GetParam();
  Rng rng(left_n * 31 + right_n + 1);
  std::vector<Column> l, r;
  std::vector<int64_t> probe_domain = keys;
  probe_domain.push_back(keys.back() + 1);  // in no chain's key set
  l.push_back(DrawBigInts(rng, left_n, probe_domain, 0.05));
  r.push_back(DrawBigInts(rng, right_n, keys, 0.05));
  ExpectJoinMatchesNestedLoop(std::move(l), std::move(r));
}

INSTANTIATE_TEST_SUITE_P(Sizes, JoinPropertyTest,
                         ::testing::Values(std::make_pair(0, 10),
                                           std::make_pair(10, 0),
                                           std::make_pair(100, 100),
                                           std::make_pair(3000, 50),
                                           std::make_pair(50, 3000),
                                           std::make_pair(5000, 5000)));

// --- vectorized evaluator vs a row-at-a-time reference ---------------------

/// Random well-typed expression trees over the columns of EvalChunk():
/// literals on either side and NULL literals, + - * / % ^, comparisons,
/// AND/OR/NOT, CASE, CAST and a few functions. Integer division by zero
/// comes from the zeros in i, j and the literal pool; DOUBLE -> BIGINT
/// conversions (CAST, floor/ceil/round) meet NaN, inf and 1e300.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Typed(DataType type, int depth) {
    if (type == DataType::kBool) return Bool(depth);
    if (depth == 0 || rng_.Below(4) == 0) return Leaf(type);
    if (type == DataType::kBigInt) {
      switch (rng_.Below(7)) {
        case 0:
          return Expression::Unary(UnaryOp::kNegate, Typed(type, depth - 1),
                                   type);
        case 1:
          return CaseOf(type, depth);
        case 2:  // NaN, inf and 1e300 make NULL rows here
          return Expression::Cast(Typed(DataType::kDouble, depth - 1), type);
        case 3: {  // BIGINT-valued functions over DOUBLE or BIGINT
          static const char* kFns[] = {"floor", "ceil", "round", "abs",
                                       "sign"};
          const std::string fn = kFns[rng_.Below(5)];
          std::vector<ExprPtr> args;
          args.push_back(fn == "abs" || fn == "sign" ? Typed(type, depth - 1)
                                                     : Numeric(depth - 1));
          return Expression::Function(fn, std::move(args), type);
        }
        default: {
          static constexpr BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                              BinaryOp::kMul, BinaryOp::kDiv,
                                              BinaryOp::kMod};
          return Expression::Binary(kOps[rng_.Below(5)],
                                    Typed(type, depth - 1),
                                    Typed(type, depth - 1), type);
        }
      }
    }
    switch (rng_.Below(8)) {
      case 0:
        return Expression::Unary(UnaryOp::kNegate, Typed(type, depth - 1),
                                 type);
      case 1:
        return CaseOf(type, depth);
      case 2:
        return Expression::Cast(Typed(DataType::kBigInt, depth - 1), type);
      case 3: {  // x ^ 2, the distance idiom, as an operator or a call
        ExprPtr two = rng_.Below(2) ? Expression::Literal(Value::BigInt(2))
                                    : Expression::Literal(Value::Double(2.0));
        if (rng_.Below(2)) {
          return Expression::Binary(BinaryOp::kPow, Numeric(depth - 1),
                                    std::move(two), type);
        }
        std::vector<ExprPtr> args;
        args.push_back(Numeric(depth - 1));
        args.push_back(std::move(two));
        return Expression::Function("pow", std::move(args), type);
      }
      case 4: {
        static const char* kFns[] = {"abs", "sqrt", "least", "greatest"};
        const std::string fn = kFns[rng_.Below(4)];
        std::vector<ExprPtr> args;
        args.push_back(Typed(type, depth - 1));
        if (fn == "least" || fn == "greatest") {
          args.push_back(Typed(type, depth - 1));
        }
        return Expression::Function(fn, std::move(args), type);
      }
      default: {
        static constexpr BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                            BinaryOp::kMul, BinaryOp::kDiv,
                                            BinaryOp::kMod, BinaryOp::kPow};
        const BinaryOp op = kOps[rng_.Below(6)];
        ExprPtr l = Numeric(depth - 1);
        ExprPtr r = Numeric(depth - 1);
        // Two BIGINT sides would make the result BIGINT; ^ is DOUBLE anyway.
        if (op != BinaryOp::kPow && l->type == DataType::kBigInt &&
            r->type == DataType::kBigInt) {
          r = Typed(type, depth - 1);
        }
        return Expression::Binary(op, std::move(l), std::move(r), type);
      }
    }
  }

  ExprPtr Bool(int depth) {
    if (depth == 0 || rng_.Below(4) == 0) return Leaf(DataType::kBool);
    switch (rng_.Below(5)) {
      case 0:
        return Expression::Unary(UnaryOp::kNot, Bool(depth - 1),
                                 DataType::kBool);
      case 1: {
        const BinaryOp op = rng_.Below(2) ? BinaryOp::kAnd : BinaryOp::kOr;
        return Expression::Binary(op, Bool(depth - 1), Bool(depth - 1),
                                  DataType::kBool);
      }
      default: {
        static constexpr BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                            BinaryOp::kLt, BinaryOp::kLe,
                                            BinaryOp::kGt, BinaryOp::kGe};
        return Expression::Binary(kOps[rng_.Below(6)], Numeric(depth - 1),
                                  Numeric(depth - 1), DataType::kBool);
      }
    }
  }

 private:
  ExprPtr Numeric(int depth) {
    return Typed(rng_.Below(2) ? DataType::kBigInt : DataType::kDouble,
                 depth);
  }

  /// Column refs of EvalChunk(): i, j BIGINT; x, y DOUBLE; b BOOL.
  ExprPtr Ref(size_t index) {
    static constexpr DataType kTypes[] = {DataType::kBigInt, DataType::kBigInt,
                                          DataType::kDouble, DataType::kDouble,
                                          DataType::kBool};
    static const char* kNames[] = {"i", "j", "x", "y", "b"};
    return Expression::ColumnRef(index, kTypes[index], kNames[index]);
  }

  ExprPtr Leaf(DataType type) {
    const uint64_t pick = rng_.Below(10);
    if (pick == 0) return Expression::Literal(Value::Null(type));
    if (pick < 5) {
      switch (type) {
        case DataType::kBigInt:
          return Expression::Literal(
              Value::BigInt(static_cast<int64_t>(rng_.Below(7)) - 3));
        case DataType::kDouble: {
          static constexpr double kPool[] = {0.0, -0.0, 2.0, 0.5, -3.25,
                                             1e300};
          return Expression::Literal(Value::Double(kPool[rng_.Below(6)]));
        }
        default:
          return Expression::Literal(Value::Bool(rng_.Below(2) == 1));
      }
    }
    switch (type) {
      case DataType::kBigInt:
        return Ref(rng_.Below(2));
      case DataType::kDouble:
        return Ref(2 + rng_.Below(2));
      default:
        return Ref(4);
    }
  }

  ExprPtr CaseOf(DataType type, int depth) {
    std::vector<ExprPtr> children;
    const size_t whens = 1 + rng_.Below(2);
    for (size_t w = 0; w < whens; ++w) {
      children.push_back(Bool(depth - 1));
      children.push_back(Typed(type, depth - 1));
    }
    children.push_back(Typed(type, depth - 1));
    return Expression::Case(std::move(children), type);
  }

  Rng rng_;
};

/// i: BIGINT in [-4, 4] with NULLs; j: BIGINT in [-2, 2] (zeros and -1
/// for the division cases); x: DOUBLE with NULLs, zeros of both signs and
/// 2.0; y: DOUBLE in [-100, 100]; b: BOOL with NULLs.
DataChunk EvalChunk(uint64_t seed, size_t n) {
  Rng rng(seed);
  Column i(DataType::kBigInt), j(DataType::kBigInt),
      x(DataType::kDouble), y(DataType::kDouble), b(DataType::kBool);
  static constexpr double kSpecial[] = {0.0, -0.0, 2.0, 1e200};
  for (size_t r = 0; r < n; ++r) {
    if (rng.Below(6) == 0) {
      i.AppendNull();
    } else {
      i.AppendBigInt(static_cast<int64_t>(rng.Below(9)) - 4);
    }
    j.AppendBigInt(static_cast<int64_t>(rng.Below(5)) - 2);
    if (rng.Below(6) == 0) {
      x.AppendNull();
    } else if (rng.Below(3) == 0) {
      x.AppendDouble(kSpecial[rng.Below(4)]);
    } else {
      x.AppendDouble(rng.Uniform(-10, 10));
    }
    y.AppendDouble(rng.Uniform(-100, 100));
    if (rng.Below(5) == 0) {
      b.AppendNull();
    } else {
      b.AppendBool(rng.Below(2) == 1);
    }
  }
  DataChunk chunk;
  chunk.AddColumn(std::move(i));
  chunk.AddColumn(std::move(j));
  chunk.AddColumn(std::move(x));
  chunk.AddColumn(std::move(y));
  chunk.AddColumn(std::move(b));
  return chunk;
}

/// `expr` with every column ref replaced by row `row`'s value as a literal.
ExprPtr BindRow(const Expression& expr, const DataChunk& chunk, size_t row) {
  if (expr.kind == ExprKind::kColumnRef) {
    return Expression::Literal(chunk.column(expr.column_index).GetValue(row));
  }
  ExprPtr out = expr.Clone();
  for (size_t c = 0; c < out->children.size(); ++c) {
    out->children[c] = BindRow(*expr.children[c], chunk, row);
  }
  return out;
}

/// The payload bits of a non-NULL result cell.
uint64_t Bits(const Column& c, size_t i) {
  return c.type() == DataType::kDouble ? std::bit_cast<uint64_t>(c.GetDouble(i))
                                       : static_cast<uint64_t>(c.GetBigInt(i));
}

uint64_t Bits(const Value& v) {
  return v.type() == DataType::kDouble
             ? std::bit_cast<uint64_t>(v.double_value())
             : static_cast<uint64_t>(v.AsBigInt());
}

class EvaluatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorPropertyTest, ChunkEvaluationEqualsRowAtATimeReference) {
  const uint64_t seed = GetParam();
  const size_t n = 300;
  const DataChunk chunk = EvalChunk(seed, n);
  ExprGen gen(seed * 7919);
  static constexpr DataType kTypes[] = {DataType::kBigInt, DataType::kDouble,
                                        DataType::kBool};
  for (int t = 0; t < 150; ++t) {
    const DataType type = kTypes[t % 3];
    const ExprPtr expr = gen.Typed(type, 1 + t % 4);
    const std::string text = expr->ToString();
    Column out;
    ASSERT_OK(EvaluateExpression(*expr, chunk, &out));
    ASSERT_EQ(out.type(), type) << text;
    ASSERT_EQ(out.size(), n) << text;
    for (size_t row = 0; row < n; ++row) {
      auto ref = EvaluateConstantExpression(*BindRow(*expr, chunk, row));
      ASSERT_OK(ref.status());
      ASSERT_EQ(out.IsNull(row), ref->is_null()) << text << " row " << row;
      // A NULL row's payload stays zero.
      const uint64_t want = ref->is_null() ? 0 : Bits(*ref);
      ASSERT_EQ(Bits(out, row), want) << text << " row " << row;
    }
  }
}

TEST_P(EvaluatorPropertyTest, SquareEqualsSelfProductToTheBit) {
  const DataChunk chunk = EvalChunk(GetParam(), 2048);
  for (size_t col : {2, 3}) {
    auto ref = [&] { return Expression::ColumnRef(col, DataType::kDouble); };
    const ExprPtr pow = Expression::Binary(
        BinaryOp::kPow, ref(), Expression::Literal(Value::BigInt(2)),
        DataType::kDouble);
    const ExprPtr mul =
        Expression::Binary(BinaryOp::kMul, ref(), ref(), DataType::kDouble);
    Column a, b;
    ASSERT_OK(EvaluateExpression(*pow, chunk, &a));
    ASSERT_OK(EvaluateExpression(*mul, chunk, &b));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << i;
      ASSERT_EQ(Bits(a, i), Bits(b, i)) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

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
