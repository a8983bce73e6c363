/// Tests for the simulated contender systems (paper §8.2): every proxy
/// must compute the *same results* as the in-database operators — the
/// evaluation compares execution paradigms, not algorithms.

#include <gtest/gtest.h>

#include <map>

#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "contenders/contender.h"
#include "graph/ldbc_generator.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace soda {
namespace {

struct ContenderCase {
  const char* label;
  std::unique_ptr<Contender> (*factory)();
};

// gtest would otherwise print the raw bytes, pointers included, into the
// listed test names, which then change on every run.
void PrintTo(const ContenderCase& c, std::ostream* os) { *os << c.label; }

class ContenderSuite : public ::testing::TestWithParam<ContenderCase> {};

TablePtr RandomPoints(size_t n, size_t d, uint64_t seed) {
  Schema schema;
  for (size_t j = 0; j < d; ++j) {
    schema.AddField(Field("x" + std::to_string(j + 1), DataType::kDouble));
  }
  auto t = std::make_shared<Table>("pts", schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (size_t j = 0; j < d; ++j) row.push_back(Value::Double(rng.Uniform(0, 100)));
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  return t;
}

TablePtr FirstK(const TablePtr& t, size_t k) {
  auto out = std::make_shared<Table>("centers", t->schema());
  DataChunk chunk;
  t->ScanSlice(0, k, &chunk);
  EXPECT_TRUE(out->AppendChunk(chunk).ok());
  return out;
}

TEST_P(ContenderSuite, KMeansMatchesOperator) {
  auto data = RandomPoints(3000, 4, 123);
  auto centers = FirstK(data, 5);
  KMeansOptions opt;
  opt.max_iterations = 3;
  auto reference = RunKMeans(*data, *centers, opt);
  ASSERT_OK(reference.status());

  auto contender = GetParam().factory();
  auto result = contender->KMeans(*data, *centers, 3);
  ASSERT_OK(result.status());
  ASSERT_EQ((*result)->num_rows(), 5u);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 1; c <= 4; ++c) {
      EXPECT_NEAR((*result)->column(c).GetDouble(r),
                  reference->centers->column(c).GetDouble(r), 1e-6)
          << GetParam().label << " center " << r << " dim " << c;
    }
  }
}

TEST_P(ContenderSuite, PageRankMatchesOperator) {
  auto g = GenerateSocialGraph(800, 6, 7);
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  auto edges = std::make_shared<Table>("edges", schema);
  ASSERT_OK(edges->SetColumn(0, Column::FromBigInts(g.src)));
  ASSERT_OK(edges->SetColumn(1, Column::FromBigInts(g.dst)));

  PageRankOptions opt;
  opt.epsilon = 0;
  opt.max_iterations = 20;
  auto reference = RunPageRank(*edges, opt);
  ASSERT_OK(reference.status());
  std::map<int64_t, double> ref;
  for (size_t i = 0; i < (*reference)->num_rows(); ++i) {
    ref[(*reference)->column(0).GetBigInt(i)] =
        (*reference)->column(1).GetDouble(i);
  }

  auto contender = GetParam().factory();
  auto result = contender->PageRank(*edges, 0.85, 20);
  ASSERT_OK(result.status());
  ASSERT_EQ((*result)->num_rows(), ref.size());
  for (size_t i = 0; i < (*result)->num_rows(); ++i) {
    int64_t v = (*result)->column(0).GetBigInt(i);
    ASSERT_TRUE(ref.count(v)) << GetParam().label;
    EXPECT_NEAR((*result)->column(1).GetDouble(i), ref[v], 1e-9)
        << GetParam().label << " vertex " << v;
  }
}

TEST_P(ContenderSuite, NaiveBayesMatchesOperator) {
  Schema schema({Field("label", DataType::kBigInt),
                 Field("x1", DataType::kDouble),
                 Field("x2", DataType::kDouble)});
  auto labeled = std::make_shared<Table>("labeled", schema);
  Rng rng(55);
  for (int i = 0; i < 4000; ++i) {
    int64_t label = static_cast<int64_t>(rng.Below(2));
    ASSERT_OK(labeled->AppendRow(
        {Value::BigInt(label),
         Value::Double(rng.Uniform(0, 100) + 30.0 * label),
         Value::Double(rng.Uniform(0, 100))}));
  }
  auto reference = TrainNaiveBayes(*labeled);
  ASSERT_OK(reference.status());
  std::map<std::pair<int64_t, int64_t>, std::pair<double, double>> ref;
  for (size_t i = 0; i < (*reference)->num_rows(); ++i) {
    ref[{(*reference)->column(0).GetBigInt(i),
         (*reference)->column(1).GetBigInt(i)}] = {
        (*reference)->column(3).GetDouble(i),
        (*reference)->column(4).GetDouble(i)};
  }

  auto contender = GetParam().factory();
  auto result = contender->NaiveBayesTrain(*labeled);
  ASSERT_OK(result.status());
  ASSERT_EQ((*result)->num_rows(), (*reference)->num_rows());
  for (size_t i = 0; i < (*result)->num_rows(); ++i) {
    auto key = std::make_pair((*result)->column(0).GetBigInt(i),
                              (*result)->column(1).GetBigInt(i));
    ASSERT_TRUE(ref.count(key)) << GetParam().label;
    EXPECT_NEAR((*result)->column(3).GetDouble(i), ref[key].first, 1e-6);
    EXPECT_NEAR((*result)->column(4).GetDouble(i), ref[key].second, 1e-4);
    // Priors use the same Laplace smoothing.
    EXPECT_GT((*result)->column(2).GetDouble(i), 0.0);
    EXPECT_LT((*result)->column(2).GetDouble(i), 1.0);
  }
}

TEST_P(ContenderSuite, RejectsNonNumericData) {
  Table strings("s", Schema({Field("s", DataType::kVarchar),
                             Field("t", DataType::kVarchar)}));
  ASSERT_OK(strings.AppendRow({Value::Varchar("a"), Value::Varchar("b")}));
  auto contender = GetParam().factory();
  EXPECT_FALSE(contender->KMeans(strings, strings, 1).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllContenders, ContenderSuite,
    ::testing::Values(
        ContenderCase{"single_threaded", &MakeSingleThreadedEngine},
        ContenderCase{"rdd", &MakeRddEngine},
        ContenderCase{"udf", &MakeUdfEngine}),
    [](const ::testing::TestParamInfo<ContenderCase>& info) {
      return info.param.label;
    });

TEST(ContenderTest, NamesAreDescriptive) {
  EXPECT_NE(MakeSingleThreadedEngine()->name().find("MATLAB"),
            std::string::npos);
  EXPECT_NE(MakeRddEngine()->name().find("Spark"), std::string::npos);
  EXPECT_NE(MakeUdfEngine()->name().find("MADlib"), std::string::npos);
}

TEST(ContenderTest, EmptyGraphHandled) {
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  Table edges("e", schema);
  for (auto factory :
       {&MakeSingleThreadedEngine, &MakeRddEngine, &MakeUdfEngine}) {
    auto r = (*factory)()->PageRank(edges, 0.85, 5);
    ASSERT_OK(r.status());
    EXPECT_EQ((*r)->num_rows(), 0u);
  }
}

}  // namespace
}  // namespace soda
