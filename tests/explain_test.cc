/// \file explain_test.cc
/// EXPLAIN pipeline-decomposition goldens and the EXPLAIN ANALYZE
/// per-operator metrics suite over scan / filter / join / aggregate /
/// iterate / table-function plans.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "tests/test_util.h"
#include "util/query_guard.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::RunQuery;

/// Joins all EXPLAIN result rows back into one text blob.
std::string ExplainText(const QueryResult& r) {
  std::string all;
  for (size_t i = 0; i < r.num_rows(); ++i) all += r.GetString(i, 0) + "\n";
  return all;
}

/// Extracts `<field>=<number>` from the first pipeline line whose operator
/// name contains `op`. Returns -1 when absent (assert against that).
/// Searches only past the "=== Pipelines ===" divider: the plan tree above
/// it repeats operator names without metrics.
int64_t Metric(const std::string& text, const std::string& op,
               const std::string& field) {
  size_t start = text.find("=== Pipelines ===");
  if (start == std::string::npos) return -1;
  size_t pos = text.find(op, start);
  if (pos == std::string::npos) return -1;
  size_t eol = text.find('\n', pos);
  if (eol == std::string::npos) eol = text.size();
  const std::string needle = field + "=";
  size_t f = text.find(needle, pos);
  if (f == std::string::npos || f >= eol) return -1;
  return std::strtoll(text.c_str() + f + needle.size(), nullptr, 10);
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunQuery(engine_, "CREATE TABLE t (a BIGINT, b DOUBLE)");
    RunQuery(engine_,
             "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)");
    RunQuery(engine_, "CREATE TABLE u (a BIGINT, label VARCHAR)");
    RunQuery(engine_,
             "INSERT INTO u VALUES (1, 'one'), (2, 'two'), (2, 'dos')");
  }

  Engine engine_;
};

TEST_F(ExplainTest, PlainExplainPrintsPipelineDecomposition) {
  auto r = RunQuery(engine_, "EXPLAIN SELECT a FROM t WHERE a > 1");
  EXPECT_EQ(r.schema().field(0).name, "plan");
  std::string text = ExplainText(r);
  // Plan tree (pre-existing behavior) plus the new pipeline section.
  EXPECT_NE(text.find("Scan t"), std::string::npos);
  EXPECT_NE(text.find("=== Pipelines ==="), std::string::npos);
  EXPECT_NE(text.find("P0: Scan t pushed[a > 1] -> Filter [(a#0 > 1)] -> "
                      "Project [a#0] -> Materialize"),
            std::string::npos)
      << text;
  // No metrics without ANALYZE.
  EXPECT_EQ(text.find("rows_out="), std::string::npos);
}

TEST_F(ExplainTest, UnionAllDecomposesIntoSharedSinkPipelines) {
  // The pure-column-ref projections fuse into the scans, and both
  // children stream into the shared sink.
  auto r = RunQuery(engine_,
                    "EXPLAIN SELECT a FROM t UNION ALL SELECT a FROM u");
  std::string text = ExplainText(r);
  EXPECT_NE(text.find("P0: Scan t project [a#0] -> "
                      "UnionAll (materialize) (shared)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("P1: Scan u project [a#0] -> "
                      "UnionAll (materialize) (shared)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("P2 [<- P0, P1]: UnionAll (materialize)"),
            std::string::npos)
      << text;
  // A child with a real transform chain still feeds the shared sink.
  r = RunQuery(engine_,
               "EXPLAIN SELECT a + 1 FROM t UNION ALL SELECT a FROM u");
  text = ExplainText(r);
  EXPECT_NE(text.find("UnionAll (materialize) (shared)"), std::string::npos)
      << text;
}

TEST_F(ExplainTest, JoinShowsBuildDependencyPipeline) {
  auto r = RunQuery(
      engine_,
      "EXPLAIN SELECT t.a, u.label FROM t JOIN u ON t.a = u.a");
  std::string text = ExplainText(r);
  // Build side is its own pipeline; the probe pipeline references it.
  EXPECT_NE(text.find("[<- P0]"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoinProbe"), std::string::npos) << text;
}

TEST_F(ExplainTest, EngineExplainStringIncludesPipelines) {
  auto r = engine_.Explain("SELECT a FROM t WHERE a > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.ValueOrDie().find("=== Pipelines ==="), std::string::npos);
  EXPECT_NE(r.ValueOrDie().find("Scan t"), std::string::npos);
}

TEST_F(ExplainTest, AnalyzeReportsScanFilterRowCounts) {
  auto r = RunQuery(engine_, "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1");
  std::string text = ExplainText(r);
  EXPECT_EQ(Metric(text, "Scan t", "rows_out"), 4) << text;
  EXPECT_EQ(Metric(text, "Filter", "rows_in"), 4) << text;
  EXPECT_EQ(Metric(text, "Filter", "rows_out"), 3) << text;
  EXPECT_EQ(Metric(text, "Materialize", "rows_out"), 3) << text;
  EXPECT_NE(text.find("time="), std::string::npos);
  EXPECT_NE(text.find("bytes_reserved="), std::string::npos);
}

TEST_F(ExplainTest, AnalyzeJoinAggregateReportsPerOperatorRows) {
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT u.label, count(*) "
                    "FROM t JOIN u ON t.a = u.a GROUP BY u.label");
  std::string text = ExplainText(r);
  // Build side: 3 rows of u enter the hash build.
  EXPECT_EQ(Metric(text, "HashBuild", "rows_in"), 3) << text;
  // Probe side: 4 rows of t probe; a=1 matches once, a=2 matches twice.
  EXPECT_EQ(Metric(text, "HashJoinProbe", "rows_in"), 4) << text;
  EXPECT_EQ(Metric(text, "HashJoinProbe", "rows_out"), 3) << text;
  // 3 distinct labels survive grouping.
  EXPECT_EQ(Metric(text, "Aggregate", "rows_in"), 3) << text;
  EXPECT_EQ(Metric(text, "Aggregate", "rows_out"), 3) << text;
}

TEST_F(ExplainTest, AnalyzePrintsSelfTimeOnStreamingTransforms) {
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT t.b * 2 + 1 FROM t "
                    "JOIN u ON t.a = u.a WHERE t.b > 1.0");
  const std::string text = ExplainText(r);
  const std::string pipelines = text.substr(text.find("=== Pipelines ==="));
  auto field = [](const std::string& line, const std::string& key) {
    const size_t at = line.find(key + "=");
    return at == std::string::npos
               ? -1.0
               : std::strtod(line.c_str() + at + key.size() + 1, nullptr);
  };
  // Each pipeline's stage lines in order; a transform's time covers its
  // own work plus the stages downstream of it, so self + the next
  // transform's time never exceeds time (up to the 1 us print rounding).
  // A sink's time also holds its Finalize, so it is not compared.
  size_t transforms = 0;
  size_t pos = 0;
  std::string prev;
  while (pos < pipelines.size()) {
    size_t eol = pipelines.find('\n', pos);
    if (eol == std::string::npos) eol = pipelines.size();
    const std::string line = pipelines.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("  ", 0) != 0 || line.find("time=") == std::string::npos) {
      prev.clear();
      continue;
    }
    const bool transform = line.find("Filter") != std::string::npos ||
                           line.find("HashJoinProbe") != std::string::npos ||
                           line.find("Project") != std::string::npos;
    EXPECT_EQ(line.find("self=") != std::string::npos, transform) << line;
    if (!prev.empty() && transform) {
      EXPECT_LE(field(prev, "self") + field(line, "time"),
                field(prev, "time") + 0.002)
          << prev << "\n" << line;
    }
    if (transform) {
      ++transforms;
      EXPECT_GE(field(line, "self"), 0.0) << line;
      EXPECT_LE(field(line, "self"), field(line, "time")) << line;
    }
    prev = transform ? line : "";
  }
  EXPECT_GE(transforms, 2u) << text;
}

TEST_F(ExplainTest, AnalyzeIterateReportsResultRows) {
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT * FROM ITERATE((SELECT 1 x), "
                    "(SELECT x + 1 x FROM iterate), "
                    "(SELECT x FROM iterate WHERE x > 3))");
  std::string text = ExplainText(r);
  EXPECT_NE(text.find("Iterate"), std::string::npos) << text;
  EXPECT_EQ(Metric(text, "Iterate", "rows_out"), 1) << text;
  // x = 1 -> 2 -> 3 -> 4: three rounds, the last one meets the stop.
  EXPECT_EQ(Metric(text, "Iterate", "rounds"), 3) << text;
  EXPECT_EQ(static_cast<int64_t>(r.stats().iterations_run), 3);
}

TEST_F(ExplainTest, AnalyzeRecursiveCteReportsRounds) {
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE WITH RECURSIVE c (x) AS ((SELECT 1 x) "
                    "UNION ALL (SELECT x + 1 x FROM c WHERE x < 5)) "
                    "SELECT x FROM c");
  std::string text = ExplainText(r);
  // Steps from {1} to {5} plus the step that comes back empty.
  EXPECT_EQ(Metric(text, "RecursiveCte c", "rounds"), 5) << text;
  EXPECT_EQ(static_cast<int64_t>(r.stats().iterations_run), 5);
  // Operators that run no rounds print none.
  EXPECT_EQ(Metric(text, "Project", "rounds"), -1) << text;
}

TEST_F(ExplainTest, AnalyzeIterateRoundsExcludeNestedIterations) {
  // Each ITERATE step runs a KMEANS, whose iterations count towards the
  // statement's iterations_run but not towards the loop's own rounds.
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT * FROM ITERATE((SELECT 1 x), "
                    "(SELECT x + 1 x FROM iterate, (SELECT count(*) n FROM "
                    "KMEANS((SELECT a, b FROM t), "
                    "(SELECT a, b FROM t LIMIT 2), 5)) k), "
                    "(SELECT x FROM iterate WHERE x > 3))");
  std::string text = ExplainText(r);
  EXPECT_EQ(Metric(text, "Iterate", "rounds"), 3) << text;
  EXPECT_GT(static_cast<int64_t>(r.stats().iterations_run), 3);
}

TEST_F(ExplainTest, ColumnRefProjectOverComputedProjectInlinesIt) {
  // The outer selection takes the inner expressions it references; the
  // dropped `a + 1` is never computed and one projection remains.
  const std::string stacked =
      "SELECT y, x FROM (SELECT b y, a x FROM "
      "(SELECT a, b, a + 1 h FROM t) r) q";
  std::string text = ExplainText(RunQuery(engine_, "EXPLAIN " + stacked));
  EXPECT_NE(text.find("P0: Scan t project [b#1, a#0]\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("(a#0 + 1)"), std::string::npos) << text;
  text = ExplainText(
      RunQuery(engine_, "EXPLAIN SELECT h FROM (SELECT a, a + 1 h FROM t) r"));
  EXPECT_NE(text.find("P0: Scan t -> Project [(a#0 + 1)] -> Materialize"),
            std::string::npos)
      << text;
  // A computed column referenced twice stays computed once, below.
  text = ExplainText(RunQuery(
      engine_, "EXPLAIN SELECT h, h FROM (SELECT a + 1 h, b FROM t) r"));
  EXPECT_NE(text.find("Project [(a#0 + 1), b#1] -> Project [h#0, h#0]"),
            std::string::npos)
      << text;

  QueryResult q = RunQuery(engine_, stacked + " ORDER BY x");
  ASSERT_EQ(q.num_rows(), 4u);
  EXPECT_EQ(q.schema().field(0).name, "y");
  EXPECT_EQ(q.schema().field(1).name, "x");
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.GetInt(i, 1), static_cast<int64_t>(i + 1));
    EXPECT_DOUBLE_EQ(q.GetDouble(i, 0), static_cast<double>(i) + 1.5);
  }
}

TEST_F(ExplainTest, AnalyzeKmeansReportsOperatorAndInputRows) {
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT * FROM KMEANS("
                    "(SELECT a, b FROM t), "
                    "(SELECT a, b FROM t LIMIT 2), 5)");
  std::string text = ExplainText(r);
  // The operator consumes its input pipelines' relations and emits one
  // row per center.
  EXPECT_EQ(Metric(text, "TableFunction kmeans", "rows_out"), 2) << text;
  // The data input pipeline selected all 4 source rows.
  EXPECT_EQ(Metric(text, "Scan t project [a#0, b#1]", "rows_out"), 4)
      << text;
  EXPECT_NE(text.find("time="), std::string::npos);
}

TEST_F(ExplainTest, PlainExplainDoesNotExecute) {
  // A fault armed at the scheduler's probe site must NOT fire for plain
  // EXPLAIN (lowering executes nothing)...
  FaultInjector::Global().Arm("exec.pipeline", FaultInjector::Kind::kError);
  RunQuery(engine_, "EXPLAIN SELECT a FROM t WHERE a > 1");
  // ...but fires as soon as ANALYZE runs the pipelines.
  auto analyzed = engine_.Execute("EXPLAIN ANALYZE SELECT a FROM t");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kInternal);
  FaultInjector::Global().Reset();
  // Engine stays usable after the teardown.
  auto again = RunQuery(engine_, "SELECT count(*) FROM t");
  EXPECT_EQ(again.GetInt(0, 0), 4);
}

TEST_F(ExplainTest, AnalyzeMatchesDirectExecutionResults) {
  // ANALYZE runs the real pipelines: its stats must match the query's.
  auto direct = RunQuery(engine_, "SELECT a FROM t WHERE a > 1");
  EXPECT_EQ(direct.num_rows(), 3u);
  auto analyzed =
      RunQuery(engine_, "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1");
  std::string text = ExplainText(analyzed);
  EXPECT_EQ(Metric(text, "Materialize", "rows_out"),
            static_cast<int64_t>(direct.num_rows()));
}

TEST_F(ExplainTest, ExplainAnalyzeParseErrors) {
  ExpectError(engine_, "EXPLAIN ANALYZE", StatusCode::kParseError);
  ExpectError(engine_, "EXPLAIN ANALYZE INSERT INTO t VALUES (1, 1.0)",
              StatusCode::kParseError);
}

}  // namespace
}  // namespace soda
