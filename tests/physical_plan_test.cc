/// \file physical_plan_test.cc
/// Pipeline-scheduler behavior that only shows up at scale: LIMIT early
/// exit over a million-row scan, the typed sort comparator and the sort's
/// memory charge, the Top-N sink's one-pipeline shape and memory bound,
/// streaming UNION ALL accounting, and mid-pipeline fault teardown.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"
#include "util/query_guard.h"

namespace soda {
namespace {

using testing::IntColumn;
using testing::RunQuery;

constexpr int64_t kBigRows = 16 * (1 << 16);  // 1,048,576

std::string AnalyzeText(Engine& engine, const std::string& sql) {
  auto r = RunQuery(engine, "EXPLAIN ANALYZE " + sql);
  std::string all;
  for (size_t i = 0; i < r.num_rows(); ++i) all += r.GetString(i, 0) + "\n";
  return all;
}

/// `<field>=<number>` from the first pipeline line containing `op`,
/// searching past the "=== Pipelines ===" divider; -1 when absent.
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

/// Sum of every pipeline's bytes_reserved line in an ANALYZE dump.
int64_t TotalBytesReserved(const std::string& text) {
  int64_t total = 0;
  size_t pos = 0;
  const std::string needle = "bytes_reserved=";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    total += std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
    pos += needle.size();
  }
  return total;
}

/// One engine for the whole suite: building the million-row table takes
/// 17 statements and none of the tests below mutate it.
class PhysicalPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    RunQuery(*engine_, "CREATE TABLE big (a BIGINT, b BIGINT)");
    std::string seed = "INSERT INTO big VALUES ";
    for (int i = 0; i < 16; ++i) {
      if (i) seed += ", ";
      seed += "(" + std::to_string(i) + ", " + std::to_string(100 - i) + ")";
    }
    RunQuery(*engine_, seed);
    // 16 doublings: 16 * 2^16 rows; the first 16 rows stay a = 0..15.
    for (int i = 0; i < 16; ++i) {
      RunQuery(*engine_, "INSERT INTO big SELECT a, b FROM big");
    }
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* PhysicalPlanTest::engine_ = nullptr;

TEST_F(PhysicalPlanTest, FixtureHasMillionRows) {
  auto r = RunQuery(*engine_, "SELECT count(*) FROM big");
  EXPECT_EQ(r.GetInt(0, 0), kBigRows);
}

// --- LIMIT early exit -------------------------------------------------------

TEST_F(PhysicalPlanTest, BoundedLimitScansOnlyPrefix) {
  // Every transform between scan and limit preserves cardinality, so the
  // scheduler bounds the scan itself: LIMIT 10 over a million-row table
  // must touch O(k) rows, not the whole relation.
  std::string text = AnalyzeText(*engine_, "SELECT a FROM big LIMIT 10");
  int64_t scanned = Metric(text, "Scan big", "rows_out");
  EXPECT_GE(scanned, 10) << text;
  EXPECT_LE(scanned, 16384) << text;  // far fewer than 1M; one morsel max
  EXPECT_EQ(Metric(text, "Limit 10", "rows_out"), 10) << text;

  // Bounded scans are deterministic: the first 10 rows in table order.
  auto rows = IntColumn(RunQuery(*engine_, "SELECT a FROM big LIMIT 10"), 0);
  ASSERT_EQ(rows.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(rows[i], i);
}

TEST_F(PhysicalPlanTest, FilteredLimitStopsEarlyAcrossWorkers) {
  // A filter breaks the cardinality bound, so early exit relies on the
  // sink's done() flag propagating to all workers between morsels.
  std::string text =
      AnalyzeText(*engine_, "SELECT a FROM big WHERE a >= 0 LIMIT 10");
  int64_t scanned = Metric(text, "Scan big", "rows_out");
  EXPECT_GE(scanned, 10) << text;
  EXPECT_LT(scanned, kBigRows / 2) << text;
  auto r = RunQuery(*engine_, "SELECT a FROM big WHERE a >= 0 LIMIT 10");
  EXPECT_EQ(r.num_rows(), 10u);
}

TEST_F(PhysicalPlanTest, LimitOffsetReturnsExactWindow) {
  auto rows = IntColumn(
      RunQuery(*engine_, "SELECT a FROM big LIMIT 5 OFFSET 3"), 0);
  ASSERT_EQ(rows.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(rows[i], i + 3);
}

TEST_F(PhysicalPlanTest, LimitZeroProducesNoRowsAndScansNothing) {
  std::string text = AnalyzeText(*engine_, "SELECT a FROM big LIMIT 0");
  EXPECT_LE(Metric(text, "Scan big", "rows_out"), 0) << text;
  auto r = RunQuery(*engine_, "SELECT a FROM big LIMIT 0");
  EXPECT_EQ(r.num_rows(), 0u);
}

// --- Typed sort comparator --------------------------------------------------

TEST_F(PhysicalPlanTest, SortComparesBigintExactly) {
  // 2^53 and 2^53 + 1 are indistinguishable as doubles; the typed
  // comparator must order them exactly.
  Engine local;
  RunQuery(local, "CREATE TABLE w (v BIGINT)");
  RunQuery(local,
           "INSERT INTO w VALUES (9007199254740993), (9007199254740992)");
  auto asc = IntColumn(RunQuery(local, "SELECT v FROM w ORDER BY v"), 0);
  ASSERT_EQ(asc.size(), 2u);
  EXPECT_EQ(asc[0], INT64_C(9007199254740992));
  EXPECT_EQ(asc[1], INT64_C(9007199254740993));
  auto desc = IntColumn(RunQuery(local, "SELECT v FROM w ORDER BY v DESC"), 0);
  EXPECT_EQ(desc[0], INT64_C(9007199254740993));
  EXPECT_EQ(desc[1], INT64_C(9007199254740992));
}

TEST_F(PhysicalPlanTest, SortNullsFirstAscLastDesc) {
  Engine local;
  RunQuery(local, "CREATE TABLE w (v BIGINT)");
  RunQuery(local, "INSERT INTO w VALUES (2), (NULL), (1)");
  auto asc = RunQuery(local, "SELECT v FROM w ORDER BY v");
  ASSERT_EQ(asc.num_rows(), 3u);
  EXPECT_TRUE(asc.IsNull(0, 0));
  EXPECT_EQ(asc.GetInt(1, 0), 1);
  EXPECT_EQ(asc.GetInt(2, 0), 2);
  auto desc = RunQuery(local, "SELECT v FROM w ORDER BY v DESC");
  EXPECT_EQ(desc.GetInt(0, 0), 2);
  EXPECT_EQ(desc.GetInt(1, 0), 1);
  EXPECT_TRUE(desc.IsNull(2, 0));
}

TEST_F(PhysicalPlanTest, SortIsStableOnEqualKeys) {
  // Small input runs serially, so insertion order is the tiebreak the
  // stable sort must preserve.
  Engine local;
  RunQuery(local, "CREATE TABLE w (k BIGINT, seq BIGINT)");
  RunQuery(local,
           "INSERT INTO w VALUES (1, 0), (0, 1), (1, 2), (0, 3), (1, 4)");
  auto r = RunQuery(local, "SELECT k, seq FROM w ORDER BY k");
  auto seq = IntColumn(r, 1);
  std::vector<int64_t> want = {1, 3, 0, 2, 4};
  EXPECT_EQ(seq, want);
}

TEST_F(PhysicalPlanTest, SortOverFilterAgreesWithSortOverBareTable) {
  // ORDER BY over a filter sorts the filter's materialized stream (worker
  // partials reassembled in source order); ORDER BY over a bare table
  // sorts a selection of its columns. Both must produce identical
  // orderings.
  RunQuery(*engine_, "CREATE TABLE sorted_src (a BIGINT, b BIGINT)");
  RunQuery(*engine_,
           "INSERT INTO sorted_src SELECT a, b FROM big WHERE a >= 14");
  auto streaming = RunQuery(
      *engine_,
      "SELECT a, b FROM big WHERE a >= 14 ORDER BY a DESC, b");
  auto fast =
      RunQuery(*engine_, "SELECT a, b FROM sorted_src ORDER BY a DESC, b");
  ASSERT_EQ(streaming.num_rows(), static_cast<size_t>(2 * (1 << 16)));
  ASSERT_EQ(streaming.num_rows(), fast.num_rows());
  for (size_t i = 0; i < streaming.num_rows(); ++i) {
    ASSERT_EQ(streaming.GetInt(i, 0), fast.GetInt(i, 0)) << "row " << i;
    ASSERT_EQ(streaming.GetInt(i, 1), fast.GetInt(i, 1)) << "row " << i;
  }
  EXPECT_EQ(streaming.GetInt(0, 0), 15);
  EXPECT_EQ(streaming.GetInt(streaming.num_rows() - 1, 0), 14);
}

TEST_F(PhysicalPlanTest, SortChargesItsComputedKeys) {
  // A computed key over a UNION ALL: the Sort operator holds the union's
  // rows, one evaluated key per row, the permutation and the output, and
  // charges all of them.
  const std::string text = AnalyzeText(
      *engine_, "SELECT a FROM big UNION ALL SELECT a FROM big ORDER BY a + 1");
  const int64_t column_bytes = 2 * kBigRows * 8;
  EXPECT_GE(TotalBytesReserved(text), 3 * column_bytes) << text;
  const size_t sort = text.find("\n  Sort [(a#0 + 1)]");
  ASSERT_NE(sort, std::string::npos) << text;
  EXPECT_GE(TotalBytesReserved(text.substr(sort)), 2 * column_bytes) << text;
  auto r = RunQuery(*engine_,
                    "SELECT a FROM big UNION ALL SELECT a FROM big "
                    "ORDER BY a + 1");
  ASSERT_EQ(r.num_rows(), static_cast<size_t>(2 * kBigRows));
  EXPECT_EQ(r.GetInt(0, 0), 0);
  EXPECT_EQ(r.GetInt(r.num_rows() - 1, 0), 15);
}

TEST_F(PhysicalPlanTest, HiddenSortColumnCostsOnlyTheSort) {
  // `ORDER BY b` without b in the select list: the sort's input and the
  // final Project are column selections. Over a flat table they share
  // buffers, so only the sort reserves: a and b sorted plus the uint32
  // permutation, 20 B a row. A sealed table adds the decode of a and b,
  // 16 B a row.
  auto sealed = engine_->catalog().GetTable("big");
  ASSERT_OK(sealed.status());
  ASSERT_TRUE((*sealed)->sealed());
  auto decoded = FlatView(*sealed, nullptr);
  ASSERT_OK(decoded.status());
  // Its columns carry spare capacity, which the sort must not charge for
  // its output.
  const Table& rows = **decoded;
  Column a(DataType::kBigInt), b(DataType::kBigInt);
  a.Reserve(2 * rows.num_rows());
  b.Reserve(2 * rows.num_rows());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    a.AppendBigInt(rows.column(0).GetBigInt(r));
    b.AppendBigInt(rows.column(1).GetBigInt(r));
  }
  auto flat = std::make_shared<Table>("big_flat", rows.schema());
  ASSERT_OK(flat->SetColumn(0, std::move(a)));
  ASSERT_OK(flat->SetColumn(1, std::move(b)));
  ASSERT_OK(engine_->catalog().RegisterTable(flat));
  const std::string flat_sql = "SELECT a FROM big_flat ORDER BY b";
  const std::string sealed_sql = "SELECT a FROM big ORDER BY b";
  const std::string flat_text = AnalyzeText(*engine_, flat_sql);
  const std::string sealed_text = AnalyzeText(*engine_, sealed_sql);
  EXPECT_LE(TotalBytesReserved(flat_text), 20 * kBigRows) << flat_text;
  EXPECT_LE(TotalBytesReserved(sealed_text), 36 * kBigRows) << sealed_text;
  EXPECT_EQ(Metric(flat_text, "Project [a#0]", "rows_out"), kBigRows)
      << flat_text;
  const QueryResult flat_rows = RunQuery(*engine_, flat_sql);
  const QueryResult sealed_rows = RunQuery(*engine_, sealed_sql);
  ASSERT_EQ(flat_rows.num_rows(), static_cast<size_t>(kBigRows));
  ASSERT_EQ(sealed_rows.num_rows(), flat_rows.num_rows());
  for (size_t i = 0; i < flat_rows.num_rows(); ++i) {
    ASSERT_EQ(flat_rows.GetInt(i, 0), sealed_rows.GetInt(i, 0)) << i;
  }
  EXPECT_EQ(flat_rows.GetInt(0, 0), 15);  // b = 85 is the smallest key
  RunQuery(*engine_, "DROP TABLE big_flat");
}

TEST_F(PhysicalPlanTest, TopNIsOnePipelineWithBoundedMemory) {
  // ORDER BY ... LIMIT lowers to one Top-N sink: a single pipeline whose
  // sink line reads "Sort [...] top 10", holding a few thousand candidate
  // rows instead of a sorted copy of all 1M.
  const std::string sql = "SELECT a, b FROM big ORDER BY b DESC, a LIMIT 10";
  const std::string text = AnalyzeText(*engine_, sql);
  EXPECT_EQ(text.find("\nP1"), std::string::npos) << text;
  EXPECT_NE(text.find("\n  Sort [b#1 DESC, a#0] top 10"), std::string::npos)
      << text;
  EXPECT_EQ(Metric(text, "top 10", "rows_in"), kBigRows) << text;
  EXPECT_EQ(Metric(text, "top 10", "rows_out"), 10) << text;
  EXPECT_LT(TotalBytesReserved(text), 1 << 20) << text;
  QueryResult r = RunQuery(*engine_, sql);
  ASSERT_EQ(r.num_rows(), 10u);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    EXPECT_EQ(r.GetInt(i, 0), 0);
    EXPECT_EQ(r.GetInt(i, 1), 100);
  }
}

// --- UNION ALL streaming ----------------------------------------------------

TEST_F(PhysicalPlanTest, UnionAllStreamsBothBranches) {
  auto r = RunQuery(*engine_,
                    "SELECT count(*) FROM ("
                    "SELECT a FROM big WHERE a < 1 "
                    "UNION ALL SELECT a FROM big) u");
  EXPECT_EQ(r.GetInt(0, 0), kBigRows / 16 + kBigRows);
}

TEST_F(PhysicalPlanTest, UnionAllDoesNotDoubleChargeMemory) {
  // Both branches stream straight into the shared sink, so the query
  // reserves roughly the 16 MB of output once — not once per branch plus
  // once for the merged copy (~32 MB) as the materialize-everything
  // interpreter did.
  std::string text =
      AnalyzeText(*engine_, "SELECT a FROM big UNION ALL SELECT a FROM big");
  int64_t total = TotalBytesReserved(text);
  const int64_t output_bytes = 2 * kBigRows * 8;
  EXPECT_GE(total, output_bytes) << text;
  EXPECT_LE(total, output_bytes + output_bytes / 4) << text;
}

// --- Fault teardown ---------------------------------------------------------

TEST_F(PhysicalPlanTest, MidPipelineFaultTearsDownCleanly) {
  const std::string sql = "SELECT count(*) FROM big WHERE a >= 0";
  FaultInjector::Global().Arm("exec.morsel", FaultInjector::Kind::kError);
  auto failed = engine_->Execute(sql);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  FaultInjector::Global().Reset();
  // All workers unwound and the table is untouched: the same query
  // immediately succeeds with the right answer.
  auto r = RunQuery(*engine_, sql);
  EXPECT_EQ(r.GetInt(0, 0), kBigRows);
}

TEST_F(PhysicalPlanTest, FaultDuringLimitEarlyExitLeavesEngineUsable) {
  // The LIMIT sink stores its rows through storage appends.
  FaultInjector::Global().Arm("storage.append", FaultInjector::Kind::kOom);
  auto failed =
      engine_->Execute("SELECT a FROM big WHERE a >= 0 LIMIT 10");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  FaultInjector::Global().Reset();
  auto r = RunQuery(*engine_, "SELECT a FROM big WHERE a >= 0 LIMIT 10");
  EXPECT_EQ(r.num_rows(), 10u);
}

}  // namespace
}  // namespace soda
