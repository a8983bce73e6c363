/// Tests for UPDATE / DELETE / CREATE TABLE AS and their copy-on-write
/// snapshot semantics — the "update-friendly data management" side of the
/// paper's one-system argument (§1: analytics over *fresh* data without
/// ETL cycles).

#include <gtest/gtest.h>

#include "storage/segment.h"
#include "tests/test_util.h"
#include "util/query_guard.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::IntColumn;
using testing::RunQuery;

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(engine_.Execute("CREATE TABLE t (a INTEGER, b FLOAT, s TEXT)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("INSERT INTO t VALUES (1, 1.0, 'x'), "
                           "(2, 2.0, 'y'), (3, 3.0, 'z'), (4, 4.0, 'w')")
                  .status());
  }
  Engine engine_;
};

TEST_F(DmlTest, DeleteWithPredicate) {
  ASSERT_OK(engine_.Execute("DELETE FROM t WHERE a % 2 = 0").status());
  auto r = RunQuery(engine_, "SELECT a FROM t ORDER BY a");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{1, 3}));
}

TEST_F(DmlTest, DeleteAllRows) {
  ASSERT_OK(engine_.Execute("DELETE FROM t").status());
  auto r = RunQuery(engine_, "SELECT count(*) FROM t");
  EXPECT_EQ(r.GetInt(0, 0), 0);
  // Table still exists and accepts inserts.
  ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (9, 9.0, 'q')").status());
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 1);
}

TEST_F(DmlTest, DeleteMatchingNothing) {
  ASSERT_OK(engine_.Execute("DELETE FROM t WHERE a > 100").status());
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 4);
}

TEST_F(DmlTest, UpdateSingleColumn) {
  ASSERT_OK(
      engine_.Execute("UPDATE t SET b = b * 10.0 WHERE a >= 3").status());
  auto r = RunQuery(engine_, "SELECT b FROM t ORDER BY a");
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 0), 30.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(3, 0), 40.0);
}

TEST_F(DmlTest, UpdateMultipleColumnsReferencingOldValues) {
  // All SET expressions see the pre-update snapshot (standard SQL).
  ASSERT_OK(engine_.Execute("UPDATE t SET a = a + 1, b = a * 1.0").status());
  auto r = RunQuery(engine_, "SELECT a, b FROM t ORDER BY a");
  // new a = old a + 1; new b = old a.
  EXPECT_EQ(r.GetInt(0, 0), 2);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 1.0);
  EXPECT_EQ(r.GetInt(3, 0), 5);
  EXPECT_DOUBLE_EQ(r.GetDouble(3, 1), 4.0);
}

TEST_F(DmlTest, UpdateWithNumericCoercionAndStrings) {
  ASSERT_OK(engine_.Execute("UPDATE t SET a = b + 0.9, s = s || '!' "
                            "WHERE a = 1")
                .status());
  auto r = RunQuery(engine_, "SELECT a, s FROM t WHERE s = 'x!'");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetInt(0, 0), 1);  // 1.9 truncated by the BIGINT cast
}

TEST_F(DmlTest, UpdateErrors) {
  ExpectError(engine_, "UPDATE t SET nope = 1", StatusCode::kBindError);
  ExpectError(engine_, "UPDATE t SET a = 's'", StatusCode::kTypeError);
  ExpectError(engine_, "UPDATE nope SET a = 1", StatusCode::kKeyError);
  ExpectError(engine_, "UPDATE t SET a = 1 WHERE a + 1",
              StatusCode::kBindError);
}

TEST_F(DmlTest, CopyOnWriteSnapshotIsolation) {
  // A reader holding the old TablePtr sees the pre-mutation state — the
  // engine's miniature of HyPer's snapshot mechanism.
  auto before = engine_.catalog().GetTable("t");
  ASSERT_OK(before.status());
  TablePtr snapshot = *before;
  ASSERT_OK(engine_.Execute("DELETE FROM t WHERE a > 0").status());
  EXPECT_EQ(snapshot->num_rows(), 4u);  // old snapshot untouched
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 0);
}

TEST_F(DmlTest, CreateTableAsSelect) {
  ASSERT_OK(engine_
                .Execute("CREATE TABLE evens AS SELECT a, b * 2 doubled "
                         "FROM t WHERE a % 2 = 0")
                .status());
  auto r = RunQuery(engine_, "SELECT * FROM evens ORDER BY a");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.schema().field(1).name, "doubled");
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 1), 8.0);
}

TEST_F(DmlTest, CreateTableAsColumnSelectionLeavesSourceIntact) {
  // The SELECT is a column selection sharing t's buffers; CTAS takes the
  // result's columns through the copy-on-write write path, so t keeps its
  // rows.
  ASSERT_OK(
      engine_.Execute("CREATE TABLE c AS SELECT s label, a FROM t").status());
  auto src = RunQuery(engine_, "SELECT a, s FROM t ORDER BY a");
  ASSERT_EQ(src.num_rows(), 4u);
  EXPECT_EQ(src.GetInt(3, 0), 4);
  EXPECT_EQ(src.GetString(3, 1), "w");
  auto copy = RunQuery(engine_, "SELECT * FROM c ORDER BY a");
  ASSERT_EQ(copy.num_rows(), 4u);
  EXPECT_EQ(copy.schema().field(0).name, "label");
  EXPECT_EQ(copy.GetString(0, 0), "x");
  ASSERT_OK(engine_.Execute("INSERT INTO c VALUES ('v', 5)").status());
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 4);
}

TEST_F(DmlTest, CreateTableAsOperatorOutput) {
  // CTAS straight from an analytics operator: persist a model/result.
  ASSERT_OK(engine_.Execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
                .status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO e VALUES (1,2),(2,1),(2,3)").status());
  ASSERT_OK(engine_
                .Execute("CREATE TABLE ranks AS SELECT * FROM PAGERANK("
                         "(SELECT src, dst FROM e), 0.85, 0.0, 10)")
                .status());
  auto r = RunQuery(engine_, "SELECT count(*) FROM ranks");
  EXPECT_EQ(r.GetInt(0, 0), 3);
}

TEST_F(DmlTest, CreateTableAsFailureLeavesNoTable) {
  ExpectError(engine_, "CREATE TABLE broken AS SELECT nope FROM t",
              StatusCode::kBindError);
  EXPECT_FALSE(engine_.catalog().HasTable("broken"));
}

// --- all-or-nothing statement semantics ----------------------------------

TEST_F(DmlTest, InsertArityErrorInLaterRowLeavesNoRows) {
  // The second VALUES row is malformed; the first must not stick. (INSERT
  // stages into a side table and swaps, like UPDATE/DELETE.)
  ExpectError(engine_, "INSERT INTO t VALUES (9, 9.0, 'q'), (10, 10.0)",
              StatusCode::kBindError);
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 4);
  EXPECT_EQ(
      RunQuery(engine_, "SELECT count(*) FROM t WHERE a = 9").GetInt(0, 0),
      0);
}

TEST_F(DmlTest, InsertFaultMidStatementLeavesTableUnchanged) {
  // skip=1: the first exec.dml probe passes (one row staged), the second
  // fires — a mid-statement failure must roll the whole INSERT back.
  FaultInjector::Global().Arm("exec.dml", FaultInjector::Kind::kError, 1);
  ExpectError(engine_, "INSERT INTO t VALUES (9, 9.0, 'q'), (10, 10.0, 'r')",
              StatusCode::kInternal);
  FaultInjector::Global().Reset();
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 4);
  // And the table still accepts writes afterwards.
  ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (9, 9.0, 'q')").status());
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 5);
}

TEST_F(DmlTest, InsertIsCopyOnWrite) {
  // INSERT swaps in a rebuilt table; a reader holding the old TablePtr
  // keeps its snapshot, same as UPDATE/DELETE.
  auto before = engine_.catalog().GetTable("t");
  ASSERT_OK(before.status());
  TablePtr snapshot = *before;
  ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (9, 9.0, 'q')").status());
  EXPECT_EQ(snapshot->num_rows(), 4u);
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").GetInt(0, 0), 5);
}

TEST_F(DmlTest, UpdateEvaluatesSetOnlyOverSelectedRows) {
  // Only the WHERE-selected row has a numeric string; casting the others
  // would fail. The SET expression must therefore be evaluated over the
  // selected rows only (gather-evaluate-scatter), not the whole table.
  ASSERT_OK(engine_.Execute("UPDATE t SET s = '42' WHERE a = 1").status());
  ASSERT_OK(engine_
                .Execute("UPDATE t SET a = CAST(s AS INTEGER) "
                         "WHERE s = '42'")
                .status());
  auto r = RunQuery(engine_, "SELECT a FROM t ORDER BY a");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{2, 3, 4, 42}));
  // Sanity check: evaluating the same cast over unselected rows does fail.
  ExpectError(engine_, "UPDATE t SET a = CAST(s AS INTEGER)",
              StatusCode::kTypeError);
}

TEST_F(DmlTest, UpdateFaultMidStatementLeavesTableUnchanged) {
  FaultInjector::Global().Arm("exec.dml", FaultInjector::Kind::kError, 1);
  ExpectError(engine_, "UPDATE t SET a = a + 100", StatusCode::kInternal);
  FaultInjector::Global().Reset();
  auto r = RunQuery(engine_, "SELECT a FROM t ORDER BY a");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(DmlTest, UpdateSkipsRowGroupsTheZoneMapsRuleOut) {
  testing::CreateSequenceTable(engine_, "big",
                               5 * static_cast<int64_t>(kSegmentRows));
  // skip=1: one exec.dml probe passes, the second fires. The zone maps of
  // `k` rule out every group but the one holding k = 40000, so the UPDATE
  // decodes, edits and probes that group alone.
  FaultInjector::Global().Arm("exec.dml", FaultInjector::Kind::kError, 1);
  ASSERT_OK(engine_.Execute("UPDATE big SET v = -1 WHERE k = 40000").status());
  FaultInjector::Global().Reset();
  EXPECT_EQ(
      RunQuery(engine_, "SELECT v FROM big WHERE k = 40000").GetInt(0, 0), -1);
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM big WHERE v = -1")
                .GetInt(0, 0),
            1);
  // Every group may hold v = 3, so this UPDATE reaches the second probe.
  FaultInjector::Global().Arm("exec.dml", FaultInjector::Kind::kError, 1);
  ExpectError(engine_, "UPDATE big SET v = -2 WHERE v = 3",
              StatusCode::kInternal);
  FaultInjector::Global().Reset();
}

TEST_F(DmlTest, AnalyticsSeeFreshDataAfterDml) {
  // The paper's anti-staleness argument, end to end: mutate, then run the
  // operator — no reload step in between.
  ASSERT_OK(engine_.Execute("CREATE TABLE pts (x FLOAT, y FLOAT)").status());
  ASSERT_OK(engine_
                .Execute("INSERT INTO pts VALUES (0.0, 0.0), (1.0, 1.0), "
                         "(50.0, 50.0)")
                .status());
  ASSERT_OK(engine_.Execute("DELETE FROM pts WHERE x = 50.0").status());
  ASSERT_OK(engine_.Execute("UPDATE pts SET y = y + 1.0").status());
  auto r = RunQuery(engine_,
                    "SELECT * FROM KMEANS((SELECT x, y FROM pts), "
                    "(SELECT x, y FROM pts LIMIT 1), 5)");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 0.5);   // mean x of {0, 1}
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1.5);   // mean of updated y {1, 2}
}

TEST_F(DmlTest, OneRowUpdateAndDeleteShareUntouchedRowGroups) {
  // 40,000 rows seal into three row groups of an unpartitioned table. A
  // statement that changes one row rebuilds only that row's group; the
  // next version shares every other group's segments by pointer.
  std::string values = "INSERT INTO keys VALUES ";
  for (int i = 0; i < 200; ++i) {
    values += (i ? ", (" : "(") + std::to_string(i) + ")";
  }
  ASSERT_OK(engine_.ExecuteScript("CREATE TABLE keys (k BIGINT); " + values +
                                  "; CREATE TABLE u AS SELECT a.k * 200 + b.k "
                                  "AS k, a.k AS v FROM keys a, keys b")
                .status());
  auto table = [&] { return *engine_.catalog().GetTable("u"); };
  auto shared_groups = [](const Table& prev, const Table& next) {
    size_t shared = 0;
    for (size_t g = 0; g < next.num_row_groups(); ++g) {
      for (size_t h = 0; h < prev.num_row_groups(); ++h) {
        bool same = true;
        for (size_t c = 0; c < prev.num_columns(); ++c) {
          same &= next.group_segment(g, c) == prev.group_segment(h, c);
        }
        shared += same;
      }
    }
    return shared;
  };
  const TablePtr before = table();
  ASSERT_TRUE(before->sealed());
  ASSERT_EQ(before->num_row_groups(), 3u);

  ASSERT_OK(engine_.Execute("UPDATE u SET v = -1 WHERE k = 20000").status());
  const TablePtr updated = table();
  ASSERT_TRUE(updated->sealed());
  EXPECT_EQ(updated->num_row_groups(), 3u);
  EXPECT_EQ(shared_groups(*before, *updated), 2u);
  EXPECT_EQ(RunQuery(engine_, "SELECT k FROM u WHERE v = -1").GetInt(0, 0),
            20000);

  ASSERT_OK(engine_.Execute("DELETE FROM u WHERE k = 777").status());
  const TablePtr deleted = table();
  ASSERT_TRUE(deleted->sealed());
  EXPECT_EQ(deleted->num_row_groups(), 3u);
  EXPECT_EQ(shared_groups(*updated, *deleted), 2u);
  EXPECT_EQ(deleted->num_rows(), 39999u);
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM u WHERE k = 777")
                .GetInt(0, 0),
            0);
}

}  // namespace
}  // namespace soda
