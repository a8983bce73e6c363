/// PREPARE / EXECUTE / DEALLOCATE (DESIGN.md §11): parameter typing at
/// prepare time, literal substitution into a pre-optimized plan at
/// execute time (plus scan pushdown and partition pruning of the
/// substituted arguments), transparent re-preparation on staleness, and
/// strict per-session isolation of statement names.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/segment.h"
#include "tests/test_util.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::RunQuery;

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(engine_.Execute("CREATE TABLE t (a INTEGER, b FLOAT)")
                  .status());
    ASSERT_OK(
        engine_.Execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
            .status());
  }
  Engine engine_;
};

TEST_F(PreparedTest, PrepareExecuteDeallocateRoundTrip) {
  ASSERT_OK(engine_
                .Execute("PREPARE q (INTEGER) AS "
                         "SELECT a, b FROM t WHERE a = $1")
                .status());
  QueryResult r = RunQuery(engine_, "EXECUTE q (2)");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetInt(0, 0), 2);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 2.5);
  // Different argument, same plan.
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (3)").GetInt(0, 0), 3);
  // No match is an empty relation, not an error.
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (99)").num_rows(), 0u);
  ASSERT_OK(engine_.Execute("DEALLOCATE q").status());
  ExpectError(engine_, "EXECUTE q (1)", StatusCode::kKeyError);
  ExpectError(engine_, "DEALLOCATE q", StatusCode::kKeyError);
}

TEST_F(PreparedTest, ParameterTypesAreInferredFromContext) {
  // No declared types: $1 takes a's column type from the comparison.
  ASSERT_OK(engine_.Execute("PREPARE q AS SELECT b FROM t WHERE a = $1")
                .status());
  EXPECT_DOUBLE_EQ(RunQuery(engine_, "EXECUTE q (1)").GetDouble(0, 0), 1.5);
}

TEST_F(PreparedTest, ArityMismatchIsACleanError) {
  ASSERT_OK(engine_
                .Execute("PREPARE q (INTEGER) AS SELECT a FROM t "
                         "WHERE a = $1")
                .status());
  ExpectError(engine_, "EXECUTE q", StatusCode::kInvalidArgument);
  ExpectError(engine_, "EXECUTE q (1, 2)", StatusCode::kInvalidArgument);
}

TEST_F(PreparedTest, TypeMismatchIsACleanTypeError) {
  ASSERT_OK(engine_
                .Execute("PREPARE q (INTEGER) AS SELECT a FROM t "
                         "WHERE a = $1")
                .status());
  auto bad = engine_.Execute("EXECUTE q ('not a number')");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError)
      << bad.status().ToString();
  // The error names the offending slot.
  EXPECT_NE(bad.status().message().find("$1"), std::string::npos)
      << bad.status().ToString();
  // Numeric widening casts are fine: bigint literal into INTEGER slot,
  // and the statement keeps working after the failed attempt.
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (2)").GetInt(0, 0), 2);
}

TEST_F(PreparedTest, ParametersOutsidePrepareAreRejected) {
  ExpectError(engine_, "SELECT a FROM t WHERE a = $1",
              StatusCode::kBindError);
}

TEST_F(PreparedTest, PreparedInsertSubstitutesValues) {
  ASSERT_OK(engine_
                .Execute("PREPARE add_row (INTEGER, FLOAT) AS "
                         "INSERT INTO t VALUES ($1, $2)")
                .status());
  ASSERT_OK(engine_.Execute("EXECUTE add_row (10, 10.5)").status());
  ASSERT_OK(engine_.Execute("EXECUTE add_row (11, 11.5)").status());
  QueryResult r =
      RunQuery(engine_, "SELECT b FROM t WHERE a >= 10 ORDER BY a");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 0), 11.5);
}

TEST_F(PreparedTest, ExecuteSurvivesDmlOnDependencies) {
  ASSERT_OK(engine_
                .Execute("PREPARE q AS SELECT count(*) FROM t WHERE a <= $1")
                .status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (100)").GetInt(0, 0), 3);
  ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (4, 4.5)").status());
  // The dependency version moved; EXECUTE transparently re-binds and
  // sees the new row.
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (100)").GetInt(0, 0), 4);
}

TEST_F(PreparedTest, ExecuteRepreparesAfterDropCreate) {
  ASSERT_OK(engine_.Execute("PREPARE q AS SELECT a FROM t WHERE a = $1")
                .status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (1)").GetInt(0, 0), 1);
  ASSERT_OK(engine_.Execute("DROP TABLE t").status());
  ASSERT_OK(
      engine_.Execute("CREATE TABLE t (z VARCHAR, a INTEGER)").status());
  ASSERT_OK(engine_.Execute("INSERT INTO t VALUES ('v', 7)").status());
  // Same statement, new schema: re-prepared against the new shape.
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q (7)").GetInt(0, 0), 7);
  // And a body referencing a column the new table lacks errs at PREPARE.
  ExpectError(engine_, "PREPARE qb AS SELECT b FROM t WHERE a = $1",
              StatusCode::kBindError);
}

TEST_F(PreparedTest, RePrepareReplacesTheStatement) {
  ASSERT_OK(engine_.Execute("PREPARE q AS SELECT 1").status());
  ASSERT_OK(engine_.Execute("PREPARE q AS SELECT 2").status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE q").GetInt(0, 0), 2);
}

TEST_F(PreparedTest, OnlySelectAndInsertBodies) {
  ExpectError(engine_, "PREPARE q AS DROP TABLE t",
              StatusCode::kParseError);
}

TEST_F(PreparedTest, CrossSessionIsolation) {
  // Two sessions with private registries: names do not leak.
  PreparedRegistry session_a;
  PreparedRegistry session_b;
  ExecOptions a;
  a.prepared = &session_a;
  ExecOptions b;
  b.prepared = &session_b;
  ASSERT_OK(
      engine_.Execute("PREPARE q AS SELECT count(*) FROM t", a).status());
  auto leak = engine_.Execute("EXECUTE q", b);
  ASSERT_FALSE(leak.ok()) << "session B must not see session A's q";
  EXPECT_EQ(leak.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM t").num_rows(), 1u);
  // Same name, different bodies, no interference.
  ASSERT_OK(engine_.Execute("PREPARE q AS SELECT min(a) FROM t", b).status());
  auto ra = engine_.Execute("EXECUTE q", a);
  auto rb = engine_.Execute("EXECUTE q", b);
  ASSERT_OK(ra.status());
  ASSERT_OK(rb.status());
  EXPECT_EQ(ra->GetInt(0, 0), 3);
  EXPECT_EQ(rb->GetInt(0, 0), 1);
  // The engine-global registry (null exec.prepared) is a third namespace.
  ExpectError(engine_, "EXECUTE q", StatusCode::kKeyError);
}

TEST_F(PreparedTest, NamesAreCaseInsensitive) {
  ASSERT_OK(engine_.Execute("PREPARE MyQuery AS SELECT 42").status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE myquery").GetInt(0, 0), 42);
  ASSERT_OK(engine_.Execute("DEALLOCATE MYQUERY").status());
}

TEST_F(PreparedTest, ExecuteRecyclesJoinBuilds) {
  // The parameter lives above the join, in the projection: both join
  // inputs are bare scans of t, so the build-side fingerprint is
  // identical across EXECUTEs with different arguments. (A parameter in a
  // WHERE clause would be pushed into a scan, and the optimizer builds on
  // the filtered — smaller — side, giving each argument its own build.)
  ASSERT_OK(engine_
                .Execute("PREPARE j (INTEGER) AS "
                         "SELECT x.a + $1 FROM t x JOIN t y ON x.a = y.a "
                         "ORDER BY x.a")
                .status());
  int64_t hits = engine_.ht_recycler().stats().hits;
  QueryResult r1 = RunQuery(engine_, "EXECUTE j (10)");
  ASSERT_EQ(r1.num_rows(), 3u);
  EXPECT_EQ(r1.GetInt(0, 0), 11);
  QueryResult r2 = RunQuery(engine_, "EXECUTE j (20)");
  ASSERT_EQ(r2.num_rows(), 3u);
  EXPECT_EQ(r2.GetInt(0, 0), 21);
  EXPECT_GE(engine_.ht_recycler().stats().hits, hits + 1);
}

// --- scan pushdown of substituted arguments ---------------------------------

/// hp: 16 rows (cust = 0..15, v = 10 * cust), hash-partitioned on cust,
/// sealed by the INSERT (partitioned tables seal eagerly).
void CreatePartitionedTable(Engine& engine) {
  ASSERT_OK(engine
                .Execute("CREATE TABLE hp (cust BIGINT, v BIGINT) "
                         "PARTITION BY HASH(cust) PARTITIONS 4")
                .status());
  std::string insert = "INSERT INTO hp VALUES ";
  for (int c = 0; c < 16; ++c) {
    if (c) insert += ", ";
    insert += "(" + std::to_string(c) + ", " + std::to_string(10 * c) + ")";
  }
  ASSERT_OK(engine.Execute(insert).status());
  auto table = engine.catalog().GetTable("hp");
  ASSERT_OK(table.status());
  ASSERT_TRUE((*table)->sealed());
  ASSERT_GE((*table)->num_row_groups(), 2u);
}

TEST_F(PreparedTest, ExecutePrunesPartitionsLikeLiteralText) {
  CreatePartitionedTable(engine_);
  // Rot row group 0's key segment and scrub: its partition is
  // quarantined, the others stay readable — but only to a scan that
  // prunes down to them.
  {
    auto table = engine_.catalog().GetTable("hp");
    ASSERT_OK(table.status());
    auto* seg = const_cast<Segment*>((*table)->group_segment(0, 0).get());
    ASSERT_NE(seg, nullptr);
    seg->stats.min_i64 ^= 0x7f;
  }
  ASSERT_OK(engine_.Execute("SCRUB").status());
  ASSERT_OK(
      engine_.Execute("PREPARE q AS SELECT v FROM hp WHERE cust = $1")
          .status());
  int healthy = 0;
  int lost = 0;
  for (int c = 0; c < 16; ++c) {
    const std::string arg = std::to_string(c);
    auto literal = engine_.Execute("SELECT v FROM hp WHERE cust = " + arg);
    auto prepared = engine_.Execute("EXECUTE q (" + arg + ")");
    ASSERT_EQ(literal.ok(), prepared.ok())
        << "cust " << c << ": literal " << literal.status().ToString()
        << ", prepared " << prepared.status().ToString();
    if (!prepared.ok()) {
      EXPECT_EQ(prepared.status().code(), StatusCode::kDataLoss);
      ++lost;
      continue;
    }
    ++healthy;
    ASSERT_EQ(prepared->num_rows(), 1u) << "cust " << c;
    EXPECT_EQ(prepared->GetInt(0, 0), 10 * c);
  }
  EXPECT_GT(healthy, 0);
  EXPECT_GT(lost, 0);
}

TEST_F(PreparedTest, PushdownLeavesTheSharedPlanUntouched) {
  // Each EXECUTE pushes its own argument into a private plan copy; a
  // pushdown into the shared plan would prune the next EXECUTE down to
  // the previous argument's partition.
  CreatePartitionedTable(engine_);
  ASSERT_OK(
      engine_.Execute("PREPARE q AS SELECT v FROM hp WHERE cust = $1")
          .status());
  for (int c : {3, 6, 3, 0, 15, 7}) {
    QueryResult r = RunQuery(engine_, "EXECUTE q (" + std::to_string(c) + ")");
    ASSERT_EQ(r.num_rows(), 1u) << "cust " << c;
    EXPECT_EQ(r.GetInt(0, 0), 10 * c);
  }
}

TEST_F(PreparedTest, UnpushableArgumentsStayCorrect) {
  CreatePartitionedTable(engine_);
  // NULL never matches and never becomes a pushed predicate.
  ASSERT_OK(
      engine_.Execute("PREPARE qn AS SELECT v FROM hp WHERE cust = $1")
          .status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE qn (NULL)").num_rows(), 0u);
  EXPECT_EQ(RunQuery(engine_, "EXECUTE qn (5)").GetInt(0, 0), 50);
  // A non-integral DOUBLE cannot be pushed against a BIGINT column; an
  // integral one can. Both answer like the unpushed filter.
  ASSERT_OK(engine_
                .Execute("PREPARE qd (DOUBLE) AS "
                         "SELECT v FROM hp WHERE cust = $1")
                .status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE qd (2.5)").num_rows(), 0u);
  QueryResult two = RunQuery(engine_, "EXECUTE qd (2.0)");
  ASSERT_EQ(two.num_rows(), 1u);
  EXPECT_EQ(two.GetInt(0, 0), 20);
  QueryResult le = RunQuery(
      engine_, "SELECT count(*) FROM hp WHERE cust <= 2.5");
  ASSERT_OK(engine_
                .Execute("PREPARE qr (DOUBLE) AS "
                         "SELECT count(*) FROM hp WHERE cust <= $1")
                .status());
  EXPECT_EQ(RunQuery(engine_, "EXECUTE qr (2.5)").GetInt(0, 0),
            le.GetInt(0, 0));
  EXPECT_EQ(le.GetInt(0, 0), 3);
}

}  // namespace
}  // namespace soda
