/// End-to-end SQL execution tests over the pipeline executor: scans,
/// filters, projections, joins, sorting, limits, unions, subqueries, DDL
/// and DML behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::IntColumn;
using testing::NumericColumn;
using testing::RunQuery;

class ExecSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(engine_.Execute("CREATE TABLE t (a INTEGER, b FLOAT, s TEXT)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("INSERT INTO t VALUES "
                           "(1, 1.5, 'one'), (2, 2.5, 'two'), "
                           "(3, 3.5, 'three'), (4, 4.5, 'four')")
                  .status());
  }
  Engine engine_;
};

TEST_F(ExecSqlTest, SelectStar) {
  auto r = RunQuery(engine_, "SELECT * FROM t");
  EXPECT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.num_columns(), 3u);
}

TEST_F(ExecSqlTest, FilterAndProject) {
  auto r = RunQuery(engine_, "SELECT a * 10 x, s FROM t WHERE b > 2.0 AND a < 4");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{20, 30}));
  EXPECT_EQ(r.GetString(1, 1), "three");
}

TEST_F(ExecSqlTest, SelectWithoutFromIsOneRow) {
  auto r = RunQuery(engine_, "SELECT 6 * 7 answer, 'hi' msg");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetInt(0, 0), 42);
  EXPECT_EQ(r.GetString(0, 1), "hi");
  EXPECT_EQ(r.schema().field(0).name, "answer");
}

TEST_F(ExecSqlTest, OrderByAscDescAndNulls) {
  ASSERT_OK(engine_.Execute("CREATE TABLE n (x INTEGER)").status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO n VALUES (3), (NULL), (1), (2)").status());
  auto asc = RunQuery(engine_, "SELECT x FROM n ORDER BY x");
  ASSERT_EQ(asc.num_rows(), 4u);
  EXPECT_TRUE(asc.IsNull(0, 0));  // NULLs first
  EXPECT_EQ(asc.GetInt(1, 0), 1);
  EXPECT_EQ(asc.GetInt(3, 0), 3);
  auto desc = RunQuery(engine_, "SELECT x FROM n ORDER BY x DESC");
  EXPECT_EQ(desc.GetInt(0, 0), 3);
  EXPECT_TRUE(desc.IsNull(3, 0));
}

TEST_F(ExecSqlTest, OrderByExpressionAndMultipleKeys) {
  auto r = RunQuery(engine_, "SELECT a, s FROM t ORDER BY a % 2, a DESC");
  // even (0): 4, 2 then odd (1): 3, 1
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{4, 2, 3, 1}));
}

TEST_F(ExecSqlTest, OrderByConstantKeepsSourceOrder) {
  // A constant key orders nothing (PostgreSQL accepts it): rows come back
  // in source order, with and without LIMIT, and beside a real key.
  ASSERT_OK(engine_.Execute("CREATE TABLE n (x INTEGER)").status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO n VALUES (3), (1), (4), (2)").status());
  EXPECT_EQ(IntColumn(RunQuery(engine_, "SELECT x FROM n ORDER BY NULL"), 0),
            (std::vector<int64_t>{3, 1, 4, 2}));
  EXPECT_EQ(IntColumn(RunQuery(engine_,
                               "SELECT x FROM n ORDER BY NULL LIMIT 2"),
                      0),
            (std::vector<int64_t>{3, 1}));
  EXPECT_EQ(
      IntColumn(RunQuery(engine_, "SELECT x FROM n ORDER BY NULL DESC, x"), 0),
      (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(ExecSqlTest, LimitOffset) {
  auto r = RunQuery(engine_, "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{2, 3}));
  auto all = RunQuery(engine_, "SELECT a FROM t ORDER BY a LIMIT 100");
  EXPECT_EQ(all.num_rows(), 4u);
  auto none = RunQuery(engine_, "SELECT a FROM t LIMIT 0");
  EXPECT_EQ(none.num_rows(), 0u);
}

TEST_F(ExecSqlTest, HashJoin) {
  ASSERT_OK(engine_.Execute("CREATE TABLE u (a INTEGER, w TEXT)").status());
  ASSERT_OK(engine_
                .Execute("INSERT INTO u VALUES (2, 'deux'), (4, 'quatre'), "
                         "(2, 'zwei'), (9, 'neun')")
                .status());
  auto r = RunQuery(engine_,
               "SELECT t.a, u.w FROM t JOIN u ON t.a = u.a ORDER BY t.a, u.w");
  ASSERT_EQ(r.num_rows(), 3u);  // 2 matches twice, 4 once
  EXPECT_EQ(r.GetString(0, 1), "deux");
  EXPECT_EQ(r.GetString(1, 1), "zwei");
  EXPECT_EQ(r.GetString(2, 1), "quatre");
}

TEST_F(ExecSqlTest, CrossJoinCardinality) {
  auto r = RunQuery(engine_, "SELECT t1.a, t2.a FROM t t1, t t2");
  EXPECT_EQ(r.num_rows(), 16u);
}

TEST_F(ExecSqlTest, JoinWithResidualPredicate) {
  auto r = RunQuery(engine_,
               "SELECT t1.a, t2.a FROM t t1 JOIN t t2 "
               "ON t1.a = t2.a AND t1.b + t2.b > 5.0 ORDER BY t1.a");
  // equal keys and 2b > 5 => b > 2.5 => a in {3,4}
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{3, 4}));
}

TEST_F(ExecSqlTest, JoinOnMixedNumericTypes) {
  // BIGINT = DOUBLE keys must match when numerically equal.
  ASSERT_OK(engine_.Execute("CREATE TABLE f (x FLOAT)").status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO f VALUES (2.0), (3.0), (3.5)").status());
  auto r = RunQuery(engine_, "SELECT t.a FROM t JOIN f ON t.a = f.x ORDER BY t.a");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{2, 3}));
}

TEST_F(ExecSqlTest, SelfJoinWithAliases) {
  auto r = RunQuery(engine_,
               "SELECT x.a, y.a FROM t x JOIN t y ON x.a = y.a - 1 "
               "ORDER BY x.a");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.GetInt(0, 0), 1);
  EXPECT_EQ(r.GetInt(0, 1), 2);
}

TEST_F(ExecSqlTest, UnionAll) {
  auto r = RunQuery(engine_,
               "SELECT a FROM t WHERE a < 2 UNION ALL "
               "SELECT a FROM t WHERE a > 3 UNION ALL SELECT 99 ORDER BY 1");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{1, 4, 99}));
}

TEST_F(ExecSqlTest, SubqueryInFrom) {
  auto r = RunQuery(engine_,
               "SELECT x.v FROM (SELECT a * 2 v FROM t WHERE a <= 2) x "
               "ORDER BY x.v");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{2, 4}));
}

TEST_F(ExecSqlTest, NonRecursiveCte) {
  auto r = RunQuery(engine_,
               "WITH doubled AS (SELECT a * 2 v FROM t) "
               "SELECT sum(v) FROM doubled");
  EXPECT_EQ(r.GetInt(0, 0), 20);
}

TEST_F(ExecSqlTest, CteReferencedTwice) {
  auto r = RunQuery(engine_,
               "WITH c AS (SELECT a FROM t WHERE a <= 2) "
               "SELECT x.a, y.a FROM c x, c y ORDER BY x.a, y.a");
  EXPECT_EQ(r.num_rows(), 4u);
}

TEST_F(ExecSqlTest, CaseEndToEnd) {
  auto r = RunQuery(engine_,
               "SELECT CASE WHEN a % 2 = 0 THEN 'even' ELSE 'odd' END p, a "
               "FROM t ORDER BY a");
  EXPECT_EQ(r.GetString(0, 0), "odd");
  EXPECT_EQ(r.GetString(1, 0), "even");
}

TEST_F(ExecSqlTest, CaseWithoutElseYieldsNull) {
  auto r = RunQuery(engine_,
               "SELECT CASE WHEN a > 3 THEN a END v FROM t ORDER BY a");
  EXPECT_TRUE(r.IsNull(0, 0));
  EXPECT_EQ(r.GetInt(3, 0), 4);
}

TEST_F(ExecSqlTest, CastsInQueries) {
  auto r = RunQuery(engine_, "SELECT CAST(b AS INTEGER) ib FROM t ORDER BY 1");
  EXPECT_EQ(IntColumn(r, 0), (std::vector<int64_t>{1, 2, 3, 4}));
  auto s = RunQuery(engine_, "SELECT CAST(a AS TEXT) || '!' FROM t WHERE a = 1");
  EXPECT_EQ(s.GetString(0, 0), "1!");
}

TEST_F(ExecSqlTest, InsertSelectWithCoercion) {
  ASSERT_OK(engine_.Execute("CREATE TABLE copy (a FLOAT, b INTEGER)")
                .status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO copy SELECT a, b FROM t").status());
  auto r = RunQuery(engine_, "SELECT a, b FROM copy ORDER BY a");
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 1.0);  // INT -> FLOAT
  EXPECT_EQ(r.GetInt(0, 1), 1);              // FLOAT -> INT truncation
}

TEST_F(ExecSqlTest, InsertErrors) {
  ExpectError(engine_, "INSERT INTO t VALUES (1, 2.0)",
              StatusCode::kBindError);  // arity
  ExpectError(engine_, "INSERT INTO nope VALUES (1)", StatusCode::kKeyError);
  ExpectError(engine_, "INSERT INTO t VALUES ('x', 2.0, 'y')",
              StatusCode::kTypeError);
}

TEST_F(ExecSqlTest, DdlLifecycle) {
  ASSERT_OK(engine_.Execute("CREATE TABLE tmp (x INTEGER)").status());
  ExpectError(engine_, "CREATE TABLE tmp (x INTEGER)",
              StatusCode::kAlreadyExists);
  ASSERT_OK(engine_.Execute("CREATE TABLE IF NOT EXISTS tmp (x INTEGER)")
                .status());
  ASSERT_OK(engine_.Execute("DROP TABLE tmp").status());
  ExpectError(engine_, "DROP TABLE tmp", StatusCode::kKeyError);
  ASSERT_OK(engine_.Execute("DROP TABLE IF EXISTS tmp").status());
}

TEST_F(ExecSqlTest, ExecuteScriptReturnsLastResult) {
  auto r = engine_.ExecuteScript(
      "CREATE TABLE sc (x INTEGER); INSERT INTO sc VALUES (5); "
      "SELECT x + 1 FROM sc;");
  ASSERT_OK(r.status());
  EXPECT_EQ(r->GetInt(0, 0), 6);
}

TEST_F(ExecSqlTest, ExplainRendersPlan) {
  auto r = engine_.Explain("SELECT a FROM t WHERE a > 1");
  ASSERT_OK(r.status());
  EXPECT_NE(r->find("Scan t"), std::string::npos);
}

TEST_F(ExecSqlTest, NullLiteralHandling) {
  ASSERT_OK(engine_.Execute("CREATE TABLE nn (x INTEGER, y FLOAT)").status());
  ASSERT_OK(engine_.Execute("INSERT INTO nn VALUES (NULL, 1.0), (2, NULL)")
                .status());
  auto r = RunQuery(engine_, "SELECT x + 1, y * 2 FROM nn ORDER BY x");
  EXPECT_TRUE(r.IsNull(0, 0));
  EXPECT_TRUE(r.IsNull(1, 1));
}

TEST_F(ExecSqlTest, WhereNullIsNotSelected) {
  ASSERT_OK(engine_.Execute("CREATE TABLE wn (x INTEGER)").status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO wn VALUES (1), (NULL), (3)").status());
  auto r = RunQuery(engine_, "SELECT x FROM wn WHERE x > 0");
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST_F(ExecSqlTest, LargeScanIsChunkedCorrectly) {
  // More rows than one chunk (2048) to cross morsel boundaries.
  ASSERT_OK(engine_.Execute("CREATE TABLE big (x INTEGER)").status());
  auto table = engine_.catalog().GetTable("big");
  ASSERT_OK(table.status());
  std::vector<int64_t> vals(10000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<int64_t>(i);
  ASSERT_OK((*table)->SetColumn(0, Column::FromBigInts(std::move(vals))));
  auto r = RunQuery(engine_, "SELECT count(*) c, sum(x) s FROM big WHERE x % 2 = 0");
  EXPECT_EQ(r.GetInt(0, 0), 5000);
  EXPECT_EQ(r.GetInt(0, 1), 24995000);
}

TEST_F(ExecSqlTest, DivisionByZeroYieldsNull) {
  auto r = RunQuery(engine_, "SELECT 10 / (a - a) FROM t WHERE a = 1");
  EXPECT_TRUE(r.IsNull(0, 0));
}

TEST_F(ExecSqlTest, NaNComparesEqualToItselfAndSortsLast) {
  // x / y: id 1 and 6 are NaN, 2 is 7, 3 is +inf, 4 is -inf, 5 is 3.
  RunQuery(engine_, "CREATE TABLE f (id INTEGER, x FLOAT, y FLOAT)");
  RunQuery(engine_,
           "INSERT INTO f VALUES (1, 0.0, 0.0), (2, 14.0, 2.0), "
           "(3, 1.0, 0.0), (4, -1.0, 0.0), (5, 3.0, 1.0), (6, 0.0, 0.0)");
  auto count = [&](const std::string& where) {
    return RunQuery(engine_, "SELECT count(*) FROM f WHERE " + where)
        .GetInt(0, 0);
  };
  EXPECT_EQ(count("x / y = 7.0"), 1);
  EXPECT_EQ(count("x / y <> 7.0"), 5);
  EXPECT_EQ(count("x / y = x / y"), 6);
  EXPECT_EQ(count("x / y > 1e300"), 3);  // +inf and both NaNs
  EXPECT_EQ(count("x / y < 0"), 1);

  auto ids = [&](const std::string& order) {
    return IntColumn(RunQuery(engine_, "SELECT id FROM f ORDER BY " + order),
                     0);
  };
  EXPECT_EQ(ids("x / y, id"), (std::vector<int64_t>{4, 5, 2, 3, 1, 6}));
  EXPECT_EQ(ids("x / y DESC, id"), (std::vector<int64_t>{1, 6, 3, 2, 5, 4}));
  EXPECT_EQ(ids("x / y LIMIT 3"), (std::vector<int64_t>{4, 5, 2}));
  EXPECT_EQ(ids("x / y DESC LIMIT 2"), (std::vector<int64_t>{1, 6}));

  // Grouping and joins use the same rule: the NaNs form one group and
  // join each other.
  EXPECT_EQ(RunQuery(engine_,
                     "SELECT count(*) FROM (SELECT q, count(*) c FROM "
                     "(SELECT x / y q FROM f) s GROUP BY q) g")
                .GetInt(0, 0),
            5);
  EXPECT_EQ(RunQuery(engine_,
                     "SELECT count(*) FROM (SELECT id, x / y q FROM f) a "
                     "JOIN (SELECT id, x / y q FROM f) b ON a.q = b.q")
                .GetInt(0, 0),
            8);
}

TEST_F(ExecSqlTest, DoubleMinMaxFollowTheNaNSortRuleInAnyRowOrder) {
  // x / y over (0, 0) is NaN. min and max rank NaN as ORDER BY does, after
  // every number, so its position in the input does not change the result.
  const std::vector<std::string> orders = {
      "(0.0, 0.0), (1.0, 1.0), (5.0, 1.0)",
      "(1.0, 1.0), (5.0, 1.0), (0.0, 0.0)"};
  for (size_t i = 0; i < orders.size(); ++i) {
    const std::string t = "m" + std::to_string(i);
    RunQuery(engine_, "CREATE TABLE " + t + " (x FLOAT, y FLOAT)");
    RunQuery(engine_, "INSERT INTO " + t + " VALUES " + orders[i]);
    auto r = RunQuery(engine_, "SELECT min(x / y), max(x / y) FROM " + t);
    EXPECT_EQ(r.GetDouble(0, 0), 1.0) << orders[i];
    EXPECT_TRUE(std::isnan(r.GetDouble(0, 1))) << orders[i];
    auto last = RunQuery(engine_, "SELECT x / y q FROM " + t +
                                      " ORDER BY q DESC LIMIT 1");
    EXPECT_TRUE(std::isnan(last.GetDouble(0, 0))) << orders[i];
  }
  // min/max have numeric states only: a VARCHAR argument is a type error.
  RunQuery(engine_, "CREATE TABLE ms (s VARCHAR)");
  RunQuery(engine_, "INSERT INTO ms VALUES ('a'), ('b')");
  ExpectError(engine_, "SELECT min(s) FROM ms", StatusCode::kTypeError);
  ExpectError(engine_, "SELECT max(s) FROM ms", StatusCode::kTypeError);
}

TEST_F(ExecSqlTest, NaNPushdownOnSealedTablesMatchesTheVolatileTable) {
  // v: NaN first (ids 1 and 6), 7, +inf, -inf, 3, -0.0.
  RunQuery(engine_, "CREATE TABLE f (id INTEGER, x FLOAT, y FLOAT)");
  RunQuery(engine_,
           "INSERT INTO f VALUES (1, 0.0, 0.0), (2, 14.0, 2.0), "
           "(3, 1.0, 0.0), (4, -1.0, 0.0), (5, 3.0, 1.0), (6, 0.0, 0.0), "
           "(7, 0.0, -1.0)");
  const std::vector<std::string> tables = {"q", "qs", "qv", "qi"};
  RunQuery(engine_, "CREATE TABLE q (id INTEGER, v FLOAT)");
  RunQuery(engine_, "CREATE TABLE qs (id INTEGER, v FLOAT)");
  RunQuery(engine_,
           "CREATE TABLE qv (id INTEGER, v FLOAT) "
           "PARTITION BY HASH(v) PARTITIONS 4");
  RunQuery(engine_,
           "CREATE TABLE qi (id INTEGER, v FLOAT) "
           "PARTITION BY HASH(id) PARTITIONS 3");
  for (const std::string& t : tables) {
    RunQuery(engine_, "INSERT INTO " + t + " SELECT id, x / y FROM f");
    if (t == "q") continue;
    // Replace the table with a sealed copy of its rows.
    auto old = engine_.catalog().GetTable(t);
    ASSERT_OK(old.status());
    DataChunk rows;
    (*old)->ScanSlice(0, (*old)->num_rows(), &rows);
    auto sealed = std::make_shared<Table>(t, (*old)->schema());
    sealed->set_partition_spec((*old)->partition_spec());
    for (size_t c = 0; c < 2; ++c) {
      ASSERT_OK(sealed->SetColumn(c, rows.column(c)));
    }
    ASSERT_OK(sealed->Seal());
    ASSERT_OK(engine_.catalog().ReplaceTable(t, sealed));
  }

  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"v = 7.0", 1},       {"v <> 7.0", 6},  {"v > 1e300", 3},
      {"v >= 1e300", 3},    {"v < 0", 1},     {"v <= 3.0", 3},
      {"v = 0.0", 1},       {"v = -0.0", 1},  {"v > 0.0 / 0.0", 0},
      {"v = 0.0 / 0.0", 2}, {"v < 0.0 / 0.0", 5},
      {"v > 1e300 AND id > 1", 2}};
  for (const auto& [where, want] : cases) {
    for (const std::string& t : tables) {
      const std::string sql = "SELECT count(*) FROM " + t + " WHERE " + where;
      EXPECT_EQ(RunQuery(engine_, sql).GetInt(0, 0), want) << sql;
    }
  }
  // The predicate reaches the sealed scan, so the cases above test it.
  auto plan = engine_.Explain("SELECT count(*) FROM qs WHERE v > 1e300");
  ASSERT_OK(plan.status());
  EXPECT_NE(plan->find("pushed[v >"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace soda
