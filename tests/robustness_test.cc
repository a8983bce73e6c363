/// Robustness: a corpus of malformed / hostile inputs must produce clean
/// Status errors (never crashes, never silent wrong results), and the
/// engine must survive concurrent use — table stakes for the paper's
/// "one system fits all" claim, where analysts type ad-hoc queries at a
/// transactional database.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "storage/segment.h"
#include "tests/test_util.h"
#include "util/fault_sites.h"
#include "util/query_guard.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::RunQuery;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(engine_.Execute("CREATE TABLE t (a INTEGER, b FLOAT, s TEXT)")
                  .status());
    ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (1, 1.0, 'x')").status());
    ASSERT_OK(engine_.Execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
                  .status());
    ASSERT_OK(engine_.Execute("INSERT INTO e VALUES (1, 2)").status());
  }
  Engine engine_;
};

TEST_F(RobustnessTest, MalformedSqlCorpusAlwaysErrsCleanly) {
  const char* corpus[] = {
      "",
      ";",
      "SELEC 1",
      "SELECT",
      "SELECT ,",
      "SELECT 1 FROM",
      "SELECT * FROM",
      "SELECT * FROM t WHERE",
      "SELECT * FROM t GROUP",
      "SELECT * FROM t ORDER",
      "SELECT * FROM t LIMIT 'x'",
      "SELECT (1 + 2 FROM t",
      "SELECT 1 + FROM t",
      "SELECT 'unterminated FROM t",
      "SELECT \"unterminated FROM t",
      "SELECT a b c FROM t",
      "SELECT * FROM t t2 t3",
      "SELECT * FROM (SELECT 1",
      "WITH x AS SELECT 1 SELECT * FROM x",
      "WITH RECURSIVE AS (SELECT 1) SELECT 1",
      "INSERT t VALUES (1)",
      "INSERT INTO t",
      "INSERT INTO t VALUES 1, 2",
      "CREATE t (a INT)",
      "CREATE TABLE (a INT)",
      "CREATE TABLE x (a)",
      "CREATE TABLE x (a FROB)",
      "DROP t",
      "SELECT * FROM ITERATE()",
      "SELECT * FROM ITERATE((SELECT 1))",
      "SELECT * FROM ITERATE((SELECT 1), (SELECT 1))",
      "SELECT * FROM KMEANS()",
      "SELECT * FROM KMEANS(λ(a) 1)",
      "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), λ(a) a.a, 1)",
      "SELECT * FROM PAGERANK((SELECT s, s FROM t))",
      "SELECT λ(a, b) 1 FROM t",
      "SELECT a + s FROM t",
      "SELECT nope FROM t",
      "SELECT * FROM nope",
      "SELECT sum(a, b) FROM t",
      "SELECT sum(sum(a)) FROM t",
      "SELECT b FROM t GROUP BY a",
      "SELECT * FROM t ORDER BY 99",
      "SELECT CASE WHEN a THEN 1 END FROM t",
      "SELECT CAST(a AS LIST) FROM t",
      "SELECT a FROM t UNION ALL SELECT s FROM t",
      "SELECT @ FROM t",
      "EXPLAIN",
      "EXPLAIN INSERT INTO t VALUES (1, 1.0, 'x')",
      "SELECT * FROM t; SELECT * FROM t",  // Execute() takes one statement
  };
  for (const char* sql : corpus) {
    auto result = engine_.Execute(sql);
    EXPECT_FALSE(result.ok()) << "expected failure for: " << sql;
    EXPECT_FALSE(result.status().message().empty()) << sql;
  }
}

TEST_F(RobustnessTest, DeeplyNestedExpressionsParse) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  auto r = RunQuery(engine_, "SELECT " + expr);
  EXPECT_EQ(r.GetInt(0, 0), 201);
}

TEST_F(RobustnessTest, DeeplyNestedSubqueries) {
  std::string sql = "SELECT a FROM t";
  for (int i = 0; i < 40; ++i) {
    sql = "SELECT a FROM (" + sql + ") s" + std::to_string(i);
  }
  auto r = RunQuery(engine_, sql);
  EXPECT_EQ(r.GetInt(0, 0), 1);
}

TEST_F(RobustnessTest, VeryWideTable) {
  std::string ddl = "CREATE TABLE wide (c0 FLOAT";
  std::string insert_cols = "(0.0";
  std::string select_sum = "c0";
  for (int i = 1; i < 200; ++i) {
    ddl += ", c" + std::to_string(i) + " FLOAT";
    insert_cols += ", " + std::to_string(i) + ".0";
    select_sum += " + c" + std::to_string(i);
  }
  ddl += ")";
  insert_cols += ")";
  ASSERT_OK(engine_.Execute(ddl).status());
  ASSERT_OK(engine_.Execute("INSERT INTO wide VALUES " + insert_cols)
                .status());
  auto r = RunQuery(engine_, "SELECT " + select_sum + " FROM wide");
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 199.0 * 200 / 2);
}

TEST_F(RobustnessTest, LongUnionChain) {
  std::string sql = "SELECT 0 v";
  for (int i = 1; i <= 100; ++i) {
    sql += " UNION ALL SELECT " + std::to_string(i);
  }
  auto r = RunQuery(engine_, "SELECT count(*), sum(u.v) FROM (" + sql + ") u");
  EXPECT_EQ(r.GetInt(0, 0), 101);
  EXPECT_EQ(r.GetInt(0, 1), 5050);
}

TEST_F(RobustnessTest, HugeLiteralsAndExtremes) {
  auto r = RunQuery(engine_,
                    "SELECT 9223372036854775807 big, -9223372036854775807 "
                    "small, 1e308 huge, 1e-308 tiny");
  EXPECT_EQ(r.GetInt(0, 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1e308);
}

TEST_F(RobustnessTest, StringsWithSpecialContent) {
  ASSERT_OK(engine_
                .Execute("INSERT INTO t VALUES (2, 2.0, 'it''s; a -- test')")
                .status());
  auto r = RunQuery(engine_, "SELECT s FROM t WHERE a = 2");
  EXPECT_EQ(r.GetString(0, 0), "it's; a -- test");
}

TEST_F(RobustnessTest, ConcurrentQueriesOnSharedEngine) {
  // Concurrent read queries plus concurrent DDL on distinct tables. The
  // catalog is mutex-protected; execution state is per-query.
  ASSERT_OK(engine_.Execute("CREATE TABLE nums (x INTEGER)").status());
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(engine_.Execute("INSERT INTO nums VALUES (" +
                              std::to_string(i) + ")")
                  .status());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < 4; ++thread_id) {
    threads.emplace_back([&, thread_id] {
      for (int i = 0; i < 25; ++i) {
        auto r = engine_.Execute(
            "SELECT count(*), sum(x) FROM nums WHERE x % 2 = 0");
        if (!r.ok() || r->GetInt(0, 0) != 250) failures.fetch_add(1);
        auto ddl = engine_.Execute("CREATE TABLE tmp_" +
                                   std::to_string(thread_id) + "_" +
                                   std::to_string(i) + " (a INTEGER)");
        if (!ddl.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RobustnessTest, RepeatedAnalyticsCallsAreStable) {
  // Same operator query 50 times: identical results every time (no state
  // leaks between executions).
  std::string sql =
      "SELECT * FROM PAGERANK((SELECT src, dst FROM e), 0.85, 0.0, 5)";
  auto first = RunQuery(engine_, sql);
  for (int i = 0; i < 50; ++i) {
    auto again = RunQuery(engine_, sql);
    ASSERT_EQ(again.num_rows(), first.num_rows());
    for (size_t row = 0; row < first.num_rows(); ++row) {
      ASSERT_EQ(again.GetInt(row, 0), first.GetInt(row, 0));
      ASSERT_DOUBLE_EQ(again.GetDouble(row, 1), first.GetDouble(row, 1));
    }
  }
}

TEST_F(RobustnessTest, ErrorsDoNotPoisonTheSession) {
  // A failed query must leave the engine fully usable.
  (void)engine_.Execute("SELECT nope FROM t");
  (void)engine_.Execute("SELECT * FROM ITERATE((SELECT 1))");
  (void)engine_.Execute("INSERT INTO t VALUES (1)");
  auto r = RunQuery(engine_, "SELECT count(*) FROM t");
  EXPECT_EQ(r.GetInt(0, 0), 1);
}

// ---------------------------------------------------------------------------
// Resource governor: cancellation, deadlines, memory budgets, and fault
// injection — a runaway analytics query must be "detected and aborted by
// the database" (paper §5.1) with a clean Status, never a crash, and the
// catalog must stay fully usable afterwards.

/// An ITERATE loop whose stop condition can never fire: terminates only
/// through the governor (or the iteration cap).
constexpr const char* kDivergentIterate =
    "SELECT * FROM ITERATE((SELECT 1 x), "
    "(SELECT x + 1 x FROM iterate), "
    "(SELECT x FROM iterate WHERE x < 0))";

/// One row of the fault matrix: arm `site` with `kind`, run `sql`, expect
/// the statement to fail with `expected` — and the engine to stay usable.
struct FaultCase {
  const char* site;
  FaultInjector::Kind kind;
  const char* sql;
  StatusCode expected;
};

/// The robustness matrix. Together with `kSitesCoveredElsewhere` it must
/// cover every site in util/fault_sites.h — the RegistryCoverage test
/// fails when a newly added probe site has no matrix row.
const FaultCase kFaultMatrix[] = {
    {"storage.append", FaultInjector::Kind::kOom,
     "INSERT INTO t VALUES (3, 3.0)", StatusCode::kResourceExhausted},
    {"exec.statement", FaultInjector::Kind::kCancel, "SELECT 1",
     StatusCode::kCancelled},
    {"exec.morsel", FaultInjector::Kind::kError,
     "SELECT a FROM t WHERE a > 0", StatusCode::kInternal},
    {"exec.sort", FaultInjector::Kind::kOom,
     "SELECT a FROM t ORDER BY a", StatusCode::kResourceExhausted},
    // LIMIT stores its rows through a MaterializeSink: storage appends.
    {"storage.append", FaultInjector::Kind::kOom,
     "SELECT a FROM t WHERE a > 0 LIMIT 1", StatusCode::kResourceExhausted},
    {"exec.union", FaultInjector::Kind::kError,
     "SELECT a FROM t UNION ALL SELECT a FROM t", StatusCode::kInternal},
    {"iterate.step", FaultInjector::Kind::kError,
     "SELECT * FROM ITERATE((SELECT 1 x), (SELECT x + 1 x FROM iterate), "
     "(SELECT x FROM iterate WHERE x > 5))",
     StatusCode::kInternal},
    {"kmeans.iteration", FaultInjector::Kind::kCancel,
     "SELECT * FROM KMEANS((SELECT a, b FROM t), "
     "(SELECT a, b FROM t LIMIT 1), 3)",
     StatusCode::kCancelled},
    {"cte.step", FaultInjector::Kind::kError,
     "WITH RECURSIVE r (i) AS ((SELECT 1) UNION ALL "
     "(SELECT i + 1 FROM r WHERE i < 5)) SELECT count(*) FROM r",
     StatusCode::kInternal},
    {"cte.append", FaultInjector::Kind::kOom,
     "WITH RECURSIVE r (i) AS ((SELECT 1) UNION ALL "
     "(SELECT i + 1 FROM r WHERE i < 5)) SELECT count(*) FROM r",
     StatusCode::kResourceExhausted},
    {"exec.dml", FaultInjector::Kind::kError,
     "UPDATE t SET b = b + 1 WHERE a = 1", StatusCode::kInternal},
    {"kmeans.densify", FaultInjector::Kind::kOom,
     "SELECT * FROM KMEANS((SELECT a, b FROM t), "
     "(SELECT a, b FROM t LIMIT 1), 3)",
     StatusCode::kResourceExhausted},
    {"pagerank.csr", FaultInjector::Kind::kOom,
     "SELECT * FROM PAGERANK((SELECT a, a FROM t))",
     StatusCode::kResourceExhausted},
    {"pagerank.iteration", FaultInjector::Kind::kCancel,
     "SELECT * FROM PAGERANK((SELECT a, a FROM t))", StatusCode::kCancelled},
    {"cc.csr", FaultInjector::Kind::kOom,
     "SELECT * FROM CONNECTED_COMPONENTS((SELECT a, a FROM t))",
     StatusCode::kResourceExhausted},
    {"cc.iteration", FaultInjector::Kind::kCancel,
     "SELECT * FROM CONNECTED_COMPONENTS((SELECT a, a FROM t))",
     StatusCode::kCancelled},
    {"exec.join_build", FaultInjector::Kind::kCancel,
     "SELECT x.a FROM t x JOIN t y ON x.a = y.a", StatusCode::kCancelled},
    {"exec.cross_join", FaultInjector::Kind::kCancel,
     "SELECT x.a, y.b FROM t x, t y", StatusCode::kCancelled},
    {"exec.agg_merge", FaultInjector::Kind::kError,
     "SELECT a, count(*) FROM t GROUP BY a", StatusCode::kInternal},
    {"exec.verify_plan", FaultInjector::Kind::kError,
     "SELECT a FROM t WHERE a > 0", StatusCode::kInternal},
    // Encoded-segment sites fire on the partitioned (always sealed) table.
    {"storage.segment_encode", FaultInjector::Kind::kOom,
     "INSERT INTO pt VALUES (3, 'c')", StatusCode::kResourceExhausted},
    {"storage.segment_decode", FaultInjector::Kind::kError,
     "SELECT v FROM pt WHERE k < 5", StatusCode::kInternal},
    {"storage.partition_prune", FaultInjector::Kind::kCancel,
     "SELECT v FROM pt WHERE k < 5", StatusCode::kCancelled},
    // The scrub pass probes once per table; an injected error aborts the
    // pass cleanly without quarantining anything.
    {"storage.scrub", FaultInjector::Kind::kError, "SCRUB",
     StatusCode::kInternal},
    // Repeated-traffic caches (DESIGN.md §11): the plan cache probes on
    // every ad-hoc SELECT; the recycler probes on every equi-join build
    // lookup, hit or miss.
    {"cache.plan_lookup", FaultInjector::Kind::kCancel,
     "SELECT a FROM t WHERE a > 0", StatusCode::kCancelled},
    {"cache.ht_recycle", FaultInjector::Kind::kError,
     "SELECT x.a FROM t x JOIN t y ON x.a = y.a", StatusCode::kInternal},
};

/// Sites whose injection coverage lives in a dedicated suite rather than
/// the matrix above (fault injection there needs process or I/O scaffolding
/// this suite does not have).
const char* const kSitesCoveredElsewhere[] = {
    "checkpoint.rename",  // durability_test: CrashAtEverySite
    "checkpoint.write",   // durability_test: CrashAtEverySite
    "wal.append",         // durability_test: CrashAtEverySite
    "wal.fsync",          // durability_test: CrashAtEverySite
    "exec.pipeline",      // explain_test: pipeline-level fault rendering
    "server.accept",      // server_test: ServerFaultSites
    "server.read",        // server_test: ServerFaultSites
    "server.session",     // server_test: ServerFaultSites
    "server.write",       // server_test: ServerFaultSites
    // Self-healing sites need a durable engine (data_dir) or the
    // background maintenance thread, which this volatile fixture lacks.
    "durability.auto_checkpoint",  // durability_test: AutoCheckpointBounds...
    "util.retry",         // durability_test: TransientFaultsAreRetried...
    "wal.rotate",         // durability_test: CheckpointRotatesWalIntoArchive
};

class ResourceGovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    ASSERT_OK(engine_.Execute("CREATE TABLE t (a INTEGER, b FLOAT)")
                  .status());
    ASSERT_OK(engine_.Execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
                  .status());
    // Partitioned tables seal at creation, so scans of pt exercise the
    // encoded-segment probe sites (decode / prune / encode-on-DML).
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE pt (k BIGINT, v VARCHAR) "
                           "PARTITION BY RANGE(k) (10)")
                  .status());
    ASSERT_OK(
        engine_.Execute("INSERT INTO pt VALUES (1, 'a'), (20, 'b')")
            .status());
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  /// The engine must answer a plain query correctly after every failure.
  void ExpectEngineUsable() {
    auto r = RunQuery(engine_, "SELECT count(*) FROM t");
    EXPECT_GE(r.GetInt(0, 0), 2);
  }

  Engine engine_;
};

TEST_F(ResourceGovernorTest, CancelFromAnotherThreadMidQuery) {
  // The divergent ITERATE runs until cancelled (the cap is raised high
  // enough to not fire first); the canceller trips the token from another
  // thread while the query is in flight.
  CancelHandle cancel;
  ExecOptions exec;
  exec.cancel = &cancel;
  exec.max_iterations = 2000000000;

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  auto result = engine_.Execute(kDivergentIterate, exec);
  canceller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancel.cancelled());
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, PreCancelledHandleAbortsImmediately) {
  CancelHandle cancel;
  cancel.Cancel();
  ExecOptions exec;
  exec.cancel = &cancel;
  auto result = engine_.Execute("SELECT * FROM t", exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, DeadlineExpiresInKMeans) {
  // 10k points via a cross join; k-Means with a far-off convergence target
  // keeps iterating until the 1ms deadline (set via SQL) fires.
  ASSERT_OK(engine_.Execute("CREATE TABLE g (i INTEGER)").status());
  std::string values = "(0)";
  for (int i = 1; i < 100; ++i) values += ", (" + std::to_string(i) + ")";
  ASSERT_OK(engine_.Execute("INSERT INTO g VALUES " + values).status());
  ASSERT_OK(engine_
                .Execute("CREATE TABLE pts AS SELECT "
                         "a.i * 1.0 + b.i * 0.01 x, a.i * 2.0 - b.i y "
                         "FROM g a, g b")
                .status());

  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 1").status());
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT x, y FROM pts), "
              "(SELECT x, y FROM pts LIMIT 32), 1000000)",
              StatusCode::kDeadlineExceeded);
  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 0").status());
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, DeadlineExpiresInRecursiveCte) {
  // The iteration cap is raised so only the deadline can stop the
  // divergent recursion.
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 2000000000").status());
  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 10").status());
  ExpectError(engine_,
              "WITH RECURSIVE r (i) AS ((SELECT 1) UNION ALL "
              "(SELECT i + 1 FROM r WHERE i < 2000000000)) "
              "SELECT count(*) FROM r",
              StatusCode::kDeadlineExceeded);
  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 0").status());
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 100000").status());
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, MemoryBudgetStopsInsertSelect) {
  // ~90k result rows * 2 BIGINT columns > 1 MB: the INSERT .. SELECT
  // trips the budget, errs cleanly, and the engine keeps working.
  ASSERT_OK(engine_.Execute("CREATE TABLE g (i INTEGER)").status());
  std::string values = "(0)";
  for (int i = 1; i < 300; ++i) values += ", (" + std::to_string(i) + ")";
  ASSERT_OK(engine_.Execute("INSERT INTO g VALUES " + values).status());
  ASSERT_OK(engine_.Execute("CREATE TABLE sink (p INTEGER, q INTEGER)")
                .status());

  ASSERT_OK(engine_.Execute("SET soda.memory_limit_mb = 1").status());
  ExpectError(engine_,
              "INSERT INTO sink SELECT a.i, b.i FROM g a, g b",
              StatusCode::kResourceExhausted);
  ASSERT_OK(engine_.Execute("SET soda.memory_limit_mb = 0").status());
  ExpectEngineUsable();
  // The budget failure must not corrupt the target table: columns stay
  // aligned (charging happens before any mutation).
  auto r = RunQuery(engine_, "SELECT count(*) FROM sink");
  EXPECT_GE(r.GetInt(0, 0), 0);
}

TEST_F(ResourceGovernorTest, MemoryBudgetViaExecOptionsIsPerCall) {
  ExecOptions tight;
  // 1 byte: the first materialized value (8-byte BIGINT) must overdraw it.
  tight.memory_limit_bytes = 1;
  auto limited = engine_.Execute("SELECT a FROM t WHERE a > 0", tight);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
  // Engine-level defaults are untouched: the same query succeeds.
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, FaultInjectionAtEachProbeSite) {
  for (const FaultCase& c : kFaultMatrix) {
    FaultInjector::Global().Arm(c.site, c.kind);
    auto result = engine_.Execute(c.sql);
    ASSERT_FALSE(result.ok()) << "site " << c.site << " did not fire";
    EXPECT_EQ(result.status().code(), c.expected)
        << "site " << c.site << ": " << result.status().ToString();
    FaultInjector::Global().Reset();
    // The same statement must succeed once the fault is disarmed (for the
    // sites whose statement is side-effect free this re-runs identically).
    ExpectEngineUsable();
  }
}

TEST_F(ResourceGovernorTest, FaultMatrixCoversEveryRegisteredSite) {
  // The registry (util/fault_sites.h) is the single source of truth; the
  // matrix above plus the suites listed in kSitesCoveredElsewhere must
  // cover it exactly. A probe site added to the engine without a matrix
  // row — or a matrix row for a site that no longer exists — fails here.
  std::set<std::string> covered;
  for (const FaultCase& c : kFaultMatrix) covered.insert(c.site);
  for (const char* site : kSitesCoveredElsewhere) {
    EXPECT_FALSE(covered.count(site))
        << site << " is in both the matrix and kSitesCoveredElsewhere";
    covered.insert(site);
  }
  std::set<std::string> registered;
  for (const FaultSiteInfo& info : kFaultSites) registered.insert(info.site);

  for (const std::string& site : registered) {
    EXPECT_TRUE(covered.count(site))
        << "registered fault site '" << site
        << "' has no robustness-matrix row and is not listed as covered "
           "elsewhere";
  }
  for (const std::string& site : covered) {
    EXPECT_TRUE(registered.count(site))
        << "test covers '" << site
        << "' which is not registered in util/fault_sites.h";
  }
}

TEST_F(ResourceGovernorTest, FaultSiteTableFunctionMatchesRegistry) {
  // SQL-level introspection must agree with the compile-time registry.
  auto r = RunQuery(engine_,
                    "SELECT count(*) FROM SODA_FAULT_SITES()");
  EXPECT_EQ(r.GetInt(0, 0), static_cast<int64_t>(kNumFaultSites));
  // Spot-check content and ordering-independence via a filter.
  auto row = RunQuery(engine_,
                      "SELECT site, description FROM SODA_FAULT_SITES() "
                      "WHERE site = 'server.accept'");
  ASSERT_EQ(row.num_rows(), 1u);
  EXPECT_FALSE(row.GetString(0, 1).empty());
}

TEST_F(ResourceGovernorTest, InjectedFaultFiresExactlyOnce) {
  FaultInjector::Global().Arm("exec.morsel", FaultInjector::Kind::kError);
  auto first = engine_.Execute("SELECT a FROM t WHERE a > 0");
  EXPECT_FALSE(first.ok());
  // Armed sites disarm after firing: the retry succeeds without Reset().
  auto second = engine_.Execute("SELECT a FROM t WHERE a > 0");
  EXPECT_TRUE(second.ok()) << second.status().ToString();
}

TEST_F(ResourceGovernorTest, IterationCapMessageNamesTheKnob) {
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 7").status());
  auto iterate = engine_.Execute(kDivergentIterate);
  ASSERT_FALSE(iterate.ok());
  EXPECT_EQ(iterate.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(iterate.status().message().find("7"), std::string::npos);
  EXPECT_NE(iterate.status().message().find("soda.max_iterations"),
            std::string::npos);

  auto cte = engine_.Execute(
      "WITH RECURSIVE r (i) AS ((SELECT 1) UNION ALL "
      "(SELECT i + 1 FROM r WHERE i < 100)) SELECT count(*) FROM r");
  ASSERT_FALSE(cte.ok());
  EXPECT_EQ(cte.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(cte.status().message().find("soda.max_iterations"),
            std::string::npos);
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 100000").status());
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, SetStatementValidation) {
  // Well-formed knobs succeed.
  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 1000").status());
  ASSERT_OK(engine_.Execute("SET soda.memory_limit_mb = 256").status());
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 42").status());
  EXPECT_EQ(engine_.options().timeout_ms, 1000);
  EXPECT_EQ(engine_.options().memory_limit_bytes,
            int64_t{256} * 1024 * 1024);
  EXPECT_EQ(engine_.options().max_iterations, 42u);
  ASSERT_OK(engine_.Execute("SET soda.timeout_ms = 0").status());
  ASSERT_OK(engine_.Execute("SET soda.memory_limit_mb = 0").status());
  ASSERT_OK(engine_.Execute("SET soda.max_iterations = 100000").status());

  // Malformed / hostile SETs fail cleanly and change nothing.
  const char* bad[] = {
      "SET",
      "SET soda",
      "SET soda.timeout_ms",
      "SET soda.timeout_ms =",
      "SET soda.timeout_ms = 'fast'",
      "SET soda.timeout_ms = 1.5",
      "SET soda.timeout_ms = -5",
      "SET soda.max_iterations = 0",
      "SET soda.nope = 1",
      "SET mystery.knob = 1",
  };
  for (const char* sql : bad) {
    auto result = engine_.Execute(sql);
    EXPECT_FALSE(result.ok()) << "expected failure for: " << sql;
    EXPECT_FALSE(result.status().message().empty()) << sql;
  }
  EXPECT_EQ(engine_.options().timeout_ms, 0);
  EXPECT_EQ(engine_.options().max_iterations, 100000u);
  ExpectEngineUsable();
}

TEST_F(ResourceGovernorTest, SetAppliesMidScript) {
  // The cap set by the first statement governs the second.
  auto result = engine_.ExecuteScript(
      "SET soda.max_iterations = 5; " + std::string(kDivergentIterate));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("cap 5"), std::string::npos);
}

// --- scrub / quarantine (self-healing, DESIGN.md §10) ---------------------

/// Value of `name` in a (metric VARCHAR, value BIGINT) result, or -1.
int64_t Metric(const QueryResult& r, const std::string& name) {
  for (size_t row = 0; row < r.num_rows(); ++row) {
    if (r.GetString(row, 0) == name) return r.GetInt(row, 1);
  }
  return -1;
}

/// Flips bits in segment (g, c) of a sealed table, in place — simulated
/// memory rot. The stats footer is serialized for every encoding, so
/// flipping min_i64 always lands inside the CRC-covered bytes. Tests may
/// touch the physical layout (lint rule 6 exempts them); the const_cast
/// is confined to this helper.
void CorruptSegment(const Table& t, size_t g, size_t c) {
  auto* seg = const_cast<Segment*>(t.group_segment(g, c).get());
  ASSERT_NE(seg, nullptr);
  ASSERT_NE(seg->crc, 0u) << "segment never went through EncodeSegment";
  seg->stats.min_i64 ^= 0x7f;
}

TEST_F(ResourceGovernorTest, ScrubDetectsBitFlipAndQuarantinesGroup) {
  // pt = RANGE(k) (10) with rows (1,'a') and (20,'b'): one row group per
  // partition. Rot partition 0's key segment.
  {
    auto table = engine_.catalog().GetTable("pt");
    ASSERT_OK(table.status());
    ASSERT_TRUE((*table)->sealed());
    ASSERT_GE((*table)->num_row_groups(), 2u);
    CorruptSegment(**table, 0, 0);
  }
  QueryResult scrub = RunQuery(engine_, "SCRUB");
  EXPECT_GE(Metric(scrub, "corrupt_segments"), 1);
  EXPECT_GE(Metric(scrub, "quarantined_groups"), 1);
  // Degraded reads: partition pruning keeps the healthy partition fully
  // queryable...
  EXPECT_EQ(RunQuery(engine_, "SELECT v FROM pt WHERE k >= 10")
                .GetString(0, 0),
            "b");
  // ...while anything touching the quarantined group fails with kDataLoss
  // naming the table.
  auto bad = engine_.Execute("SELECT v FROM pt WHERE k < 10");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("pt"), std::string::npos)
      << bad.status().ToString();
  auto full = engine_.Execute("SELECT count(*) FROM pt");
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kDataLoss);
  // soda_status() surfaces the quarantined group; the rest of the engine
  // is untouched.
  QueryResult status = RunQuery(engine_, "SELECT * FROM soda_status()");
  EXPECT_GE(Metric(status, "quarantined_row_groups"), 1);
  EXPECT_EQ(Metric(status, "quarantined_tables"), 0);
  ExpectEngineUsable();
  // A second scrub is idempotent: the quarantined group is skipped, no
  // new corruption reported.
  QueryResult scrub2 = RunQuery(engine_, "SCRUB");
  EXPECT_EQ(Metric(scrub2, "corrupt_segments"), 0);
  EXPECT_EQ(Metric(scrub2, "quarantined_groups"), 0);
}

TEST_F(ResourceGovernorTest, SodaStatusOnVolatileEngine) {
  QueryResult status = RunQuery(engine_, "SELECT * FROM soda_status()");
  EXPECT_EQ(status.num_rows(), 16u);
  EXPECT_EQ(Metric(status, "durable"), 0);
  EXPECT_EQ(Metric(status, "wal_bytes"), 0);
  EXPECT_EQ(Metric(status, "quarantined_row_groups"), 0);
  EXPECT_EQ(Metric(status, "quarantined_tables"), 0);
  // SCRUB works without a data dir too (checkpoint metrics just stay 0).
  QueryResult scrub = RunQuery(engine_, "SCRUB");
  EXPECT_GE(Metric(scrub, "tables_checked"), 2);
  EXPECT_EQ(Metric(scrub, "checkpoint_present"), 0);
}

}  // namespace
}  // namespace soda
