/// Parallel pipeline breakers: results must be bit-identical across
/// worker counts (serial vs. the forced 4-worker pool) — ORDER BY key
/// ties included, and ORDER BY ... LIMIT (Top-N) must equal the full sort
/// sliced — the new governor
/// sites must make joins/aggregates cancellable mid-build, and the
/// mix-after-combine key hasher must not admit the old linear combiner's
/// constructible collisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/workloads.h"
#include "exec/hash_join.h"
#include "exec/hash_kernels.h"
#include "storage/column.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/query_guard.h"

namespace soda {
namespace {

using testing::ExpectError;
using testing::IntColumn;
using testing::RunQuery;

// Force a real pool even on single-core CI machines (same rationale as
// util_test.cc): without it the parallel paths under test would silently
// degrade to the serial fallback and the determinism assertions would
// compare serial against serial.
const bool kForceMultiThreadedPool = [] {
  setenv("SODA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// Registers `name` as a BIGINT-only table built from pre-filled columns
/// (bulk load; the SQL INSERT path is far too slow for 1M rows).
void RegisterBigIntTable(Engine& engine, const std::string& name,
                         const std::vector<std::string>& col_names,
                         std::vector<Column> cols) {
  std::vector<Field> fields;
  for (const auto& n : col_names) fields.emplace_back(n, DataType::kBigInt);
  auto table = std::make_shared<Table>(name, Schema(std::move(fields)));
  for (size_t i = 0; i < cols.size(); ++i) {
    ASSERT_OK(table->SetColumn(i, std::move(cols[i])));
  }
  ASSERT_OK(engine.catalog().RegisterTable(std::move(table)));
}

/// Runs `sql` once under ScopedSerialExecution (one worker) and once on
/// the 4-worker pool, and asserts cell-identical results. The queries
/// under test carry ORDER BY, so row order itself is deterministic; what
/// this catches is any value divergence from the parallel build / radix
/// merge paths.
void ExpectSameResultAcrossWorkerCounts(Engine& engine,
                                        const std::string& sql) {
  QueryResult serial;
  {
    ScopedSerialExecution one_worker;
    serial = RunQuery(engine, sql);
  }
  QueryResult parallel = RunQuery(engine, sql);

  ASSERT_EQ(serial.num_rows(), parallel.num_rows()) << sql;
  ASSERT_EQ(serial.num_columns(), parallel.num_columns()) << sql;
  for (size_t c = 0; c < serial.num_columns(); ++c) {
    const DataType type = serial.schema().field(c).type;
    for (size_t r = 0; r < serial.num_rows(); ++r) {
      ASSERT_EQ(serial.IsNull(r, c), parallel.IsNull(r, c))
          << sql << " row " << r << " col " << c;
      if (serial.IsNull(r, c)) continue;
      if (type == DataType::kVarchar) {
        ASSERT_EQ(serial.GetString(r, c), parallel.GetString(r, c))
            << sql << " row " << r << " col " << c;
      } else if (type == DataType::kDouble) {
        ASSERT_DOUBLE_EQ(serial.GetDouble(r, c), parallel.GetDouble(r, c))
            << sql << " row " << r << " col " << c;
      } else {
        ASSERT_EQ(serial.GetInt(r, c), parallel.GetInt(r, c))
            << sql << " row " << r << " col " << c;
      }
    }
  }
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
  Engine engine_;
};

// ---------------------------------------------------------------------------
// Determinism across worker counts

class ParallelGroupByTest : public ParallelExecTest {
 protected:
  void SetUp() override {
    ParallelExecTest::SetUp();
    // 1M rows; k cycles through 100k distinct keys (high cardinality),
    // k8 through 8 (low cardinality, heavy per-group contention in the
    // radix merge). v stays small enough that SUM is exact in a double.
    const size_t n = 1'000'000;
    std::vector<int64_t> k(n), k8(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(i % 100'000);
      k8[i] = static_cast<int64_t>(i % 8);
      v[i] = static_cast<int64_t>(i % 1'000'003);
    }
    RegisterBigIntTable(engine_, "big", {"k", "k8", "v"},
                        {Column::FromBigInts(std::move(k)),
                         Column::FromBigInts(std::move(k8)),
                         Column::FromBigInts(std::move(v))});
  }
};

TEST_F(ParallelGroupByTest, HighCardinalityGroupBy) {
  ExpectSameResultAcrossWorkerCounts(
      engine_,
      "SELECT k, count(*), sum(v), min(v), max(v) "
      "FROM big GROUP BY k ORDER BY k");
}

TEST_F(ParallelGroupByTest, LowCardinalityGroupBy) {
  ExpectSameResultAcrossWorkerCounts(
      engine_,
      "SELECT k8, count(*), sum(v), min(v), max(v), avg(v) "
      "FROM big GROUP BY k8 ORDER BY k8");
}

TEST_F(ParallelGroupByTest, GlobalAggregate) {
  ExpectSameResultAcrossWorkerCounts(
      engine_, "SELECT count(*), sum(v), min(v), max(v) FROM big");
}

TEST_F(ParallelGroupByTest, Distinct) {
  ExpectSameResultAcrossWorkerCounts(
      engine_, "SELECT DISTINCT k8 FROM big ORDER BY k8");
}

TEST_F(ParallelGroupByTest, MultiKeyGroupBy) {
  ExpectSameResultAcrossWorkerCounts(
      engine_,
      "SELECT k8, k, count(*), sum(v) FROM big "
      "WHERE k < 64 GROUP BY k8, k ORDER BY k8, k");
}

TEST_F(ParallelExecTest, NullKeysGroupBy) {
  // Every 7th key is NULL: NULLs form one group, and the NULL-tag hash
  // must route them to the same radix partition in every merge.
  const size_t n = 200'000;
  Column k(DataType::kBigInt);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 0) {
      k.AppendNull();
    } else {
      k.AppendBigInt(static_cast<int64_t>(i % 1000));
    }
    v[i] = static_cast<int64_t>(i);
  }
  RegisterBigIntTable(engine_, "nk", {"k", "v"},
                      {std::move(k), Column::FromBigInts(std::move(v))});
  ExpectSameResultAcrossWorkerCounts(
      engine_,
      "SELECT k, count(*), sum(v), min(v), max(v) "
      "FROM nk GROUP BY k ORDER BY k");
}

TEST_F(ParallelExecTest, SkewedKeyHashJoin) {
  // Half the build side shares one hot key (a 5000-row chain through one
  // bucket), the rest are unique; CAS publication order differs run to
  // run, so this asserts the probe result is order-insensitive.
  const size_t dim_n = 10'000;
  std::vector<int64_t> dk(dim_n), dw(dim_n);
  for (size_t i = 0; i < dim_n; ++i) {
    dk[i] = (i < dim_n / 2) ? 7 : static_cast<int64_t>(i);
    dw[i] = static_cast<int64_t>(i % 97);
  }
  const size_t fact_n = 100'000;
  std::vector<int64_t> fk(fact_n), fv(fact_n);
  for (size_t i = 0; i < fact_n; ++i) {
    fk[i] = static_cast<int64_t>(i % 6000);
    fv[i] = static_cast<int64_t>(i % 89);
  }
  RegisterBigIntTable(engine_, "dim", {"k", "w"},
                      {Column::FromBigInts(std::move(dk)),
                       Column::FromBigInts(std::move(dw))});
  RegisterBigIntTable(engine_, "fact", {"k", "v"},
                      {Column::FromBigInts(std::move(fk)),
                       Column::FromBigInts(std::move(fv))});

  ExpectSameResultAcrossWorkerCounts(
      engine_,
      "SELECT f.k, count(*), sum(d.w), sum(f.v) "
      "FROM fact f JOIN dim d ON f.k = d.k "
      "GROUP BY f.k ORDER BY f.k");
}

// ---------------------------------------------------------------------------
// Governor coverage of the new sites

TEST_F(ParallelExecTest, MidBuildCancellationTearsDownCleanly) {
  const size_t n = 200'000;
  std::vector<int64_t> k(n);
  for (size_t i = 0; i < n; ++i) k[i] = static_cast<int64_t>(i);
  std::vector<int64_t> k2 = k;
  RegisterBigIntTable(engine_, "bl", {"k"},
                      {Column::FromBigInts(std::move(k))});
  RegisterBigIntTable(engine_, "br", {"k"},
                      {Column::FromBigInts(std::move(k2))});

  const std::string sql =
      "SELECT count(*) FROM bl JOIN br ON bl.k = br.k";
  // Probes at exec.join_build: entry (1), the memory reservation (2),
  // then one per morsel. skip=2 puts the cancel inside the morsel loop —
  // workers are mid-insert when the fault fires.
  FaultInjector::Global().Arm("exec.join_build",
                              FaultInjector::Kind::kCancel, /*skip=*/2);
  ExpectError(engine_, sql, StatusCode::kCancelled);
  // Armed sites fire once; the identical query must now succeed and be
  // correct (no half-built table leaks into a cache).
  auto r = RunQuery(engine_, sql);
  EXPECT_EQ(r.GetInt(0, 0), static_cast<int64_t>(n));
}

TEST_F(ParallelExecTest, FaultInjectionCoversJoinAndMergeSites) {
  ASSERT_OK(
      engine_.Execute("CREATE TABLE s (a INTEGER, b INTEGER)").status());
  ASSERT_OK(
      engine_.Execute("INSERT INTO s VALUES (1, 10), (2, 20)").status());
  struct Case {
    const char* site;
    FaultInjector::Kind kind;
    const char* sql;
    StatusCode expected;
  };
  const Case cases[] = {
      {"exec.join_build", FaultInjector::Kind::kError,
       "SELECT x.a FROM s x JOIN s y ON x.a = y.a",
       StatusCode::kInternal},
      {"exec.join_build", FaultInjector::Kind::kOom,
       "SELECT x.a FROM s x JOIN s y ON x.a = y.a",
       StatusCode::kResourceExhausted},
      {"exec.cross_join", FaultInjector::Kind::kCancel,
       "SELECT x.a FROM s x, s y", StatusCode::kCancelled},
      {"exec.agg_merge", FaultInjector::Kind::kError,
       "SELECT a, count(*) FROM s GROUP BY a", StatusCode::kInternal},
  };
  for (const Case& c : cases) {
    // A prior case's retry publishes its hash table into the recycler;
    // evict so the build site actually runs (and the fault can fire).
    engine_.ht_recycler().EvictAll();
    FaultInjector::Global().Arm(c.site, c.kind);
    auto result = engine_.Execute(c.sql);
    ASSERT_FALSE(result.ok()) << "site " << c.site << " did not fire";
    EXPECT_EQ(result.status().code(), c.expected)
        << "site " << c.site << ": " << result.status().ToString();
    FaultInjector::Global().Reset();
    auto retry = engine_.Execute(c.sql);
    EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  }
}

TEST_F(ParallelExecTest, JoinBuildChargesTheMemoryBudget) {
  // Direct-API check that Build itself reserves its arrays against the
  // guard (not just that *some* upstream site trips first).
  const size_t n = 100'000;
  std::vector<int64_t> k(n);
  for (size_t i = 0; i < n; ++i) k[i] = static_cast<int64_t>(i);
  auto table = std::make_shared<Table>(
      "b", Schema({Field("k", DataType::kBigInt)}));
  ASSERT_OK(table->SetColumn(0, Column::FromBigInts(std::move(k))));

  QueryLimits tight;
  tight.memory_limit_bytes = 1024;  // far below heads + chain + hashes
  QueryGuard guard(tight, nullptr);
  auto built = JoinHashTable::Build(table, {0}, &guard);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted);

  // Unlimited guard: same build succeeds and the table is well-formed.
  QueryGuard unlimited;
  auto ok = JoinHashTable::Build(table, {0}, &unlimited);
  ASSERT_OK(ok.status());
  EXPECT_GE(ok.ValueOrDie()->num_buckets(), 2 * n);
}

// ---------------------------------------------------------------------------
// Exact BIGINT min/max (satellite: values beyond 2^53 must not round)

TEST_F(ParallelExecTest, BigIntMinMaxExactBeyondDoublePrecision) {
  // 2^53 + 1 and its neighbors are indistinguishable as doubles; the old
  // double-typed min/max state returned 9007199254740992 for all three.
  const int64_t big = (int64_t{1} << 53) + 1;     // 9007199254740993
  const int64_t bigger = (int64_t{1} << 53) + 3;  // rounds to +4 as double
  std::vector<int64_t> v = {big, bigger, (int64_t{1} << 53), 5,
                            -bigger, -big};
  std::vector<int64_t> g = {0, 0, 0, 0, 1, 1};
  RegisterBigIntTable(engine_, "mm", {"g", "v"},
                      {Column::FromBigInts(std::move(g)),
                       Column::FromBigInts(std::move(v))});

  auto r = RunQuery(engine_, "SELECT min(v), max(v) FROM mm");
  EXPECT_EQ(r.GetInt(0, 0), -bigger);
  EXPECT_EQ(r.GetInt(0, 1), bigger);

  auto grouped = RunQuery(
      engine_, "SELECT g, min(v), max(v) FROM mm GROUP BY g ORDER BY g");
  ASSERT_EQ(grouped.num_rows(), 2u);
  EXPECT_EQ(grouped.GetInt(0, 1), 5);
  EXPECT_EQ(grouped.GetInt(0, 2), bigger);
  EXPECT_EQ(grouped.GetInt(1, 1), -bigger);
  EXPECT_EQ(grouped.GetInt(1, 2), -big);
}

TEST_F(ParallelExecTest, BigIntMinMaxExactThroughParallelMerge) {
  // The extreme values sit at opposite ends of a 1M-row table, so they
  // land in different workers' local tables and must survive the radix
  // merge's MergeSpecState exactly.
  const int64_t lo = -((int64_t{1} << 53) + 7);
  const int64_t hi = (int64_t{1} << 53) + 9;
  const size_t n = 1'000'000;
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i % 1000);
  v.front() = lo;
  v.back() = hi;
  RegisterBigIntTable(engine_, "ends", {"v"},
                      {Column::FromBigInts(std::move(v))});
  auto r = RunQuery(engine_, "SELECT min(v), max(v) FROM ends");
  EXPECT_EQ(r.GetInt(0, 0), lo);
  EXPECT_EQ(r.GetInt(0, 1), hi);
}

// ---------------------------------------------------------------------------
// ORDER BY tie order and the Top-N sink (ORDER BY ... LIMIT)

/// Compares rows [a0, a0+n) of `a` with rows [b0, b0+n) of `b`, cell by
/// cell, and names the first difference.
::testing::AssertionResult SameRows(const QueryResult& a, size_t a0,
                                    const QueryResult& b, size_t b0,
                                    size_t n) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure() << "column counts differ";
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const DataType type = a.schema().field(c).type;
    for (size_t i = 0; i < n; ++i) {
      const size_t ra = a0 + i;
      const size_t rb = b0 + i;
      bool same = a.IsNull(ra, c) == b.IsNull(rb, c);
      if (same && !a.IsNull(ra, c)) {
        if (type == DataType::kVarchar) {
          same = a.GetString(ra, c) == b.GetString(rb, c);
        } else if (type == DataType::kDouble) {
          same = std::bit_cast<uint64_t>(a.GetDouble(ra, c)) ==
                 std::bit_cast<uint64_t>(b.GetDouble(rb, c));
        } else {
          same = a.GetInt(ra, c) == b.GetInt(rb, c);
        }
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "row " << i << " column " << c << ": "
               << a.GetValue(ra, c).ToString() << " vs "
               << b.GetValue(rb, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string Explain(Engine& engine, const std::string& sql) {
  QueryResult r = RunQuery(engine, "EXPLAIN " + sql);
  std::string text;
  for (size_t i = 0; i < r.num_rows(); ++i) text += r.GetString(i, 0) + "\n";
  return text;
}

/// `tf` is flat, `ts` holds the same rows sealed and hash-partitioned
/// (sealing clusters rows by partition, so its source order differs).
/// g has three values plus NULLs (heavy ties), d and s repeat often and
/// carry NULLs too.
class ParallelExecOrderTest : public ParallelExecTest {
 protected:
  static constexpr int64_t kRows = 70'000;

  void SetUp() override {
    ParallelExecTest::SetUp();
    Column id(DataType::kBigInt), g(DataType::kBigInt);
    Column d(DataType::kDouble), s(DataType::kVarchar);
    for (int64_t i = 0; i < kRows; ++i) {
      id.AppendBigInt(i);
      if (i % 97 == 0) {
        g.AppendNull();
      } else {
        g.AppendBigInt(i % 3);
      }
      if (i % 89 == 0) {
        d.AppendNull();
      } else {
        d.AppendDouble(static_cast<double>((i * 7919) % 1000) / 8.0);
      }
      if (i % 101 == 0) {
        s.AppendNull();
      } else {
        s.AppendString("s" + std::to_string((i * 31) % 500));
      }
    }
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE tf (id BIGINT, g BIGINT, d DOUBLE, "
                           "s VARCHAR)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE ts (id BIGINT, g BIGINT, d DOUBLE, "
                           "s VARCHAR) PARTITION BY HASH(id) PARTITIONS 4")
                  .status());
    for (const char* name : {"tf", "ts"}) {
      auto like = engine_.catalog().GetTable(name);
      ASSERT_OK(like.status());
      auto t = std::make_shared<Table>(name, (*like)->schema());
      t->set_partition_spec((*like)->partition_spec());
      ASSERT_OK(t->SetColumn(0, id));
      ASSERT_OK(t->SetColumn(1, g));
      ASSERT_OK(t->SetColumn(2, d));
      ASSERT_OK(t->SetColumn(3, s));
      if (std::string(name) == "ts") ASSERT_OK(t->Seal());
      ASSERT_OK(engine_.catalog().ReplaceTable(name, t));
    }
  }

  /// Runs `sql` on one worker and on four; asserts identical rows.
  QueryResult SameOnOneAndFourWorkers(const std::string& sql) {
    QueryResult serial;
    {
      ScopedSerialExecution one_worker;
      serial = RunQuery(engine_, sql);
    }
    QueryResult parallel = RunQuery(engine_, sql);
    EXPECT_EQ(serial.num_rows(), parallel.num_rows()) << sql;
    EXPECT_TRUE(SameRows(serial, 0, parallel, 0,
                         std::min(serial.num_rows(), parallel.num_rows())))
        << sql;
    return parallel;
  }

  /// For every (limit, offset) window: `base ORDER BY order LIMIT l
  /// OFFSET o` lowers to the Top-N sink and returns rows [o, o+l) of the
  /// full `base ORDER BY order`, identically on one worker and on four.
  void ExpectTopNIsSlicedSort(
      const std::string& base, const std::string& order,
      const std::vector<std::pair<int64_t, int64_t>>& windows) {
    const std::string full_sql = base + " ORDER BY " + order;
    const QueryResult full = SameOnOneAndFourWorkers(full_sql);
    for (const auto& [limit, offset] : windows) {
      const std::string sql = full_sql + " LIMIT " + std::to_string(limit) +
                              " OFFSET " + std::to_string(offset);
      const std::string text = Explain(engine_, sql);
      const std::string pipelines = text.substr(text.find("=== Pipelines"));
      EXPECT_NE(pipelines.find("top " + std::to_string(limit)),
                std::string::npos)
          << text;
      EXPECT_EQ(pipelines.find("Limit"), std::string::npos) << text;
      const size_t n = full.num_rows();
      const size_t lo = std::min(static_cast<size_t>(offset), n);
      const size_t hi = std::min(static_cast<size_t>(offset + limit), n);
      const QueryResult top = SameOnOneAndFourWorkers(sql);
      ASSERT_EQ(top.num_rows(), hi - lo) << sql;
      EXPECT_TRUE(SameRows(full, lo, top, 0, hi - lo)) << sql;
    }
  }
};

TEST_F(ParallelExecOrderTest, OrderByTiesKeepSourceOrderAcrossWorkerCounts) {
  // Three distinct keys over 400k rows: before ties broke on the chunk
  // sequence, the 4-worker merge returned a different order per run.
  const size_t n = 400'000;
  std::vector<int64_t> k(n), g(n);
  for (size_t i = 0; i < n; ++i) {
    k[i] = static_cast<int64_t>(i);
    g[i] = static_cast<int64_t>(i % 3);
  }
  RegisterBigIntTable(engine_, "t", {"k", "g"},
                      {Column::FromBigInts(std::move(k)),
                       Column::FromBigInts(std::move(g))});
  const std::string sql = "SELECT k, g FROM t WHERE k >= 0 ORDER BY g";
  const QueryResult r = SameOnOneAndFourWorkers(sql);
  ASSERT_EQ(r.num_rows(), n);
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(SameRows(r, 0, RunQuery(engine_, sql), 0, n))
        << "run " << run;
  }
  // Ties keep source order: within one g, k ascends.
  for (size_t i = 1; i < n; ++i) {
    if (r.GetInt(i, 1) != r.GetInt(i - 1, 1)) continue;
    ASSERT_LT(r.GetInt(i - 1, 0), r.GetInt(i, 0)) << "row " << i;
  }
  // Same on a sealed, partitioned scan.
  SameOnOneAndFourWorkers("SELECT id, g FROM ts WHERE id >= 0 ORDER BY g");
}

TEST_F(ParallelExecOrderTest, SortOverEveryInputShapeAcrossWorkerCounts) {
  for (const std::string t : {"tf", "ts"}) {
    SCOPED_TRACE(t);
    // A bare scan (the sealed one through its column copy).
    SameOnOneAndFourWorkers("SELECT * FROM " + t + " ORDER BY g DESC, s");
    SameOnOneAndFourWorkers("SELECT id, d FROM " + t + " ORDER BY d");
    // An output-expression key.
    SameOnOneAndFourWorkers("SELECT id, g FROM " + t +
                            " ORDER BY id % 7 + g DESC");
    // A GROUP BY result, ordered totally (group output order is the
    // schedule's).
    SameOnOneAndFourWorkers("SELECT s, count(*) c, sum(id) FROM " + t +
                            " GROUP BY s ORDER BY c DESC, s");
    // LIMIT ALL OFFSET n, over the sort and over a filtered stream.
    const QueryResult full = SameOnOneAndFourWorkers(
        "SELECT id, s FROM " + t + " ORDER BY s, d");
    const QueryResult rest = SameOnOneAndFourWorkers(
        "SELECT id, s FROM " + t + " ORDER BY s, d LIMIT ALL OFFSET 1234");
    ASSERT_EQ(rest.num_rows(), static_cast<size_t>(kRows - 1234));
    EXPECT_TRUE(SameRows(full, 1234, rest, 0, rest.num_rows()));
    const QueryResult filtered = SameOnOneAndFourWorkers(
        "SELECT id FROM " + t + " WHERE g = 1 LIMIT ALL OFFSET 50");
    const QueryResult all_g1 =
        SameOnOneAndFourWorkers("SELECT id FROM " + t + " WHERE g = 1");
    ASSERT_EQ(filtered.num_rows() + 50, all_g1.num_rows());
    EXPECT_TRUE(SameRows(all_g1, 50, filtered, 0, filtered.num_rows()));
    // An OFFSET at or past the row count.
    for (const int64_t offset : {kRows, kRows + 9}) {
      const std::string off = " OFFSET " + std::to_string(offset);
      EXPECT_EQ(SameOnOneAndFourWorkers("SELECT id FROM " + t +
                                        " ORDER BY d" + off)
                    .num_rows(),
                0u);
      EXPECT_EQ(SameOnOneAndFourWorkers("SELECT id FROM " + t +
                                        " WHERE id >= 0" + off)
                    .num_rows(),
                0u);
    }
  }
  // A total order returns the same rows over flat and sealed storage.
  const QueryResult flat =
      SameOnOneAndFourWorkers("SELECT * FROM tf ORDER BY s DESC, id");
  const QueryResult sealed =
      SameOnOneAndFourWorkers("SELECT * FROM ts ORDER BY s DESC, id");
  ASSERT_EQ(flat.num_rows(), sealed.num_rows());
  EXPECT_TRUE(SameRows(flat, 0, sealed, 0, flat.num_rows()));
  // A UNION ALL of the flat and the sealed table: key ties keep branch
  // order, then each branch's source order.
  SameOnOneAndFourWorkers(
      "SELECT id, g FROM tf UNION ALL SELECT id, g FROM ts ORDER BY g");
  SameOnOneAndFourWorkers(
      "SELECT id, d FROM ts UNION ALL SELECT id, d FROM tf WHERE g = 2 "
      "ORDER BY d * 2 DESC");
}

TEST_F(ParallelExecOrderTest, TopNEqualsSlicedSortAcrossKeyTypes) {
  const std::vector<std::pair<int64_t, int64_t>> windows = {
      {10, 0}, {7, 5}, {0, 0}, {3000, 1000}};
  // LIMIT past the row count, OFFSET at or past it, and a window ending
  // at the last row: every row stays a candidate.
  const std::vector<std::pair<int64_t, int64_t>> edges = {
      {10, 0}, {kRows * 2, 0}, {5, kRows}, {5, kRows + 9}, {25, kRows - 10}};
  for (const char* table : {"tf", "ts"}) {
    const std::string base =
        std::string("SELECT id, g, d, s FROM ") + table;
    for (const char* order :
         {"g", "d DESC, s", "s DESC", "g, s DESC, d"}) {
      SCOPED_TRACE(std::string(table) + " ORDER BY " + order);
      ExpectTopNIsSlicedSort(base, order, windows);
    }
    for (const char* order : {"g DESC, d", "s, id DESC"}) {
      SCOPED_TRACE(std::string(table) + " ORDER BY " + order);
      ExpectTopNIsSlicedSort(base, order, edges);
    }
  }
}

TEST_F(ParallelExecOrderTest, TopNThroughFilterHiddenSortColumnsAndUnion) {
  const std::vector<std::pair<int64_t, int64_t>> windows = {
      {10, 0}, {40, 17}, {0, 3}, {kRows, 0}};
  for (const char* table : {"tf", "ts"}) {
    SCOPED_TRACE(table);
    // Filter below the sink; keys the select list does not return (the
    // Limit(Project(Sort)) shape); an expression key.
    ExpectTopNIsSlicedSort(
        std::string("SELECT id, s FROM ") + table + " WHERE id % 5 <> 1",
        "g DESC, d", windows);
    ExpectTopNIsSlicedSort(std::string("SELECT s FROM ") + table,
                           "g + 1, id DESC", windows);
  }
  ExpectTopNIsSlicedSort("SELECT id, g FROM tf UNION ALL SELECT id, g FROM ts",
                         "g DESC", windows);
}

TEST_F(ParallelExecOrderTest, TopNInsideSubqueryAndIterateStep) {
  const QueryResult full =
      SameOnOneAndFourWorkers("SELECT id FROM tf ORDER BY g, d");
  // Derived table: rows [10, 110) of the full sort.
  int64_t want_sum = 0;
  for (size_t i = 10; i < 110; ++i) want_sum += full.GetInt(i, 0);
  const std::string sub_sql =
      "SELECT count(*), sum(id) FROM (SELECT id FROM tf ORDER BY g, d "
      "LIMIT 100 OFFSET 10) x";
  SameOnOneAndFourWorkers(sub_sql);
  QueryResult sub = RunQuery(engine_, sub_sql);
  ASSERT_EQ(sub.num_rows(), 1u);
  EXPECT_EQ(sub.GetInt(0, 0), 100);
  EXPECT_DOUBLE_EQ(sub.GetDouble(0, 1), static_cast<double>(want_sum));

  // ITERATE: the init and every step end in ORDER BY ... LIMIT. The init
  // keeps the first 40 ids of the sort; each step keeps the 30 smallest.
  const QueryResult it = SameOnOneAndFourWorkers(
      "SELECT * FROM ITERATE((SELECT id, 0 i FROM tf ORDER BY g, d LIMIT 40), "
      "(SELECT id, i + 1 i FROM iterate ORDER BY id LIMIT 30), "
      "(SELECT 1 FROM iterate WHERE i >= 3)) ORDER BY id");
  std::vector<int64_t> init;
  for (size_t i = 0; i < 40; ++i) init.push_back(full.GetInt(i, 0));
  std::sort(init.begin(), init.end());
  ASSERT_EQ(it.num_rows(), 30u);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(it.GetInt(i, 0), init[i]) << "row " << i;
    EXPECT_EQ(it.GetInt(i, 1), 3) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Twin execution: queries without ORDER BY return the serial rows, in the
// serial order, on the 4-worker pool

/// `big` holds 400k flat rows (25 morsels); `bigs` holds the same rows
/// sealed and hash-partitioned on g (sealing clusters rows by partition);
/// `dim` holds one row per g value, so joins on it have unique build keys.
/// Each query runs once under ScopedSerialExecution and then kRuns times
/// on the pool, and every parallel result must equal the serial one cell
/// for cell (DOUBLEs bit for bit) and row for row.
///
/// Left out on purpose, because their order still depends on the
/// schedule: GROUP BY output (the aggregate radix merge emits groups in
/// partition-then-arrival order) and the match order of N:M joins (the
/// build side's chains are linked by CAS in schedule order).
class ParallelExecTwinTest : public ParallelExecTest {
 protected:
  static constexpr int64_t kRows = 400'000;
  static constexpr int kRuns = 4;

  void SetUp() override {
    ParallelExecTest::SetUp();
    Column id(DataType::kBigInt), g(DataType::kBigInt), x(DataType::kDouble);
    for (int64_t i = 0; i < kRows; ++i) {
      id.AppendBigInt(i);
      g.AppendBigInt(i % 8);
      x.AppendDouble(static_cast<double>((i * 7919) % 1000) / 10.0);
    }
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE big (id BIGINT, g BIGINT, x DOUBLE)")
                  .status());
    ASSERT_OK(engine_
                  .Execute("CREATE TABLE bigs (id BIGINT, g BIGINT, x DOUBLE) "
                           "PARTITION BY HASH(g) PARTITIONS 4")
                  .status());
    for (const char* name : {"big", "bigs"}) {
      auto like = engine_.catalog().GetTable(name);
      ASSERT_OK(like.status());
      auto t = std::make_shared<Table>(name, (*like)->schema());
      t->set_partition_spec((*like)->partition_spec());
      ASSERT_OK(t->SetColumn(0, id));
      ASSERT_OK(t->SetColumn(1, g));
      ASSERT_OK(t->SetColumn(2, x));
      if (std::string(name) == "bigs") ASSERT_OK(t->Seal());
      ASSERT_OK(engine_.catalog().ReplaceTable(name, t));
    }
    RegisterBigIntTable(engine_, "dim", {"k", "w"},
                        {Column::FromBigInts({0, 1, 2, 3, 4, 5, 6, 7}),
                         Column::FromBigInts({70, 61, 52, 43, 34, 25, 16, 7})});
  }

  /// Registers BIGINT columns `cols` twice: flat as `name`, and sealed as
  /// `name` + "s".
  void RegisterFlatAndSealed(const std::string& name,
                             const std::vector<std::string>& col_names,
                             const std::vector<Column>& cols) {
    for (const bool sealed : {false, true}) {
      std::vector<Field> fields;
      for (const auto& n : col_names) fields.emplace_back(n, DataType::kBigInt);
      auto t = std::make_shared<Table>(name + (sealed ? "s" : ""),
                                       Schema(std::move(fields)));
      for (size_t c = 0; c < cols.size(); ++c) {
        ASSERT_OK(t->SetColumn(c, cols[c]));
      }
      if (sealed) ASSERT_OK(t->Seal());
      ASSERT_OK(engine_.catalog().RegisterTable(std::move(t)));
    }
  }

  /// Asserts that `sql` returns the serial rows on every parallel run, and
  /// that its plan contains `shape` (the operator under test).
  void ExpectTwins(const std::string& sql, const std::string& shape) {
    EXPECT_NE(Explain(engine_, sql).find(shape), std::string::npos)
        << sql << " does not lower to " << shape;
    QueryResult serial;
    {
      ScopedSerialExecution one_worker;
      serial = RunQuery(engine_, sql);
    }
    ASSERT_GT(serial.num_rows(), 0u) << sql;
    for (int run = 0; run < kRuns; ++run) {
      const QueryResult parallel = RunQuery(engine_, sql);
      ASSERT_EQ(serial.num_rows(), parallel.num_rows()) << sql;
      ASSERT_TRUE(SameRows(serial, 0, parallel, 0, serial.num_rows()))
          << sql << " (run " << run << ")";
    }
  }
};

TEST_F(ParallelExecTwinTest, FilterAndProjectionOverFlatAndSealedTables) {
  ExpectTwins("SELECT id, x FROM big WHERE x > 50", "Filter");
  ExpectTwins("SELECT id * 2 + g, x / 3 FROM big", "Project");
  ExpectTwins("SELECT id, x FROM bigs WHERE x > 50", "Filter");
  ExpectTwins("SELECT id, x FROM bigs WHERE g = 3 AND x > 50",
              "[partitions: 1/4 scanned]");
  ExpectTwins("SELECT id * 2 + g, x / 3 FROM bigs WHERE g = 6",
              "[partitions: 1/4 scanned]");
}

TEST_F(ParallelExecTwinTest, UnionAllOfBareTransformedAndMixedBranches) {
  ExpectTwins("SELECT id, x FROM big UNION ALL SELECT id, x FROM bigs",
              "UnionAll (materialize) (shared)");
  ExpectTwins(
      "SELECT id, x FROM big WHERE x > 50 UNION ALL "
      "SELECT id + 1, x * 2 FROM bigs WHERE g = 1",
      "UnionAll (materialize) (shared)");
  ExpectTwins(
      "SELECT id, x FROM bigs UNION ALL SELECT id, x FROM big WHERE x < 20 "
      "UNION ALL SELECT id, x FROM big",
      "UnionAll (materialize) (shared)");
}

TEST_F(ParallelExecTwinTest, UnionAllFinalizeChargesItsCopy) {
  // Four workers leave interleaved partials, so Finalize copies them into
  // one table. The copy frees each piece as it goes and charges the
  // overlap: nonzero, and far below a second copy of the output.
  auto r = RunQuery(engine_,
                    "EXPLAIN ANALYZE SELECT id, x FROM big UNION ALL "
                    "SELECT id, x FROM big");
  std::string text;
  for (size_t i = 0; i < r.num_rows(); ++i) text += r.GetString(i, 0) + "\n";
  const size_t finalize = text.find("[<- P0, P1]");
  ASSERT_NE(finalize, std::string::npos) << text;
  const std::string needle = "bytes_reserved=";
  const size_t at = text.find(needle, finalize);
  ASSERT_NE(at, std::string::npos) << text;
  const int64_t reserved =
      std::strtoll(text.c_str() + at + needle.size(), nullptr, 10);
  const int64_t output_bytes = 2 * kRows * 16;
  EXPECT_GT(reserved, 0) << text;
  EXPECT_LT(reserved, output_bytes / 4) << text;
}

TEST_F(ParallelExecTwinTest, UniqueKeyJoinHiddenSortColumnLimitAndIterate) {
  ExpectTwins(
      "SELECT b.id, d.w, b.x FROM big b JOIN dim d ON b.g = d.k "
      "WHERE b.x > 20",
      "HashJoinProbe");
  // The select list drops the sort key: a column-ref Project over the
  // Sort operator (P1, over its materialized input P0) selects columns of
  // the sorted relation. Three keys tie 400k rows.
  ExpectTwins("SELECT id FROM big WHERE x > 10 ORDER BY g % 3",
              "P2 [<- P1]: Project [id#0]\n");
  ExpectTwins("SELECT id, x FROM bigs ORDER BY g DESC",
              "P2 [<- P1]: Project [id#0, x#1]\n");
  ExpectTwins("SELECT id, x FROM big WHERE x > 50 LIMIT 1000 OFFSET 5000",
              "Limit 1000 OFFSET 5000");
  ExpectTwins("SELECT id FROM bigs WHERE g = 2 LIMIT 30000", "Limit 30000");
  ExpectTwins(
      "SELECT id, x FROM ITERATE((SELECT id, x, 0 i FROM big WHERE g < 6), "
      "(SELECT id, x + 1 x, i + 1 i FROM iterate WHERE id % 7 <> 3), "
      "(SELECT 1 FROM iterate WHERE i >= 2)) WHERE x > 40",
      "Iterate");
}

TEST_F(ParallelExecTwinTest, ColumnSelectionOverSortAggregateAndIterate) {
  // A column-ref Project over a pipeline breaker selects columns of the
  // breaker's finished result, flat or sealed below. One group per GROUP
  // BY: the order of several groups still follows the schedule.
  for (const std::string t : {"big", "bigs"}) {
    ExpectTwins("SELECT x, id FROM " + t + " ORDER BY g DESC, id",
                "P2 [<- P1]: Project [x#0, id#1]\n");
    const std::string grouped =
        "SELECT g, count(*) n, sum(id) s FROM " + t + " WHERE g = 3 GROUP BY g";
    ExpectTwins(grouped, "P1 [<- P0]: Project [g#0, count#1, sum#2]\n");
    // The selection names its columns as the Project binds them.
    EXPECT_EQ(RunQuery(engine_, grouped).schema().field(1).name, "n");
    ExpectTwins("SELECT id, i FROM ITERATE((SELECT id, x, 0 i FROM " + t +
                    " WHERE g < 6), (SELECT id, x + 1 x, i + 1 i FROM "
                    "iterate WHERE id % 7 <> 3), "
                    "(SELECT 1 FROM iterate WHERE i >= 2))",
                "P1 [<- P0]: Project [id#0, i#2]\n");
  }
}

TEST_F(ParallelExecTwinTest, AnalyticsOperatorsOverColumnSelections) {
  // Integer-valued inputs keep every sum the operators form exact (the
  // fractional twin is AnalyticsOperatorsOverFractionalInputs). Each
  // PageRank vertex has two in-edges, from v - 1 and from the u with
  // 7u + 1 = v, and a two-term sum is the same in either order.
  constexpr int64_t kVertices = 200'000;
  Column s(DataType::kBigInt), d(DataType::kBigInt);
  for (int64_t v = 0; v < kVertices; ++v) {
    s.AppendBigInt(v);
    d.AppendBigInt((v + 1) % kVertices);
    s.AppendBigInt(v);
    d.AppendBigInt((7 * v + 1) % kVertices);
  }
  RegisterFlatAndSealed("links", {"s", "d"}, {s, d});
  Column l(DataType::kBigInt), a(DataType::kBigInt), b(DataType::kBigInt);
  for (int64_t i = 0; i < kRows; ++i) {
    l.AppendBigInt(i % 3);
    a.AppendBigInt((i * 13) % 100 + 40 * (i % 3));
    b.AppendBigInt((i * 7) % 50);
  }
  RegisterFlatAndSealed("pts", {"l", "a", "b"}, {l, a, b});
  for (const std::string sfx : {"", "s"}) {
    ExpectTwins("SELECT * FROM KMEANS((SELECT a, b FROM pts" + sfx +
                    "), (SELECT a, b FROM pts" + sfx + " LIMIT 4), 10)",
                "P0: Scan pts" + sfx + " project [a#1, b#2]\n");
    ExpectTwins("SELECT * FROM PAGERANK((SELECT s, d FROM links" + sfx +
                    "), 0.85, 0.0, 20)",
                "P0: Scan links" + sfx + " project [s#0, d#1]\n");
    ExpectTwins("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT l, a, b FROM pts" +
                    sfx + ")) ORDER BY class, attr",
                "P0: Scan pts" + sfx + " project [l#0, a#1, b#2]\n");
  }
}

TEST_F(ParallelExecTwinTest, AnalyticsOperatorsOverFractionalInputs) {
  // Fractional inputs: the sums the operators form round, so the results
  // equal the serial ones only if partials combine in an order that does
  // not depend on the schedule (stripes for k-Means and the moments, a
  // serial stable CSR build for the graph operators). In-degrees in the
  // hundreds give PageRank long per-vertex sums.
  ASSERT_OK(workloads::GenerateVectorTable(&engine_.catalog(), "vec", kRows,
                                           4, 3)
                .status());
  ASSERT_OK(workloads::GenerateLabeledTable(&engine_.catalog(), "lab", kRows,
                                            3, 5)
                .status());
  ASSERT_OK(workloads::RegisterGraph(&engine_.catalog(), "social",
                                     GenerateSocialGraph(2000, 200, 9))
                .status());
  const std::string points = "(SELECT x1, x2, x3, x4 FROM vec), ";
  const std::string centers = "(SELECT x1, x2, x3, x4 FROM vec LIMIT 6), ";
  const std::vector<std::string> distances = {
      "",
      "λ(a, b) (a.x1 - b.x1)^2 + (a.x2 - b.x2)^2 + (a.x3 - b.x3)^2 + "
      "(a.x4 - b.x4)^2, ",
      "λ(a, b) 2.5 * abs(b.x2 - a.x2) + abs(a.x1 - b.x1) + "
      "0.5 * abs(a.x4 - b.x4) + abs(a.x3 - b.x3), ",
      "λ(a, b) sqrt((a.x1 - b.x1)^2 + (a.x2 - b.x2)^2) + "
      "abs(a.x3 - b.x3) * (a.x4 - b.x4), ",
  };
  for (const std::string& distance : distances) {
    ExpectTwins("SELECT * FROM KMEANS(" + points + centers + distance + "5)",
                "TableFunction kmeans");
  }
  const std::string edges = "(SELECT src, dst FROM social), 0.85, 0.0, 20";
  ExpectTwins("SELECT * FROM PAGERANK(" + edges + ")", "TableFunction pagerank");
  ExpectTwins("SELECT * FROM PAGERANK(" + edges +
                  ", λ(e) 0.1 + (e.src % 7) * 0.3)",
              "TableFunction pagerank");
  ExpectTwins("SELECT * FROM CONNECTED_COMPONENTS((SELECT src, dst FROM "
              "social))",
              "TableFunction connected_components");
  ExpectTwins("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT label, x1, x2, x3 "
              "FROM lab)) ORDER BY class, attr",
              "TableFunction naive_bayes_train");
  ExpectTwins("SELECT * FROM SUMMARIZE((SELECT label, x1, x2, x3 FROM lab)) "
              "ORDER BY class, attr",
              "TableFunction summarize");
}

TEST(WorkloadGeneratorTest, SameSeedGivesTheSameTablesAtAnyWorkerCount) {
  // Benchmarks compare thread counts over generated inputs, so the inputs
  // must not depend on the thread count that generated them.
  constexpr size_t kN = 200'000;
  constexpr size_t kD = 3;
  Engine serial_engine;
  Engine pool_engine;
  std::vector<Result<TablePtr>> serial;
  {
    ScopedSerialExecution one_worker;
    serial.push_back(workloads::GenerateVectorTable(
        &serial_engine.catalog(), "v", kN, kD, 7));
    serial.push_back(workloads::GenerateLabeledTable(
        &serial_engine.catalog(), "l", kN, kD, 7));
  }
  const std::vector<Result<TablePtr>> pool = {
      workloads::GenerateVectorTable(&pool_engine.catalog(), "v", kN, kD, 7),
      workloads::GenerateLabeledTable(&pool_engine.catalog(), "l", kN, kD, 7)};
  for (size_t t = 0; t < pool.size(); ++t) {
    ASSERT_OK(serial[t].status());
    ASSERT_OK(pool[t].status());
    const Table& x = **serial[t];
    const Table& y = **pool[t];
    ASSERT_EQ(x.num_rows(), kN);
    ASSERT_EQ(y.num_rows(), kN);
    for (size_t c = 0; c < x.num_columns(); ++c) {
      const bool dbl = x.column(c).type() == DataType::kDouble;
      const void* xd = dbl ? static_cast<const void*>(x.column(c).F64Data())
                           : x.column(c).I64Data();
      const void* yd = dbl ? static_cast<const void*>(y.column(c).F64Data())
                           : y.column(c).I64Data();
      EXPECT_EQ(std::memcmp(xd, yd, kN * 8), 0)
          << x.name() << " column " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Combiner regression (satellite: constructed collisions must not chain)

/// Inverse of an odd 64-bit multiplication (Newton iteration: five steps
/// double the correct low bits past 64).
uint64_t MulInverse(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Inverse of `y = x ^ (x >> s)`.
uint64_t UnXorShift(uint64_t y, unsigned s) {
  uint64_t x = y;
  for (unsigned sh = s; sh < 64; sh += s) x = y ^ (x >> s);
  return x;
}

/// Inverse of MixHash (it is a bijection: two xorshifts and two odd
/// multiplications, each invertible).
uint64_t InvMixHash(uint64_t x) {
  x = UnXorShift(x, 31);
  x *= MulInverse(0x94D049BB133111EBULL);
  x = UnXorShift(x, 27);
  x *= MulInverse(0xBF58476D1CE4E5B9ULL);
  x = UnXorShift(x, 30);
  return x;
}

TEST(HashKernelsTest, InvMixHashInvertsMixHash) {
  const uint64_t probes[] = {0, 1, 42, 0xDEADBEEFCAFEF00DULL, ~uint64_t{0}};
  for (uint64_t v : probes) {
    EXPECT_EQ(InvMixHash(MixHash(v)), v);
    EXPECT_EQ(MixHash(InvMixHash(v)), v);
  }
}

TEST(HashKernelsTest, ConstructedLinearCollisionDoesNotChain) {
  // The pre-PR combiner was linear: row_hash = h*31 + Mix(cell) per
  // column. Because Mix is invertible, two-column collisions are
  // constructible in closed form: shift the first column's contribution
  // down by 1 and the second's up by 31. The mix-after-combine scheme
  // re-avalanches between columns, so the same pair must hash apart.
  const int64_t a1 = 1, b1 = 2;
  const uint64_t ma2 = MixHash(static_cast<uint64_t>(a1)) - 1;
  const uint64_t mb2 = MixHash(static_cast<uint64_t>(b1)) + 31;
  const int64_t a2 = static_cast<int64_t>(InvMixHash(ma2));
  const int64_t b2 = static_cast<int64_t>(InvMixHash(mb2));

  auto old_combine = [](int64_t a, int64_t b) {
    uint64_t h = kHashSeed;
    h = h * 31 + MixHash(static_cast<uint64_t>(a));
    h = h * 31 + MixHash(static_cast<uint64_t>(b));
    return h;
  };
  // The pair really does collide under the old scheme...
  ASSERT_EQ(old_combine(a1, b1), old_combine(a2, b2));
  ASSERT_TRUE(a1 != a2 || b1 != b2);

  // ...and no longer does under HashRows.
  Column ca = Column::FromBigInts({a1, a2});
  Column cb = Column::FromBigInts({b1, b2});
  std::vector<const Column*> cols = {&ca, &cb};
  uint64_t hashes[2];
  HashRows(cols, 0, 2, hashes);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(HashKernelsTest, SwappedKeyColumnsHashApart) {
  // A combine that ignores column position hashes (a, b) and (b, a) alike,
  // so swapped composite keys would share hash chains.
  const Column a = Column::FromBigInts({1, 7, -3, 1'000'000});
  const Column b = Column::FromBigInts({2, 9, 5, 42});
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_NE(HashRow({&a, &b}, r), HashRow({&b, &a}, r)) << "row " << r;
  }
}

TEST(HashKernelsTest, ColumnarHashesMatchScalarPath) {
  Column c(DataType::kBigInt);
  for (int64_t i = 0; i < 100; ++i) {
    if (i % 9 == 0) {
      c.AppendNull();
    } else {
      c.AppendBigInt(i * 1'000'003);
    }
  }
  std::vector<uint64_t> batch(100);
  HashColumn(c, 0, 100, batch.data());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(batch[i], HashCell(c, i)) << "row " << i;
    if (c.IsNull(i)) EXPECT_EQ(batch[i], kNullHash);
  }
}

}  // namespace
}  // namespace soda
