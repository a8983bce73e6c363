/// \file partition_test.cc
/// Partitioned (and therefore sealed/encoded) tables end to end: DDL
/// validation, planner pruning vs. an unpartitioned twin, EXPLAIN's
/// `partitions: K/N scanned` surface, DML that touches only affected
/// partitions (including the repartitioning UPDATE fallback), multi-group
/// partitions, random-access readers that must leave the sealed catalog
/// table encoded, and a kill-and-recover round trip proving the encoded
/// checkpoint image replays bit-identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/checkpoint.h"
#include "storage/csv.h"
#include "tests/test_util.h"
#include "util/query_guard.h"

namespace soda {
namespace {

namespace fs = std::filesystem;

using testing::ExpectError;
using testing::IntColumn;
using testing::RunQuery;

std::string ExplainFor(Engine& engine, const std::string& sql) {
  auto r = engine.Explain(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.ValueOrDie() : std::string();
}

class PartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Twin tables with identical contents: `pt` range-partitioned (and so
    // sealed/encoded from birth), `ft` flat. Every query below must agree
    // across the pair.
    RunQuery(engine_,
             "CREATE TABLE pt (k BIGINT, v BIGINT, s VARCHAR) "
             "PARTITION BY RANGE(k) (100, 200, 300)");
    RunQuery(engine_, "CREATE TABLE ft (k BIGINT, v BIGINT, s VARCHAR)");
    for (const char* name : {"pt", "ft"}) {
      std::string insert = std::string("INSERT INTO ") + name + " VALUES ";
      for (int i = 0; i < 400; ++i) {
        if (i) insert += ", ";
        insert += "(" + std::to_string(i) + ", " + std::to_string(i % 17) +
                  ", 'tag_" + std::to_string(i % 5) + "')";
      }
      RunQuery(engine_, insert);
    }
  }

  /// Runs `sql` with every $T substituted for the table name on both twins
  /// and expects identical ordered results.
  void ExpectTwinsAgree(const std::string& templ) {
    auto substitute = [&](const std::string& name) {
      std::string sql = templ;
      for (size_t at = sql.find("$T"); at != std::string::npos;
           at = sql.find("$T", at + name.size())) {
        sql.replace(at, 2, name);
      }
      return sql;
    };
    auto a = RunQuery(engine_, substitute("pt"));
    auto b = RunQuery(engine_, substitute("ft"));
    ASSERT_EQ(a.num_rows(), b.num_rows()) << templ;
    ASSERT_EQ(a.num_columns(), b.num_columns()) << templ;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        EXPECT_EQ(a.GetValue(r, c).ToString(), b.GetValue(r, c).ToString())
            << templ << " row " << r << " col " << c;
      }
    }
  }

  Engine engine_;
};

// --- DDL validation -------------------------------------------------------

TEST_F(PartitionTest, InvalidSpecsRejected) {
  ExpectError(engine_,
              "CREATE TABLE bad (k BIGINT) PARTITION BY RANGE(nope) (10)",
              StatusCode::kBindError);
  ExpectError(engine_,
              "CREATE TABLE bad (s VARCHAR) PARTITION BY RANGE(s) (10)",
              StatusCode::kInvalidArgument);
  ExpectError(engine_,
              "CREATE TABLE bad (k BIGINT) PARTITION BY RANGE(k) (20, 10)",
              StatusCode::kInvalidArgument);
  ExpectError(engine_,
              "CREATE TABLE bad (k BIGINT) PARTITION BY HASH(k) PARTITIONS 0",
              StatusCode::kInvalidArgument);
}

// --- pruning correctness --------------------------------------------------

TEST_F(PartitionTest, RangeQueriesMatchUnpartitionedTwin) {
  ExpectTwinsAgree("SELECT count(*) FROM $T");
  ExpectTwinsAgree("SELECT sum(v) FROM $T WHERE k < 100");
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE k >= 150 AND k < 250");
  ExpectTwinsAgree("SELECT k, v FROM $T WHERE k = 201 ORDER BY k");
  ExpectTwinsAgree("SELECT k FROM $T WHERE k > 380 ORDER BY k");
  ExpectTwinsAgree("SELECT k FROM $T WHERE k <= 0 ORDER BY k");
  // Predicates on non-partition columns prune nothing but must stay exact.
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE v = 3");
  ExpectTwinsAgree(
      "SELECT k FROM $T WHERE s = 'tag_2' AND k < 50 ORDER BY k");
  // Boundary values land in the upper partition (bounds are exclusive).
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE k = 100");
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE k = 99");
}

TEST_F(PartitionTest, HashEqQueriesMatchAndPrune) {
  RunQuery(engine_,
           "CREATE TABLE ht (k BIGINT, v BIGINT) "
           "PARTITION BY HASH(k) PARTITIONS 8");
  std::string insert = "INSERT INTO ht VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i * 2) + ")";
  }
  RunQuery(engine_, insert);
  for (int64_t k : {0, 7, 123, 299}) {
    auto r = RunQuery(engine_, "SELECT v FROM ht WHERE k = " +
                                   std::to_string(k));
    ASSERT_EQ(r.num_rows(), 1u) << k;
    EXPECT_EQ(r.GetInt(0, 0), k * 2);
  }
  // A missing key prunes to one partition and finds nothing.
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM ht WHERE k = 12345")
                .GetInt(0, 0),
            0);
  // Hash layout cannot serve range predicates — still correct, unpruned.
  EXPECT_EQ(
      RunQuery(engine_, "SELECT count(*) FROM ht WHERE k < 10").GetInt(0, 0),
      10);
}

// --- EXPLAIN surface ------------------------------------------------------

TEST_F(PartitionTest, ExplainReportsPrunedPartitions) {
  std::string text = ExplainFor(
      engine_, "SELECT * FROM pt WHERE k >= 150 AND k < 250");
  EXPECT_NE(text.find("partitions: 2/4 scanned"), std::string::npos) << text;

  text = ExplainFor(engine_, "SELECT * FROM pt WHERE k = 201");
  EXPECT_NE(text.find("partitions: 1/4 scanned"), std::string::npos) << text;

  // No usable predicate: all partitions scanned.
  text = ExplainFor(engine_, "SELECT * FROM pt WHERE v = 3");
  EXPECT_NE(text.find("partitions: 4/4 scanned"), std::string::npos) << text;

  RunQuery(engine_,
           "CREATE TABLE hx (k BIGINT) PARTITION BY HASH(k) PARTITIONS 16");
  RunQuery(engine_, "INSERT INTO hx VALUES (7)");
  text = ExplainFor(engine_, "SELECT * FROM hx WHERE k = 7");
  EXPECT_NE(text.find("partitions: 1/16 scanned"), std::string::npos) << text;
}

// --- DML on partitioned tables --------------------------------------------

TEST_F(PartitionTest, InsertAppendsWithoutDisturbingOtherPartitions) {
  RunQuery(engine_, "INSERT INTO pt VALUES (50, 999, 'new'), "
                    "(250, 998, 'new'), (350, 997, 'new')");
  RunQuery(engine_, "INSERT INTO ft VALUES (50, 999, 'new'), "
                    "(250, 998, 'new'), (350, 997, 'new')");
  ExpectTwinsAgree("SELECT count(*) FROM $T");
  ExpectTwinsAgree("SELECT k, v FROM $T WHERE v >= 997 ORDER BY k");
  ExpectTwinsAgree("SELECT sum(v) FROM $T WHERE k < 100");
}

TEST_F(PartitionTest, DeleteTouchesOnlyAffectedPartitions) {
  for (const char* t : {"pt", "ft"}) {
    RunQuery(engine_,
             std::string("DELETE FROM ") + t + " WHERE k >= 120 AND k < 180");
  }
  ExpectTwinsAgree("SELECT count(*) FROM $T");
  ExpectTwinsAgree("SELECT k FROM $T WHERE k >= 100 AND k < 200 ORDER BY k");
  ExpectTwinsAgree("SELECT sum(v) FROM $T");
}

TEST_F(PartitionTest, UpdateNonPartitionColumnReencodesInPlace) {
  for (const char* t : {"pt", "ft"}) {
    RunQuery(engine_, std::string("UPDATE ") + t +
                          " SET v = v + 1000 WHERE k >= 200 AND k < 300");
  }
  ExpectTwinsAgree("SELECT sum(v) FROM $T");
  ExpectTwinsAgree("SELECT k, v FROM $T WHERE v >= 1000 ORDER BY k");
}

TEST_F(PartitionTest, UpdateOfPartitionColumnMovesRows) {
  // Assigning the partition column forces the full-rebuild fallback; rows
  // must land in (and be pruned from) their new partitions.
  for (const char* t : {"pt", "ft"}) {
    RunQuery(engine_,
             std::string("UPDATE ") + t + " SET k = k + 300 WHERE k < 50");
  }
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE k < 100");
  ExpectTwinsAgree("SELECT count(*) FROM $T WHERE k >= 300");
  ExpectTwinsAgree("SELECT k FROM $T WHERE k >= 300 AND k < 350 ORDER BY k");
  // The moved rows are findable through the pruned path.
  auto r = RunQuery(engine_, "SELECT count(*) FROM pt WHERE k = 310");
  EXPECT_EQ(r.GetInt(0, 0), 2);  // original row 310 plus moved row 10
}

TEST_F(PartitionTest, MultiGroupPartitionsViaInsertSelect) {
  // Double `ft` into ~51k rows and pour it into a two-partition table:
  // each partition spans multiple 16384-row groups, exercising the
  // group-aligned append and encode paths.
  RunQuery(engine_, "CREATE TABLE big (k BIGINT, v BIGINT, s VARCHAR) "
                    "PARTITION BY RANGE(k) (200)");
  for (int i = 0; i < 7; ++i) {
    RunQuery(engine_, "INSERT INTO big SELECT k, v, s FROM ft");
  }
  EXPECT_EQ(RunQuery(engine_, "SELECT count(*) FROM big").GetInt(0, 0),
            7 * 400);
  EXPECT_EQ(
      RunQuery(engine_, "SELECT count(*) FROM big WHERE k < 200")
          .GetInt(0, 0),
      7 * 200);
  auto r = RunQuery(
      engine_, "SELECT count(*), sum(v) FROM big WHERE k >= 350");
  EXPECT_EQ(r.GetInt(0, 0), 7 * 50);
  EXPECT_EQ(r.GetInt(0, 1),
            7 * RunQuery(engine_, "SELECT sum(v) FROM ft WHERE k >= 350")
                    .GetInt(0, 0));
}

// --- random access over sealed tables --------------------------------------

TablePtr CatalogTable(Engine& engine, const std::string& name) {
  auto t = engine.catalog().GetTable(name);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? *t : nullptr;
}

TEST_F(PartitionTest, RandomAccessReadersLeaveSealedTableEncoded) {
  // Analytics inputs, join builds, sorts and DML index rows directly. On
  // the sealed twin they must read a per-statement decoded copy: the
  // catalog table keeps only its encoded row groups.
  const TablePtr pt = CatalogTable(engine_, "pt");
  ASSERT_TRUE(pt->sealed());
  const size_t encoded_bytes = pt->MemoryUsage();
  ExpectTwinsAgree(
      "SELECT * FROM KMEANS((SELECT k, v FROM $T), "
      "(SELECT k, v FROM $T WHERE k < 3), 5) ORDER BY cluster");
  ExpectTwinsAgree(
      "SELECT * FROM PAGERANK((SELECT k, v FROM $T), 0.85, 0.0, 10) "
      "ORDER BY vertex");
  ExpectTwinsAgree(
      "SELECT * FROM CONNECTED_COMPONENTS((SELECT k, v FROM $T)) "
      "ORDER BY vertex");
  // Both join inputs are bare scans, so the build side is one too.
  ExpectTwinsAgree(
      "SELECT a.k, b.k, b.s FROM $T a JOIN $T b ON a.k = b.v "
      "ORDER BY a.k, b.k");
  ExpectTwinsAgree("SELECT * FROM $T ORDER BY v, k");
  // Readers outside SQL decode slices of the sealed table.
  const TablePtr ft = CatalogTable(engine_, "ft");
  EXPECT_EQ(pt->ToString(500), ft->ToString(500));
  EXPECT_EQ(pt->GetRow(321), ft->GetRow(321));
  const std::string pt_csv = ::testing::TempDir() + "soda_sealed_pt.csv";
  const std::string ft_csv = ::testing::TempDir() + "soda_sealed_ft.csv";
  ASSERT_OK(ExportCsv(*pt, pt_csv));
  ASSERT_OK(ExportCsv(*ft, ft_csv));
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(pt_csv), slurp(ft_csv));
  std::remove(pt_csv.c_str());
  std::remove(ft_csv.c_str());
  EXPECT_EQ(pt->MemoryUsage(), encoded_bytes);

  for (const char* t : {"pt", "ft"}) {
    RunQuery(engine_, std::string("DELETE FROM ") + t + " WHERE v = 5");
  }
  const TablePtr after_delete = CatalogTable(engine_, "pt");
  const size_t after_delete_bytes = after_delete->MemoryUsage();
  for (const char* t : {"pt", "ft"}) {
    RunQuery(engine_, std::string("UPDATE ") + t +
                          " SET s = 'upd' WHERE k >= 150 AND k < 160");
  }
  ExpectTwinsAgree("SELECT k, v, s FROM $T ORDER BY k");
  // The versions the DML statements read and replaced stayed encoded.
  EXPECT_EQ(pt->MemoryUsage(), encoded_bytes);
  EXPECT_EQ(after_delete->MemoryUsage(), after_delete_bytes);
}

TEST_F(PartitionTest, DecodeOverMemoryBudgetFailsBeforeDecoding) {
  // 160k rows: the two touched BIGINT columns decode to ~2.5 MB, over a
  // 1 MB statement budget.
  RunQuery(engine_,
           "CREATE TABLE wide AS SELECT a.k AS k, b.v AS v FROM ft a, ft b");
  const TablePtr wide = CatalogTable(engine_, "wide");
  ASSERT_TRUE(wide->sealed());
  const size_t encoded_bytes = wide->MemoryUsage();
  RunQuery(engine_, "SET soda.memory_limit_mb = 1");
  ExpectError(engine_,
              "SELECT * FROM KMEANS((SELECT k, v FROM wide), "
              "(SELECT k, v FROM wide LIMIT 2), 3)",
              StatusCode::kResourceExhausted);
  RunQuery(engine_, "SET soda.memory_limit_mb = 0");
  EXPECT_EQ(wide->MemoryUsage(), encoded_bytes);
}

TEST_F(PartitionTest, OneRowUpdateOfLargeSealedTableFitsSmallBudget) {
  // The same 160k rows, with a unique id. The UPDATE decodes one row group
  // at a time and re-encodes only the group holding the row, so it fits a
  // budget the whole decoded table (~3.8 MB) would overrun.
  RunQuery(engine_,
           "CREATE TABLE wide AS SELECT a.k * 400 + b.k AS id, a.k AS k, "
           "b.v AS v FROM ft a, ft b");
  ASSERT_TRUE(CatalogTable(engine_, "wide")->sealed());
  RunQuery(engine_, "SET soda.memory_limit_mb = 1");
  RunQuery(engine_, "UPDATE wide SET v = -1 WHERE id = 12345");
  RunQuery(engine_, "SET soda.memory_limit_mb = 0");
  auto r = RunQuery(engine_, "SELECT id, count(*) FROM wide WHERE v = -1 "
                             "GROUP BY id");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetInt(0, 0), 12345);
  EXPECT_EQ(r.GetInt(0, 1), 1);
}

// --- durability: encoded checkpoints ---------------------------------------

class PartitionDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    char tmpl[] = "/tmp/soda_partition_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  EngineOptions Opts() {
    EngineOptions o;
    o.data_dir = dir_;
    return o;
  }

  static std::vector<char> ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  std::string dir_;
};

TEST_F(PartitionDurabilityTest, EncodedCheckpointReplaysBitIdentically) {
  const std::string ckpt = dir_ + "/" + kCheckpointFileName;
  std::string expected_dump;
  {
    Engine e(Opts());
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.Execute("CREATE TABLE ev (ts BIGINT, city VARCHAR) "
                        "PARTITION BY RANGE(ts) (100, 200)")
                  .status());
    std::string insert = "INSERT INTO ev VALUES ";
    for (int i = 0; i < 300; ++i) {
      if (i) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'c" + std::to_string(i % 10) +
                "')";
    }
    ASSERT_OK(e.Execute(insert).status());
    ASSERT_OK(e.Execute("CHECKPOINT").status());
    // A post-checkpoint write lands only in the WAL tail.
    ASSERT_OK(
        e.Execute("INSERT INTO ev VALUES (250, 'tail')").status());
    auto r = RunQuery(e, "SELECT count(*) FROM ev WHERE ts >= 200");
    expected_dump = std::to_string(r.GetInt(0, 0));
  }  // "kill": engine dropped without a clean shutdown hook

  const std::vector<char> before = ReadFileBytes(ckpt);
  ASSERT_FALSE(before.empty());

  {
    Engine e2(Opts());
    ASSERT_OK(e2.startup_status());
    // Recovered state: checkpoint image + WAL tail replay.
    EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM ev").GetInt(0, 0), 301);
    auto r = RunQuery(e2, "SELECT count(*) FROM ev WHERE ts >= 200");
    EXPECT_EQ(std::to_string(r.GetInt(0, 0)), expected_dump);
    // The recovered table is still partitioned: pruning shows in EXPLAIN.
    auto ex = e2.Explain("SELECT * FROM ev WHERE ts = 42");
    ASSERT_OK(ex.status());
    EXPECT_NE(ex.ValueOrDie().find("partitions: 1/3 scanned"),
              std::string::npos)
        << ex.ValueOrDie();
    // Re-checkpointing the recovered engine must reproduce the encoded
    // image bit-for-bit: same partitions, same row groups, same codec
    // choices. (The WAL tail row makes the image differ from `before`
    // only via its legitimate new content — so checkpoint WITHOUT new
    // writes first, compare, then verify a third round trip stays stable.)
    ASSERT_OK(e2.Execute("CHECKPOINT").status());
  }
  const std::vector<char> after = ReadFileBytes(ckpt);

  {
    // Third generation: recover from the re-written checkpoint (no WAL
    // tail this time) and checkpoint again — the image must be stable.
    Engine e3(Opts());
    ASSERT_OK(e3.startup_status());
    EXPECT_EQ(RunQuery(e3, "SELECT count(*) FROM ev").GetInt(0, 0), 301);
    ASSERT_OK(e3.Execute("CHECKPOINT").status());
  }
  const std::vector<char> final_bytes = ReadFileBytes(ckpt);
  EXPECT_EQ(after.size(), final_bytes.size());
  EXPECT_TRUE(after == final_bytes)
      << "re-checkpointing a recovered encoded table changed its bytes";
}

TEST_F(PartitionDurabilityTest, SealedDmlSurvivesReopen) {
  {
    Engine e(Opts());
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.ExecuteScript(
                   "CREATE TABLE pt (k BIGINT, v BIGINT) "
                   "PARTITION BY HASH(k) PARTITIONS 4;"
                   "INSERT INTO pt VALUES (1, 10), (2, 20), (3, 30);"
                   "UPDATE pt SET v = 25 WHERE k = 2;"
                   "DELETE FROM pt WHERE k = 3")
                  .status());
  }
  Engine e2(Opts());
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM pt").GetInt(0, 0), 2);
  EXPECT_EQ(RunQuery(e2, "SELECT v FROM pt WHERE k = 2").GetInt(0, 0), 25);
  // Hash layout is pinned across recovery: the same key still prunes.
  auto ex = e2.Explain("SELECT * FROM pt WHERE k = 2");
  ASSERT_OK(ex.status());
  EXPECT_NE(ex.ValueOrDie().find("partitions: 1/4 scanned"),
            std::string::npos)
      << ex.ValueOrDie();
}

}  // namespace
}  // namespace soda
