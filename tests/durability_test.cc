/// Tests for the durability layer: WAL + checkpoint recovery, crash-point
/// fault injection (kill-and-recover at every durability site), torn-tail
/// repair, and the SQL surface (CHECKPOINT, SET soda.wal_fsync).
///
/// The invariant under test, everywhere: after a failure injected at any
/// durability site, reopening the data directory recovers EXACTLY the
/// committed prefix — the statements that succeeded, nothing more,
/// nothing less.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/checkpoint.h"
#include "storage/durability.h"
#include "storage/serde.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/query_guard.h"

namespace soda {
namespace {

namespace fs = std::filesystem;

using testing::CreateSequenceTable;
using testing::ExpectError;
using testing::RunQuery;

/// Unique scratch directory per test, removed on teardown. ctest runs
/// suites in parallel, so mkdtemp (not a fixed name) is required.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    char tmpl[] = "/tmp/soda_durability_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    base_ = dir;
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  /// A fresh subdirectory for tests that need several data dirs.
  std::string Dir(const std::string& name) { return base_ + "/" + name; }

  EngineOptions Opts(const std::string& dir,
                     WalFsyncMode mode = WalFsyncMode::kOn) {
    EngineOptions o;
    o.data_dir = dir;
    o.wal_fsync = mode;
    return o;
  }

  std::string base_;
};

/// Serializes every table (name, schema, all cell values in row order) so
/// two engines' states can be compared exactly.
std::string DumpCatalog(Engine& engine) {
  std::string out;
  for (const std::string& name : engine.catalog().TableNames()) {
    auto table = engine.catalog().GetTable(name);
    EXPECT_OK(table.status());
    const Table& t = **table;
    out += "table " + name + " (" + t.schema().ToString() + ")\n";
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const std::vector<Value> row = t.GetRow(r);
      for (size_t c = 0; c < row.size(); ++c) {
        out += row[c].ToString();
        out += c + 1 < row.size() ? '|' : '\n';
      }
    }
  }
  return out;
}

// --- basic round trips ----------------------------------------------------

TEST_F(DurabilityTest, WalRoundTripAcrossReopen) {
  std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER, b FLOAT, s TEXT);"
                              "INSERT INTO t VALUES (1, 1.5, 'x'), "
                              "  (2, 2.5, 'y'), (3, 3.5, 'z');"
                              "UPDATE t SET b = b * 2.0 WHERE a >= 2;"
                              "DELETE FROM t WHERE a = 1;"
                              "CREATE TABLE u AS SELECT a, b FROM t;"
                              "CREATE TABLE dead (x INTEGER);"
                              "DROP TABLE dead")
                  .status());
    expected = DumpCatalog(e);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), expected);
  // The recovered engine keeps working — and its writes survive too.
  ASSERT_OK(e2.Execute("INSERT INTO t VALUES (9, 9.0, 'q')").status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 3);
}

TEST_F(DurabilityTest, CheckpointTruncatesWalAndRecovers) {
  std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1), (2), (3)")
                  .status());
    ASSERT_OK(e.Execute("CHECKPOINT").status());
    EXPECT_TRUE(fs::exists(dir + "/" + kCheckpointFileName));
    EXPECT_EQ(fs::file_size(dir + "/" + kWalFileName), 0u);
    // Post-checkpoint statements land in the (truncated) WAL.
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (4)").status());
    EXPECT_GT(fs::file_size(dir + "/" + kWalFileName), 0u);
    expected = DumpCatalog(e);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), expected);
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 4);
}

TEST_F(DurabilityTest, RepeatedCheckpointAndReopenCycles) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.Execute("CREATE TABLE t (a INTEGER)").status());
  }
  for (int cycle = 0; cycle < 3; ++cycle) {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (" + std::to_string(cycle) +
                        ")")
                  .status());
    if (cycle % 2 == 0) ASSERT_OK(e.Execute("CHECKPOINT").status());
  }
  Engine e(Opts(dir));
  ASSERT_OK(e.startup_status());
  EXPECT_EQ(RunQuery(e, "SELECT count(*) FROM t").GetInt(0, 0), 3);
}

TEST_F(DurabilityTest, GroupCommitModeSurvivesCleanClose) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir, WalFsyncMode::kGroup));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1), (2)")
                  .status());
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 2);
}

TEST_F(DurabilityTest, DirectlyRegisteredTablePersistsViaCheckpoint) {
  // Bulk-loaded tables bypass the WAL (documented in engine.h); CHECKPOINT
  // is the way to persist them.
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    auto table = std::make_shared<Table>(
        "bulk", Schema({Field("x", DataType::kBigInt)}));
    ASSERT_OK(table->AppendRow({Value::BigInt(7)}));
    ASSERT_OK(e.catalog().RegisterTable(std::move(table)));
    ASSERT_OK(e.Execute("CHECKPOINT").status());
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT x FROM bulk").GetInt(0, 0), 7);
}

// --- crash-recovery matrix (satellite 3) ----------------------------------
//
// For every durability probe site, inject a failure mid-statement, then
// reopen the directory and require the recovered state to equal the
// committed prefix (which, because failed statements roll back in memory
// too, is exactly the live engine's state after the failure).

struct CrashCase {
  const char* label;
  const char* site;
  const char* op;  ///< the statement the fault makes fail
};

// Keeps pointer bytes out of the listed test names (see contenders_test.cc).
void PrintTo(const CrashCase& c, std::ostream* os) {
  *os << c.label << " at " << c.site;
}

class CrashRecoveryTest : public DurabilityTest,
                          public ::testing::WithParamInterface<CrashCase> {};

TEST_P(CrashRecoveryTest, RecoversCommittedPrefix) {
  const CrashCase& c = GetParam();
  std::string dir = Dir(c.label);
  std::string committed;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    // The committed prefix: three tables, a few rows, one checkpoint
    // midway so recovery exercises both the snapshot and the WAL tail.
    // `p` is sealed and partitioned with several row groups; its tail
    // holds group-replacing UPDATEs and a DELETE.
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER, s TEXT);"
                              "INSERT INTO t VALUES (1, 'one'), (2, 'two');"
                              "CREATE TABLE p (k BIGINT, v VARCHAR) "
                              "PARTITION BY HASH(k) PARTITIONS 4;"
                              "INSERT INTO p VALUES (1,'a'),(2,'b'),(3,'c'),"
                              "(4,'d'),(5,'e'),(6,'f'),(7,'g'),(8,'h');"
                              "CHECKPOINT;"
                              "CREATE TABLE u (x FLOAT);"
                              "INSERT INTO u VALUES (0.5);"
                              "UPDATE t SET s = 'TWO' WHERE a = 2;"
                              "INSERT INTO p VALUES (9,'i'),(10,'j'),"
                              "(11,'k'),(12,'l');"
                              "UPDATE p SET v = 'B' WHERE k = 2;"
                              "DELETE FROM p WHERE k = 3;"
                              "UPDATE p SET k = k + 100 WHERE k = 4")
                  .status());
    ASSERT_GE((*e.catalog().GetTable("p"))->num_row_groups(), 4u);

    FaultInjector::Global().Arm(c.site, FaultInjector::Kind::kError);
    auto result = e.Execute(c.op);
    FaultInjector::Global().Reset();
    ASSERT_FALSE(result.ok()) << c.label << ": expected " << c.op
                              << " to fail with a fault at " << c.site;
    EXPECT_EQ(result.status().code(), StatusCode::kInternal)
        << result.status().ToString();

    // The failed statement must be invisible in memory...
    committed = DumpCatalog(e);
    // ...and the engine must stay fully usable.
    EXPECT_EQ(RunQuery(e, "SELECT count(*) FROM t").GetInt(0, 0), 2);
  }
  // "Kill" the process (drop the engine) and recover the directory.
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), committed) << "site " << c.site;
  // Recovery leaves a writable engine behind.
  ASSERT_OK(e2.Execute("INSERT INTO t VALUES (3, 'three')").status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, CrashRecoveryTest,
    ::testing::Values(
        CrashCase{"append_insert", "wal.append",
                  "INSERT INTO t VALUES (9, 'nine')"},
        CrashCase{"append_update", "wal.append",
                  "UPDATE t SET s = 'boom'"},
        CrashCase{"append_delete", "wal.append", "DELETE FROM t"},
        CrashCase{"append_create", "wal.append",
                  "CREATE TABLE v (z INTEGER)"},
        CrashCase{"append_ctas", "wal.append",
                  "CREATE TABLE v AS SELECT a FROM t"},
        CrashCase{"append_drop", "wal.append", "DROP TABLE u"},
        CrashCase{"fsync_insert", "wal.fsync",
                  "INSERT INTO t VALUES (9, 'nine')"},
        CrashCase{"fsync_update", "wal.fsync",
                  "UPDATE t SET s = 'boom' WHERE a = 1"},
        CrashCase{"append_update_sealed", "wal.append",
                  "UPDATE p SET v = 'boom' WHERE k = 9"},
        CrashCase{"append_update_partition_key", "wal.append",
                  "UPDATE p SET k = k + 1000 WHERE k < 3"},
        CrashCase{"fsync_delete_sealed", "wal.fsync",
                  "DELETE FROM p WHERE k > 5"},
        CrashCase{"ckpt_write", "checkpoint.write", "CHECKPOINT"},
        CrashCase{"ckpt_rename", "checkpoint.rename", "CHECKPOINT"}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return info.param.label;
    });

TEST_F(DurabilityTest, FailedCheckpointLeavesNoTempFileAndOldSnapshotWins) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1);"
                              "CHECKPOINT;"
                              "INSERT INTO t VALUES (2)")
                  .status());
    FaultInjector::Global().Arm("checkpoint.write",
                                FaultInjector::Kind::kError);
    ASSERT_FALSE(e.Execute("CHECKPOINT").ok());
    FaultInjector::Global().Reset();
    EXPECT_FALSE(fs::exists(dir + "/" + kCheckpointTempFileName));
    // The old checkpoint + non-truncated WAL still cover everything.
    EXPECT_GT(fs::file_size(dir + "/" + kWalFileName), 0u);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 2);
}

// --- log corruption -------------------------------------------------------

TEST_F(DurabilityTest, TornTailIsDiscardedAndLogStaysAppendable) {
  std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1), (2)")
                  .status());
    expected = DumpCatalog(e);
  }
  {
    // Simulate a crash mid-append: garbage where the next record starts.
    std::ofstream wal(dir + "/" + kWalFileName,
                      std::ios::binary | std::ios::app);
    wal << "SDWL\x01garbage-torn-tail";
  }
  std::string after_repair;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    EXPECT_EQ(DumpCatalog(e), expected);
    // The torn tail was truncated away; new appends start at a clean
    // record boundary.
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (3)").status());
    after_repair = DumpCatalog(e);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), after_repair);
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 3);
}

TEST_F(DurabilityTest, CrcFailureDropsOnlyTheCorruptedTail) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1);"
                              "INSERT INTO t VALUES (2)")
                  .status());
  }
  // Flip a byte inside the last record's payload: its CRC no longer
  // matches, so recovery must stop right before it.
  {
    std::fstream wal(dir + "/" + kWalFileName,
                     std::ios::binary | std::ios::in | std::ios::out);
    wal.seekg(0, std::ios::end);
    auto size = static_cast<std::streamoff>(wal.tellg());
    ASSERT_GT(size, 4);
    wal.seekg(size - 3);
    char b = 0;
    wal.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    wal.seekp(size - 3);
    wal.write(&b, 1);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  // The second INSERT's record was corrupted — only the first survives.
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 1);
  EXPECT_EQ(RunQuery(e2, "SELECT a FROM t").GetInt(0, 0), 1);
}

TEST_F(DurabilityTest, UndecodableRecordFailsStartupAndLeavesLogUntouched) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1)")
                  .status());
  }
  // A whole frame with a matching CRC whose record type this build does
  // not read (3 was INSERT's record in an older format): no torn write,
  // so recovery must refuse it rather than truncate it and what follows.
  BinaryWriter payload;
  payload.U64(3);  // lsn
  payload.U8(3);   // record type
  BinaryWriter frame;
  frame.U32(0x4C574453);  // "SDWL"
  frame.U32(Crc32(payload.buffer().data(), payload.buffer().size()));
  frame.U32(static_cast<uint32_t>(payload.buffer().size()));
  frame.Bytes(payload.buffer().data(), payload.buffer().size());
  const std::string wal_path = dir + "/" + kWalFileName;
  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal << frame.buffer();
  }
  const auto size = fs::file_size(wal_path);
  {
    Engine e(Opts(dir));
    EXPECT_EQ(e.startup_status().code(), StatusCode::kDataLoss)
        << e.startup_status().ToString();
  }
  EXPECT_EQ(fs::file_size(wal_path), size);
}

TEST_F(DurabilityTest, ReplayRefusesAWriteLoggedAgainstAnotherVersion) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1)")
                  .status());
  }
  {
    // Log the INSERT's delta a second time: it was recorded against the
    // empty table, so replay meets a table with one row more than it says.
    std::vector<WalRecord> records;
    auto wal = Wal::Open(dir + "/" + kWalFileName, &records);
    ASSERT_OK(wal.status());
    ASSERT_EQ(records.size(), 2u);
    ASSERT_OK((*wal)->AppendTableWrite(records[1].delta));
  }
  Engine e(Opts(dir));
  EXPECT_EQ(e.startup_status().code(), StatusCode::kDataLoss)
      << e.startup_status().ToString();
}

TEST_F(DurabilityTest, CorruptCheckpointPoisonsStartup) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER); CHECKPOINT")
                  .status());
  }
  {
    std::ofstream ckpt(dir + "/" + kCheckpointFileName,
                       std::ios::binary | std::ios::trunc);
    ckpt << "not a checkpoint";
  }
  Engine e2(Opts(dir));
  EXPECT_FALSE(e2.startup_status().ok());
  // Every call reports the startup failure rather than running on an
  // empty catalog (silent data loss).
  auto r = e2.Execute("SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), e2.startup_status().code());
}

// --- SQL surface ----------------------------------------------------------

TEST_F(DurabilityTest, CheckpointRequiresDurableEngine) {
  Engine volatile_engine;
  EXPECT_EQ(volatile_engine.durability(), nullptr);
  ExpectError(volatile_engine, "CHECKPOINT", StatusCode::kInvalidArgument);
}

TEST_F(DurabilityTest, SetWalFsyncKnob) {
  {
    Engine e(Opts(Dir("d")));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.Execute("SET soda.wal_fsync = off").status());
    EXPECT_EQ(e.options().wal_fsync, WalFsyncMode::kOff);
    ASSERT_OK(e.Execute("SET soda.wal_fsync = group").status());
    EXPECT_EQ(e.options().wal_fsync, WalFsyncMode::kGroup);
    ASSERT_OK(e.Execute("SET soda.wal_fsync = on").status());
    EXPECT_EQ(e.options().wal_fsync, WalFsyncMode::kOn);
    ASSERT_OK(e.Execute("SET soda.wal_group_bytes = 4096").status());
    EXPECT_EQ(e.options().wal_group_bytes, 4096u);

    ExpectError(e, "SET soda.wal_fsync = sometimes",
                StatusCode::kInvalidArgument);
    ExpectError(e, "SET soda.wal_fsync = 3", StatusCode::kInvalidArgument);
    ExpectError(e, "SET soda.wal_group_bytes = 0",
                StatusCode::kInvalidArgument);
    ExpectError(e, "SET soda.timeout_ms = off",
                StatusCode::kInvalidArgument);

    // Statements still commit (and survive) under every mode.
    ASSERT_OK(e.ExecuteScript("SET soda.wal_fsync = off;"
                              "CREATE TABLE t (a INTEGER);"
                              "SET soda.wal_fsync = group;"
                              "INSERT INTO t VALUES (1);"
                              "SET soda.wal_fsync = on;"
                              "INSERT INTO t VALUES (2)")
                  .status());
  }
  Engine e2(Opts(Dir("d")));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 2);
}

TEST_F(DurabilityTest, VolatileEngineStillSupportsWalKnobs) {
  // SET soda.wal_fsync on a non-durable engine just updates the options
  // (they apply if a data_dir engine is built from them later).
  Engine e;
  ASSERT_OK(e.Execute("SET soda.wal_fsync = group").status());
  EXPECT_EQ(e.options().wal_fsync, WalFsyncMode::kGroup);
}

// --- bulk round trip (acceptance: bit-identical) --------------------------

TEST_F(DurabilityTest, MillionRowCheckpointRoundTripIsBitIdentical) {
  constexpr size_t kRows = 1000000;
  std::string dir = Dir("d");
  std::vector<int64_t> keys(kRows);
  std::vector<double> vals(kRows);
  std::vector<uint8_t> validity(kRows, 1);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = static_cast<int64_t>(i * 2654435761u) - 1000000007;
    vals[i] = static_cast<double>(i) / 3.0 + 0.1;  // non-terminating bits
    if (i % 1000 == 17) validity[i] = 0;
  }
  {
    Engine e(Opts(dir, WalFsyncMode::kOff));
    ASSERT_OK(e.startup_status());
    auto table = std::make_shared<Table>(
        "big", Schema({Field("k", DataType::kBigInt),
                       Field("v", DataType::kDouble)}));
    Column k = Column::FromBigInts(keys);
    Column v = Column::FromDoubles(vals);
    v.SetValidity(validity);
    ASSERT_OK(table->SetColumn(0, std::move(k)));
    ASSERT_OK(table->SetColumn(1, std::move(v)));
    ASSERT_OK(e.catalog().RegisterTable(std::move(table)));
    ASSERT_OK(e.Execute("CHECKPOINT").status());
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  auto table = e2.catalog().GetTable("big");
  ASSERT_OK(table.status());
  const Table& t = **table;
  ASSERT_EQ(t.num_rows(), kRows);
  EXPECT_EQ(std::memcmp(t.column(0).I64Data(), keys.data(),
                        kRows * sizeof(int64_t)),
            0);
  EXPECT_EQ(std::memcmp(t.column(1).F64Data(), vals.data(),
                        kRows * sizeof(double)),
            0);
  EXPECT_EQ(t.column(1).Validity(), validity);
  EXPECT_TRUE(t.column(0).Validity().empty());
}

// --- recovery internals ----------------------------------------------------

TEST_F(DurabilityTest, WalScanRecoversLsnSequence) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1);"
                              "INSERT INTO t VALUES (2)")
                  .status());
  }
  std::vector<WalRecord> records;
  auto wal = Wal::Open(dir + "/" + kWalFileName, &records);
  ASSERT_OK(wal.status());
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].type, WalRecordType::kTableWrite);
    EXPECT_EQ(records[i].delta.table, "t");
    EXPECT_EQ(records[i].lsn, i + 1);  // LSNs are dense, starting at 1
  }
  // The CREATE record carries the schema; each INSERT record only its
  // own row, against the version before it.
  EXPECT_TRUE(records[0].delta.create);
  EXPECT_EQ(records[2].delta.prev_rows, 1u);
  EXPECT_TRUE(records[2].delta.replaced.empty());
  ASSERT_EQ(records[2].delta.appended.size(), 1u);
  EXPECT_EQ(records[2].delta.appended[0].GetValue(0).AsBigInt(), 2);
  EXPECT_EQ((*wal)->last_lsn(), 3u);
}

// --- self-healing: rotation, auto-checkpoint, retry, scrub ---------------

/// XORs the byte `from_end` positions before EOF (1 = last byte).
void FlipByteNearEnd(const std::string& path, std::streamoff from_end) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GE(size, from_end);
  char b = 0;
  f.seekg(size - from_end);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(size - from_end);
  f.write(&b, 1);
}

/// Value of `name` in a (metric VARCHAR, value BIGINT) result, or -1.
int64_t Metric(const QueryResult& r, const std::string& name) {
  for (size_t row = 0; row < r.num_rows(); ++row) {
    if (r.GetString(row, 0) == name) return r.GetInt(row, 1);
  }
  return -1;
}

TEST_F(DurabilityTest, CheckpointRotatesWalIntoArchive) {
  std::string dir = Dir("d");
  Engine e(Opts(dir));
  ASSERT_OK(e.startup_status());
  ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                            "INSERT INTO t VALUES (1), (2)")
                .status());
  const std::string live = dir + "/" + kWalFileName;
  const std::string archive = live + kWalArchiveSuffix;
  const auto pre_size = fs::file_size(live);
  ASSERT_GT(pre_size, 0u);
  ASSERT_OK(e.Execute("CHECKPOINT").status());
  // Rotation archives the old log byte-for-byte and starts a fresh one.
  ASSERT_TRUE(fs::exists(archive));
  EXPECT_EQ(fs::file_size(archive), pre_size);
  EXPECT_EQ(fs::file_size(live), 0u);
  // LSNs keep climbing across the rotation — no reuse.
  const uint64_t lsn_at_ckpt = e.durability()->last_checkpoint_lsn();
  EXPECT_GT(lsn_at_ckpt, 0u);
  ASSERT_OK(e.Execute("INSERT INTO t VALUES (3)").status());
  EXPECT_GT(e.durability()->wal()->last_lsn(), lsn_at_ckpt);
  // The next rotation replaces the previous archive.
  ASSERT_OK(e.Execute("CHECKPOINT").status());
  EXPECT_TRUE(fs::exists(archive));
  EXPECT_EQ(fs::file_size(live), 0u);
}

TEST_F(DurabilityTest, AutoCheckpointBoundsWalUnderSustainedDml) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.Execute("CREATE TABLE t (a INTEGER)").status());
    ASSERT_OK(e.Execute("SET soda.wal_auto_checkpoint_records = 8").status());
    for (int i = 0; i < 64; ++i) {
      ASSERT_OK(
          e.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
              .status());
    }
    // The maintenance thread checkpoints on its own cadence; wait for it.
    for (int spin = 0;
         spin < 400 && e.durability()->auto_checkpoint_count() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(e.durability()->auto_checkpoint_count(), 0u);
    // 65 records went through the log (CREATE + 64 INSERTs); rotation
    // must have kept the live log strictly shorter than that.
    EXPECT_LT(e.durability()->wal()->record_count(), 65u);
    // The same counters are visible through the SQL surface.
    QueryResult status = RunQuery(e, "SELECT * FROM soda_status()");
    EXPECT_EQ(Metric(status, "durable"), 1);
    EXPECT_GT(Metric(status, "auto_checkpoint_count"), 0);
    EXPECT_GT(Metric(status, "last_checkpoint_lsn"), 0);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 64);
}

TEST_F(DurabilityTest, TransientFaultsAreRetriedToSuccess) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.Execute("CREATE TABLE t (a INTEGER)").status());
    // Two consecutive transient failures at each site: the bounded-retry
    // wrapper (util/retry.h) must absorb them and the commit still lands.
    FaultInjector::Global().Arm("wal.append", FaultInjector::Kind::kTransient,
                                0, 2);
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (1)").status());
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("wal.fsync", FaultInjector::Kind::kTransient,
                                0, 2);
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (2)").status());
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("checkpoint.write",
                                FaultInjector::Kind::kTransient, 0, 2);
    ASSERT_OK(e.Execute("CHECKPOINT").status());
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("wal.rotate", FaultInjector::Kind::kTransient,
                                0, 2);
    ASSERT_OK(e.Execute("CHECKPOINT").status());
    FaultInjector::Global().Reset();
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 2);
}

TEST_F(DurabilityTest, ExhaustedTransientRetriesFailCleanAndCommitNothing) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.Execute("CREATE TABLE t (a INTEGER)").status());
    // More transient failures than the retry budget: the statement fails
    // with kUnavailable (retryable by the caller), commits nothing, and
    // leaves the engine fully usable.
    FaultInjector::Global().Arm("wal.append", FaultInjector::Kind::kTransient,
                                0, 100);
    auto r = e.Execute("INSERT INTO t VALUES (1)");
    FaultInjector::Global().Reset();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
        << r.status().ToString();
    EXPECT_EQ(RunQuery(e, "SELECT count(*) FROM t").GetInt(0, 0), 0);
    ASSERT_OK(e.Execute("INSERT INTO t VALUES (2)").status());
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM t").GetInt(0, 0), 1);
  EXPECT_EQ(RunQuery(e2, "SELECT a FROM t").GetInt(0, 0), 2);
}

TEST_F(DurabilityTest, CorruptTableBlockQuarantinesOnlyThatTable) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE aaa (a INTEGER);"
                              "INSERT INTO aaa VALUES (1), (2);"
                              "CREATE TABLE zzz (z INTEGER);"
                              "INSERT INTO zzz VALUES (9);"
                              "CHECKPOINT")
                  .status());
  }
  // Flip a byte near EOF: inside the LAST table block's payload (the
  // payload is the final field of the final block). Startup must
  // quarantine that one table — not poison the engine (contrast
  // CorruptCheckpointPoisonsStartup, which destroys the file structure).
  FlipByteNearEnd(dir + "/" + kCheckpointFileName, 2);
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  // Exactly one of the two tables lost its payload (block order inside
  // the checkpoint is not guaranteed); the other stays fully readable.
  auto ra = e2.Execute("SELECT count(*) FROM aaa");
  auto rz = e2.Execute("SELECT count(*) FROM zzz");
  ASSERT_NE(ra.ok(), rz.ok());
  const Status& bad = ra.ok() ? rz.status() : ra.status();
  const std::string bad_name = ra.ok() ? "zzz" : "aaa";
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss) << bad.ToString();
  EXPECT_NE(bad.message().find(bad_name), std::string::npos)
      << "kDataLoss must name the quarantined table: " << bad.ToString();
  if (ra.ok()) {
    EXPECT_EQ(ra.ValueOrDie().GetInt(0, 0), 2);
  } else {
    EXPECT_EQ(rz.ValueOrDie().GetInt(0, 0), 1);
  }
  // DML into the quarantined table is refused with the same code.
  auto ins = e2.Execute("INSERT INTO " + bad_name + " VALUES (5)");
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kDataLoss)
      << ins.status().ToString();
  // soda_status() counts the quarantined table.
  QueryResult status = RunQuery(e2, "SELECT * FROM soda_status()");
  EXPECT_EQ(Metric(status, "quarantined_tables"), 1);
  // SCRUB reports the damage but must NOT "heal" the checkpoint while a
  // table-level quarantined stub is live (that would replace the damaged
  // block with a valid-but-empty table).
  QueryResult scrub = RunQuery(e2, "SCRUB");
  EXPECT_EQ(Metric(scrub, "checkpoint_ok"), 0);
  EXPECT_EQ(Metric(scrub, "checkpoint_rewritten"), 0);
  // DROP is the operator's way out; afterwards the damage is gone.
  ASSERT_OK(e2.Execute("DROP TABLE " + bad_name).status());
  QueryResult scrub2 = RunQuery(e2, "SCRUB");
  EXPECT_EQ(Metric(scrub2, "checkpoint_rewritten"), 1);
  QueryResult scrub3 = RunQuery(e2, "SCRUB");
  EXPECT_EQ(Metric(scrub3, "checkpoint_ok"), 1);
}

TEST_F(DurabilityTest, ScrubHealsCorruptedCheckpointWhileLive) {
  std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a INTEGER);"
                              "INSERT INTO t VALUES (1), (2);"
                              "CHECKPOINT")
                  .status());
    expected = DumpCatalog(e);
    // Rot the at-rest checkpoint behind the live engine's back.
    FlipByteNearEnd(dir + "/" + kCheckpointFileName, 2);
    QueryResult scrub = RunQuery(e, "SCRUB");
    EXPECT_EQ(Metric(scrub, "checkpoint_present"), 1);
    EXPECT_EQ(Metric(scrub, "checkpoint_ok"), 0);
    EXPECT_EQ(Metric(scrub, "checkpoint_rewritten"), 1);
    // A second pass finds the rewritten file healthy.
    QueryResult scrub2 = RunQuery(e, "SCRUB");
    EXPECT_EQ(Metric(scrub2, "checkpoint_ok"), 1);
    EXPECT_EQ(Metric(scrub2, "checkpoint_rewritten"), 0);
    // The passes were counted.
    QueryResult status = RunQuery(e, "SELECT * FROM soda_status()");
    EXPECT_GE(Metric(status, "scrub_pass_count"), 2);
  }
  // A fresh engine recovers everything from the healed file.
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), expected);
}

TEST_F(DurabilityTest, KillAndRecoverPartitionedSealedWithDecodeFaults) {
  std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript(
                   "CREATE TABLE pt (k BIGINT, v VARCHAR) "
                   "PARTITION BY HASH(k) PARTITIONS 4;"
                   "INSERT INTO pt VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),"
                   "(5,'e'),(6,'f'),(7,'g'),(8,'h');"
                   "CHECKPOINT;"
                   "INSERT INTO pt VALUES (9,'i'), (10,'j');"
                   "UPDATE pt SET v = 'C' WHERE k = 3;"
                   "DELETE FROM pt WHERE k = 4")
                  .status());
    expected = DumpCatalog(e);
  }  // dropped without a shutdown checkpoint: the WAL tail must replay
  // Replaying the tail appends and swaps in the logged row groups without
  // decoding the checkpointed ones, so even a permanent decode fault
  // cannot stop recovery.
  FaultInjector::Global().Arm("storage.segment_decode",
                              FaultInjector::Kind::kError);
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  FaultInjector::Global().Reset();
  EXPECT_EQ(DumpCatalog(e2), expected);
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM pt").GetInt(0, 0), 9);
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM pt WHERE k = 7").GetInt(0, 0),
            1);
  EXPECT_EQ(RunQuery(e2, "SELECT v FROM pt WHERE k = 3").GetString(0, 0), "C");
  // And the recovered engine keeps taking writes.
  ASSERT_OK(e2.Execute("INSERT INTO pt VALUES (11, 'k')").status());
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM pt").GetInt(0, 0), 10);
}

/// Row-group layout of table `name`: sealed flag, group count and
/// partition offsets.
std::string Layout(Engine& engine, const std::string& name) {
  auto table = engine.catalog().GetTable(name);
  EXPECT_OK(table.status());
  if (!table.ok()) return "";
  const Table& t = **table;
  std::string out = "sealed=" + std::to_string(t.sealed()) +
                    " groups=" + std::to_string(t.num_row_groups()) +
                    " partitions=";
  for (size_t off : t.partition_offsets()) out += std::to_string(off) + ",";
  return out;
}

/// Layout and contents of `t` and `c`.
std::string LayoutAndContents(Engine& engine) {
  return Layout(engine, "t") + "\n" + Layout(engine, "c") + "\n" +
         DumpCatalog(engine);
}

/// Three 2,000-row INSERTs into a fresh `t`, a one-row UPDATE, a DELETE,
/// an UPDATE of `k` (the partition column when `t` is partitioned) and a
/// CTAS `c`, then a reopen without a checkpoint: returns the live and the
/// recovered LayoutAndContents.
std::pair<std::string, std::string> LiveAndRecoveredLayout(
    const EngineOptions& opts, const std::string& partition_clause) {
  std::string live;
  {
    Engine e(opts);
    EXPECT_OK(e.Execute("CREATE TABLE t (k BIGINT, v BIGINT)" +
                        partition_clause)
                  .status());
    for (int batch = 0; batch < 3; ++batch) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = 0; i < 2000; ++i) {
        const int k = batch * 2000 + i;
        insert += (i ? ", (" : "(") + std::to_string(k) + ", " +
                  std::to_string(k % 7) + ")";
      }
      EXPECT_OK(e.Execute(insert).status());
    }
    EXPECT_OK(e.ExecuteScript("UPDATE t SET v = 100 WHERE k = 5;"
                              "DELETE FROM t WHERE k >= 5990;"
                              "UPDATE t SET k = k + 10000 WHERE k < 3;"
                              "CREATE TABLE c AS SELECT * FROM t "
                              "WHERE k < 5000")
                  .status());
    live = LayoutAndContents(e);
  }
  Engine recovered(opts);
  EXPECT_OK(recovered.startup_status());
  return {live, LayoutAndContents(recovered)};
}

TEST_F(DurabilityTest, RecoveredLayoutMatchesLiveUnpartitioned) {
  // 6,000 rows cross kSealMinRows on the third INSERT: one sealed group,
  // which each UPDATE and the DELETE replace in place; the CTAS seals its
  // 4,997 rows. Live and after WAL replay alike.
  auto [live, recovered] = LiveAndRecoveredLayout(Opts(Dir("d")), "");
  EXPECT_EQ(live.substr(0, live.find("\ntable")),
            "sealed=1 groups=1 partitions=0,5990,\n"
            "sealed=1 groups=1 partitions=0,4997,");
  EXPECT_EQ(recovered, live);
}

TEST_F(DurabilityTest, RecoveredLayoutMatchesLivePartitioned) {
  // Each INSERT appends one group to each of the four partitions (12);
  // the one-row UPDATE and the DELETE replace groups in place, and the
  // three rows whose partition key changes leave their groups for two new
  // groups at the end of their partitions. Replay builds the same groups.
  auto [live, recovered] = LiveAndRecoveredLayout(
      Opts(Dir("d")), " PARTITION BY HASH(k) PARTITIONS 4");
  EXPECT_NE(live.find("sealed=1 groups=14 "), std::string::npos) << live;
  EXPECT_EQ(recovered, live);
}

TEST_F(DurabilityTest, OneRowUpdateLogsOnlyItsGroup) {
  Engine e(Opts(Dir("d")));
  ASSERT_OK(e.startup_status());
  CreateSequenceTable(e, "big", 5 * static_cast<int64_t>(kSegmentRows));
  TablePtr before = *e.catalog().GetTable("big");
  ASSERT_GE(before->num_row_groups(), 4u);
  BinaryWriter group;
  WriteRowGroup(before->row_group(1), &group);
  const int64_t wal_before =
      Metric(RunQuery(e, "SELECT * FROM soda_status()"), "wal_bytes");
  const int64_t k = static_cast<int64_t>(kSegmentRows) + 5;  // in group 1
  ASSERT_OK(e.Execute("UPDATE big SET v = -1 WHERE k = " + std::to_string(k))
                .status());
  const int64_t wal_after =
      Metric(RunQuery(e, "SELECT * FROM soda_status()"), "wal_bytes");
  // The record carries the one replaced group, not the table.
  EXPECT_LT(wal_after - wal_before,
            2 * static_cast<int64_t>(group.buffer().size()));
  TablePtr after = *e.catalog().GetTable("big");
  ASSERT_EQ(after->num_row_groups(), before->num_row_groups());
  for (size_t g = 0; g < after->num_row_groups(); ++g) {
    EXPECT_EQ(after->group_segment(g, 1) == before->group_segment(g, 1),
              g != 1)
        << "group " << g;
  }
}

TEST_F(DurabilityTest, NoOpWritesCommitNothing) {
  const std::string dir = Dir("d");
  std::string expected;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    ASSERT_OK(e.ExecuteScript("CREATE TABLE kv (k BIGINT, v VARCHAR);"
                              "INSERT INTO kv VALUES (1, 'a'), (2, 'b')")
                  .status());
    const TablePtr before = *e.catalog().GetTable("kv");
    const int64_t records =
        Metric(RunQuery(e, "SELECT * FROM soda_status()"), "wal_records");
    for (const char* sql :
         {"UPDATE kv SET v = 'y' WHERE k = 100000",
          "DELETE FROM kv WHERE k = 100000",
          "INSERT INTO kv SELECT k, v FROM kv WHERE k > 100000"}) {
      SCOPED_TRACE(sql);
      ASSERT_OK(e.Execute(sql).status());
      EXPECT_EQ(Metric(RunQuery(e, "SELECT * FROM soda_status()"),
                       "wal_records"),
                records);
      EXPECT_EQ(*e.catalog().GetTable("kv"), before);
    }
    // CREATE TABLE with no rows still commits.
    ASSERT_OK(e.Execute("CREATE TABLE empty (x BIGINT)").status());
    EXPECT_EQ(
        Metric(RunQuery(e, "SELECT * FROM soda_status()"), "wal_records"),
        records + 1);
    expected = DumpCatalog(e);
  }
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(DumpCatalog(e2), expected);
}

TEST_F(DurabilityTest, CheckpointRefusedWhileTableQuarantined) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE aaa (a INTEGER);"
                              "INSERT INTO aaa VALUES (1), (2);"
                              "CREATE TABLE zzz (z INTEGER);"
                              "INSERT INTO zzz VALUES (9);"
                              "CHECKPOINT")
                  .status());
  }
  // Corrupt the last table block's payload so reopening quarantines one
  // table (whole-table stub — its rows are unrecoverable from this file).
  FlipByteNearEnd(dir + "/" + kCheckpointFileName, 2);
  std::string good_name, bad_name;
  int64_t good_rows = 0;
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.startup_status());
    const bool aaa_ok = e.Execute("SELECT count(*) FROM aaa").ok();
    good_name = aaa_ok ? "aaa" : "zzz";
    bad_name = aaa_ok ? "zzz" : "aaa";
    good_rows = (aaa_ok ? 2 : 1) + 1;
    // A commit lands in the WAL behind the damaged checkpoint...
    ASSERT_OK(
        e.Execute("INSERT INTO " + good_name + " VALUES (7)").status());
    // ...and CHECKPOINT must refuse while the stub is live: rewriting
    // would persist it as a valid empty table and rotate away the WAL
    // tail kept for it.
    auto ck = e.Execute("CHECKPOINT");
    ASSERT_FALSE(ck.ok());
    EXPECT_EQ(ck.status().code(), StatusCode::kDataLoss)
        << ck.status().ToString();
    EXPECT_NE(ck.status().message().find(bad_name), std::string::npos)
        << "refusal must name the quarantined table: "
        << ck.status().ToString();
  }
  // Nothing was rewritten: a fresh open still sees the quarantine AND the
  // post-damage commit.
  Engine e2(Opts(dir));
  ASSERT_OK(e2.startup_status());
  EXPECT_EQ(e2.Execute("SELECT count(*) FROM " + bad_name).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(RunQuery(e2, "SELECT count(*) FROM " + good_name).GetInt(0, 0),
            good_rows);
  // DROP clears the quarantine; checkpointing works again.
  ASSERT_OK(e2.Execute("DROP TABLE " + bad_name).status());
  ASSERT_OK(e2.Execute("CHECKPOINT").status());
}

TEST_F(DurabilityTest, UnsupportedCheckpointVersionIsRejected) {
  std::string dir = Dir("d");
  {
    Engine e(Opts(dir));
    ASSERT_OK(e.ExecuteScript("CREATE TABLE t (a BIGINT);"
                              "INSERT INTO t VALUES (1);"
                              "CHECKPOINT")
                  .status());
  }
  // Stamp version 2 (the retired unframed format) into the header field
  // that follows the magic.
  {
    std::fstream f(dir + "/" + kCheckpointFileName,
                   std::ios::binary | std::ios::in | std::ios::out);
    const uint32_t v2 = 2;
    f.seekp(sizeof(uint32_t));
    f.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
    ASSERT_TRUE(f.good());
  }
  Engine e(Opts(dir));
  ASSERT_FALSE(e.startup_status().ok());
  EXPECT_NE(e.startup_status().message().find("unsupported format version 2"),
            std::string::npos)
      << e.startup_status().ToString();
  Result<CheckpointScrubInfo> info = VerifyCheckpoint(dir);
  ASSERT_OK(info.status());
  EXPECT_TRUE(info->present);
  EXPECT_FALSE(info->structure_ok);
}

}  // namespace
}  // namespace soda
