/// \file wal.h
/// Per-database write-ahead log: logical redo records for every catalog
/// mutation, CRC32-framed, fsync-on-commit.
///
/// The engine follows HyPer's "logical redo logging + snapshots" recovery
/// recipe (PAPERS.md): each DML/DDL statement appends exactly one record
/// describing its *effect* (not its SQL text, so nondeterministic inserts
/// replay byte-identically), the record is made durable according to the
/// fsync policy, and only then is the in-memory catalog mutated. Recovery
/// loads the latest checkpoint (storage/checkpoint.h) and replays the log
/// tail, stopping at the first torn or CRC-failing record.
///
/// On-disk framing, one record:
///   u32 magic ("SDWL") | u32 crc32(payload) | u32 payload_len | payload
///   payload = u64 lsn | u8 type | type-specific body (storage/serde.h)
///
/// Failure atomicity: if the record cannot be fully written *and* synced
/// (I/O error, fault injection at "wal.append"/"wal.fsync", tripped
/// guard), the file is truncated back to its pre-append size — the
/// statement then fails without having committed, and the engine's
/// stage-and-swap DML leaves memory untouched too.

#ifndef SODA_STORAGE_WAL_H_
#define SODA_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"
#include "types/schema.h"
#include "util/mutex.h"
#include "util/status.h"

namespace soda {

/// Rotate() renames the live log to `<path><suffix>` (replacing any
/// previous archive) before starting a fresh one.
inline constexpr char kWalArchiveSuffix[] = ".1";

/// When a committed WAL record is forced to stable storage.
/// SQL: `SET soda.wal_fsync = on|off|group`.
enum class WalFsyncMode {
  kOff,    ///< never fsync (durability up to the OS page cache)
  kOn,     ///< fsync every record — each statement is durable on success
  kGroup,  ///< group commit: fsync once per `group_bytes` of log
};

Result<WalFsyncMode> WalFsyncModeFromString(const std::string& name);
const char* WalFsyncModeToString(WalFsyncMode mode);

/// Record types. Numbers are never reused: a log holding a type this build
/// does not know fails startup instead of being read as a torn tail.
enum class WalRecordType : uint8_t {
  kDropTable = 2,   ///< body: name
  kTableWrite = 5,  ///< body: one TableDelta (storage/table.h)
};

/// One decoded log record (recovery path).
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kTableWrite;
  TableDelta delta;  ///< a kDropTable record sets only `delta.table`
};

/// Thread-safe: one internal mutex `mu_` guards the file descriptor, file
/// size, LSN counter, and group-commit accounting, so concurrent appends
/// (or an append racing a Sync) serialize cleanly. Cross-structure
/// atomicity — "no checkpoint truncates a record whose catalog effect is
/// not yet published" — is a stronger property that the WAL cannot
/// provide alone; DurabilityManager's commit lock handles it (see
/// storage/durability.h for the lock order).
class Wal {
 public:
  /// Opens (creating if absent) the log at `path` and scans existing
  /// records into `recovered`. A torn or CRC-failing tail is discarded —
  /// the file is truncated to the last valid record so new appends start
  /// on a clean boundary. A whole, CRC-valid record that does not decode
  /// fails with kDataLoss and leaves the file untouched.
  static Result<std::unique_ptr<Wal>> Open(std::string path,
                                           std::vector<WalRecord>* recovered);

  /// Best-effort final sync + close.
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  void SetFsyncMode(WalFsyncMode mode, size_t group_bytes)
      SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    mode_ = mode;
    group_bytes_ = group_bytes;
  }
  WalFsyncMode fsync_mode() const SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return mode_;
  }

  /// LSN of the last record committed or recovered (0 = none).
  uint64_t last_lsn() const SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_lsn_;
  }
  void set_last_lsn(uint64_t lsn) SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    last_lsn_ = lsn;
  }

  size_t size_bytes() const SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return file_size_;
  }

  /// Records committed to the live log segment (resets on Truncate and
  /// Rotate; recovered records count on Open). Auto-checkpoint triggers on
  /// this or on size_bytes().
  size_t record_count() const SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return record_count_;
  }

  // --- One call per statement; each is a self-contained commit. ----------
  Status AppendDropTable(const std::string& table) SODA_EXCLUDES(mu_);
  Status AppendTableWrite(const TableDelta& delta) SODA_EXCLUDES(mu_);

  /// Forces pending group-commit bytes to disk.
  Status Sync() SODA_EXCLUDES(mu_);

  /// Discards every record (after a successful checkpoint).
  Status Truncate() SODA_EXCLUDES(mu_);

  /// Archives the live log to `<path>.1` (replacing any previous archive)
  /// and starts a fresh one, preserving the LSN sequence — the
  /// checkpoint+rotation flavor of Truncate(), keeping one generation of
  /// log history for post-mortems. Pending group-commit bytes are synced
  /// first so the archive is self-consistent. Fault site: "wal.rotate"
  /// (before any file is touched). On failure the live log is left in
  /// place and usable — except in one unrecoverable corner: if opening
  /// the fresh log fails AND the un-rotate rename fails, the live path is
  /// gone and fd_ points at the archive, which recovery never reads. The
  /// log then poisons itself: every later append/sync fails with
  /// kDataLoss instead of acknowledging commits that would vanish on
  /// restart.
  Status Rotate() SODA_EXCLUDES(mu_);

 private:
  Wal(std::string path, int fd, uint64_t file_size, uint64_t last_lsn,
      size_t record_count);

  /// Frames, writes, and syncs one record; rolls the file back to its
  /// prior size on any failure.
  Status Commit(WalRecordType type, const std::string& body)
      SODA_REQUIRES(mu_);

  const std::string path_;
  mutable Mutex mu_;
  int fd_ SODA_GUARDED_BY(mu_);
  uint64_t file_size_ SODA_GUARDED_BY(mu_);
  uint64_t last_lsn_ SODA_GUARDED_BY(mu_);
  WalFsyncMode mode_ SODA_GUARDED_BY(mu_) = WalFsyncMode::kOn;
  size_t group_bytes_ SODA_GUARDED_BY(mu_) = size_t{1} << 20;
  size_t unsynced_bytes_ SODA_GUARDED_BY(mu_) = 0;
  size_t record_count_ SODA_GUARDED_BY(mu_) = 0;
  /// Non-OK once the log reaches a state recovery cannot read (the live
  /// path was lost during rotation); every later mutation returns it.
  Status poisoned_ SODA_GUARDED_BY(mu_);
};

}  // namespace soda

#endif  // SODA_STORAGE_WAL_H_
