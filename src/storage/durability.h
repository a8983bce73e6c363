/// \file durability.h
/// The engine's durability manager: owns a data directory containing one
/// checkpoint (storage/checkpoint.h) and one write-ahead log
/// (storage/wal.h), performs recovery-on-open, and exposes the per-
/// statement logging calls the DML executors use.
///
/// Recovery protocol (Open):
///   1. create `data_dir` if missing;
///   2. load the checkpoint (if any) into the catalog, remembering its
///      `last_lsn`;
///   3. scan the WAL, truncating any torn tail, and replay every record
///      with lsn > checkpoint lsn (records at or below it are already in
///      the snapshot — this makes a crash between checkpoint-rename and
///      WAL-truncation harmless) through the live engine's ApplyDelta;
///   4. leave the log open for appending, numbering new records after the
///      highest recovered LSN.

#ifndef SODA_STORAGE_DURABILITY_H_
#define SODA_STORAGE_DURABILITY_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "storage/catalog.h"
#include "storage/scrub.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/status.h"

namespace soda {

/// Thresholds for the background maintenance thread. Zero disables the
/// corresponding trigger. SQL: `SET soda.wal_auto_checkpoint_mb`,
/// `SET soda.wal_auto_checkpoint_records`, `SET soda.scrub_interval_ms`.
struct MaintenanceOptions {
  size_t wal_auto_checkpoint_bytes = 0;    ///< checkpoint when WAL exceeds
  size_t wal_auto_checkpoint_records = 0;  ///< ... or holds this many records
  std::chrono::milliseconds scrub_interval{0};  ///< periodic scrub cadence
  std::chrono::milliseconds poll_interval{25};  ///< threshold check cadence
};

/// Lock order (enforced by the thread-safety annotations and documented
/// here because it crosses three structures):
///
///   DurabilityManager::commit_mu_  →  Wal::mu_
///   DurabilityManager::commit_mu_  →  Catalog::mu_
///
/// `commit_mu_` is the outermost lock: it serializes a statement's whole
/// log→publish window (WAL append, then catalog mutation) against
/// CHECKPOINT (catalog snapshot, checkpoint write, WAL truncate). The
/// Wal and Catalog mutexes are leaf locks — they are never held while
/// acquiring any other lock. Without `commit_mu_` there is a lost-commit
/// race: a statement appends its WAL record, a concurrent checkpoint
/// snapshots the catalog *before* the statement publishes, records the
/// statement's LSN as covered, and truncates the log — the commit is then
/// in neither the checkpoint nor the WAL.
class DurabilityManager {
 public:
  /// Opens `data_dir` (created if missing), recovers `catalog` from the
  /// latest checkpoint + WAL tail, and readies the log for appending.
  /// `catalog` must be empty and must outlive the manager.
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const std::string& data_dir, Catalog* catalog, WalFsyncMode mode,
      size_t group_bytes);

  /// Runs one statement's commit unit under the commit lock, so the
  /// log→publish pair is atomic with respect to CHECKPOINT: `log` appends
  /// the redo record to wal() (log-before-publish), `publish` mutates the
  /// catalog. A `log` failure skips `publish` — the statement fails with
  /// neither the log nor memory touched.
  Status Commit(const std::function<Status()>& log,
                const std::function<Status()>& publish)
      SODA_EXCLUDES(commit_mu_);

  /// CHECKPOINT: snapshots every catalog table atomically, then rotates
  /// the log (old records are archived to wal.soda.1 — see Wal::Rotate).
  /// On failure the previous checkpoint + log remain valid. Refuses with
  /// kDataLoss while any table is table_level_quarantined: its stub holds
  /// no rows and the quarantine marker does not serialize, so rewriting
  /// would persist a valid-but-empty table and rotate away the WAL
  /// records kept for it (DROP or restore the table first).
  Status Checkpoint(const Catalog& catalog) SODA_EXCLUDES(commit_mu_);

  /// At-rest half of the scrub pass: re-reads the checkpoint file and
  /// verifies its framing CRCs (storage/checkpoint.h, VerifyCheckpoint).
  /// A damaged checkpoint is self-healed by rewriting it from the
  /// in-memory catalog — the authoritative copy while the engine is up.
  /// Sets the checkpoint_* fields of `report`.
  Status VerifyAndHealCheckpoint(const Catalog& catalog, ScrubReport* report)
      SODA_EXCLUDES(commit_mu_);

  // --- Background maintenance (auto-checkpoint + periodic scrub) ----------

  /// Starts the maintenance thread. `catalog` must outlive the manager;
  /// `scrub` (may be null) runs one full scrub pass — the engine wires in
  /// the in-memory CRC sweep + quarantine publishing. Idempotent: an
  /// already-running thread is stopped first.
  void StartMaintenance(const Catalog* catalog, MaintenanceOptions opts,
                        std::function<Status()> scrub)
      SODA_EXCLUDES(maint_mu_);

  /// Stops and joins the maintenance thread (no-op when not running).
  /// Called from the destructor; the engine also calls it explicitly
  /// before tearing down structures the scrub closure touches.
  void StopMaintenance() SODA_EXCLUDES(maint_mu_);

  /// Updates thresholds at runtime (SET soda.wal_auto_checkpoint_*).
  void ConfigureMaintenance(const MaintenanceOptions& opts)
      SODA_EXCLUDES(maint_mu_);

  MaintenanceOptions maintenance_options() const SODA_EXCLUDES(maint_mu_) {
    MutexLock lock(&maint_mu_);
    return maint_opts_;
  }

  // --- Health counters (soda_status() table function) ----------------------

  uint64_t checkpoint_count() const { return checkpoint_count_.load(); }
  uint64_t auto_checkpoint_count() const {
    return auto_checkpoint_count_.load();
  }
  uint64_t last_checkpoint_lsn() const { return last_checkpoint_lsn_.load(); }
  uint64_t scrub_pass_count() const { return scrub_pass_count_.load(); }
  /// Manual SCRUB statements count as passes too (the engine calls this).
  void NoteScrubPass() { scrub_pass_count_.fetch_add(1); }

  void SetFsyncMode(WalFsyncMode mode, size_t group_bytes) {
    wal_->SetFsyncMode(mode, group_bytes);
  }

  const std::string& data_dir() const { return data_dir_; }
  Wal* wal() { return wal_.get(); }

  ~DurabilityManager();

 private:
  DurabilityManager(std::string data_dir, std::unique_ptr<Wal> wal)
      : data_dir_(std::move(data_dir)), wal_(std::move(wal)) {}

  void MaintenanceLoop() SODA_EXCLUDES(maint_mu_, commit_mu_);

  std::string data_dir_;
  std::unique_ptr<Wal> wal_;
  /// Outermost lock of the durability layer; see the lock-order comment
  /// at the top of this file. Guards no data directly — it serializes the
  /// log→publish and snapshot→truncate critical sections.
  Mutex commit_mu_;

  std::atomic<uint64_t> checkpoint_count_{0};
  std::atomic<uint64_t> auto_checkpoint_count_{0};
  std::atomic<uint64_t> last_checkpoint_lsn_{0};
  std::atomic<uint64_t> scrub_pass_count_{0};

  // Maintenance thread state. maint_mu_ is a leaf lock (never held while
  // taking commit_mu_ — the loop copies the options out before acting).
  mutable Mutex maint_mu_;
  CondVar maint_cv_;
  MaintenanceOptions maint_opts_ SODA_GUARDED_BY(maint_mu_);
  bool maint_stop_ SODA_GUARDED_BY(maint_mu_) = false;
  const Catalog* maint_catalog_ = nullptr;   // set before the thread starts
  std::function<Status()> maint_scrub_;      // likewise
  std::thread maint_thread_;  // analyze:allow(raw-thread: maintenance thread)
};

/// Statement commit helper for engines that may be volatile: without a
/// DurabilityManager the publish step runs alone; with one, log+publish
/// run as a unit under the commit lock.
inline Status CommitDurable(DurabilityManager* dur,
                            const std::function<Status()>& log,
                            const std::function<Status()>& publish) {
  if (!dur) return publish();
  return dur->Commit(log, publish);
}

}  // namespace soda

#endif  // SODA_STORAGE_DURABILITY_H_
