#include "storage/durability.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "storage/checkpoint.h"
#include "util/logging.h"
#include "util/query_guard.h"

namespace soda {

namespace {

/// Applies one recovered WAL record to the catalog.
Status ApplyWalRecord(Catalog* catalog, const WalRecord& record) {
  const TableDelta& delta = record.delta;
  if (record.type == WalRecordType::kDropTable) {
    Status st = catalog->DropTable(delta.table);
    // A drop of a missing table can only mean the log predates external
    // damage; recovery stays lenient here, matching torn-tail handling.
    if (!st.ok() && st.code() != StatusCode::kKeyError) return st;
    return Status::OK();
  }
  if (delta.create) {
    SODA_ASSIGN_OR_RETURN(TablePtr table, ApplyDelta(nullptr, delta));
    return catalog->RegisterTable(std::move(table));
  }
  SODA_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(delta.table));
  if (table->quarantined()) {
    // Splicing the write into placeholder data would fabricate rows. The
    // record stays in the WAL until the table heals, reads of the table
    // already fail with kDataLoss, and the rest of the catalog comes up.
    SODA_LOG(Warn) << "wal replay: skipping write to quarantined table "
                   << delta.table;
    return Status::OK();
  }
  // The delta the live statement applied, applied the same way: replay
  // rebuilds exactly the live row groups and decodes none of them.
  SODA_ASSIGN_OR_RETURN(TablePtr next, ApplyDelta(table.get(), delta));
  return catalog->ReplaceTable(delta.table, std::move(next));
}

}  // namespace

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const std::string& data_dir, Catalog* catalog, WalFsyncMode mode,
    size_t group_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  if (ec) {
    return Status::ExecutionError("durability: cannot create data_dir " +
                                  data_dir + ": " + ec.message());
  }
  if (!std::filesystem::is_directory(data_dir, ec)) {
    return Status::ExecutionError("durability: data_dir is not a directory: " +
                                  data_dir);
  }

  uint64_t checkpoint_lsn = 0;
  std::vector<TablePtr> tables;
  SODA_ASSIGN_OR_RETURN(bool has_checkpoint,
                        LoadCheckpoint(data_dir, &tables, &checkpoint_lsn));
  if (has_checkpoint) {
    for (auto& table : tables) {
      SODA_RETURN_NOT_OK(catalog->RegisterTable(std::move(table)));
    }
  }

  std::vector<WalRecord> records;
  SODA_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                        Wal::Open(data_dir + "/" + kWalFileName, &records));
  uint64_t last_lsn = checkpoint_lsn;
  // analyze:allow(guard-probe: WAL replay during recovery; no query guard in scope)
  for (const WalRecord& record : records) {
    if (record.lsn <= checkpoint_lsn) continue;  // already in the snapshot
    SODA_RETURN_NOT_OK(ApplyWalRecord(catalog, record));
    last_lsn = record.lsn;
  }
  wal->set_last_lsn(std::max(wal->last_lsn(), last_lsn));
  wal->SetFsyncMode(mode, group_bytes);
  return std::unique_ptr<DurabilityManager>(
      new DurabilityManager(data_dir, std::move(wal)));
}

Status DurabilityManager::Commit(const std::function<Status()>& log,
                                 const std::function<Status()>& publish) {
  // commit_mu_ → Wal::mu_ (inside log) → released; then commit_mu_ →
  // Catalog::mu_ (inside publish). See the lock-order comment in the
  // header.
  MutexLock lock(&commit_mu_);
  SODA_RETURN_NOT_OK(log());
  return publish();
}

Status DurabilityManager::Checkpoint(const Catalog& catalog) {
  // Holding commit_mu_ makes snapshot + last_lsn + truncate atomic with
  // respect to statement commits: every LSN at or below the recorded one
  // has its effect in the snapshot, and no commit can slip between the
  // snapshot and the truncate.
  MutexLock lock(&commit_mu_);
  std::vector<TablePtr> tables;
  for (const std::string& name : catalog.TableNames()) {
    SODA_ASSIGN_OR_RETURN(TablePtr table, catalog.GetTable(name));
    // A table-level quarantined stub holds no rows, and WriteTable has no
    // way to persist whole-table quarantine (only the sealed per-group
    // bitmap). Snapshotting it would replace the damaged-but-recoverable
    // block with a valid empty table, rotate away the WAL records that
    // ApplyWalRecord deliberately keeps for the table, and make the next
    // restart load it as healthy-and-empty. Refuse — manual CHECKPOINT
    // and the auto-checkpoint both stop here until the operator DROPs or
    // restores the table. (Group-level quarantine is fine: it survives
    // serialization.)
    if (table->table_level_quarantined()) {
      return Status::DataLoss(
          "checkpoint: table '" + name +
          "' is quarantined at table level (corrupt checkpoint block); "
          "DROP or restore it before checkpointing — rewriting now would "
          "persist it as a valid empty table and discard the WAL tail");
    }
    tables.push_back(std::move(table));
  }
  // Everything up to the current LSN is reflected in the snapshot.
  const uint64_t lsn = wal_->last_lsn();
  SODA_RETURN_NOT_OK(WriteCheckpoint(tables, lsn, data_dir_));
  SODA_RETURN_NOT_OK(wal_->Rotate());
  last_checkpoint_lsn_.store(lsn);
  checkpoint_count_.fetch_add(1);
  return Status::OK();
}

Status DurabilityManager::VerifyAndHealCheckpoint(const Catalog& catalog,
                                                  ScrubReport* report) {
  SODA_ASSIGN_OR_RETURN(CheckpointScrubInfo info, VerifyCheckpoint(data_dir_));
  report->checkpoint_present = info.present;
  if (!info.present) return Status::OK();
  const bool corrupt =
      !info.structure_ok || !info.body_crc_ok || !info.corrupt_tables.empty();
  if (!corrupt) return Status::OK();
  report->checkpoint_ok = false;
  // A table-level quarantined stub holds no rows: rewriting the
  // checkpoint from it would replace the (recoverable-from-backup)
  // damaged block with a valid-but-empty table and silently drop the
  // quarantine marker across restart. Leave the file alone until the
  // operator DROPs or restores the table. Group-level quarantine is
  // fine to rewrite — serde v3 persists the per-group bitmap.
  for (const std::string& name : catalog.TableNames()) {
    Result<TablePtr> t = catalog.GetTable(name);
    if (t.ok() && t.ValueOrDie()->table_level_quarantined()) {
      SODA_LOG(Warn) << "scrub: checkpoint in " << data_dir_
                     << " is damaged but table '" << name
                     << "' is quarantined; skipping rewrite (DROP or "
                        "restore the table first)";
      return Status::OK();
    }
  }
  SODA_LOG(Warn) << "scrub: checkpoint in " << data_dir_
                 << " failed verification (" << info.corrupt_tables.size()
                 << " corrupt table blocks); rewriting from memory";
  // Memory is authoritative while the engine is up: a full checkpoint
  // replaces the damaged file atomically (temp + rename).
  SODA_RETURN_NOT_OK(Checkpoint(catalog));
  report->checkpoint_rewritten = true;
  return Status::OK();
}

DurabilityManager::~DurabilityManager() { StopMaintenance(); }

void DurabilityManager::StartMaintenance(const Catalog* catalog,
                                         MaintenanceOptions opts,
                                         std::function<Status()> scrub) {
  StopMaintenance();
  {
    MutexLock lock(&maint_mu_);
    maint_opts_ = opts;
    maint_stop_ = false;
  }
  maint_catalog_ = catalog;
  maint_scrub_ = std::move(scrub);
  // analyze:allow(raw-thread: maintenance, joined by StopMaintenance)
  maint_thread_ = std::thread([this] { MaintenanceLoop(); });
}

void DurabilityManager::StopMaintenance() {
  {
    MutexLock lock(&maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.NotifyAll();
  if (maint_thread_.joinable()) maint_thread_.join();
}

void DurabilityManager::ConfigureMaintenance(const MaintenanceOptions& opts) {
  {
    MutexLock lock(&maint_mu_);
    maint_opts_ = opts;
  }
  maint_cv_.NotifyAll();  // re-evaluate thresholds promptly
}

void DurabilityManager::MaintenanceLoop() {
  std::chrono::milliseconds since_scrub{0};
  std::string last_checkpoint_error;
  auto last_wake = std::chrono::steady_clock::now();
  for (;;) {
    MaintenanceOptions opts;
    {
      MutexLock lock(&maint_mu_);
      if (maint_stop_) return;
      maint_cv_.WaitFor(&maint_mu_, maint_opts_.poll_interval);
      if (maint_stop_) return;
      opts = maint_opts_;
    }
    // Act with no maintenance lock held: Checkpoint takes commit_mu_ and
    // the scrub closure takes the engine write lock — both are above
    // maint_mu_ in no ordering at all (maint_mu_ is a leaf).
    const bool checkpoint_due =
        (opts.wal_auto_checkpoint_bytes > 0 &&
         wal_->size_bytes() >= opts.wal_auto_checkpoint_bytes) ||
        (opts.wal_auto_checkpoint_records > 0 &&
         wal_->record_count() >= opts.wal_auto_checkpoint_records);
    if (checkpoint_due && maint_catalog_ != nullptr) {
      Status st = FaultInjector::Global().Probe("durability.auto_checkpoint");
      if (st.ok()) st = Checkpoint(*maint_catalog_);
      if (st.ok()) {
        auto_checkpoint_count_.fetch_add(1);
        last_checkpoint_error.clear();
      } else {
        // Next poll retries; the WAL keeps growing but stays correct. A
        // persistent failure (e.g. a quarantined table) would otherwise
        // repeat every poll — log only when the message changes.
        if (st.message() != last_checkpoint_error) {
          last_checkpoint_error = st.message();
          SODA_LOG(Warn) << "auto-checkpoint failed: " << st.message();
        }
      }
    }
    // Scrub cadence tracks wall time actually elapsed: WaitFor can return
    // well before poll_interval (ConfigureMaintenance notifies the CV on
    // every SET), so counting a full interval per wakeup would fire
    // scrubs early under frequent reconfiguration.
    const auto now = std::chrono::steady_clock::now();
    since_scrub += std::chrono::duration_cast<std::chrono::milliseconds>(
        now - last_wake);
    last_wake = now;
    if (opts.scrub_interval.count() > 0 && maint_scrub_ != nullptr &&
        since_scrub >= opts.scrub_interval) {
      since_scrub = std::chrono::milliseconds{0};
      Status st = maint_scrub_();
      if (st.ok()) {
        scrub_pass_count_.fetch_add(1);
      } else {
        SODA_LOG(Warn) << "background scrub failed: " << st.message();
      }
    }
  }
}

}  // namespace soda
