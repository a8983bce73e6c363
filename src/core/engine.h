/// \file engine.h
/// soda's public entry point: a main-memory relational engine with
/// integrated data analytics.
///
/// Usage:
///
///   soda::Engine engine;
///   engine.Execute("CREATE TABLE data (x FLOAT, y FLOAT)");
///   engine.Execute("INSERT INTO data VALUES (1.0, 2.0), (3.0, 4.0)");
///   auto result = engine.Execute(
///       "SELECT * FROM KMEANS((SELECT x, y FROM data), "
///       "                     (SELECT x, y FROM data LIMIT 2), "
///       "                     λ(a, b) (a.x-b.x)^2 + (a.y-b.y)^2, 3)");
///
/// The engine executes the paper's full surface: plain SQL (layer 3),
/// recursive CTEs, the non-appending ITERATE construct (§5.1), and the
/// lambda-parameterized analytics operators (§6/§7) — all inside one query
/// plan, freely composable with relational operators.

#ifndef SODA_CORE_ENGINE_H_
#define SODA_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

#include "core/plan_cache.h"
#include "core/query_result.h"
#include "exec/ht_recycler.h"
#include "storage/catalog.h"
#include "storage/durability.h"
#include "storage/scrub.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

struct EngineOptions {
  /// Infinite-loop guard for ITERATE / recursive CTEs (paper §5.1).
  /// SQL: `SET soda.max_iterations = <n>`.
  size_t max_iterations = 100000;
  /// Run the optimizer (disable only for plan-shape tests).
  bool optimize = true;
  /// Wall-clock deadline applied to every statement, in milliseconds;
  /// 0 = unlimited. SQL: `SET soda.timeout_ms = <n>`.
  int64_t timeout_ms = 0;
  /// Cumulative-materialization budget per statement, in bytes;
  /// 0 = unlimited. SQL: `SET soda.memory_limit_mb = <n>`.
  int64_t memory_limit_bytes = 0;
  /// Durability: when non-empty, the engine recovers this directory on
  /// construction (latest checkpoint + WAL tail — see storage/durability.h)
  /// and write-ahead-logs every DDL/DML statement into it. Empty = the
  /// historical volatile engine. A failed recovery surfaces via
  /// `Engine::startup_status()` and poisons every Execute call.
  std::string data_dir;
  /// When WAL records are forced to stable storage.
  /// SQL: `SET soda.wal_fsync = on|off|group`.
  WalFsyncMode wal_fsync = WalFsyncMode::kOn;
  /// Group-commit batching threshold (wal_fsync = group): fsync once per
  /// this many logged bytes. SQL: `SET soda.wal_group_bytes = <n>`.
  size_t wal_group_bytes = size_t{1} << 20;
  /// Run the static plan verifier (exec/plan_verifier.h) before executing
  /// every lowered plan. O(plan size) per statement, so it stays on by
  /// default; debug builds verify even when this is off.
  /// SQL: `SET soda.verify_plans = on|off`.
  bool verify_plans = true;
  /// Auto-checkpoint when the WAL exceeds this many megabytes (0 = off).
  /// Runs on the background maintenance thread; the checkpoint rotates
  /// the log, so sustained DML keeps the WAL bounded.
  /// SQL: `SET soda.wal_auto_checkpoint_mb = <n>`.
  size_t wal_auto_checkpoint_mb = 0;
  /// ... or when the WAL holds this many records (0 = off).
  /// SQL: `SET soda.wal_auto_checkpoint_records = <n>`.
  size_t wal_auto_checkpoint_records = 0;
  /// Periodic background scrub cadence in milliseconds (0 = off; run
  /// SCRUB manually). SQL: `SET soda.scrub_interval_ms = <n>`.
  int64_t scrub_interval_ms = 0;
};

/// Thread-safe cancellation handle. Create one, pass it via
/// `ExecOptions::cancel`, and call `Cancel()` from any thread: the running
/// statement aborts with kCancelled at its next probe (morsel boundary,
/// iteration step, or storage append). Reusable across statements; once
/// tripped it stays tripped.
class CancelHandle {
 public:
  CancelHandle() : token_(std::make_shared<CancelToken>()) {}

  void Cancel() const { token_->Cancel(); }
  bool cancelled() const { return token_->cancelled(); }

  const std::shared_ptr<CancelToken>& token() const { return token_; }

 private:
  std::shared_ptr<CancelToken> token_;
};

/// Per-call execution options for Engine::Execute. Numeric fields default
/// to -1 = inherit the engine-level setting (EngineOptions / SET soda.*);
/// 0 means explicitly unlimited.
struct ExecOptions {
  int64_t timeout_ms = -1;
  int64_t memory_limit_bytes = -1;
  int64_t max_iterations = -1;
  /// Optional external cancellation; must outlive the Execute call.
  const CancelHandle* cancel = nullptr;
  /// Per-session options (the session's SET state). When set, the
  /// statement reads its defaults from here instead of the engine-global
  /// options, and a SET statement writes here — so one server session's
  /// knobs never leak into another's. The caller owns the object, must
  /// keep it alive through the call, and must not run two statements
  /// with the same session_options concurrently (the network server's
  /// one-statement-per-connection loop guarantees this).
  EngineOptions* session_options = nullptr;
  /// Per-session prepared statements (PREPARE/EXECUTE/DEALLOCATE). When
  /// set, the statement resolves names here; null uses the engine-global
  /// registry (single-process embedding). The network server gives each
  /// session its own registry so one connection's statements are
  /// invisible to another's, and harvests it with the session.
  PreparedRegistry* prepared = nullptr;
};

class Engine {
 public:
  Engine() : Engine(EngineOptions{}) {}
  /// With `options.data_dir` set, construction recovers the directory's
  /// checkpoint + WAL tail into the catalog; check `startup_status()`.
  explicit Engine(EngineOptions options);
  ~Engine();

  /// Executes one SQL statement (SELECT / CREATE TABLE / INSERT / DROP /
  /// UPDATE / DELETE / EXPLAIN / SET).
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes one statement under per-call resource limits. A tripped
  /// limit surfaces as a clean Status (kCancelled / kDeadlineExceeded /
  /// kResourceExhausted); the catalog stays usable afterwards.
  ///
  /// Thread safety: Execute may be called from many threads at once
  /// (the network server does). Reads (SELECT / EXPLAIN) pin a catalog
  /// snapshot and never block; writers (DDL / DML / CHECKPOINT)
  /// serialize on an internal statement lock, so concurrent UPDATEs
  /// cannot lose each other's copy-on-write swaps. Engine-global SET
  /// from concurrent callers is NOT synchronized — concurrent sessions
  /// must use ExecOptions::session_options.
  Result<QueryResult> Execute(const std::string& sql,
                              const ExecOptions& exec);

  /// Executes a prepared statement directly from typed parameter values —
  /// no SQL text, no lexing or parsing. This is the network server's
  /// kExecutePrepared entry point; `name` resolves in
  /// `exec.prepared` (or the engine-global registry when null).
  Result<QueryResult> ExecutePrepared(const std::string& name,
                                      const std::vector<Value>& params,
                                      const ExecOptions& exec);

  /// Executes a ';'-separated script, discarding intermediate results;
  /// returns the last statement's result. SET statements take effect for
  /// the remainder of the script (and the engine's lifetime).
  Result<QueryResult> ExecuteScript(const std::string& sql);

  /// The text of `EXPLAIN <sql>` for a SELECT, one line per plan row;
  /// InvalidArgument for any other statement.
  Result<std::string> Explain(const std::string& sql);

  /// Direct catalog access for bulk loading (see bench_support/workloads).
  /// Tables registered this way are NOT write-ahead-logged; run CHECKPOINT
  /// to persist them on a durable engine.
  Catalog& catalog() { return catalog_; }

  EngineOptions& options() { return options_; }

  /// Non-OK when construction-time recovery failed (unreadable data_dir,
  /// corrupt checkpoint). Every Execute call returns this status until the
  /// engine is rebuilt with a usable data_dir.
  const Status& startup_status() const { return startup_status_; }

  /// Null for volatile engines (no data_dir).
  DurabilityManager* durability() { return durability_.get(); }

  /// Runs one full scrub pass synchronously (the SQL `SCRUB` statement
  /// and the background maintenance thread both land here): re-verifies
  /// every sealed segment's CRC, quarantines corrupt row groups
  /// (copy-on-write under the statement lock), and — on a durable engine
  /// — verifies the at-rest checkpoint, rewriting it from memory when
  /// damaged. Safe to call concurrently with queries and DML.
  Status RunScrub(ScrubReport* report);

  /// Repeated-traffic caches (DESIGN.md §11): memoized optimized plans
  /// keyed by SQL text, and completed join build hash tables keyed by
  /// build-fragment fingerprint. Exposed for tests and benchmarks (cold
  /// runs call Clear()/EvictAll()).
  PlanCache& plan_cache() { return plan_cache_; }
  HtRecycler& ht_recycler() { return ht_recycler_; }
  /// The engine-global prepared-statement registry (used when
  /// ExecOptions::prepared is null).
  PreparedRegistry& prepared_statements() { return prepared_; }

 private:
  Catalog catalog_;
  EngineOptions options_;
  std::unique_ptr<DurabilityManager> durability_;
  Status startup_status_;
  /// Serializes write statements (DDL/DML/CHECKPOINT): each one is a
  /// read-modify-swap over catalog table versions, so two running at
  /// once would lose one of the swaps. Held across the whole statement.
  /// Lock order: write_mu_ → DurabilityManager::commit_mu_ → leaf
  /// mutexes (Wal::mu_, Catalog::mu_, PlanCache::mu_, HtRecycler::mu_,
  /// PreparedRegistry::mu_). The cache mutexes are leaves: no callback,
  /// catalog call, or I/O runs under them. See DESIGN.md §7/§11.
  Mutex write_mu_;
  PlanCache plan_cache_;
  HtRecycler ht_recycler_;
  PreparedRegistry prepared_;
};

}  // namespace soda

#endif  // SODA_CORE_ENGINE_H_
