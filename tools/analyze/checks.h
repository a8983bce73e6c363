/// \file checks.h
/// The soda-analyze check catalog (see DESIGN.md §12).
///
/// Check ids and what they enforce:
///
///   lock-order        Cross-TU lock acquisition graph. Every edge
///                     "B acquired while A held" (directly, or through a
///                     resolved call chain) must descend the documented
///                     order: Engine::write_mu_ (rank 0) ->
///                     DurabilityManager::commit_mu_ (rank 1) -> leaf
///                     mutexes (rank 2) -> terminal sub-leaves
///                     (Catalog::mu_ rank 3, FaultInjector::mu_ rank 4)
///                     that leaf-lock holders may enter. Any
///                     non-ascending edge, any cycle, and any
///                     immediately-destroyed `MutexLock(&mu);`
///                     temporary is a finding.
///   status-discard    `(void)` casts of calls returning Status/Result.
///   status-collapse   `F(...).ok()` on a Status/Result-returning call:
///                     collapses to bool and drops the message/value.
///   status-provenance Status codes constructed outside their owning
///                     layer (kDataLoss outside src/storage/).
///   guard-probe       Row/morsel loops in src/exec/ + src/storage/
///                     must be covered by a QueryGuard probe (in the
///                     enclosing function, or one call level away —
///                     charging helpers like ChargeAppend count).
///   fault-site        Registry <-> code <-> tests set equality for
///                     probe-site literals (src/util/fault_sites.h).
///   serde-bounds      Raw offset/subscript payload access in
///                     src/server/protocol.* and src/storage/serde*
///                     outside the BinaryReader/BinaryWriter codec.
///   fsync-discard     fsync/fdatasync/ftruncate result discarded in
///                     statement position (token-exact replacement for
///                     the old lint.sh grep rule).
///   raw-sync          std::mutex / recursive_mutex / shared_mutex /
///                     condition_variable / lock_guard / unique_lock /
///                     scoped_lock outside src/util/mutex.h: soda::Mutex
///                     carries the thread-safety capability annotations,
///                     the std types silently opt out of the analysis.
///   raw-thread        std::thread outside src/util/thread_pool.* (tests
///                     exempt): query work runs on the pool, where the
///                     governor can cancel and bound it. Control-plane
///                     threads carry an allow annotation at the site.
///   raw-annotation    raw __attribute__((guarded_by / capability / ...))
///                     outside src/util/thread_annotations.h: the SODA_*
///                     macros keep the GCC no-op fallback working.
///   raw-column-buffer `.I64Data()` / `.F64Data()` / `.Strings()` /
///                     `.Validity()` (and the Mutable* forms) outside
///                     src/storage/ and the listed bulk-loop files (tests
///                     exempt): readers go through ScanSlice / DataChunk.
///
/// Suppression: `// analyze:allow(<key>: <reason>)` on the finding's
/// line or the line above, with keys lock-order / status / guard-probe /
/// fault-site / serde-bounds / fsync / raw-sync / raw-thread /
/// raw-annotation / raw-column-buffer. The reason is mandatory.

#ifndef SODA_TOOLS_ANALYZE_CHECKS_H_
#define SODA_TOOLS_ANALYZE_CHECKS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "source_model.h"

namespace soda::analyze {

/// Project-specific knobs, defaulted for the soda repo. Tests point the
/// prefixes/registry at fixture trees instead.
struct AnalyzerConfig {
  /// Engine code: checks that police production code run on files with
  /// these path prefixes...
  std::vector<std::string> engine_prefixes = {"src/", "tools/"};
  /// ...minus these (tests race deliberately; bench is frozen baseline).
  std::vector<std::string> skip_prefixes = {"tests/", "bench/", "examples/",
                                            "tools/analyze/"};

  /// lock-order: normalized lock-variable spellings that map to one
  /// canonical lock regardless of how the reference reaches it (the
  /// engine passes `write_mu_` around as a `Mutex* write_mu` parameter).
  std::map<std::string, std::string> lock_aliases = {
      {"write_mu", "Engine::write_mu_"},
      {"write_mu_", "Engine::write_mu_"},
      {"commit_mu_", "DurabilityManager::commit_mu_"},
  };
  /// Canonical lock -> rank; an acquisition edge must strictly increase
  /// rank. Unlisted locks get default_lock_rank (leaf).
  std::map<std::string, int> lock_ranks = {
      {"Engine::write_mu_", 0},
      {"DurabilityManager::commit_mu_", 1},
      // Bottom locks that other leaf-lock holders may legally enter:
      // the catalog is validated under PlanCache::mu_, and guard probes
      // (FaultInjector::mu_) fire under Wal::mu_ and friends.
      {"Catalog::mu_", 3},
      {"FaultInjector::mu_", 4},
  };
  int default_lock_rank = 2;

  /// guard-probe: directories whose row/morsel loops must be probed.
  std::vector<std::string> probe_loop_prefixes = {"src/exec/",
                                                  "src/storage/"};
  /// Loop-header identifiers that mark a row/morsel loop.
  std::set<std::string> row_loop_idents = {
      "row",  "rows",  "num_rows", "morsel", "morsels",
      "cells", "record", "tuples",  "kChunkCapacity",
  };

  /// fault-site: the registry header (matched by path suffix) and where
  /// test coverage must reference each site.
  std::string registry_suffix = "src/util/fault_sites.h";
  std::string tests_prefix = "tests/";

  /// serde-bounds: files (prefix match) where payload access must go
  /// through the bounds-checked codec, and the codec classes themselves.
  std::vector<std::string> serde_prefixes = {"src/server/protocol",
                                             "src/storage/serde"};
  std::set<std::string> serde_codec_classes = {"BinaryReader",
                                               "BinaryWriter"};
  /// Identifiers treated as raw payload buffers when subscripted.
  std::set<std::string> payload_idents = {"body", "payload", "data_", "buf",
                                          "wire"};

  /// raw-sync: files (prefix match) where the std synchronization types
  /// are banned, and the one wrapper header that owns them.
  std::vector<std::string> raw_sync_prefixes = {"src/", "tests/", "bench/",
                                                "examples/", "tools/"};
  std::string raw_sync_owner = "src/util/mutex.h";

  /// raw-thread: files (prefix match) where std::thread is banned — tests
  /// are exempt, they race the engine from outside threads on purpose —
  /// and the prefix of the pool that owns query threads.
  std::vector<std::string> raw_thread_prefixes = {"src/", "bench/",
                                                  "examples/", "tools/"};
  std::string raw_thread_owner = "src/util/thread_pool";

  /// raw-annotation: the one header that spells the raw attributes (the
  /// check covers the raw_sync_prefixes files).
  std::string raw_annotation_owner = "src/util/thread_annotations.h";

  /// raw-column-buffer: the paths (prefix match) that may use the raw
  /// column payload accessors: storage, which owns the buffers, and the
  /// bulk loops the accessors exist for. The check covers the
  /// raw_thread_prefixes files — tests are exempt, they assert on the
  /// physical layout.
  std::vector<std::string> raw_column_buffer_owners = {
      "src/storage/",
      // Columnar hashing, gather, bulk append and vectorized expression
      // evaluation over chunk columns, which are flat by construction.
      "src/exec/hash_kernels.cc",
      "src/exec/operators.cc",
      // The hash-aggregate consume loop reads the chunk's key and argument
      // arrays once per chunk, not through Column per cell.
      "src/exec/aggregate.cc",
      "src/expr/evaluator.cc",
      // The layer-4 operators read their materialized inputs in tight
      // numeric loops; the raw array access is the paper's point (§3).
      "src/analytics/",
      // The frozen single-threaded baseline, and the benchmark of the raw
      // loops themselves.
      "src/contenders/single_threaded_engine.cc",
      "bench/bench_micro_kernels.cc",
  };

  /// status-provenance: code constructor -> path prefixes allowed to
  /// construct it.
  std::map<std::string, std::vector<std::string>> provenance = {
      {"DataLoss", {"src/storage/", "src/util/status"}},
  };
};

/// Runs every check (or only those in `only`, when non-empty) over the
/// model; returns findings sorted by file/line.
std::vector<Finding> RunChecks(const SourceModel& model,
                               const AnalyzerConfig& config,
                               const std::set<std::string>& only = {});

}  // namespace soda::analyze

#endif  // SODA_TOOLS_ANALYZE_CHECKS_H_
