/// \file plan_cache.h
/// The plan cache and the prepared-statement registry (DESIGN.md §11).
///
/// Two levels of work-skipping for repeated traffic:
///
///  - `PlanCache` memoizes *ad-hoc* SELECTs: the optimized logical plan,
///    keyed by the statement's trimmed SQL text (+ the optimize flag) and
///    validated against the statement's pinned catalog snapshot through
///    the plan's PlanDependency list (table → publication version). A hit
///    skips bind/optimize; lowering and execution still run per
///    statement (physical plans hold per-run state). Cached plans are
///    shared as `shared_ptr<const PlanNode>` — execution never mutates a
///    logical plan, so concurrent sessions can execute one copy.
///
///  - `PreparedRegistry` holds PREPAREd statements: the parsed AST, the
///    bound parameter types, and (for SELECT bodies) the optimized plan
///    containing kParameter placeholders. EXECUTE clones the plan,
///    substitutes literals, and runs — re-binding transparently when the
///    dependency versions went stale.
///
/// Both structures are engine-owned leaves in the lock order (write_mu_ →
/// commit_mu_ → leaves); sessions may also own a private PreparedRegistry
/// (ExecOptions::prepared) so one connection's statements are invisible
/// to another's.

#ifndef SODA_CORE_PLAN_CACHE_H_
#define SODA_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/plan_fingerprint.h"
#include "sql/ast.h"
#include "sql/logical_plan.h"
#include "storage/catalog.h"
#include "util/mutex.h"
#include "util/query_guard.h"
#include "util/status.h"

namespace soda {

/// Entries kept before LRU eviction; plans are small (no data), so a
/// count bound suffices where the hash-table recycler needs bytes.
inline constexpr size_t kPlanCacheMaxEntries = 256;

/// An optimized logical plan plus the facts needed to validate it.
struct CachedPlan {
  std::shared_ptr<const PlanNode> plan;
  uint64_t fingerprint = 0;
  std::vector<PlanDependency> deps;
  /// Catalog version the deps were last validated against (fast path:
  /// a snapshot at the same version needs no per-table checks).
  uint64_t catalog_version = 0;
};

class PlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;
  };

  /// Looks up `key` and validates the entry against `snapshot` (the
  /// statement's pinned catalog snapshot). Probes `guard` (may be null)
  /// under "cache.plan_lookup". Stale entries are evicted and count as
  /// misses. Returns nullptr on miss.
  Result<std::shared_ptr<const PlanNode>> Lookup(const std::string& key,
                                                 const Catalog& snapshot,
                                                 QueryGuard* guard);

  /// Inserts (or replaces) an entry; refused when any dependency is
  /// quarantined. Evicts the least-recently-used entry beyond the bound.
  void Insert(const std::string& key, CachedPlan entry);

  /// Enables/disables the cache (SET soda.plan_cache = on|off);
  /// disabling clears it. Lookups miss while disabled.
  void SetEnabled(bool enabled);

  void Clear();

  Stats stats() const;

 private:
  struct Slot {
    std::string key;
    CachedPlan entry;
  };

  mutable Mutex mu_;
  bool enabled_ SODA_GUARDED_BY(mu_) = true;
  /// MRU at front.
  std::list<Slot> lru_ SODA_GUARDED_BY(mu_);
  std::map<std::string, std::list<Slot>::iterator> index_
      SODA_GUARDED_BY(mu_);
  int64_t hits_ SODA_GUARDED_BY(mu_) = 0;
  int64_t misses_ SODA_GUARDED_BY(mu_) = 0;
};

/// Validates a dependency list against a catalog snapshot: every table
/// must still exist at the recorded publication version and carry no
/// quarantine. Shared by the plan cache and EXECUTE's staleness check.
bool DepsStillValid(const std::vector<PlanDependency>& deps,
                    const Catalog& snapshot);

/// One PREPAREd statement. Immutable after registration; re-preparation
/// (stale plan, re-PREPARE of the same name) replaces the registry slot.
struct PreparedStatement {
  std::string name;
  /// The parsed body (kSelect or kInsert). Shared so EXECUTE can hold it
  /// across a registry replacement.
  std::shared_ptr<const Statement> body;
  /// Parameter types by 1-based slot, resolved at PREPARE time.
  std::vector<DataType> param_types;
  /// SELECT bodies: the optimized plan with kParameter placeholders and
  /// its dependencies (at `catalog_version`). Null for INSERT bodies.
  std::shared_ptr<const PlanNode> plan;
  std::vector<PlanDependency> deps;
  uint64_t catalog_version = 0;
};

using PreparedPtr = std::shared_ptr<const PreparedStatement>;

/// Name → prepared statement. PREPARE of an existing name replaces it
/// (documented divergence from Postgres' error: it keeps shell retry
/// loops idempotent).
class PreparedRegistry {
 public:
  void Put(PreparedPtr stmt);
  /// Null when unknown.
  PreparedPtr Get(const std::string& name) const;
  Status Remove(const std::string& name);
  void Clear();
  size_t size() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, PreparedPtr> stmts_ SODA_GUARDED_BY(mu_);
};

}  // namespace soda

#endif  // SODA_CORE_PLAN_CACHE_H_
