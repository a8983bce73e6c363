/// \file fault_sites.h
/// The authoritative registry of FaultInjector probe sites.
///
/// Every `GuardProbe` / `GuardReserve` / `QueryGuard::Check` site in the
/// engine must appear here, keyed by its `layer.point` name. The registry
/// closes the loop that keeps the robustness matrix honest:
///
///  - `soda_fault_sites()` (a zero-argument SQL table function) exposes
///    this list, so operators can discover injectable sites at runtime;
///  - tests/robustness_test.cc asserts that the fault matrix (plus the
///    suites named there for durability and server sites) covers every
///    registered site — a new site without a matrix row fails the build;
///  - tools/lint.sh rule 5 greps probe call sites and rejects any dotted
///    site literal that is missing from this header, so a new probe
///    cannot dodge registration in the first place.
///
/// Keep entries grouped by layer and alphabetical within a group.

#ifndef SODA_UTIL_FAULT_SITES_H_
#define SODA_UTIL_FAULT_SITES_H_

#include <cstddef>

namespace soda {

/// One registered probe site: its `layer.point` name and where/why the
/// probe fires (surfaced by `SELECT * FROM soda_fault_sites()`).
struct FaultSiteInfo {
  const char* site;
  const char* description;
};

inline constexpr FaultSiteInfo kFaultSites[] = {
    // Analytics operators (§6/§7).
    {"cc.csr", "connected components: undirected CSR allocation charge"},
    {"cc.iteration", "connected components: per-iteration probe"},
    {"kmeans.densify", "k-means: assignment-vector allocation charge"},
    {"kmeans.iteration", "k-means: per-iteration probe"},
    {"pagerank.csr", "PageRank: CSR build allocation charge"},
    {"pagerank.iteration", "PageRank: per-iteration probe"},

    // Checkpoints (storage/checkpoint.cc).
    {"checkpoint.rename", "checkpoint: atomic tmp-file rename"},
    {"checkpoint.write", "checkpoint: serialized table write"},

    // Background maintenance (storage/durability.cc).
    {"durability.auto_checkpoint",
     "maintenance thread: threshold-triggered auto-checkpoint"},

    // Caches (plan cache + join hash-table recycler, DESIGN.md §11).
    {"cache.ht_recycle", "hash-table recycler: build-fragment lookup"},
    {"cache.plan_lookup", "plan cache: SELECT plan lookup/validation"},

    // Iterative constructs (§5.1).
    {"cte.append", "recursive CTE: working-table append charge"},
    {"cte.step", "recursive CTE: per-step probe"},
    {"iterate.step", "ITERATE: per-step probe"},

    // Executor / physical plan layer.
    {"exec.agg_merge", "aggregation: radix partition merge"},
    {"exec.cross_join", "nested-loop cross join inner loop"},
    {"exec.dml",
     "engine DML: INSERT rows, UPDATE/DELETE row groups, the rebuild charge"},
    {"exec.join_build", "hash join: morsel-parallel build"},
    {"exec.morsel", "ParallelFor morsel boundary"},
    {"exec.pipeline", "pipeline scheduler: per-pipeline start"},
    {"exec.sort", "sort operator: computed keys, permutation and output"},
    {"exec.statement", "Engine::Execute pre-execution probe"},
    {"exec.union", "UNION ALL branch scheduling"},
    {"exec.verify_plan", "static plan verifier invocation"},

    // Network server (src/server/).
    {"server.accept", "listener: accepting a new connection"},
    {"server.read", "session: reading a request frame"},
    {"server.session", "session manager: registering a new session"},
    {"server.write", "session: writing a response frame"},

    // Storage & write-ahead log.
    {"storage.append", "Table::AppendRow/AppendChunk growth charge"},
    {"storage.partition_prune", "scan: applying the pruned partition set"},
    {"storage.scrub", "scrub pass: per-table CRC sweep"},
    {"storage.segment_decode",
     "sealed scan / FlatView: decoding encoded segments (WAL replay "
     "never decodes)"},
    {"storage.segment_encode", "EncodeSegment: encoded payload charge"},
    {"wal.append", "WAL: logical record append"},
    {"wal.fsync", "WAL: fsync of the log tail"},
    {"wal.rotate", "WAL: archive-and-reset rotation during checkpoint"},

    // Utilities (util/retry.h).
    {"util.retry", "RetryTransient: probed before each backoff sleep"},
};

inline constexpr size_t kNumFaultSites =
    sizeof(kFaultSites) / sizeof(kFaultSites[0]);

}  // namespace soda

#endif  // SODA_UTIL_FAULT_SITES_H_
