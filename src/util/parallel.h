/// \file parallel.h
/// Morsel-driven parallel primitives (paper §3).
///
/// Work is split into fixed-size "morsels" that workers pull from a shared
/// atomic cursor — the scheme HyPer uses for elastic intra-query
/// parallelism. Operators express their loops as `ParallelFor` over tuple
/// ranges and keep state per worker, or per morsel, merged at the end. A
/// morsel's boundaries do not depend on the worker count, so per-morsel
/// state merged in morsel order gives the same result at every thread
/// count (see e.g. the k-Means operator, paper §6.1).

#ifndef SODA_UTIL_PARALLEL_H_
#define SODA_UTIL_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/query_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace soda {

/// Default number of tuples per morsel. Chosen so a morsel's working set
/// stays cache-resident while amortizing cursor contention.
inline constexpr size_t kDefaultMorselSize = 16384;

/// Runs `body(begin, end, worker_id)` over `[0, total)` split into morsels.
/// `worker_id` is in `[0, NumWorkers())` and is stable per worker, so the
/// body may index into pre-allocated thread-local accumulators.
///
/// Degrades to a serial loop when `total` is small or the pool has one
/// worker, so callers never pay scheduling overhead on tiny inputs.
///
/// An exception thrown by `body` on any worker stops the remaining
/// morsels and is rethrown on the calling thread (the first one wins) —
/// never std::terminate.
void ParallelFor(size_t total,
                 const std::function<void(size_t begin, size_t end,
                                          size_t worker_id)>& body,
                 size_t morsel_size = kDefaultMorselSize);

/// Guard-aware overload: probes `guard->Check("exec.morsel")` before every
/// morsel (cancellation, deadline, memory budget, fault injection) and
/// installs the guard as each worker's memory accountant
/// (QueryGuard::MemoryScope), so storage appends inside `body` are
/// charged to the query. On a failed probe the remaining morsels are
/// abandoned on all workers and the probe's Status is returned. A null
/// guard still probes the global FaultInjector. Worker exceptions are
/// rethrown on the calling thread, as in the plain overload.
///
/// Unlike the plain overload, `body` runs once per morsel on every path,
/// the serial one included: `begin` is a multiple of `morsel_size` and
/// `end - begin <= morsel_size`. At the default size, `MorselIndex(begin)`
/// therefore names the morsel independently of the worker count.
Status ParallelFor(QueryGuard* guard, size_t total,
                   const std::function<void(size_t begin, size_t end,
                                            size_t worker_id)>& body,
                   size_t morsel_size = kDefaultMorselSize);

/// Number of default-size morsels the guarded `ParallelFor` splits
/// `[0, total)` into.
inline size_t NumMorsels(size_t total) {
  return (total + kDefaultMorselSize - 1) / kDefaultMorselSize;
}

/// Index in `[0, NumMorsels(total))` of the default-size morsel starting at
/// `begin`, as the guarded `ParallelFor` passes it to its body.
inline size_t MorselIndex(size_t begin) { return begin / kDefaultMorselSize; }

/// Number of worker slots `ParallelFor` may use (= global pool size).
size_t NumWorkers();

/// Forces all ParallelFor calls onto the calling thread when true.
/// Used by tests to make failures deterministic and by the single-threaded
/// contender engine.
class ScopedSerialExecution {
 public:
  ScopedSerialExecution();
  ~ScopedSerialExecution();

  static bool active();

 private:
  bool prev_;
};

}  // namespace soda

#endif  // SODA_UTIL_PARALLEL_H_
