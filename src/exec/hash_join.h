/// \file hash_join.h
/// Hash table for equi-joins and the join/cross-join probe transforms.

#ifndef SODA_EXEC_HASH_JOIN_H_
#define SODA_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.h"
#include "storage/table.h"
#include "util/query_guard.h"

namespace soda {

/// Hashes one cell of a column to a 64-bit value; doubles with integral
/// values hash equal to the corresponding BIGINT so mixed-type keys work
/// after binder-inserted casts (keys are always cast to a common type, so
/// this is belt-and-braces). Scalar wrapper over the columnar kernels in
/// exec/hash_kernels.h — batch code should call those directly.
uint64_t HashCell(const Column& col, size_t row);

/// Immutable chaining hash table over the build side of an equi-join.
///
/// Built morsel-parallel: workers hash their morsels with the columnar
/// kernels, then publish rows into the shared bucket array with a CAS on
/// the bucket head (`next_` is per-row, so insertion is lock-free and
/// wait-free per row). Probed concurrently after Build returns.
class JoinHashTable {
 public:
  /// Builds the table over `build`'s `key_cols`. The guard (may be null)
  /// is probed at every morsel under the "exec.join_build" site and
  /// charged for the table's bucket/chain/hash arrays, so a 100M-row
  /// build is cancellable and memory-accounted.
  static Result<std::shared_ptr<JoinHashTable>> Build(
      TablePtr build, std::vector<size_t> key_cols,
      QueryGuard* guard = nullptr);

  /// Pass 1 of the probe: writes the (probe row, build row) pairs whose
  /// full key hashes match to `probe_sel[0, m)` and `build_sel[0, m)` and
  /// returns m, walking probe rows from `*row` and the chain from `*next`
  /// until `limit` pairs are gathered or the rows run out. Both arrays
  /// must hold `limit + 1` entries: the walk writes each chain entry
  /// before it knows whether the entry matches. Resumable: on return
  /// either `*row == num_rows` (the rows are done) or `*next` is the next
  /// hash-equal candidate of row `*row`, so one long chain spans several
  /// calls. Start with `*row = 0` and `*next = kStart`.
  size_t GatherCandidates(const uint64_t* hashes, size_t num_rows,
                          size_t* row, uint32_t* next, size_t limit,
                          uint32_t* probe_sel, uint32_t* build_sel) const;

  /// Pass 2 of the probe: keeps the pairs whose keys are SQL-equal, with
  /// one typed pass per key column (NULL never matches).
  void KeepEqualKeys(const DataChunk& chunk,
                     const std::vector<size_t>& probe_keys,
                     std::vector<uint32_t>* probe_sel,
                     std::vector<uint32_t>* build_sel) const;

  /// Chain cursor meaning "start at the bucket head of the current row".
  static constexpr uint32_t kStart = 0xFFFFFFFEu;

  const Table& build_table() const { return *build_; }
  size_t num_buckets() const { return head_.size(); }

  /// Bytes retained by this table: bucket/chain/hash arrays plus the
  /// pinned build-side table. This is what the hash-table recycler
  /// charges against its byte budget, because a cached entry keeps the
  /// build table alive even after the catalog republishes it.
  size_t MemoryUsage() const {
    return head_.capacity() * sizeof(uint32_t) +
           next_.capacity() * sizeof(uint32_t) +
           hashes_.capacity() * sizeof(uint64_t) + build_->MemoryUsage();
  }

 private:
  std::shared_ptr<const Table> build_;
  std::vector<size_t> key_cols_;
  // Chaining layout: head_[hash & mask] -> first row + next_ chain.
  // head_ entries are published with std::atomic_ref CAS during Build and
  // read plain afterwards (Build's ParallelFor join is the release fence).
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
  uint64_t mask_ = 0;
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;
};

/// Streaming probe: emits probe-row ++ build-row concatenations.
/// Vectorized in two passes per batch of up to kChunkCapacity pairs: the
/// chunk's key hashes come from the columnar kernels, pass 1 gathers the
/// hash-equal candidate pairs, pass 2 verifies the keys one typed column
/// at a time, and the output is one bulk gather per build column. The
/// probe columns are gathered too, unless the batch is the chunk's last
/// and selects every chunk row exactly once, in order (the FK→PK shape):
/// then the chunk's columns move into the output as they are.
class HashJoinProbeTransform : public Transform {
 public:
  HashJoinProbeTransform(std::shared_ptr<const JoinHashTable> table,
                         std::vector<size_t> probe_keys, Schema out_schema);
  Status Apply(DataChunk& chunk, const Emit& emit) const override;
  std::string name() const override { return "HashJoinProbe"; }

 private:
  std::shared_ptr<const JoinHashTable> table_;
  std::vector<size_t> probe_keys_;
  Schema out_schema_;
};

/// Streaming nested-loop expansion against a materialized right side.
/// The output is the (left row, right row) pairs in left-major order, cut
/// into chunks of kChunkCapacity rows; each chunk is one pair of
/// selection vectors and one bulk gather per column. Probes the calling
/// worker's guard under "exec.cross_join" per output chunk, so quadratic
/// blowups stay cancellable.
class CrossJoinTransform : public Transform {
 public:
  CrossJoinTransform(TablePtr right, Schema out_schema);
  Status Apply(DataChunk& chunk, const Emit& emit) const override;
  std::string name() const override { return "CrossJoin"; }

 private:
  TablePtr right_;
  Schema out_schema_;
};

}  // namespace soda

#endif  // SODA_EXEC_HASH_JOIN_H_
