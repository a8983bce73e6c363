#include "exec/hash_join.h"

#include <atomic>

#include "exec/hash_kernels.h"
#include "util/first_error.h"
#include "util/parallel.h"

namespace soda {

namespace {

/// Fault/cancellation site for hash-table construction.
constexpr char kJoinBuildSite[] = "exec.join_build";
/// Fault/cancellation site for cross-join expansion.
constexpr char kCrossJoinSite[] = "exec.cross_join";

}  // namespace

uint64_t HashCell(const Column& col, size_t row) {
  uint64_t h = 0;
  HashColumn(col, row, row + 1, &h);
  return h;
}

Result<std::shared_ptr<JoinHashTable>> JoinHashTable::Build(
    TablePtr build, std::vector<size_t> key_cols, QueryGuard* guard) {
  SODA_RETURN_NOT_OK(GuardProbe(guard, kJoinBuildSite));
  auto ht = std::make_shared<JoinHashTable>();
  ht->build_ = std::move(build);
  ht->key_cols_ = std::move(key_cols);
  const size_t n = ht->build_->num_rows();

  size_t buckets = 16;
  while (buckets < n * 2) buckets <<= 1;
  // Charge the table's arrays before allocating them: bucket heads, the
  // per-row chain, and the per-row hashes.
  SODA_RETURN_NOT_OK(GuardReserve(
      guard,
      buckets * sizeof(uint32_t) + n * (sizeof(uint32_t) + sizeof(uint64_t)),
      kJoinBuildSite));
  ht->mask_ = buckets - 1;
  ht->head_.assign(buckets, kInvalid);
  ht->next_.assign(n, kInvalid);
  ht->hashes_.resize(n);

  std::vector<const Column*> cols(ht->key_cols_.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c] = &ht->build_->column(ht->key_cols_[c]);
  }

  // Morsel-parallel two-phase body: hash the morsel with the columnar
  // kernels, then publish each row with a CAS on its bucket head. next_[i]
  // is written only by row i's owner, so the chain itself is race-free;
  // chain order depends on the interleaving (join results are set-equal,
  // not order-stable, across worker counts).
  FirstError first_error;
  JoinHashTable* t = ht.get();
  Status par = ParallelFor(
      guard, n,
      [t, &cols, guard, &first_error](size_t begin, size_t end, size_t) {
        if (first_error.failed()) return;
        Status st = GuardProbe(guard, kJoinBuildSite);
        if (!st.ok()) {
          first_error.Record(std::move(st));
          return;
        }
        HashRows(cols, begin, end, &t->hashes_[begin]);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t slot = t->hashes_[i] & t->mask_;
          std::atomic_ref<uint32_t> head(t->head_[slot]);
          uint32_t old = head.load(std::memory_order_relaxed);
          do {
            t->next_[i] = old;
          } while (!head.compare_exchange_weak(old, static_cast<uint32_t>(i),
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
        }
      });
  SODA_RETURN_NOT_OK(first_error.Take());
  SODA_RETURN_NOT_OK(par);
  return ht;
}

size_t JoinHashTable::GatherCandidates(const uint64_t* hashes,
                                       size_t num_rows, size_t* row,
                                       uint32_t* next, size_t limit,
                                       uint32_t* probe_sel,
                                       uint32_t* build_sel) const {
  size_t r = *row;
  uint32_t i = *next;
  size_t m = 0;
  // analyze:allow(guard-probe: bounded by one chunk's rows and `limit` pairs)
  for (; r < num_rows; ++r, i = kStart) {
    const uint64_t h = hashes[r];
    if (i == kStart) i = head_[h & mask_];
    for (; i != kInvalid; i = next_[i]) {
      // Write every entry, keep it only on a hash match: no branch on the
      // (unpredictable) comparison.
      probe_sel[m] = static_cast<uint32_t>(r);
      build_sel[m] = i;
      m += hashes_[i] == h;
      if (m > limit) {  // a candidate past the batch: resume at it
        *row = r;
        *next = i;
        return limit;
      }
    }
  }
  *row = r;
  *next = kStart;
  return m;
}

void JoinHashTable::KeepEqualKeys(const DataChunk& chunk,
                                  const std::vector<size_t>& probe_keys,
                                  std::vector<uint32_t>* probe_sel,
                                  std::vector<uint32_t>* build_sel) const {
  for (size_t c = 0; c < key_cols_.size() && !probe_sel->empty(); ++c) {
    KeepEqualCells(chunk.column(probe_keys[c]), build_->column(key_cols_[c]),
                   probe_sel, build_sel);
  }
}

HashJoinProbeTransform::HashJoinProbeTransform(
    std::shared_ptr<const JoinHashTable> table, std::vector<size_t> probe_keys,
    Schema out_schema)
    : table_(std::move(table)),
      probe_keys_(std::move(probe_keys)),
      out_schema_(std::move(out_schema)) {}

Status HashJoinProbeTransform::Apply(DataChunk& chunk,
                                     const Emit& emit) const {
  const Table& build = table_->build_table();
  const size_t left_cols = chunk.num_columns();
  const size_t n = chunk.num_rows();

  // Hash the whole chunk's keys up front (columnar kernels), then gather
  // match pairs into selection vectors and materialize with one bulk
  // gather per column — no per-row match buffers, no per-cell dispatch.
  std::vector<const Column*> cols(probe_keys_.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c] = &chunk.column(probe_keys_[c]);
  }
  std::vector<uint64_t> hashes(n);
  HashRows(cols, 0, n, hashes.data());

  // Batches of at most kChunkCapacity candidate pairs: pass 1 gathers the
  // hash-equal pairs, pass 2 drops those whose keys differ, and the
  // survivors are materialized with one bulk gather per column.
  std::vector<uint32_t> probe_sel, build_sel;
  size_t row = 0;
  uint32_t next = JoinHashTable::kStart;
  // analyze:allow(guard-probe: n is one morsel chunk; ParallelFor probes exec.morsel)
  while (row < n) {
    probe_sel.resize(kChunkCapacity + 1);
    build_sel.resize(kChunkCapacity + 1);
    const size_t m =
        table_->GatherCandidates(hashes.data(), n, &row, &next,
                                 kChunkCapacity, probe_sel.data(),
                                 build_sel.data());
    probe_sel.resize(m);
    build_sel.resize(m);
    table_->KeepEqualKeys(chunk, probe_keys_, &probe_sel, &build_sel);
    if (probe_sel.empty()) continue;
    DataChunk out(out_schema_);
    // The chunk's last batch selecting each of its rows once, in order,
    // is the chunk itself: move its columns instead of gathering them.
    // Nothing reads the chunk after its last batch.
    bool identity = row == n && probe_sel.size() == n;
    for (size_t k = 0; identity && k < n; ++k) identity = probe_sel[k] == k;
    for (size_t c = 0; c < left_cols; ++c) {
      if (identity) {
        out.column(c) = std::move(chunk.column(c));
      } else {
        out.column(c).AppendGather(chunk.column(c), probe_sel.data(),
                                   probe_sel.size());
      }
    }
    for (size_t c = 0; c < build.num_columns(); ++c) {
      out.column(left_cols + c).AppendGather(build.column(c),
                                             build_sel.data(),
                                             build_sel.size());
    }
    SODA_RETURN_NOT_OK(emit(out));
  }
  return Status::OK();
}

CrossJoinTransform::CrossJoinTransform(TablePtr right, Schema out_schema)
    : right_(std::move(right)), out_schema_(std::move(out_schema)) {}

Status CrossJoinTransform::Apply(DataChunk& chunk, const Emit& emit) const {
  const Table& right = *right_;
  const size_t left_cols = chunk.num_columns();
  const size_t rn = right.num_rows();
  const size_t total = chunk.num_rows() * rn;
  // The calling worker's guard (installed by the pipeline's ParallelFor
  // MemoryScope); covers cancellation/deadline/faults for the quadratic
  // expansion, which can dwarf the morsel-boundary probes upstream.
  QueryGuard* guard = QueryGuard::Current();
  std::vector<uint32_t> left_sel(std::min(total, kChunkCapacity));
  std::vector<uint32_t> right_sel(left_sel.size());
  // (l, r): the pair the next output row holds; pairs run left-major.
  uint32_t l = 0;
  uint32_t r = 0;
  for (size_t emitted = 0; emitted < total;) {
    SODA_RETURN_NOT_OK(GuardProbe(guard, kCrossJoinSite));
    const size_t m = std::min(kChunkCapacity, total - emitted);
    for (size_t k = 0; k < m;) {
      const size_t run = std::min<size_t>(rn - r, m - k);
      for (size_t j = 0; j < run; ++j) {
        left_sel[k + j] = l;
        right_sel[k + j] = static_cast<uint32_t>(r + j);
      }
      k += run;
      r += static_cast<uint32_t>(run);
      if (r == rn) {
        r = 0;
        ++l;
      }
    }
    DataChunk out(out_schema_);
    for (size_t c = 0; c < left_cols; ++c) {
      out.column(c).AppendGather(chunk.column(c), left_sel.data(), m);
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      out.column(left_cols + c).AppendGather(right.column(c),
                                             right_sel.data(), m);
    }
    SODA_RETURN_NOT_OK(emit(out));
    emitted += m;
  }
  return Status::OK();
}

}  // namespace soda
