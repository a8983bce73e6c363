/// \file operators.cc
/// ORDER BY, ORDER BY ... LIMIT (Top-N) and LIMIT.
///
/// ORDER BY is one operator over its input's materialized relation
/// (`SortTable`): column-ref keys are read in place, computed keys are
/// evaluated morsel-parallel, a stable sort of the row positions keeps key
/// ties in the relation's order (source order, see MaterializeSink), and
/// the output is gathered column by column. Keys are compared through raw
/// payload arrays (no per-element Value boxing). Top-N streams its input
/// and breaks ties on (source chunk sequence, row), so it equals the full
/// sort sliced. LIMIT stores rows through a MaterializeSink and stops the
/// scan past the first sequence whose prefix holds offset+limit rows.

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <numeric>

#include "exec/executor.h"
#include "expr/evaluator.h"
#include "util/first_error.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace soda {

namespace {

constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

/// Probe/charge site of the ORDER BY operators.
constexpr char kSortSite[] = "exec.sort";

// --- typed sort core ------------------------------------------------------

/// Raw view over one key column for the sort inner loop.
struct TypedKeyView {
  bool descending = false;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const std::vector<std::string>* str = nullptr;
  const uint8_t* validity = nullptr;  // null = all valid
};

TypedKeyView MakeKeyView(const Column& col, bool descending) {
  TypedKeyView v;
  v.descending = descending;
  if (col.type() == DataType::kVarchar) {
    v.str = &col.Strings();
  } else if (col.type() == DataType::kDouble) {
    v.f64 = col.F64Data();
  } else {
    v.i64 = col.I64Data();
  }
  if (!col.Validity().empty()) v.validity = col.Validity().data();
  return v;
}

using KeyViews = std::vector<TypedKeyView>;

KeyViews MakeKeyViews(const std::vector<Column>& keys,
                      const std::vector<SortKey>& specs) {
  KeyViews views;
  views.reserve(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    views.push_back(MakeKeyView(keys[k], specs[k].descending));
  }
  return views;
}

/// Three-way compare of row `a` of `x` against row `b` of `y` (two views
/// of one key) with the same ordering as Value::operator< (NULLs sort
/// before values, varchar by string compare, DOUBLE by CompareDoubles so
/// NaN sorts after every number) — except BIGINT keys compare exactly
/// instead of through the boxed double conversion the old comparator paid
/// per element.
int CompareKey(const TypedKeyView& x, size_t a, const TypedKeyView& y,
               size_t b) {
  const bool na = x.validity && x.validity[a] == 0;
  const bool nb = y.validity && y.validity[b] == 0;
  if (na || nb) {
    if (na && nb) return 0;
    return na ? -1 : 1;
  }
  if (x.str) {
    const std::string& l = (*x.str)[a];
    const std::string& r = (*y.str)[b];
    if (l < r) return -1;
    if (r < l) return 1;
    return 0;
  }
  if (x.f64) return CompareDoubles(x.f64[a], y.f64[b]);
  const int64_t l = x.i64[a];
  const int64_t r = y.i64[b];
  if (l < r) return -1;
  if (l > r) return 1;
  return 0;
}

/// Sort-order compare of row `a` of `x` against row `b` of `y` over all
/// keys (DESC keys inverted): negative when `a` sorts first.
int CompareRows(const KeyViews& x, size_t a, const KeyViews& y, size_t b) {
  for (size_t k = 0; k < x.size(); ++k) {
    const int c = CompareKey(x[k], a, y[k], b);
    if (c != 0) return x[k].descending ? -c : c;
  }
  return 0;
}

/// Stable sort permutation of `[0, n)` by the key views.
std::vector<uint32_t> SortOrder(const KeyViews& views, size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRows(views, a, views, b) < 0;
  });
  return order;
}

/// Evaluates every sort key over `chunk`.
Status EvaluateKeys(const std::vector<SortKey>& keys, DataChunk& chunk,
                    std::vector<Column>* out) {
  out->resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    SODA_RETURN_NOT_OK(EvaluateExpression(*keys[k].expr, chunk, &(*out)[k]));
  }
  return Status::OK();
}

// --- ORDER BY ... LIMIT sink ----------------------------------------------

/// A row's position in the pipeline input: its source chunk's sequence,
/// then its index among the rows that chunk produced. Top-N breaks key
/// ties on it, which is the order the stable full sort keeps.
struct StreamPos {
  uint64_t seq = 0;
  uint64_t row = 0;
  bool operator<(const StreamPos& o) const {
    return seq != o.seq ? seq < o.seq : row < o.row;
  }
};

/// Approximate bytes of rows `sel` of `col`: the unit Top-N candidates
/// are charged in.
size_t GatherBytes(const Column& col, const std::vector<uint32_t>& sel) {
  if (col.type() != DataType::kVarchar) return sel.size() * sizeof(int64_t);
  size_t bytes = sel.size() * sizeof(std::string);
  for (uint32_t r : sel) bytes += col.GetString(r).size();
  return bytes;
}

/// Sorts `[first, last)` just far enough that `[first, mid)` holds the
/// smallest elements in order: a heap-based partial sort for small
/// windows, a full introsort once the window covers most of the range.
template <typename It, typename Less>
void SortPrefix(It first, It mid, It last, Less less) {
  if (2 * (mid - first) < last - first) {
    std::partial_sort(first, mid, last, less);
  } else {
    std::sort(first, last, less);
  }
}

/// ORDER BY ... LIMIT k OFFSET o as one sink. Each worker keeps its best
/// o+k candidate rows sorted, plus a buffer of newcomers that is compacted
/// back to o+k once it grows past max(o+k, kMinSlack) rows. A row whose
/// keys lose to the worker's (o+k)-th candidate is dropped before it is
/// copied. Finalize merges the worker candidates and emits rows [o, o+k):
/// the stable full sort, sliced, at every thread count.
class TopNSink : public TableSink {
 public:
  TopNSink(const PlanNode& limit, const PlanNode& sort,
           std::vector<size_t> columns)
      : limit_(limit),
        sort_(sort),
        columns_(std::move(columns)),
        offset_(limit.offset > 0 ? static_cast<size_t>(limit.offset) : 0),
        target_(offset_ + static_cast<size_t>(limit.limit)),
        compact_at_(target_ <= kUnlimited - std::max(target_, kMinSlack)
                        ? target_ + std::max(target_, kMinSlack)
                        : kUnlimited) {
    locals_.resize(NumWorkers());
  }

  Status Consume(DataChunk& chunk, const SinkContext& sctx) override {
    if (target_ == 0) return Status::OK();
    std::vector<Column> keys;
    SODA_RETURN_NOT_OK(EvaluateKeys(sort_.sort_keys, chunk, &keys));
    auto& slot = locals_[sctx.worker_id];
    if (!slot) {
      slot = std::make_unique<Candidates>();
      for (size_t c : columns_) slot->cols.emplace_back(chunk.column(c).type());
      for (const Column& k : keys) slot->keys.emplace_back(k.type());
    }
    Candidates& cand = *slot;
    if (sctx.sequence != cand.last_seq) {
      cand.last_seq = sctx.sequence;
      cand.next_row = 0;
    }
    const uint64_t base = cand.next_row;
    const size_t n = chunk.num_rows();
    cand.next_row += n;

    // Rows losing to the cutoff (the worker's target-th best so far) can
    // never make the result: select survivors before copying anything. A
    // key tie loses too: this worker kept every candidate from an earlier
    // position (DESIGN.md §3a, per-worker order).
    std::vector<uint32_t> sel;
    if (cand.sorted) {
      const KeyViews mine = MakeKeyViews(keys, sort_.sort_keys);
      const KeyViews kept = MakeKeyViews(cand.keys, sort_.sort_keys);
      const size_t cut = target_ - 1;
      for (uint32_t r = 0; r < n; ++r) {
        if (CompareRows(mine, r, kept, cut) < 0) sel.push_back(r);
      }
    } else {
      sel.resize(n);
      std::iota(sel.begin(), sel.end(), 0);
    }
    std::vector<const Column*> src;
    src.reserve(columns_.size());
    for (size_t c : columns_) src.push_back(&chunk.column(c));
    cand.Append(src, keys, sel);
    for (uint32_t r : sel) cand.pos.push_back({sctx.sequence, base + r});
    // Charge the high-water mark: compaction frees rows, but reservations
    // never shrink, so only growth past the previous peak is new memory.
    if (cand.bytes > cand.charged) {
      SODA_RETURN_NOT_OK(GuardReserve(QueryGuard::Current(),
                                      cand.bytes - cand.charged, kSortSite));
      cand.charged = cand.bytes;
    }
    if (cand.pos.size() >= compact_at_) Compact(&cand);
    return Status::OK();
  }

  bool done(uint64_t) const override { return target_ == 0; }

  Status Finalize() override {
    std::vector<KeyViews> views(locals_.size());
    std::vector<Ref> refs;
    for (uint32_t w = 0; w < locals_.size(); ++w) {
      if (!locals_[w]) continue;
      views[w] = MakeKeyViews(locals_[w]->keys, sort_.sort_keys);
      for (uint32_t r = 0; r < locals_[w]->pos.size(); ++r) {
        refs.push_back({w, r});
      }
    }
    const size_t end = std::min(target_, refs.size());
    SortPrefix(refs.begin(), refs.begin() + end, refs.end(),
               [&](const Ref& a, const Ref& b) {
                 const int c = CompareRows(views[a.worker], a.row,
                                           views[b.worker], b.row);
                 if (c != 0) return c < 0;
                 return locals_[a.worker]->pos[a.row] <
                        locals_[b.worker]->pos[b.row];
               });
    result_ = std::make_shared<Table>("topn", limit_.schema);
    if (offset_ < end) result_->Reserve(end - offset_);
    for (size_t i = offset_; i < end; ++i) {
      const Candidates& cand = *locals_[refs[i].worker];
      for (size_t c = 0; c < cand.cols.size(); ++c) {
        result_->column(c).AppendFrom(cand.cols[c], refs[i].row);
      }
    }
    SODA_RETURN_NOT_OK(GuardReserve(QueryGuard::Current(),
                                    result_->MemoryUsage(), kSortSite));
    locals_.clear();
    return Status::OK();
  }

  std::string name() const override {
    std::string s = SortName(sort_) + " top " + std::to_string(limit_.limit);
    if (offset_ > 0) s += " offset " + std::to_string(offset_);
    return s;
  }

  TablePtr result() const override { return result_; }

 private:
  /// Smallest newcomer buffer between compactions: keeps tiny LIMITs from
  /// re-sorting their candidates on every chunk.
  static constexpr size_t kMinSlack = 256;

  /// One worker's candidate rows: output columns, evaluated keys and
  /// stream positions, row-aligned.
  struct Candidates {
    std::vector<Column> cols;
    std::vector<Column> keys;
    std::vector<StreamPos> pos;
    /// Rows [0, target) are the best so far, sorted; row target-1 is the
    /// cutoff newcomers must beat. False until the first compaction.
    bool sorted = false;
    size_t bytes = 0;    ///< approximate footprint of the rows held
    size_t charged = 0;  ///< high-water mark charged to the guard
    uint64_t last_seq = kUnlimited;  ///< sequence of the previous chunk
    uint64_t next_row = 0;           ///< rows that sequence produced so far

    /// Appends rows `sel` of `src_cols` and `src_keys`; the caller
    /// appends their positions.
    void Append(const std::vector<const Column*>& src_cols,
                const std::vector<Column>& src_keys,
                const std::vector<uint32_t>& sel) {
      for (size_t c = 0; c < cols.size(); ++c) {
        cols[c].AppendGather(*src_cols[c], sel.data(), sel.size());
        bytes += GatherBytes(*src_cols[c], sel);
      }
      for (size_t k = 0; k < keys.size(); ++k) {
        keys[k].AppendGather(src_keys[k], sel.data(), sel.size());
        bytes += GatherBytes(src_keys[k], sel);
      }
      bytes += sel.size() * sizeof(StreamPos);
    }
  };

  struct Ref {
    uint32_t worker;
    uint32_t row;
  };

  /// Shrinks `cand` to its best target_ rows, sorted.
  void Compact(Candidates* cand) const {
    const KeyViews views = MakeKeyViews(cand->keys, sort_.sort_keys);
    std::vector<uint32_t> order(cand->pos.size());
    std::iota(order.begin(), order.end(), 0);
    SortPrefix(order.begin(), order.begin() + target_, order.end(),
               [&](uint32_t a, uint32_t b) {
                 const int c = CompareRows(views, a, views, b);
                 if (c != 0) return c < 0;
                 return cand->pos[a] < cand->pos[b];
               });
    order.resize(target_);
    Candidates kept;
    for (const Column& c : cand->cols) kept.cols.emplace_back(c.type());
    for (const Column& k : cand->keys) kept.keys.emplace_back(k.type());
    std::vector<const Column*> src;
    for (const Column& c : cand->cols) src.push_back(&c);
    kept.Append(src, cand->keys, order);
    for (uint32_t r : order) kept.pos.push_back(cand->pos[r]);
    kept.sorted = true;
    kept.charged = cand->charged;
    kept.last_seq = cand->last_seq;
    kept.next_row = cand->next_row;
    *cand = std::move(kept);
  }

  const PlanNode& limit_;
  const PlanNode& sort_;
  const std::vector<size_t> columns_;  ///< sort-input columns to output
  const size_t offset_;
  const size_t target_;      ///< offset + limit
  const size_t compact_at_;  ///< candidate count that triggers Compact
  std::vector<std::unique_ptr<Candidates>> locals_;
  TablePtr result_;
};

// --- LIMIT sink -----------------------------------------------------------

/// Stores its rows through a MaterializeSink that keeps the row window
/// [offset, offset+limit) of the source-order concatenation. Once the
/// chunks up to some sequence S hold offset+limit rows, rows past S can
/// never reach the window, however the remaining chunks before S turn out:
/// later chunks are dropped and done() stops workers from scanning them.
/// The result is the serial one at every thread count.
class LimitSink : public TableSink {
 public:
  explicit LimitSink(const PlanNode& plan)
      : plan_(plan),
        offset_(plan.offset > 0 ? static_cast<size_t>(plan.offset) : 0),
        limit_(plan.limit < 0 ? kUnlimited : static_cast<size_t>(plan.limit)),
        target_(limit_ == kUnlimited ? kUnlimited : offset_ + limit_),
        rows_(plan.schema, offset_, limit_) {
    if (target_ == 0) end_seq_.store(0);
  }

  Status Consume(DataChunk& chunk, const SinkContext& sctx) override {
    if (done(sctx.sequence)) return Status::OK();  // past the cutoff
    const size_t rows = chunk.num_rows();
    SODA_RETURN_NOT_OK(rows_.Consume(chunk, sctx));
    if (target_ != kUnlimited) Count(sctx.sequence, rows);
    return Status::OK();
  }

  bool done(uint64_t sequence) const override {
    return sequence >= end_seq_.load(std::memory_order_acquire);
  }

  Status Finalize() override { return rows_.Finalize(); }

  std::string name() const override {
    std::string s = "Limit " + (plan_.limit < 0
                                    ? std::string("ALL")
                                    : std::to_string(plan_.limit));
    if (plan_.offset > 0) s += " OFFSET " + std::to_string(plan_.offset);
    return s;
  }

  TablePtr result() const override { return rows_.result(); }

 private:
  /// Records `rows` kept at `seq` and lowers the cutoff to the smallest
  /// sequence whose prefix holds target_ rows.
  void Count(uint64_t seq, size_t rows) SODA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    rows_by_seq_[seq] += rows;
    kept_ += rows;
    if (kept_ < target_) return;
    size_t prefix = 0;
    for (auto it = rows_by_seq_.begin(); it != rows_by_seq_.end(); ++it) {
      prefix += it->second;
      if (prefix < target_) continue;
      end_seq_.store(it->first + 1, std::memory_order_release);
      rows_by_seq_.erase(std::next(it), rows_by_seq_.end());
      kept_ = prefix;
      return;
    }
  }

  const PlanNode& plan_;
  const size_t offset_;
  const size_t limit_;   ///< kUnlimited when LIMIT ALL
  const size_t target_;  ///< offset + limit; kUnlimited when LIMIT ALL
  MaterializeSink rows_;
  /// Sequences at or past this one cannot reach the result.
  std::atomic<uint64_t> end_seq_{std::numeric_limits<uint64_t>::max()};
  Mutex mu_;
  std::map<uint64_t, size_t> rows_by_seq_ SODA_GUARDED_BY(mu_);
  size_t kept_ SODA_GUARDED_BY(mu_) = 0;  ///< rows in rows_by_seq_
};

}  // namespace

std::string SortName(const PlanNode& plan) {
  std::string s = "Sort [";
  for (size_t i = 0; i < plan.sort_keys.size(); ++i) {
    if (i) s += ", ";
    s += plan.sort_keys[i].expr->ToString();
    if (plan.sort_keys[i].descending) s += " DESC";
  }
  return s + "]";
}

Result<TablePtr> SortTable(const Table& input, const PlanNode& plan,
                           ExecContext& ctx) {
  const size_t n = input.num_rows();
  const std::vector<SortKey>& specs = plan.sort_keys;

  // Computed keys, morsel-parallel: each chunk's key values go to their
  // own slot of `parts`, then the slots are concatenated in row order.
  std::vector<size_t> computed;
  for (size_t k = 0; k < specs.size(); ++k) {
    if (specs[k].expr->kind != ExprKind::kColumnRef) computed.push_back(k);
  }
  std::vector<Column> keys(specs.size());
  if (!computed.empty()) {
    std::vector<std::vector<Column>> parts((n + kChunkCapacity - 1) /
                                           kChunkCapacity);
    FirstError first_error;
    Status guard_status = ParallelFor(
        ctx.guard, n,
        [&](size_t begin, size_t end, size_t) {
          DataChunk chunk;
          for (size_t offset = begin; offset < end; offset += kChunkCapacity) {
            if (first_error.failed()) return;
            input.ScanSlice(offset, std::min(kChunkCapacity, end - offset),
                            &chunk);
            std::vector<Column>& part = parts[offset / kChunkCapacity];
            part.resize(computed.size());
            size_t bytes = 0;
            Status st;
            for (size_t i = 0; i < computed.size() && st.ok(); ++i) {
              st = EvaluateExpression(*specs[computed[i]].expr, chunk,
                                      &part[i]);
              bytes += part[i].MemoryUsage();
            }
            if (st.ok()) st = GuardReserve(ctx.guard, bytes, kSortSite);
            if (!st.ok()) {
              first_error.Record(std::move(st));
              return;
            }
          }
        },
        /*morsel_size=*/kChunkCapacity * 8);
    SODA_RETURN_NOT_OK(first_error.Take());
    SODA_RETURN_NOT_OK(guard_status);
    for (size_t i = 0; i < computed.size(); ++i) {
      Column& key = keys[computed[i]];
      key = Column(specs[computed[i]].expr->type);
      key.Reserve(n);
      for (auto& part : parts) {
        key.AppendSlice(part[i], 0, part[i].size());
        part[i] = Column();
      }
    }
  }
  KeyViews views;
  views.reserve(specs.size());
  for (size_t k = 0; k < specs.size(); ++k) {
    const Column& key = specs[k].expr->kind == ExprKind::kColumnRef
                            ? input.column(specs[k].expr->column_index)
                            : keys[k];
    views.push_back(MakeKeyView(key, specs[k].descending));
  }

  SODA_RETURN_NOT_OK(GuardReserve(ctx.guard, n * sizeof(uint32_t), kSortSite));
  const std::vector<uint32_t> order = SortOrder(views, n);
  keys.clear();

  // The output is a permutation of the input columns: their bytes, not the
  // spare capacity of an input it may share with a catalog table.
  size_t bytes = 0;
  for (size_t c = 0; c < plan.schema.num_fields(); ++c) {
    const Column& col = input.column(c);
    bytes += col.type() == DataType::kVarchar
                 ? col.MemoryUsage()
                 : n * sizeof(int64_t) + (col.Validity().empty() ? 0 : n);
  }
  SODA_RETURN_NOT_OK(GuardReserve(ctx.guard, bytes, kSortSite));
  auto out = std::make_shared<Table>("sorted", plan.schema);
  for (size_t c = 0; c < plan.schema.num_fields(); ++c) {
    out->column(c).AppendGather(input.column(c), order.data(), n);
  }
  return out;
}

std::shared_ptr<TableSink> MakeTopNSink(const PlanNode& limit,
                                        const PlanNode& sort,
                                        std::vector<size_t> columns) {
  return std::make_shared<TopNSink>(limit, sort, std::move(columns));
}

std::shared_ptr<TableSink> MakeLimitSink(const PlanNode& plan) {
  return std::make_shared<LimitSink>(plan);
}

}  // namespace soda
