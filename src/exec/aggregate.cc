/// \file aggregate.cc
/// Hash aggregation with thread-local partial states merged at finalize —
/// the structure the paper describes for its analytics operators (§6.1:
/// "Thread synchronization is only needed for the very last steps, global
/// aggregation of the local intermediate results") applied to plain
/// GROUP BY. The "very last step" itself is parallel too: worker group
/// tables are merged by hash radix, one partition per worker, and the
/// result is materialized fragment-wise with bulk column appends.

#include <atomic>
#include <bit>
#include <cmath>

#include "exec/executor.h"
#include "exec/hash_join.h"
#include "exec/hash_kernels.h"
#include "types/value.h"
#include "util/first_error.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace soda {

namespace {

/// Fault/cancellation site for the finalize-time merge and
/// materialization phases.
constexpr char kAggMergeSite[] = "exec.agg_merge";

/// Grouping equality: unlike joins, NULL groups with NULL.
bool GroupCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  bool na = a.IsNull(ra), nb = b.IsNull(rb);
  if (na || nb) return na && nb;
  return CellsEqual(a, ra, b, rb);
}

/// Raw view of one BIGINT/BOOL grouping-key column, taken once per chunk
/// (or per new group, for a group table's own keys) so that the key
/// compare reads payload arrays instead of dispatching through Column.
struct I64KeyCells {
  const int64_t* i64;
  const uint8_t* valid;  ///< nullptr when every cell is valid

  static I64KeyCells Of(const Column& c) {
    return {c.I64Data(),
            c.Validity().empty() ? nullptr : c.Validity().data()};
  }
};

/// GroupCellsEqual over every column of BIGINT/BOOL keys: row `i` of `a`
/// against row `j` of `b`, one int64 compare per column.
bool I64KeysEqual(const I64KeyCells* a, size_t i, const I64KeyCells* b,
                  size_t j, size_t num_cols) {
  for (size_t c = 0; c < num_cols; ++c) {
    const bool na = a[c].valid != nullptr && a[c].valid[i] == 0;
    const bool nb = b[c].valid != nullptr && b[c].valid[j] == 0;
    if (na != nb) return false;
    if (!na && a[c].i64[i] != b[c].i64[j]) return false;
  }
  return true;
}

/// Pre-classified update kind for one aggregate spec. The consume loop is
/// the hottest code in a GROUP BY pipeline; dispatching once per spec at
/// sink construction lets each row touch only the accumulator fields its
/// function actually reads at materialization.
enum class AggOp : uint8_t {
  kCountStar,   ///< count(*): unconditional count
  kCountArg,    ///< count(x): count of non-NULL (also any varchar arg)
  kSumInt,      ///< sum over BIGINT: exact integer sum + count
  kSumDouble,   ///< sum over DOUBLE: double sum + count
  kAvg,         ///< avg: double sum + count
  kMinInt,      ///< min over BIGINT: exact integer min + count
  kMinDouble,   ///< min over DOUBLE: double min + count
  kMaxInt,      ///< max over BIGINT: exact integer max + count
  kMaxDouble,   ///< max over DOUBLE: double max + count
  kVar,         ///< var/stddev: sum + sum of squares + count
};

// --- Compact per-spec accumulators -----------------------------------------
// One struct per AggOp family, holding only the fields that op reads at
// materialization. Groups store their specs' states packed back-to-back in
// one byte block, so a GROUP BY row touches one short run of cache lines;
// at large group counts the consume loop is bound by exactly those misses.
// Every struct leads with `count`, so a spec defensively demoted to
// kCountArg (varchar argument) still writes a valid prefix of whatever
// layout its slot was given.

struct CountState {
  int64_t count;
};
struct SumIntState {
  int64_t count;
  int64_t isum;
};
struct SumDoubleState {
  int64_t count;
  double sum;
};
struct MinMaxIntState {
  int64_t count;
  int64_t ival;
};
struct MinMaxDoubleState {
  int64_t count;
  double val;
};
struct VarState {
  int64_t count;
  double sum;
  double sumsq;
};

size_t StateSize(AggOp op) {
  switch (op) {
    case AggOp::kCountStar:
    case AggOp::kCountArg:
      return sizeof(CountState);
    case AggOp::kSumInt:
      return sizeof(SumIntState);
    case AggOp::kSumDouble:
    case AggOp::kAvg:
      return sizeof(SumDoubleState);
    case AggOp::kMinInt:
    case AggOp::kMaxInt:
      return sizeof(MinMaxIntState);
    case AggOp::kMinDouble:
    case AggOp::kMaxDouble:
      return sizeof(MinMaxDoubleState);
    case AggOp::kVar:
      return sizeof(VarState);
  }
  return sizeof(VarState);
}

/// Byte layout of one group's packed accumulator block. Shared by every
/// GroupTable of a sink (workers and merge fragments alike); owned by the
/// AggregateSink, which outlives them all.
struct StateLayout {
  std::vector<uint32_t> offsets;  ///< per-spec byte offset within a block
  size_t stride = 0;              ///< bytes per group, 8-aligned

  static StateLayout Make(const std::vector<AggOp>& ops) {
    StateLayout l;
    l.offsets.reserve(ops.size());
    size_t off = 0;
    for (AggOp op : ops) {
      l.offsets.push_back(static_cast<uint32_t>(off));
      off += StateSize(op);  // every state size is already 8-aligned
    }
    l.stride = off;
    return l;
  }
};

/// Folds `src` into `dst` (both pointers to the same op's state struct);
/// the merge-side counterpart of the consume switch.
void MergeSpecState(AggOp op, uint8_t* dst, const uint8_t* src) {
  switch (op) {
    case AggOp::kCountStar:
    case AggOp::kCountArg:
      reinterpret_cast<CountState*>(dst)->count +=
          reinterpret_cast<const CountState*>(src)->count;
      break;
    case AggOp::kSumInt: {
      auto* d = reinterpret_cast<SumIntState*>(dst);
      const auto* s = reinterpret_cast<const SumIntState*>(src);
      d->count += s->count;
      d->isum += s->isum;
      break;
    }
    case AggOp::kSumDouble:
    case AggOp::kAvg: {
      auto* d = reinterpret_cast<SumDoubleState*>(dst);
      const auto* s = reinterpret_cast<const SumDoubleState*>(src);
      d->count += s->count;
      d->sum += s->sum;
      break;
    }
    case AggOp::kMinInt:
    case AggOp::kMaxInt: {
      auto* d = reinterpret_cast<MinMaxIntState*>(dst);
      const auto* s = reinterpret_cast<const MinMaxIntState*>(src);
      if (s->count == 0) break;
      if (d->count == 0 || (op == AggOp::kMinInt ? s->ival < d->ival
                                                 : s->ival > d->ival)) {
        d->ival = s->ival;
      }
      d->count += s->count;
      break;
    }
    case AggOp::kMinDouble:
    case AggOp::kMaxDouble: {
      auto* d = reinterpret_cast<MinMaxDoubleState*>(dst);
      const auto* s = reinterpret_cast<const MinMaxDoubleState*>(src);
      if (s->count == 0) break;
      const int c = CompareDoubles(s->val, d->val);
      if (d->count == 0 || (op == AggOp::kMinDouble ? c < 0 : c > 0)) {
        d->val = s->val;
      }
      d->count += s->count;
      break;
    }
    case AggOp::kVar: {
      auto* d = reinterpret_cast<VarState*>(dst);
      const auto* s = reinterpret_cast<const VarState*>(src);
      d->count += s->count;
      d->sum += s->sum;
      d->sumsq += s->sumsq;
      break;
    }
  }
}

AggOp ClassifyAggOp(const AggregateSpec& spec) {
  if (spec.function == "count") {
    return spec.arg_index < 0 ? AggOp::kCountStar : AggOp::kCountArg;
  }
  const bool int_result = spec.result_type == DataType::kBigInt;
  if (spec.function == "sum") {
    return int_result ? AggOp::kSumInt : AggOp::kSumDouble;
  }
  if (spec.function == "avg") return AggOp::kAvg;
  if (spec.function == "min") {
    return int_result ? AggOp::kMinInt : AggOp::kMinDouble;
  }
  if (spec.function == "max") {
    return int_result ? AggOp::kMaxInt : AggOp::kMaxDouble;
  }
  // The binder admits only the functions above (AggregateFunctions() in
  // expr/type_inference.cc).
  SODA_DCHECK(spec.function == "var" || spec.function == "stddev");
  return AggOp::kVar;
}

/// Per-worker (and per-merge-partition) grouping state. The group index is
/// an open-addressing slot array over the columnar MixHash values: the
/// avalanche hash supplies well-distributed bucket bits directly, so a
/// lookup is a masked index plus linear probing — no modulo-prime division
/// and no node/chain pointer chases like the previous
/// `unordered_map<hash, vector<group>>` index paid on every input row. The
/// stored per-group hash (also needed by the radix merge) doubles as a
/// cheap pre-filter so full key comparison only runs on a 64-bit hash
/// match.
struct GroupTable {
  static constexpr size_t kInitialSlots = 1024;  // power of two
  /// High half of a slot word: the key hash's top 32 bits, compared before
  /// touching the group's key row. The probe loop stays within the slot
  /// array on a miss — no dependent load into `hashes` per candidate.
  static constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ull;

  GroupTable(const Schema& key_schema, const StateLayout* layout)
      : keys("keys", key_schema), layout(layout) {
    slots.assign(kInitialSlots, 0);
    i64_keys = true;
    for (size_t c = 0; c < key_schema.num_fields(); ++c) {
      const DataType t = key_schema.field(c).type;
      if (t != DataType::kBigInt && t != DataType::kBool) i64_keys = false;
      key_cols.push_back(&keys.column(c));
    }
    RefreshKeyCells();
  }

  Table keys;  ///< one row per group: the group-by column values
  /// Packed accumulator blocks, group-major: group g's state for spec s
  /// lives at `states[g * layout->stride + layout->offsets[s]]`.
  std::vector<uint8_t> states;
  std::vector<uint64_t> hashes;  ///< per-group combined key hash (radix merge)
  /// Open addressing: `(hash & kTagMask) | (group id + 1)`, 0 = empty. The
  /// inline tag makes a probe a single load; the full key row is only read
  /// on a 32-bit tag match (the key comparison stays authoritative, so a
  /// tag collision just falls through to the next candidate).
  std::vector<uint64_t> slots;
  std::vector<Column*> key_cols;  ///< cached &keys.column(c)
  /// Raw views of `key_cols` when `i64_keys`, refreshed whenever a group
  /// is added (an append may move the payload arrays).
  std::vector<I64KeyCells> key_cells;
  /// Per-chunk scratch reused across Consume calls — a GROUP BY over N
  /// chunks would otherwise pay N heap round-trips per buffer.
  std::vector<uint64_t> hash_scratch;
  std::vector<uint32_t> group_scratch;
  std::vector<const Column*> col_scratch;
  std::vector<I64KeyCells> cell_scratch;

  const StateLayout* layout;
  /// Every key column is i64-backed (BIGINT/BOOL): the key compare is
  /// I64KeysEqual over raw arrays instead of GroupCellsEqual per cell.
  bool i64_keys;

  /// Number of groups; robust for the zero-spec (SELECT DISTINCT) case
  /// where the state blocks are empty.
  size_t NumGroups() const {
    return layout->stride ? states.size() / layout->stride : keys.num_rows();
  }

  void RefreshKeyCells() {
    if (!i64_keys) return;
    key_cells.resize(key_cols.size());
    for (size_t c = 0; c < key_cols.size(); ++c) {
      key_cells[c] = I64KeyCells::Of(*key_cols[c]);
    }
  }

  /// Doubles the slot array and reinserts every group from its stored
  /// hash; keys never need rehashing.
  void GrowSlots() {
    std::vector<uint64_t> next(slots.size() * 2, 0);
    const size_t mask = next.size() - 1;
    for (uint32_t g = 0; g < static_cast<uint32_t>(hashes.size()); ++g) {
      size_t pos = hashes[g] & mask;
      while (next[pos] != 0) pos = (pos + 1) & mask;
      next[pos] = (hashes[g] & kTagMask) | (g + 1);
    }
    slots = std::move(next);
  }

  /// Finds or creates the group whose keys equal row `row` of `cols`;
  /// returns its id. `cells` are the raw views of `cols` when `i64_keys`.
  /// `hash` must be the HashRows-combined key hash of the row.
  uint32_t FindOrCreate(uint64_t hash, const std::vector<const Column*>& cols,
                        const I64KeyCells* cells, size_t row) {
    const size_t mask = slots.size() - 1;
    size_t pos = hash & mask;
    const uint64_t tag = hash & kTagMask;
    for (;;) {
      const uint64_t slot = slots[pos];
      if (slot == 0) break;
      if ((slot & kTagMask) == tag) {
        const uint32_t g = static_cast<uint32_t>(slot) - 1;
        bool equal;
        if (i64_keys) {
          equal = I64KeysEqual(cells, row, key_cells.data(), g, cols.size());
        } else {
          equal = true;
          for (size_t c = 0; c < cols.size() && equal; ++c) {
            equal = GroupCellsEqual(*cols[c], row, *key_cols[c], g);
          }
        }
        if (equal) return g;
      }
      pos = (pos + 1) & mask;
    }
    const uint32_t g = static_cast<uint32_t>(NumGroups());
    for (size_t c = 0; c < cols.size(); ++c) {
      key_cols[c]->AppendFrom(*cols[c], row);
    }
    RefreshKeyCells();
    states.resize(states.size() + layout->stride);  // zero = empty states
    hashes.push_back(hash);
    slots[pos] = tag | (g + 1);
    // Keep the load factor at or below 1/2 so probe sequences stay short.
    if (hashes.size() * 2 >= slots.size()) GrowSlots();
    return g;
  }

  /// Resolves the group id of every row [0, n) of `cols` into `groups`.
  void ResolveGroups(const std::vector<const Column*>& cols,
                     const I64KeyCells* cells, const uint64_t* row_hashes,
                     size_t n, uint32_t* groups) {
    // With G groups >> cache, the slot load is a near-guaranteed miss; the
    // chunk's hashes are known up front, so issue the load a few rows
    // early.
    // analyze:allow(guard-probe: n is one morsel chunk; ParallelFor probes exec.morsel)
    for (size_t row = 0; row < n; ++row) {
      if (row + kPrefetchAhead < n) {
        __builtin_prefetch(
            &slots[row_hashes[row + kPrefetchAhead] & (slots.size() - 1)]);
      }
      groups[row] = FindOrCreate(row_hashes[row], cols, cells, row);
    }
  }

  /// Rows ahead whose slot (phase 1) or state block (phase 2) the consume
  /// loops prefetch.
  static constexpr size_t kPrefetchAhead = 8;
};

/// One spec's states over one chunk: the spec's byte offset into each
/// row's group block, the rows' group ids and the argument's validity
/// (null: every row counts).
struct SpecStates {
  uint8_t* base;  ///< group 0's block plus the spec's offset
  size_t stride;
  const uint32_t* groups;
  size_t n;
  const uint8_t* valid;

  /// Applies `update(state, row)` to each row's `State`, in row order,
  /// skipping rows whose argument is NULL (aggregates skip NULLs).
  /// Prefetches the block a few rows ahead: at large group counts those
  /// are the misses that dominate the consume loop.
  template <typename State, typename Update>
  void Apply(Update update) const {
    if (valid == nullptr) {
      ForEachRow<State>(update, [](size_t) { return true; });
    } else {
      const uint8_t* v = valid;
      ForEachRow<State>(update, [v](size_t row) { return v[row] != 0; });
    }
  }

 private:
  template <typename State, typename Update, typename Counts>
  void ForEachRow(Update update, Counts counts) const {
    constexpr size_t kAhead = GroupTable::kPrefetchAhead;
    // analyze:allow(guard-probe: n is one morsel chunk; ParallelFor probes exec.morsel)
    for (size_t row = 0; row < n; ++row) {
      if (row + kAhead < n) {
        __builtin_prefetch(base + groups[row + kAhead] * stride);
      }
      if (counts(row)) {
        update(*reinterpret_cast<State*>(base + groups[row] * stride), row);
      }
    }
  }
};

/// Calls `fn(read)` with a typed `read(row)` returning the numeric value
/// of `arg` at `row` as a double, whether its payload is DOUBLE or
/// BIGINT/BOOL.
template <typename Fn>
void WithNumericReader(const Column& arg, Fn fn) {
  if (arg.type() == DataType::kDouble) {
    const double* x = arg.F64Data();
    fn([x](size_t row) { return x[row]; });
  } else {
    const int64_t* x = arg.I64Data();
    fn([x](size_t row) { return static_cast<double>(x[row]); });
  }
}

class AggregateSink : public TableSink {
 public:
  AggregateSink(const PlanNode& plan, Schema key_schema)
      : plan_(plan), key_schema_(std::move(key_schema)) {
    workers_.resize(NumWorkers());
    ops_.reserve(plan_.aggregates.size());
    for (const auto& spec : plan_.aggregates) {
      ops_.push_back(ClassifyAggOp(spec));
    }
    layout_ = StateLayout::Make(ops_);
  }

  Status Consume(DataChunk& chunk, const SinkContext& sctx) override {
    auto& local = workers_[sctx.worker_id];
    if (!local) {
      local = std::make_unique<GroupTable>(key_schema_, &layout_);
    }
    const size_t g_cols = plan_.num_group_cols;
    const size_t n = chunk.num_rows();
    std::vector<const Column*>& key_cols = local->col_scratch;
    std::vector<I64KeyCells>& cells = local->cell_scratch;
    key_cols.resize(g_cols);
    for (size_t c = 0; c < g_cols; ++c) key_cols[c] = &chunk.column(c);
    if (local->i64_keys) {
      cells.resize(g_cols);
      for (size_t c = 0; c < g_cols; ++c) {
        cells[c] = I64KeyCells::Of(chunk.column(c));
      }
    }

    // Hash the whole chunk's keys up front with the columnar kernels (no
    // key columns, a global aggregate: every row hashes to kHashSeed).
    std::vector<uint64_t>& hashes = local->hash_scratch;
    hashes.resize(n);
    HashRows(key_cols, 0, n, hashes.data());

    // Phase 1 — resolve every row's group id in one tight probe loop.
    std::vector<uint32_t>& groups = local->group_scratch;
    groups.resize(n);
    local->ResolveGroups(key_cols, cells.data(), hashes.data(), n,
                         groups.data());

    // Phase 2 — one typed loop per spec over the rows, in row order, so
    // each group's state folds its rows in the order they arrived. The
    // rows of one chunk touch at most n blocks, which the first spec's
    // loop brings into cache for the others.
    for (size_t s = 0; s < plan_.aggregates.size(); ++s) {
      SpecStates st{local->states.data() + layout_.offsets[s], layout_.stride,
                    groups.data(), n, nullptr};
      if (ops_[s] == AggOp::kCountStar) {
        st.Apply<CountState>([](CountState& c, size_t) { c.count++; });
        continue;
      }
      const Column& arg =
          chunk.column(static_cast<size_t>(plan_.aggregates[s].arg_index));
      if (!arg.Validity().empty()) st.valid = arg.Validity().data();
      // A varchar argument degrades any op to a non-NULL count: only
      // count() is bound for varchar, but the check is per column.
      const AggOp op =
          arg.type() == DataType::kVarchar ? AggOp::kCountArg : ops_[s];
      switch (op) {
        case AggOp::kCountStar:
        case AggOp::kCountArg:
          st.Apply<CountState>([](CountState& c, size_t) { c.count++; });
          break;
        case AggOp::kSumInt: {
          const int64_t* x = arg.I64Data();
          st.Apply<SumIntState>([x](SumIntState& a, size_t row) {
            a.isum += x[row];
            a.count++;
          });
          break;
        }
        case AggOp::kMinInt: {
          const int64_t* x = arg.I64Data();
          st.Apply<MinMaxIntState>([x](MinMaxIntState& a, size_t row) {
            if (a.count == 0 || x[row] < a.ival) a.ival = x[row];
            a.count++;
          });
          break;
        }
        case AggOp::kMaxInt: {
          const int64_t* x = arg.I64Data();
          st.Apply<MinMaxIntState>([x](MinMaxIntState& a, size_t row) {
            if (a.count == 0 || x[row] > a.ival) a.ival = x[row];
            a.count++;
          });
          break;
        }
        case AggOp::kSumDouble:
        case AggOp::kAvg:
          WithNumericReader(arg, [&st](auto x) {
            st.Apply<SumDoubleState>([x](SumDoubleState& a, size_t row) {
              a.sum += x(row);
              a.count++;
            });
          });
          break;
        case AggOp::kMinDouble:
          WithNumericReader(arg, [&st](auto x) {
            st.Apply<MinMaxDoubleState>(
                [x](MinMaxDoubleState& a, size_t row) {
                  const double v = x(row);
                  if (a.count == 0 || CompareDoubles(v, a.val) < 0) a.val = v;
                  a.count++;
                });
          });
          break;
        case AggOp::kMaxDouble:
          WithNumericReader(arg, [&st](auto x) {
            st.Apply<MinMaxDoubleState>(
                [x](MinMaxDoubleState& a, size_t row) {
                  const double v = x(row);
                  if (a.count == 0 || CompareDoubles(v, a.val) > 0) a.val = v;
                  a.count++;
                });
          });
          break;
        case AggOp::kVar:
          WithNumericReader(arg, [&st](auto x) {
            st.Apply<VarState>([x](VarState& a, size_t row) {
              const double v = x(row);
              a.sum += v;
              a.sumsq += v * v;
              a.count++;
            });
          });
          break;
      }
    }
    return Status::OK();
  }

  Status Finalize() override {
    QueryGuard* guard = QueryGuard::Current();
    SODA_RETURN_NOT_OK(GuardProbe(guard, kAggMergeSite));

    std::vector<std::unique_ptr<GroupTable>> locals;
    for (auto& w : workers_) {
      if (w) locals.push_back(std::move(w));
    }
    workers_.clear();
    const size_t num_specs = plan_.aggregates.size();

    // Phase 1 — merge. One producer adopts its table outright; several
    // merge in parallel by hash radix: partition p is owned by exactly one
    // worker, which folds every local's partition-p groups into a fresh
    // fragment (no locks — partitions are disjoint by construction).
    std::vector<std::unique_ptr<GroupTable>> fragments;
    if (locals.size() <= 1) {
      std::unique_ptr<GroupTable> merged =
          locals.empty()
              ? std::make_unique<GroupTable>(key_schema_, &layout_)
              : std::move(locals[0]);
      fragments.push_back(std::move(merged));
    } else {
      const size_t P = std::bit_ceil(
          std::min<size_t>(64, std::max<size_t>(2, NumWorkers())));
      // Bucket every local's groups by partition once, up front.
      std::vector<std::vector<std::vector<uint32_t>>> buckets(locals.size());
      for (size_t l = 0; l < locals.size(); ++l) {
        buckets[l].resize(P);
        const std::vector<uint64_t>& hashes = locals[l]->hashes;
        for (uint32_t g = 0; g < locals[l]->NumGroups(); ++g) {
          buckets[l][hashes[g] & (P - 1)].push_back(g);
        }
      }
      fragments.resize(P);
      FirstError first_error;
      Status par = ParallelFor(
          guard, P,
          [&](size_t begin, size_t end, size_t) {
            for (size_t p = begin; p < end; ++p) {
              if (first_error.failed()) return;
              Status st = GuardProbe(guard, kAggMergeSite);
              if (!st.ok()) {
                first_error.Record(std::move(st));
                return;
              }
              auto frag = std::make_unique<GroupTable>(key_schema_, &layout_);
              for (size_t l = 0; l < locals.size(); ++l) {
                GroupTable& w = *locals[l];
                std::vector<const Column*> cols(w.keys.num_columns());
                for (size_t c = 0; c < cols.size(); ++c) {
                  cols[c] = &w.keys.column(c);
                }
                for (uint32_t g : buckets[l][p]) {
                  const uint32_t target = frag->FindOrCreate(
                      w.hashes[g], cols, w.key_cells.data(), g);
                  uint8_t* dst = frag->states.data() + target * layout_.stride;
                  const uint8_t* src = w.states.data() + g * layout_.stride;
                  for (size_t s = 0; s < num_specs; ++s) {
                    MergeSpecState(ops_[s], dst + layout_.offsets[s],
                                   src + layout_.offsets[s]);
                  }
                }
              }
              fragments[p] = std::move(frag);
            }
          },
          /*morsel_size=*/1);
      SODA_RETURN_NOT_OK(first_error.Take());
      SODA_RETURN_NOT_OK(par);
      locals.clear();
    }

    // A global aggregate (no GROUP BY) over empty input still yields one
    // row of "empty" aggregates.
    size_t total_groups = 0;
    for (const auto& f : fragments) {
      if (f) total_groups += f->NumGroups();
    }
    if (plan_.num_group_cols == 0 && total_groups == 0) {
      fragments[0]->states.resize(layout_.stride);
      total_groups = fragments[0]->NumGroups();
    }

    // Phase 2 — materialize, one output fragment per merge fragment
    // (parallel), then splice the fragments together with bulk column
    // appends. Charge the result relation before building it.
    size_t result_bytes = 0;
    for (const auto& f : fragments) {
      if (!f) continue;
      result_bytes += f->keys.MemoryUsage() +
                      f->NumGroups() * num_specs * sizeof(int64_t);
    }
    SODA_RETURN_NOT_OK(GuardReserve(guard, result_bytes, kAggMergeSite));

    std::vector<Table> outputs(fragments.size());
    SODA_RETURN_NOT_OK(ParallelFor(
        guard, fragments.size(),
        [&](size_t begin, size_t end, size_t) {
          for (size_t p = begin; p < end; ++p) {
            if (fragments[p]) MaterializeFragment(*fragments[p], &outputs[p]);
          }
        },
        /*morsel_size=*/1));

    // Single fragment (serial pipelines, one producing worker): adopt it
    // as the result instead of re-copying through the splice below.
    size_t nonempty = 0;
    for (const auto& out : outputs) {
      if (out.num_columns() > 0) ++nonempty;
    }
    if (nonempty == 1) {
      for (auto& out : outputs) {
        if (out.num_columns() > 0) {
          result_ = std::make_shared<Table>(std::move(out));
          return Status::OK();
        }
      }
    }
    result_ = std::make_shared<Table>("aggregate", plan_.schema);
    result_->Reserve(total_groups);
    for (const auto& out : outputs) {
      if (out.num_columns() == 0) continue;
      for (size_t c = 0; c < result_->num_columns(); ++c) {
        result_->column(c).AppendSlice(out.column(c), 0, out.num_rows());
      }
    }
    return Status::OK();
  }

  std::string name() const override {
    std::string s = "Aggregate groups=" + std::to_string(plan_.num_group_cols);
    s += " [";
    for (size_t i = 0; i < plan_.aggregates.size(); ++i) {
      if (i) s += ", ";
      const AggregateSpec& spec = plan_.aggregates[i];
      s += spec.function + "(" +
           (spec.arg_index < 0 ? "*" : "#" + std::to_string(spec.arg_index)) +
           ")";
    }
    return s + "]";
  }

  TablePtr result() const override { return result_; }

 private:
  /// Renders one merged fragment into an output table shaped like the
  /// aggregate's schema: keys are spliced column-wise (AppendSlice, not
  /// row-at-a-time AppendFrom), aggregate columns are computed one column
  /// at a time over the packed states.
  void MaterializeFragment(const GroupTable& frag, Table* out) const {
    const size_t groups = frag.NumGroups();
    *out = Table("aggregate.fragment", plan_.schema);
    out->Reserve(groups);
    for (size_t c = 0; c < plan_.num_group_cols; ++c) {
      out->column(c).AppendSlice(frag.keys.column(c), 0, groups);
    }
    const size_t num_specs = plan_.aggregates.size();
    const size_t stride = layout_.stride;
    for (size_t s = 0; s < num_specs; ++s) {
      const AggregateSpec& spec = plan_.aggregates[s];
      const AggOp op = ops_[s];
      Column& col = out->column(plan_.num_group_cols + s);
      const uint8_t* base = frag.states.data() + layout_.offsets[s];
      for (size_t g = 0; g < groups; ++g) {
        const uint8_t* st = base + g * stride;
        // Every state struct leads with `count`.
        const int64_t count =
            reinterpret_cast<const CountState*>(st)->count;
        if (op == AggOp::kCountStar || op == AggOp::kCountArg) {
          col.AppendBigInt(count);
          continue;
        }
        if (count == 0) {
          col.AppendNull();
          continue;
        }
        switch (op) {
          case AggOp::kSumInt:
            // BIGINT sum/min/max report the exactly-tracked integers;
            // doubles beyond 2^53 would round (satellite fix, ISSUE 4).
            col.AppendBigInt(
                reinterpret_cast<const SumIntState*>(st)->isum);
            break;
          case AggOp::kSumDouble:
            col.AppendDouble(
                reinterpret_cast<const SumDoubleState*>(st)->sum);
            break;
          case AggOp::kAvg:
            col.AppendDouble(
                reinterpret_cast<const SumDoubleState*>(st)->sum /
                static_cast<double>(count));
            break;
          case AggOp::kMinInt:
          case AggOp::kMaxInt:
            col.AppendBigInt(
                reinterpret_cast<const MinMaxIntState*>(st)->ival);
            break;
          case AggOp::kMinDouble:
          case AggOp::kMaxDouble:
            col.AppendDouble(
                reinterpret_cast<const MinMaxDoubleState*>(st)->val);
            break;
          case AggOp::kVar: {
            if (count < 2) {
              col.AppendNull();
              break;
            }
            const auto* vs = reinterpret_cast<const VarState*>(st);
            double n = static_cast<double>(count);
            double var = (vs->sumsq - vs->sum * vs->sum / n) / (n - 1);
            if (var < 0) var = 0;  // numeric noise
            col.AppendDouble(spec.function == "var" ? var : std::sqrt(var));
            break;
          }
          case AggOp::kCountStar:
          case AggOp::kCountArg:
            break;  // handled above
        }
      }
    }
  }

  const PlanNode& plan_;
  Schema key_schema_;
  std::vector<AggOp> ops_;  ///< per-spec update kind, classified once
  StateLayout layout_;      ///< packed state layout shared by all tables
  std::vector<std::unique_ptr<GroupTable>> workers_;
  TablePtr result_;
};

}  // namespace

std::shared_ptr<TableSink> MakeAggregateSink(const PlanNode& plan) {
  std::vector<Field> key_fields(
      plan.children[0]->schema.fields().begin(),
      plan.children[0]->schema.fields().begin() + plan.num_group_cols);
  return std::make_shared<AggregateSink>(plan, Schema(std::move(key_fields)));
}

}  // namespace soda
