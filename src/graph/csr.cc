#include "graph/csr.h"

#include <limits>

#include "util/mix_hash.h"

namespace soda {

namespace {

/// Dense relabeling of int64 vertex ids: an open-addressing table mapping
/// an original id to its dense id, with linear probing over a power-of-two
/// slot array that doubles at half load. Dense ids are handed out in
/// first-appearance order and recorded in `original_ids` (the reverse
/// mapping), which is also what a resize re-inserts from.
class IdRelabeler {
 public:
  explicit IdRelabeler(std::vector<int64_t>* original_ids)
      : original_ids_(original_ids) {
    Resize(kInitialSlots);
  }

  uint32_t Intern(int64_t id) {
    size_t i = MixHash(static_cast<uint64_t>(id)) & mask_;
    for (; slots_[i].dense != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return slots_[i].dense;
    }
    const auto dense = static_cast<uint32_t>(original_ids_->size());
    original_ids_->push_back(id);
    slots_[i] = {id, dense};
    if (2 * original_ids_->size() > slots_.size()) Resize(2 * slots_.size());
    return dense;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kInitialSlots = 1024;

  struct Slot {
    int64_t id;
    uint32_t dense;
  };

  void Resize(size_t slots) {
    slots_.assign(slots, Slot{0, kEmpty});
    mask_ = slots - 1;
    for (size_t v = 0; v < original_ids_->size(); ++v) {
      const int64_t id = (*original_ids_)[v];
      size_t i = MixHash(static_cast<uint64_t>(id)) & mask_;
      while (slots_[i].dense != kEmpty) i = (i + 1) & mask_;
      slots_[i] = {id, static_cast<uint32_t>(v)};
    }
  }

  std::vector<int64_t>* original_ids_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace

Result<CsrGraph> CsrBuilder::Build(std::span<const int64_t> src,
                                   std::span<const int64_t> dst,
                                   std::span<const double> weights) {
  return BuildImpl(src, dst, weights, /*undirected=*/false);
}

Result<CsrGraph> CsrBuilder::BuildUndirected(std::span<const int64_t> src,
                                             std::span<const int64_t> dst) {
  return BuildImpl(src, dst, {}, /*undirected=*/true);
}

Result<CsrGraph> CsrBuilder::BuildImpl(std::span<const int64_t> src,
                                       std::span<const int64_t> dst,
                                       std::span<const double> weights,
                                       bool undirected) {
  if (src.size() != dst.size()) {
    return Status::InvalidArgument("edge list arity mismatch");
  }
  if (!weights.empty() && weights.size() != src.size()) {
    return Status::InvalidArgument("edge weight arity mismatch");
  }
  const size_t e = src.size();
  // Dense ids are uint32 with one value reserved as the empty-slot marker;
  // 2e bounds the number of distinct endpoints.
  if (e >= std::numeric_limits<uint32_t>::max() / 2) {
    return Status::InvalidArgument("edge list too large for 32-bit vertex ids");
  }

  // Pass 1: relabel both endpoints of every edge, in edge order.
  CsrGraph g;
  std::vector<uint32_t> s(e), d(e);
  {
    IdRelabeler relabel(&g.original_ids_);
    for (size_t i = 0; i < e; ++i) {
      s[i] = relabel.Intern(src[i]);
      d[i] = relabel.Intern(dst[i]);
    }
  }
  const size_t v = g.original_ids_.size();

  // Pass 2: out-degrees, prefix-summed into offsets.
  g.offsets_.assign(v + 1, 0);
  for (size_t i = 0; i < e; ++i) ++g.offsets_[s[i] + 1];
  if (undirected) {
    for (size_t i = 0; i < e; ++i) ++g.offsets_[d[i] + 1];
  }
  for (size_t i = 0; i < v; ++i) g.offsets_[i + 1] += g.offsets_[i];

  // Pass 3: scatter in edge order, so each neighbour list keeps it.
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  g.targets_.resize(undirected ? 2 * e : e);
  if (undirected) {
    for (size_t i = 0; i < e; ++i) {
      g.targets_[cursor[s[i]]++] = d[i];
      g.targets_[cursor[d[i]]++] = s[i];
    }
  } else if (weights.empty()) {
    for (size_t i = 0; i < e; ++i) g.targets_[cursor[s[i]]++] = d[i];
  } else {
    g.weights_.resize(e);
    for (size_t i = 0; i < e; ++i) {
      const uint64_t slot = cursor[s[i]]++;
      g.targets_[slot] = d[i];
      g.weights_[slot] = weights[i];
    }
  }
  return g;
}

}  // namespace soda
