#include "storage/segment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "storage/serde.h"
#include "util/crc32.h"
#include "util/query_guard.h"

namespace soda {

namespace {

/// Probe site charged with the encoded bytes of every segment built.
constexpr char kEncodeSite[] = "storage.segment_encode";

/// Dictionary encoding gives up past this many distinct strings per
/// segment — the dictionary itself would dominate the payload.
constexpr size_t kDictMaxEntries = 4096;

/// RLE pays off when the average run is at least this long.
constexpr size_t kRleMinAvgRun = 8;

/// FOR/bit-packing is chosen only when it saves at least a quarter of the
/// raw 64-bit payload.
constexpr uint8_t kForMaxBits = 48;

// --- bit packing ---------------------------------------------------------

size_t PackedWords(size_t count, uint8_t bits) {
  return (count * bits + 63) / 64;
}

void PackBit(std::vector<uint64_t>* words, size_t index, uint8_t bits,
             uint64_t value) {
  if (bits == 0) return;
  const size_t bit_pos = index * bits;
  const size_t word = bit_pos / 64;
  const size_t shift = bit_pos % 64;
  (*words)[word] |= value << shift;
  if (shift + bits > 64) {
    (*words)[word + 1] |= value >> (64 - shift);
  }
}

uint64_t UnpackBit(const std::vector<uint64_t>& words, size_t index,
                   uint8_t bits) {
  if (bits == 0) return 0;
  const size_t bit_pos = index * bits;
  const size_t word = bit_pos / 64;
  const size_t shift = bit_pos % 64;
  uint64_t v = words[word] >> shift;
  if (shift + bits > 64) {
    v |= words[word + 1] << (64 - shift);
  }
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  return v & mask;
}

uint8_t BitsFor(uint64_t range) {
  uint8_t bits = 0;
  while (range != 0) {
    ++bits;
    range >>= 1;
  }
  return bits;
}

// --- validity bitmap -----------------------------------------------------

bool ValidBit(const std::vector<uint64_t>& bitmap, size_t i) {
  return bitmap.empty() || ((bitmap[i / 64] >> (i % 64)) & 1) != 0;
}

/// Converts the flat column's byte-validity over [offset, offset+count)
/// into a word bitmap; returns an empty bitmap when all rows are valid.
std::vector<uint64_t> BuildValidity(const Column& src, size_t offset,
                                    size_t count, uint64_t* null_count) {
  *null_count = 0;
  const auto& bytes = src.Validity();
  if (bytes.empty()) return {};
  std::vector<uint64_t> bitmap((count + 63) / 64, 0);
  bool any_null = false;
  for (size_t i = 0; i < count; ++i) {
    if (bytes[offset + i] != 0) {
      bitmap[i / 64] |= uint64_t{1} << (i % 64);
    } else {
      any_null = true;
      ++*null_count;
    }
  }
  if (!any_null) return {};
  return bitmap;
}

// --- encoding ------------------------------------------------------------

void ComputeNumericStats(const Column& src, size_t offset, size_t count,
                         Segment* seg) {
  SegmentStats& st = seg->stats;
  for (size_t i = 0; i < count; ++i) {
    if (src.IsNull(offset + i)) continue;
    if (src.type() == DataType::kDouble) {
      double v = src.GetDouble(offset + i);
      if (std::isnan(v)) continue;  // has_nan comes from the payload
      if (!st.has_minmax) {
        st.min_f64 = st.max_f64 = v;
        st.has_minmax = true;
      } else {
        st.min_f64 = std::min(st.min_f64, v);
        st.max_f64 = std::max(st.max_f64, v);
      }
    } else {
      int64_t v = src.GetBigInt(offset + i);
      if (!st.has_minmax) {
        st.min_i64 = st.max_i64 = v;
        st.has_minmax = true;
      } else {
        st.min_i64 = std::min(st.min_i64, v);
        st.max_i64 = std::max(st.max_i64, v);
      }
    }
  }
}

/// Sets stats.has_nan from a DOUBLE segment's payload (NULL rows hold 0).
void NoteNaN(Segment* seg) {
  seg->stats.has_nan =
      std::any_of(seg->f64.begin(), seg->f64.end(),
                  [](double v) { return std::isnan(v); });
}

/// Counts payload runs (null rows participate with their zero payload, so
/// a run may span the null/non-null boundary; validity disambiguates).
template <typename Get>
size_t CountRuns(size_t count, Get get) {
  if (count == 0) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < count; ++i) {
    if (get(i) != get(i - 1)) ++runs;
  }
  return runs;
}

void EncodeI64(const Column& src, size_t offset, size_t count, Segment* seg) {
  auto raw = [&](size_t i) {
    return src.IsNull(offset + i) ? int64_t{0} : src.GetBigInt(offset + i);
  };
  const size_t runs = CountRuns(count, raw);
  if (runs > 0 && count / runs >= kRleMinAvgRun) {
    seg->encoding = SegmentEncoding::kRle;
    seg->i64.reserve(runs);
    seg->run_ends.reserve(runs);
    for (size_t i = 0; i < count; ++i) {
      if (i == 0 || raw(i) != raw(i - 1)) {
        seg->i64.push_back(raw(i));
        seg->run_ends.push_back(static_cast<uint32_t>(i + 1));
      } else {
        seg->run_ends.back() = static_cast<uint32_t>(i + 1);
      }
    }
    return;
  }
  if (seg->stats.has_minmax) {
    // Null payloads are forced to 0 above, but 0 may lie outside
    // [min, max]; widen the frame so every stored delta is in range.
    int64_t lo = seg->stats.min_i64;
    if (seg->stats.null_count > 0) lo = std::min(lo, int64_t{0});
    int64_t hi = seg->stats.max_i64;
    if (seg->stats.null_count > 0) hi = std::max(hi, int64_t{0});
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const uint8_t bits = BitsFor(range);
    if (bits <= kForMaxBits) {
      seg->encoding = SegmentEncoding::kFor;
      seg->frame = lo;
      seg->bit_width = bits;
      seg->packed.assign(PackedWords(count, bits), 0);
      for (size_t i = 0; i < count; ++i) {
        PackBit(&seg->packed, i, bits,
                static_cast<uint64_t>(raw(i)) - static_cast<uint64_t>(lo));
      }
      return;
    }
  }
  seg->encoding = SegmentEncoding::kPlain;
  seg->i64.reserve(count);
  for (size_t i = 0; i < count; ++i) seg->i64.push_back(raw(i));
}

void EncodeF64(const Column& src, size_t offset, size_t count, Segment* seg) {
  auto raw = [&](size_t i) {
    return src.IsNull(offset + i) ? 0.0 : src.GetDouble(offset + i);
  };
  const size_t runs = CountRuns(count, raw);
  if (runs > 0 && count / runs >= kRleMinAvgRun) {
    seg->encoding = SegmentEncoding::kRle;
    for (size_t i = 0; i < count; ++i) {
      if (i == 0 || raw(i) != raw(i - 1)) {
        seg->f64.push_back(raw(i));
        seg->run_ends.push_back(static_cast<uint32_t>(i + 1));
      } else {
        seg->run_ends.back() = static_cast<uint32_t>(i + 1);
      }
    }
    return;
  }
  seg->encoding = SegmentEncoding::kPlain;
  seg->f64.reserve(count);
  for (size_t i = 0; i < count; ++i) seg->f64.push_back(raw(i));
}

void EncodeVarchar(const Column& src, size_t offset, size_t count,
                   Segment* seg) {
  const auto& strings = src.Strings();
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<uint32_t> codes;
  codes.reserve(count);
  bool dict_ok = true;
  for (size_t i = 0; i < count; ++i) {
    std::string_view s = src.IsNull(offset + i)
                             ? std::string_view{}
                             : std::string_view(strings[offset + i]);
    auto [it, inserted] =
        dict.try_emplace(s, static_cast<uint32_t>(dict.size()));
    if (inserted && dict.size() > kDictMaxEntries) {
      dict_ok = false;
      break;
    }
    codes.push_back(it->second);
  }
  if (dict_ok) {
    seg->encoding = SegmentEncoding::kDict;
    seg->strs.resize(dict.size());
    for (const auto& [s, code] : dict) seg->strs[code] = std::string(s);
    seg->stats.distinct = dict.size();
    const uint8_t bits =
        dict.size() <= 1 ? 0 : BitsFor(dict.size() - 1);
    seg->bit_width = bits;
    seg->packed.assign(PackedWords(count, bits), 0);
    for (size_t i = 0; i < count; ++i) {
      PackBit(&seg->packed, i, bits, codes[i]);
    }
    return;
  }
  seg->encoding = SegmentEncoding::kPlain;
  seg->strs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    seg->strs.push_back(src.IsNull(offset + i) ? std::string()
                                               : strings[offset + i]);
  }
}

}  // namespace

const char* SegmentEncodingToString(SegmentEncoding e) {
  switch (e) {
    case SegmentEncoding::kPlain:
      return "plain";
    case SegmentEncoding::kRle:
      return "rle";
    case SegmentEncoding::kFor:
      return "for";
    case SegmentEncoding::kDict:
      return "dict";
  }
  return "?";
}

size_t Segment::MemoryUsage() const {
  size_t bytes = sizeof(Segment);
  bytes += i64.capacity() * sizeof(int64_t);
  bytes += f64.capacity() * sizeof(double);
  bytes += run_ends.capacity() * sizeof(uint32_t);
  bytes += packed.capacity() * sizeof(uint64_t);
  bytes += validity.capacity() * sizeof(uint64_t);
  bytes += strs.capacity() * sizeof(std::string);
  for (const auto& s : strs) bytes += s.size();
  return bytes;
}

Result<SegmentPtr> EncodeSegment(const Column& src, size_t offset,
                                 size_t count) {
  auto seg = std::make_shared<Segment>();
  seg->type = src.type();
  seg->stats.row_count = count;
  seg->validity = BuildValidity(src, offset, count, &seg->stats.null_count);
  if (src.type() != DataType::kVarchar) {
    ComputeNumericStats(src, offset, count, seg.get());
  }
  switch (src.type()) {
    case DataType::kVarchar:
      EncodeVarchar(src, offset, count, seg.get());
      break;
    case DataType::kDouble:
      EncodeF64(src, offset, count, seg.get());
      NoteNaN(seg.get());
      break;
    default:
      EncodeI64(src, offset, count, seg.get());
      break;
  }
  SODA_RETURN_NOT_OK(
      GuardReserve(QueryGuard::Current(), seg->MemoryUsage(), kEncodeSite));
  seg->crc = ComputeSegmentCrc(*seg);
  return SegmentPtr(std::move(seg));
}

SegmentPtr MakePlaceholderSegment(DataType type, size_t rows) {
  auto seg = std::make_shared<Segment>();
  seg->type = type;
  seg->encoding = SegmentEncoding::kPlain;
  seg->stats.row_count = rows;
  seg->stats.null_count = rows;
  switch (type) {
    case DataType::kVarchar:
      seg->strs.assign(rows, std::string());
      break;
    case DataType::kDouble:
      seg->f64.assign(rows, 0.0);
      break;
    default:
      seg->i64.assign(rows, 0);
      break;
  }
  seg->validity.assign((rows + 63) / 64, 0);  // every row NULL
  seg->crc = ComputeSegmentCrc(*seg);
  return SegmentPtr(std::move(seg));
}

namespace {

/// Random access into an encoded segment's payload (validity handled by
/// the caller). RLE access is O(log runs); the sequential decoders below
/// never use it.
int64_t I64At(const Segment& seg, size_t i) {
  switch (seg.encoding) {
    case SegmentEncoding::kPlain:
      return seg.i64[i];
    case SegmentEncoding::kFor:
      return static_cast<int64_t>(static_cast<uint64_t>(seg.frame) +
                                  UnpackBit(seg.packed, i, seg.bit_width));
    case SegmentEncoding::kRle: {
      auto it = std::upper_bound(seg.run_ends.begin(), seg.run_ends.end(),
                                 static_cast<uint32_t>(i));
      return seg.i64[it - seg.run_ends.begin()];
    }
    default:
      return 0;
  }
}

double F64At(const Segment& seg, size_t i) {
  if (seg.encoding == SegmentEncoding::kRle) {
    auto it = std::upper_bound(seg.run_ends.begin(), seg.run_ends.end(),
                               static_cast<uint32_t>(i));
    return seg.f64[it - seg.run_ends.begin()];
  }
  return seg.f64[i];
}

const std::string& StrAt(const Segment& seg, size_t i) {
  if (seg.encoding == SegmentEncoding::kDict) {
    return seg.strs[UnpackBit(seg.packed, i, seg.bit_width)];
  }
  return seg.strs[i];
}

template <typename Emit>
void ForEachRow(const Segment& seg, size_t offset, size_t count, Emit emit) {
  const size_t end = offset + count;
  switch (seg.encoding) {
    case SegmentEncoding::kRle: {
      // Walk runs forward; find the run containing `offset` first.
      size_t run = std::upper_bound(seg.run_ends.begin(), seg.run_ends.end(),
                                    static_cast<uint32_t>(offset)) -
                   seg.run_ends.begin();
      for (size_t i = offset; i < end; ++i) {
        while (i >= seg.run_ends[run]) ++run;
        emit(i, run);
      }
      break;
    }
    default:
      for (size_t i = offset; i < end; ++i) emit(i, size_t{0});
      break;
  }
}

}  // namespace

namespace {

/// Run-wise expansion of an RLE payload: one bulk fill per run instead of
/// a binary search or run test per row.
template <typename AppendRun>
void ExpandRuns(const Segment& seg, size_t offset, size_t count,
                AppendRun append_run) {
  size_t run = std::upper_bound(seg.run_ends.begin(), seg.run_ends.end(),
                                static_cast<uint32_t>(offset)) -
               seg.run_ends.begin();
  size_t i = offset;
  const size_t end = offset + count;
  while (i < end) {
    const size_t run_end = std::min<size_t>(seg.run_ends[run], end);
    append_run(run, run_end - i);
    i = run_end;
    ++run;
  }
}

/// Dense (no-NULL) decode: bulk copies / fills / in-place unpacking —
/// the sealed-scan hot path must keep up with flat AppendSlice.
void DecodeSegmentDense(const Segment& seg, size_t offset, size_t count,
                        Column* out) {
  switch (seg.type) {
    case DataType::kVarchar:
      if (seg.encoding == SegmentEncoding::kDict) {
        for (size_t i = offset; i < offset + count; ++i) {
          out->AppendString(
              seg.strs[UnpackBit(seg.packed, i, seg.bit_width)]);
        }
      } else {
        for (size_t i = offset; i < offset + count; ++i) {
          out->AppendString(seg.strs[i]);
        }
      }
      return;
    case DataType::kDouble:
      if (seg.encoding == SegmentEncoding::kRle) {
        ExpandRuns(seg, offset, count, [&](size_t run, size_t n) {
          out->AppendRunDouble(seg.f64[run], n);
        });
      } else {
        out->AppendDoubles(seg.f64.data() + offset, count);
      }
      return;
    default:
      switch (seg.encoding) {
        case SegmentEncoding::kRle:
          ExpandRuns(seg, offset, count, [&](size_t run, size_t n) {
            out->AppendRunBigInt(seg.i64[run], n);
          });
          return;
        case SegmentEncoding::kFor: {
          // Incremental bit cursor: no per-index multiply/divide, and the
          // straddle test compiles to a predictable branch.
          int64_t* dst = out->ExtendI64(count);
          const uint64_t frame = static_cast<uint64_t>(seg.frame);
          const uint32_t bits = seg.bit_width;
          if (bits == 0) {  // constant segment: no packed words at all
            std::fill_n(dst, count, static_cast<int64_t>(frame));
            return;
          }
          const uint64_t mask =
              bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
          const uint64_t* words = seg.packed.data();
          size_t bit_pos = offset * bits;
          for (size_t k = 0; k < count; ++k, bit_pos += bits) {
            const size_t word = bit_pos >> 6;
            const uint32_t shift = bit_pos & 63;
            uint64_t v = words[word] >> shift;
            if (shift + bits > 64) v |= words[word + 1] << (64 - shift);
            dst[k] = static_cast<int64_t>(frame + (v & mask));
          }
          return;
        }
        default:
          out->AppendBigInts(seg.i64.data() + offset, count);
          return;
      }
  }
}

}  // namespace

void DecodeSegment(const Segment& seg, size_t offset, size_t count,
                   Column* out) {
  count = std::min(count, seg.row_count() - std::min(offset, seg.row_count()));
  const bool dense = seg.validity.empty();
  if (dense) {
    DecodeSegmentDense(seg, offset, count, out);
    return;
  }
  switch (seg.type) {
    case DataType::kVarchar:
      ForEachRow(seg, offset, count, [&](size_t i, size_t) {
        if (!dense && !ValidBit(seg.validity, i)) {
          out->AppendNull();
        } else {
          out->AppendString(StrAt(seg, i));
        }
      });
      break;
    case DataType::kDouble:
      ForEachRow(seg, offset, count, [&](size_t i, size_t run) {
        if (!dense && !ValidBit(seg.validity, i)) {
          out->AppendNull();
        } else if (seg.encoding == SegmentEncoding::kRle) {
          out->AppendDouble(seg.f64[run]);
        } else {
          out->AppendDouble(seg.f64[i]);
        }
      });
      break;
    default:
      ForEachRow(seg, offset, count, [&](size_t i, size_t run) {
        if (!dense && !ValidBit(seg.validity, i)) {
          out->AppendNull();
        } else if (seg.encoding == SegmentEncoding::kRle) {
          out->AppendBigInt(seg.i64[run]);
        } else {
          out->AppendBigInt(I64At(seg, i));
        }
      });
      break;
  }
}

void DecodeSegmentGather(const Segment& seg, const uint32_t* rows,
                         size_t count, Column* out) {
  for (size_t k = 0; k < count; ++k) {
    const size_t i = rows[k];
    if (!ValidBit(seg.validity, i)) {
      out->AppendNull();
      continue;
    }
    switch (seg.type) {
      case DataType::kVarchar:
        out->AppendString(StrAt(seg, i));
        break;
      case DataType::kDouble:
        out->AppendDouble(F64At(seg, i));
        break;
      default:
        out->AppendBigInt(I64At(seg, i));
        break;
    }
  }
}

// --- predicates ----------------------------------------------------------

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ScanPredicate::ToString(const std::string& column_name) const {
  return column_name + " " + CompareOpToString(op) + " " +
         constant.ToString();
}

namespace {

/// Does `v <op> c` hold, given `cmp`, the sign of a three-way compare of
/// v against c?
bool Holds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return true;
}

/// Can some v in [lo, hi] satisfy `v <op> c`? `lo_cmp` and `hi_cmp` are
/// the three-way compares of lo and hi against c.
bool RangeMayMatch(CompareOp op, int lo_cmp, int hi_cmp) {
  switch (op) {
    case CompareOp::kEq:
      return lo_cmp <= 0 && hi_cmp >= 0;
    case CompareOp::kLt:
    case CompareOp::kLe:
      return Holds(op, lo_cmp);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return Holds(op, hi_cmp);
  }
  return true;
}

int CompareI64(int64_t a, int64_t b) { return (a > b) - (a < b); }

}  // namespace

bool SegmentMayMatch(const Segment& seg, const ScanPredicate& pred) {
  if (pred.constant.is_null()) return true;  // not a pushable shape; keep
  if (seg.stats.null_count == seg.stats.row_count) {
    return false;  // comparisons never match NULL
  }
  const SegmentStats& st = seg.stats;
  if (seg.type == DataType::kDouble) {
    // Files written before NaN had an order may hold a NaN bound.
    if (!st.has_minmax || pred.constant.type() != DataType::kDouble ||
        std::isnan(st.min_f64) || std::isnan(st.max_f64)) {
      return true;
    }
    // NaN sorts after every number, so a NaN row raises the range's top.
    const double c = pred.constant.double_value();
    const double hi =
        st.has_nan ? std::numeric_limits<double>::quiet_NaN() : st.max_f64;
    return RangeMayMatch(pred.op, CompareDoubles(st.min_f64, c),
                         CompareDoubles(hi, c));
  }
  if (seg.type == DataType::kBigInt || seg.type == DataType::kBool) {
    if (!st.has_minmax || pred.constant.type() != DataType::kBigInt) {
      return true;
    }
    const int64_t c = pred.constant.bigint_value();
    return RangeMayMatch(pred.op, CompareI64(st.min_i64, c),
                         CompareI64(st.max_i64, c));
  }
  return true;  // varchar: no ordering stats in the footer
}

void SegmentMatchRows(const Segment& seg, size_t offset, size_t count,
                      const ScanPredicate& pred, std::vector<uint32_t>* sel) {
  const bool dense = seg.validity.empty();
  auto valid = [&](size_t i) { return dense || ValidBit(seg.validity, i); };
  if (seg.type == DataType::kVarchar) {
    const std::string want = pred.constant.type() == DataType::kVarchar
                                 ? pred.constant.varchar_value()
                                 : std::string();
    if (seg.encoding == SegmentEncoding::kDict) {
      // One comparison per dictionary entry, then a code scan.
      std::vector<uint8_t> hit(seg.strs.size());
      for (size_t d = 0; d < seg.strs.size(); ++d) {
        hit[d] = Holds(pred.op, seg.strs[d].compare(want)) ? 1 : 0;
      }
      for (size_t i = offset; i < offset + count; ++i) {
        if (valid(i) && hit[UnpackBit(seg.packed, i, seg.bit_width)]) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
      return;
    }
    for (size_t i = offset; i < offset + count; ++i) {
      if (valid(i) && Holds(pred.op, seg.strs[i].compare(want))) {
        sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return;
  }
  if (seg.type == DataType::kDouble) {
    const double c = pred.constant.AsDouble();
    ForEachRow(seg, offset, count, [&](size_t i, size_t run) {
      const double v =
          seg.encoding == SegmentEncoding::kRle ? seg.f64[run] : seg.f64[i];
      if (valid(i) && Holds(pred.op, CompareDoubles(v, c))) {
        sel->push_back(static_cast<uint32_t>(i));
      }
    });
    return;
  }
  const int64_t c = pred.constant.AsBigInt();
  ForEachRow(seg, offset, count, [&](size_t i, size_t run) {
    const int64_t v =
        seg.encoding == SegmentEncoding::kRle ? seg.i64[run] : I64At(seg, i);
    if (valid(i) && Holds(pred.op, CompareI64(v, c))) {
      sel->push_back(static_cast<uint32_t>(i));
    }
  });
}

// --- serde ---------------------------------------------------------------

void WriteSegment(const Segment& seg, BinaryWriter* w) {
  w->U8(static_cast<uint8_t>(seg.type));
  w->U8(static_cast<uint8_t>(seg.encoding));
  w->U64(seg.stats.row_count);
  w->U64(seg.stats.null_count);
  w->U64(seg.stats.distinct);
  w->U8(seg.stats.has_minmax ? 1 : 0);
  w->I64(seg.stats.min_i64);
  w->I64(seg.stats.max_i64);
  w->Bytes(&seg.stats.min_f64, sizeof(double));
  w->Bytes(&seg.stats.max_f64, sizeof(double));
  w->I64(seg.frame);
  w->U8(seg.bit_width);
  w->U64(seg.i64.size());
  w->Bytes(seg.i64.data(), seg.i64.size() * sizeof(int64_t));
  w->U64(seg.f64.size());
  w->Bytes(seg.f64.data(), seg.f64.size() * sizeof(double));
  w->U64(seg.run_ends.size());
  w->Bytes(seg.run_ends.data(), seg.run_ends.size() * sizeof(uint32_t));
  w->U64(seg.packed.size());
  w->Bytes(seg.packed.data(), seg.packed.size() * sizeof(uint64_t));
  w->U64(seg.validity.size());
  w->Bytes(seg.validity.data(), seg.validity.size() * sizeof(uint64_t));
  w->U64(seg.strs.size());
  for (const auto& s : seg.strs) w->Str(s);
}

uint32_t ComputeSegmentCrc(const Segment& seg) {
  BinaryWriter w;
  WriteSegment(seg, &w);
  return Crc32(w.buffer().data(), w.buffer().size());
}

namespace {

template <typename T>
Status ReadPod(BinaryReader* r, std::vector<T>* out) {
  SODA_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  if (n > r->remaining() / sizeof(T)) {
    return Status::ExecutionError("serde: truncated segment payload");
  }
  out->resize(n);
  return r->Bytes(out->data(), n * sizeof(T));
}

}  // namespace

Result<SegmentPtr> ReadSegment(BinaryReader* r) {
  auto seg = std::make_shared<Segment>();
  SODA_ASSIGN_OR_RETURN(uint8_t type_byte, r->U8());
  if (type_byte == 0 || type_byte > static_cast<uint8_t>(DataType::kVarchar)) {
    return Status::ExecutionError("serde: invalid segment type");
  }
  seg->type = static_cast<DataType>(type_byte);
  SODA_ASSIGN_OR_RETURN(uint8_t enc, r->U8());
  if (enc > static_cast<uint8_t>(SegmentEncoding::kDict)) {
    return Status::ExecutionError("serde: invalid segment encoding");
  }
  seg->encoding = static_cast<SegmentEncoding>(enc);
  SODA_ASSIGN_OR_RETURN(seg->stats.row_count, r->U64());
  SODA_ASSIGN_OR_RETURN(seg->stats.null_count, r->U64());
  SODA_ASSIGN_OR_RETURN(seg->stats.distinct, r->U64());
  SODA_ASSIGN_OR_RETURN(uint8_t has_minmax, r->U8());
  seg->stats.has_minmax = has_minmax != 0;
  SODA_ASSIGN_OR_RETURN(seg->stats.min_i64, r->I64());
  SODA_ASSIGN_OR_RETURN(seg->stats.max_i64, r->I64());
  SODA_RETURN_NOT_OK(r->Bytes(&seg->stats.min_f64, sizeof(double)));
  SODA_RETURN_NOT_OK(r->Bytes(&seg->stats.max_f64, sizeof(double)));
  SODA_ASSIGN_OR_RETURN(seg->frame, r->I64());
  SODA_ASSIGN_OR_RETURN(seg->bit_width, r->U8());
  SODA_RETURN_NOT_OK(ReadPod(r, &seg->i64));
  SODA_RETURN_NOT_OK(ReadPod(r, &seg->f64));
  SODA_RETURN_NOT_OK(ReadPod(r, &seg->run_ends));
  SODA_RETURN_NOT_OK(ReadPod(r, &seg->packed));
  SODA_RETURN_NOT_OK(ReadPod(r, &seg->validity));
  NoteNaN(seg.get());
  SODA_ASSIGN_OR_RETURN(uint64_t num_strs, r->U64());
  seg->strs.reserve(std::min<uint64_t>(num_strs, r->remaining()));
  for (uint64_t i = 0; i < num_strs; ++i) {
    SODA_ASSIGN_OR_RETURN(std::string s, r->Str());
    seg->strs.push_back(std::move(s));
  }
  return SegmentPtr(std::move(seg));
}

}  // namespace soda
