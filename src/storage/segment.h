/// \file segment.h
/// Immutable encoded column segments — the compressed at-rest format for
/// sealed base tables (DESIGN.md §9).
///
/// A sealed table stores each column as a sequence of row groups; inside a
/// row group every column holds one `Segment`. Segments are encoded once
/// (at Seal time) and never mutated; scans decode them lazily into
/// `DataChunk`s, and predicate evaluation happens on the encoded form
/// where the codec allows it (dictionary codes, RLE runs, FOR frames)
/// before any value is materialized.
///
/// Codecs:
///   kPlain  raw values, the uncompressed fallback (any type)
///   kRle    run-length: (value, run length) pairs (numeric)
///   kFor    frame-of-reference + bit-packing: v[i] = frame + packed[i]
///           (kBigInt / kBool)
///   kDict   dictionary + bit-packed codes (kVarchar)
/// Each segment carries a stats footer (row/null counts, min/max, distinct
/// dictionary size) used for zone-map skipping and partition pruning.

#ifndef SODA_STORAGE_SEGMENT_H_
#define SODA_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "types/value.h"
#include "util/status.h"

namespace soda {

/// Rows per row group (and therefore per segment). One group is a handful
/// of scan morsels; small enough that min/max stats discriminate, large
/// enough that per-segment overhead amortizes away.
inline constexpr size_t kSegmentRows = 16384;

enum class SegmentEncoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kFor = 2,
  kDict = 3,
};

const char* SegmentEncodingToString(SegmentEncoding e);

/// Per-segment footer, computed once at encode time.
struct SegmentStats {
  uint64_t row_count = 0;
  uint64_t null_count = 0;
  /// Distinct non-null values for kDict segments; 0 (= unknown) otherwise.
  uint64_t distinct = 0;
  /// True when min/max below are valid (at least one non-null numeric row;
  /// for kDouble, one that is not NaN).
  bool has_minmax = false;
  int64_t min_i64 = 0, max_i64 = 0;  // kBigInt / kBool
  double min_f64 = 0, max_f64 = 0;   // kDouble, NaN excluded
  /// kDouble: some non-null row is NaN, which sorts after every number
  /// (CompareDoubles). Not serialized: EncodeSegment and ReadSegment derive
  /// it from the payload, so it also holds for files written before NaN
  /// had an order.
  bool has_nan = false;
};

/// One immutable encoded run of rows of a single column. Which payload
/// members are populated depends on (type, encoding):
///   kPlain          i64 / f64 / strs hold raw values (nulls hold 0 / "")
///   kRle            i64 or f64 holds one value per run; run_ends[k] is the
///                   exclusive end row of run k (ascending)
///   kFor            frame = minimum; packed holds (v - frame) at bit_width
///                   bits per row, little-endian within each uint64 word
///   kDict           strs is the dictionary (first-occurrence order);
///                   packed holds bit-packed codes at bit_width bits
/// Validity is a 1-bit-per-row bitmap (LSB-first); empty means all valid.
struct Segment {
  DataType type = DataType::kInvalid;
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  SegmentStats stats;

  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> strs;
  std::vector<uint32_t> run_ends;
  std::vector<uint64_t> packed;
  int64_t frame = 0;
  uint8_t bit_width = 0;
  std::vector<uint64_t> validity;

  /// CRC32 of the serialized payload, fixed at encode/load time. The scrub
  /// pass (storage/scrub.h) re-serializes and compares, so in-memory bit
  /// rot in a sealed segment is detectable long after sealing. 0 = unknown
  /// (synthetic segments that never went through EncodeSegment/serde).
  uint32_t crc = 0;

  size_t row_count() const { return stats.row_count; }
  /// Approximate heap footprint of the encoded form.
  size_t MemoryUsage() const;
};

using SegmentPtr = std::shared_ptr<const Segment>;

/// Encodes rows [offset, offset+count) of a flat column, picking the codec
/// by inspection (see DESIGN.md §9 for the heuristics). Never fails on
/// data — the plain fallback always applies — but is a fault-injection
/// point ("storage.segment_encode") and charges the encoded bytes to the
/// calling query's memory budget.
Result<SegmentPtr> EncodeSegment(const Column& src, size_t offset,
                                 size_t count);

/// Appends segment-relative rows [offset, offset+count) onto `out` (which
/// must be of the segment's type), decoding as it goes.
void DecodeSegment(const Segment& seg, size_t offset, size_t count,
                   Column* out);

/// Appends rows `rows[0..count)` (segment-relative, ascending) onto `out`.
void DecodeSegmentGather(const Segment& seg, const uint32_t* rows,
                         size_t count, Column* out);

// --- Predicates over encoded data ---------------------------------------

/// Comparison operators a storage-level scan predicate can carry. A
/// deliberately tiny mirror of the expression layer (storage must not
/// depend on expr/), covering exactly what zone maps can exploit.
enum class CompareOp : uint8_t { kEq = 0, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// `column <op> constant` with a non-null literal — the shape the
/// optimizer pushes below the scan. Anything fancier stays in the regular
/// Filter transform; pushed predicates are conservative hints, and the
/// full predicate is always re-evaluated downstream.
struct ScanPredicate {
  size_t column = 0;  // index into the table schema
  CompareOp op = CompareOp::kEq;
  Value constant;

  std::string ToString(const std::string& column_name) const;
};

/// Zone-map check: false only when the stats footer proves no row of the
/// segment can satisfy `pred` (so a false return licenses skipping the
/// whole segment).
bool SegmentMayMatch(const Segment& seg, const ScanPredicate& pred);

/// Evaluates `pred` against the encoded payload and appends the matching
/// segment-relative row numbers of [offset, offset+count) to `sel`
/// (ascending). Dictionary segments compare each dictionary entry once and
/// then test codes; RLE segments compare once per run; FOR/plain compare
/// per row without materializing a Column. Exact, not conservative.
void SegmentMatchRows(const Segment& seg, size_t offset, size_t count,
                      const ScanPredicate& pred, std::vector<uint32_t>* sel);

// --- Serde (storage/serde.cc framing) ------------------------------------

class BinaryWriter;
class BinaryReader;

void WriteSegment(const Segment& seg, BinaryWriter* w);
Result<SegmentPtr> ReadSegment(BinaryReader* r);

/// CRC32 of the segment's serialized payload (the exact bytes WriteSegment
/// emits). Deterministic for a given in-memory state, so recomputing it and
/// comparing against `seg.crc` detects in-memory corruption.
uint32_t ComputeSegmentCrc(const Segment& seg);

/// Builds a decode-safe stand-in for a quarantined segment: kPlain,
/// `rows` all-NULL values of `type`, correct stats. Scans that are allowed
/// to touch it (none, once the table is quarantined — but recovery and
/// checkpoint rewrite still serialize it) never crash on it.
SegmentPtr MakePlaceholderSegment(DataType type, size_t rows);

}  // namespace soda

#endif  // SODA_STORAGE_SEGMENT_H_
