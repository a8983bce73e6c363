/// \file serde.h
/// Binary (de)serialization of schemas, columns, and whole tables — the
/// payload format shared by the write-ahead log (storage/wal.h) and table
/// checkpoints (storage/checkpoint.h).
///
/// The format is columnar and byte-exact: numeric payloads are written as
/// their raw in-memory representation, so a serialize/deserialize
/// round-trip is bit-identical (doubles included — no text formatting).
/// Values use the native byte order; WAL and checkpoint files are
/// machine-local recovery artifacts, not interchange files.

#ifndef SODA_STORAGE_SERDE_H_
#define SODA_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/table.h"
#include "types/schema.h"
#include "util/status.h"

namespace soda {

/// Append-only little binary buffer.
class BinaryWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a serialized buffer. Every read fails with
/// kExecutionError instead of walking off the end, so a corrupt (but
/// CRC-colliding) record surfaces as a clean Status.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<std::string> Str();
  Status Bytes(void* out, size_t n);

  /// Returns a view of the next `n` bytes (no copy) and advances past
  /// them — the CRC-then-parse idiom: checksum the raw slice, then hand a
  /// sub-reader exactly that slice so a corrupt payload can be skipped by
  /// length without derailing the outer stream.
  Result<std::string_view> View(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

void WriteSchema(const Schema& schema, BinaryWriter* w);
Result<Schema> ReadSchema(BinaryReader* r);

void WriteColumn(const Column& column, BinaryWriter* w);
Result<Column> ReadColumn(BinaryReader* r);

void WritePartitionSpec(const PartitionSpec& spec, BinaryWriter* w);
Result<PartitionSpec> ReadPartitionSpec(BinaryReader* r);

/// One row group, one `[u32 len][u32 crc32][segment]` frame per column:
/// the checkpoint's and the WAL's format.
void WriteRowGroup(const RowGroup& group, BinaryWriter* w);
/// Reads a group of `rows` rows. A segment that fails its CRC or does not
/// match `schema` and `rows` becomes a placeholder and sets `*corrupt`.
Result<RowGroup> ReadRowGroup(BinaryReader* r, const Schema& schema,
                              size_t rows, bool* corrupt);

/// Name + schema + all columns.
void WriteTable(const Table& table, BinaryWriter* w);
Result<TablePtr> ReadTable(BinaryReader* r);

}  // namespace soda

#endif  // SODA_STORAGE_SERDE_H_
