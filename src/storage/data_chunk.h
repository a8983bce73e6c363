/// \file data_chunk.h
/// The batch format flowing between physical operators (vectorized
/// execution; our stand-in for HyPer's tuple-at-a-time compiled pipelines —
/// see DESIGN.md §3 on the codegen substitution).

#ifndef SODA_STORAGE_DATA_CHUNK_H_
#define SODA_STORAGE_DATA_CHUNK_H_

#include <vector>

#include "storage/column.h"
#include "types/schema.h"

namespace soda {

/// Rows per chunk; sized so a chunk of a few numeric columns fits in L2.
inline constexpr size_t kChunkCapacity = 2048;

/// A horizontal batch of rows in columnar layout. All columns have equal
/// length.
class DataChunk {
 public:
  DataChunk() = default;

  /// Creates empty columns matching `schema`.
  explicit DataChunk(const Schema& schema);
  explicit DataChunk(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  bool empty() const { return num_rows() == 0; }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  std::vector<Column>& columns() { return columns_; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column c) { columns_.push_back(std::move(c)); }

  /// Appends full row `row` of `other` (same column types).
  void AppendRowFrom(const DataChunk& other, size_t row);

  /// Appends a boxed row.
  void AppendRow(const std::vector<Value>& row);

  /// Row `row` as boxed values (tests / result rendering).
  std::vector<Value> GetRow(size_t row) const;

  void Clear() {
    for (auto& c : columns_) c.Clear();
  }

  size_t MemoryUsage() const;

 private:
  std::vector<Column> columns_;
};

/// Rows `sel` of `columns` as a chunk (one selection-vector gather per
/// column).
DataChunk GatherRows(const std::vector<Column>& columns,
                     const std::vector<uint32_t>& sel);

}  // namespace soda

#endif  // SODA_STORAGE_DATA_CHUNK_H_
