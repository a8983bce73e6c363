#include "storage/data_chunk.h"

namespace soda {

DataChunk::DataChunk(const Schema& schema) {
  columns_.reserve(schema.num_fields());
  for (const auto& f : schema.fields()) columns_.emplace_back(f.type);
}

void DataChunk::AppendRowFrom(const DataChunk& other, size_t row) {
  SODA_DCHECK(other.num_columns() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], row);
  }
}

void DataChunk::AppendRow(const std::vector<Value>& row) {
  SODA_DCHECK(row.size() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendValue(row[c]);
  }
}

std::vector<Value> DataChunk::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(num_columns());
  for (const auto& c : columns_) out.push_back(c.GetValue(row));
  return out;
}

size_t DataChunk::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : columns_) bytes += c.MemoryUsage();
  return bytes;
}

DataChunk GatherRows(const std::vector<Column>& columns,
                     const std::vector<uint32_t>& sel) {
  DataChunk out;
  for (const Column& col : columns) {
    Column gathered(col.type());
    gathered.AppendGather(col, sel.data(), sel.size());
    out.AddColumn(std::move(gathered));
  }
  return out;
}

}  // namespace soda
