#include "storage/table.h"

#include <algorithm>

#include "util/query_guard.h"
#include "util/string_util.h"

namespace soda {

namespace {

/// Probe site for storage-layer growth; every table append charges the
/// current query's memory budget under this name.
constexpr char kAppendSite[] = "storage.append";

/// Probe site for whole-table segment decode (FlatView; the streaming scan
/// path probes it per morsel in exec).
constexpr char kDecodeSite[] = "storage.segment_decode";

size_t ValueBytes(const Value& v) {
  if (v.is_null()) return 1;
  if (v.type() == DataType::kVarchar) {
    return v.varchar_value().size() + sizeof(std::string);
  }
  return sizeof(int64_t);
}

size_t SliceBytes(const Column& col, size_t offset, size_t count) {
  if (col.type() != DataType::kVarchar) return count * sizeof(int64_t);
  size_t bytes = count * sizeof(std::string);
  const auto& strings = col.Strings();
  for (size_t i = offset; i < offset + count; ++i) {
    bytes += strings[i].size();
  }
  return bytes;
}

/// Flat bytes decoding `seg` produces, costed like SliceBytes; a
/// dictionary segment's strings are estimated at the dictionary's mean
/// entry length.
size_t DecodedBytes(const Segment& seg) {
  const size_t rows = seg.row_count();
  if (seg.type != DataType::kVarchar) return rows * sizeof(int64_t);
  size_t chars = 0;
  for (const auto& s : seg.strs) chars += s.size();
  if (seg.encoding == SegmentEncoding::kDict && !seg.strs.empty()) {
    chars = chars * rows / seg.strs.size();
  }
  return rows * sizeof(std::string) + chars;
}

/// Charges the appended bytes to the calling thread's query guard, if one
/// is installed (see QueryGuard::MemoryScope). Called *before* mutating
/// the table, so a failed reservation leaves all columns aligned.
Status ChargeAppend(size_t bytes) {
  return GuardReserve(QueryGuard::Current(), bytes, kAppendSite);
}

/// A pushed predicate is only evaluable on the encoded payload when the
/// literal's type matches the column's payload family exactly — no silent
/// coercion in the storage layer (the optimizer casts before pushing).
bool PredicateEvaluable(const Schema& schema, const ScanPredicate& pred) {
  if (pred.column >= schema.num_fields() || pred.constant.is_null()) {
    return false;
  }
  switch (schema.field(pred.column).type) {
    case DataType::kBigInt:
    case DataType::kBool:
      return pred.constant.type() == DataType::kBigInt;
    case DataType::kDouble:
      return pred.constant.type() == DataType::kDouble;
    case DataType::kVarchar:
      return pred.constant.type() == DataType::kVarchar;
    default:
      return false;
  }
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(ToLower(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (sealed_) {
    return Status::ExecutionError("append to sealed table '" + name_ +
                                  "' (rebuild via stage-and-swap)");
  }
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch: expected " +
                                   std::to_string(columns_.size()) + ", got " +
                                   std::to_string(row.size()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Value& v = row[c];
    if (!v.is_null() && v.type() != columns_[c].type()) {
      // Allow numeric coercion; reject anything else.
      if (!(IsNumeric(v.type()) && IsNumeric(columns_[c].type()))) {
        return Status::TypeError("cannot insert " +
                                 std::string(DataTypeToString(v.type())) +
                                 " into column '" + schema_.field(c).name +
                                 "' of type " +
                                 DataTypeToString(columns_[c].type()));
      }
    }
  }
  size_t bytes = 0;
  for (const Value& v : row) bytes += ValueBytes(v);
  SODA_RETURN_NOT_OK(ChargeAppend(bytes));
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendValue(row[c]);
  }
  return Status::OK();
}

Status Table::AppendChunk(const DataChunk& chunk) {
  if (sealed_) {
    return Status::ExecutionError("append to sealed table '" + name_ + "'");
  }
  if (chunk.num_columns() != columns_.size()) {
    return Status::InvalidArgument("chunk arity mismatch");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (chunk.column(c).type() != columns_[c].type()) {
      return Status::TypeError("chunk column type mismatch at position " +
                               std::to_string(c));
    }
  }
  size_t bytes = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    bytes += SliceBytes(chunk.column(c), 0, chunk.column(c).size());
  }
  SODA_RETURN_NOT_OK(ChargeAppend(bytes));
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendSlice(chunk.column(c), 0, chunk.column(c).size());
  }
  return Status::OK();
}

namespace {

/// Schema of a projected scan output: the selected fields in `cols` order.
Schema ProjectedSchema(const Schema& schema, const std::vector<size_t>& cols) {
  std::vector<Field> fields;
  fields.reserve(cols.size());
  for (size_t c : cols) fields.push_back(schema.field(c));
  return Schema(std::move(fields));
}

}  // namespace

void Table::ScanSlice(size_t offset, size_t count, DataChunk* out,
                      const std::vector<size_t>* cols) const {
  if (out->num_columns() == 0) {
    *out = DataChunk(cols ? ProjectedSchema(schema_, *cols) : schema_);
  } else {
    out->Clear();
  }
  const size_t out_cols = cols ? cols->size() : num_columns();
  if (offset >= num_rows()) return;  // empty slice
  count = std::min(count, num_rows() - offset);
  if (sealed_) {
    // Decode the overlapping row groups straight into the chunk. Only the
    // projected columns are decoded — a fused projection skips whole
    // segments.
    size_t g = std::upper_bound(group_offsets_.begin(), group_offsets_.end(),
                                offset) -
               group_offsets_.begin() - 1;
    size_t done = 0;
    while (done < count) {
      const size_t in_group = offset + done - group_offsets_[g];
      const size_t take = std::min(count - done, group_rows(g) - in_group);
      for (size_t c = 0; c < out_cols; ++c) {
        const size_t phys = cols ? (*cols)[c] : c;
        DecodeSegment(*groups_[g][phys], in_group, take, &out->column(c));
      }
      done += take;
      ++g;
    }
    return;
  }
  for (size_t c = 0; c < out_cols; ++c) {
    const size_t phys = cols ? (*cols)[c] : c;
    out->column(c).AppendSlice(columns_[phys], offset, count);
  }
}

bool Table::ScanSliceFiltered(size_t offset, size_t count,
                              const std::vector<ScanPredicate>& preds,
                              DataChunk* out,
                              const std::vector<size_t>* cols) const {
  if (!sealed_ || preds.empty()) return false;
  for (const auto& p : preds) {
    if (!PredicateEvaluable(schema_, p)) return false;
  }
  if (out->num_columns() == 0) {
    *out = DataChunk(cols ? ProjectedSchema(schema_, *cols) : schema_);
  } else {
    out->Clear();
  }
  const size_t out_cols = cols ? cols->size() : num_columns();
  if (offset >= num_rows()) return true;  // empty slice
  count = std::min(count, num_rows() - offset);
  size_t g = std::upper_bound(group_offsets_.begin(), group_offsets_.end(),
                              offset) -
             group_offsets_.begin() - 1;
  size_t done = 0;
  std::vector<uint32_t> sel, next, merged;
  while (done < count) {
    const size_t in_group = offset + done - group_offsets_[g];
    const size_t take = std::min(count - done, group_rows(g) - in_group);
    done += take;
    const size_t group = g++;
    // Zone maps first: skip the whole segment when a footer rules it out.
    bool may_match = true;
    for (const auto& p : preds) {
      if (!SegmentMayMatch(*groups_[group][p.column], p)) {
        may_match = false;
        break;
      }
    }
    if (!may_match) continue;
    // Row selection on the encoded payloads, intersecting predicates.
    sel.clear();
    SegmentMatchRows(*groups_[group][preds[0].column], in_group, take,
                     preds[0], &sel);
    for (size_t k = 1; k < preds.size() && !sel.empty(); ++k) {
      next.clear();
      SegmentMatchRows(*groups_[group][preds[k].column], in_group, take,
                       preds[k], &next);
      merged.clear();
      std::set_intersection(sel.begin(), sel.end(), next.begin(), next.end(),
                            std::back_inserter(merged));
      sel.swap(merged);
    }
    if (sel.empty()) continue;
    if (sel.size() == take) {
      for (size_t c = 0; c < out_cols; ++c) {
        const size_t phys = cols ? (*cols)[c] : c;
        DecodeSegment(*groups_[group][phys], in_group, take,
                      &out->column(c));
      }
    } else {
      for (size_t c = 0; c < out_cols; ++c) {
        const size_t phys = cols ? (*cols)[c] : c;
        DecodeSegmentGather(*groups_[group][phys], sel.data(), sel.size(),
                            &out->column(c));
      }
    }
  }
  return true;
}

Status Table::DecodeInto(Table* out, QueryGuard* guard, const char* site,
                         const std::vector<size_t>* cols) const {
  SODA_RETURN_NOT_OK(CheckReadable(0, num_rows()));
  const size_t n = num_rows();
  const size_t out_cols = cols ? cols->size() : num_columns();
  std::vector<Column> decoded;
  size_t bytes = 0;
  for (size_t c = 0; c < out_cols; ++c) {
    const size_t phys = cols ? (*cols)[c] : c;
    if (sealed_) {
      for (const auto& group : groups_) bytes += DecodedBytes(*group[phys]);
    } else {
      bytes += SliceBytes(columns_[phys], 0, n);
    }
    decoded.emplace_back(schema_.field(phys).type);
  }
  SODA_RETURN_NOT_OK(GuardReserve(guard, bytes, site));
  for (auto& col : decoded) col.Reserve(n);
  DataChunk chunk(std::move(decoded));
  ScanSlice(0, n, &chunk, cols);
  for (size_t c = 0; c < out_cols; ++c) {
    SODA_RETURN_NOT_OK(out->SetColumn(c, std::move(chunk.column(c))));
  }
  return Status::OK();
}

Result<TablePtr> FlatView(TablePtr table, QueryGuard* guard) {
  if (!table->sealed()) return table;
  auto flat = std::make_shared<Table>(table->name(), table->schema());
  SODA_RETURN_NOT_OK(table->DecodeInto(flat.get(), guard, kDecodeSite));
  return flat;
}

Status Table::SetColumn(size_t i, Column column) {
  if (sealed_) return Status::ExecutionError("SetColumn on sealed table");
  if (i >= columns_.size()) return Status::OutOfRange("column index");
  if (column.type() != columns_[i].type()) {
    return Status::TypeError("SetColumn type mismatch");
  }
  columns_[i] = std::move(column);
  return Status::OK();
}

void Table::Truncate() {
  for (auto& c : columns_) c.Clear();
  groups_.clear();
  group_offsets_.clear();
  partition_offsets_.clear();
  group_quarantined_.clear();
  table_quarantined_ = false;
  sealed_ = false;
}

std::vector<Value> Table::GetRow(size_t row) const {
  DataChunk chunk;
  ScanSlice(row, 1, &chunk);
  return chunk.GetRow(0);
}

size_t Table::MemoryUsage() const {
  size_t bytes = 0;
  if (sealed_) {
    for (const auto& group : groups_) {
      for (const auto& seg : group) bytes += seg->MemoryUsage();
    }
  }
  for (const auto& c : columns_) bytes += c.MemoryUsage();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (const auto& f : schema_.fields()) header.push_back(f.name);
  cells.push_back(header);
  size_t n = std::min(max_rows, num_rows());
  DataChunk preview;
  ScanSlice(0, n, &preview);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < num_columns(); ++c) {
      row.push_back(preview.column(c).GetValue(r).ToString());
    }
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(header.size(), 0);
  // analyze:allow(guard-probe: debug rendering of an already-capped preview)
  for (const auto& row : cells) {
    // analyze:allow(guard-probe: debug rendering of an already-capped preview)
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  // analyze:allow(guard-probe: debug rendering of an already-capped preview)
  for (size_t r = 0; r < cells.size(); ++r) {
    // analyze:allow(guard-probe: debug rendering of an already-capped preview)
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out.append(widths[c], '-');
        out.append(2, ' ');
      }
      out += '\n';
    }
  }
  if (num_rows() > n) {
    out += "... (" + std::to_string(num_rows()) + " rows total)\n";
  }
  return out;
}

// --- Sealed representation -----------------------------------------------

Status Table::Seal() {
  if (sealed_) return Status::OK();
  const size_t n = num_rows();
  if (n > UINT32_MAX) {
    return Status::ExecutionError("Seal: table too large to reorder");
  }

  // Partitioned tables cluster rows by partition id first (stable within a
  // partition, so unpartitioned DML ordering semantics are unchanged —
  // only PARTITION BY tables ever reorder).
  std::vector<Column> gathered;
  std::vector<const Column*> src(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) src[c] = &columns_[c];
  std::vector<size_t> part_offsets;
  if (spec_.partitioned() && spec_.num_partitions > 0) {
    if (spec_.column_index >= columns_.size()) {
      return Status::ExecutionError("Seal: partition column out of range");
    }
    const Column& pcol = columns_[spec_.column_index];
    const size_t P = spec_.num_partitions;
    std::vector<uint32_t> part(n);
    std::vector<size_t> counts(P, 0);
    for (size_t i = 0; i < n; ++i) {
      part[i] = static_cast<uint32_t>(PartitionOfRow(spec_, pcol, i));
      ++counts[part[i]];
    }
    part_offsets.assign(P + 1, 0);
    for (size_t p = 0; p < P; ++p) {
      part_offsets[p + 1] = part_offsets[p] + counts[p];
    }
    std::vector<size_t> cursor(part_offsets.begin(), part_offsets.end() - 1);
    std::vector<uint32_t> perm(n);
    for (size_t i = 0; i < n; ++i) {
      perm[cursor[part[i]]++] = static_cast<uint32_t>(i);
    }
    gathered.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      Column col(columns_[c].type());
      col.Reserve(n);
      col.AppendGather(columns_[c], perm.data(), n);
      gathered.push_back(std::move(col));
    }
    for (size_t c = 0; c < columns_.size(); ++c) src[c] = &gathered[c];
  } else {
    part_offsets = {0, n};
  }

  // Encode kSegmentRows-row groups, never crossing a partition boundary.
  std::vector<std::vector<SegmentPtr>> groups;
  std::vector<size_t> group_offsets{0};
  for (size_t p = 0; p + 1 < part_offsets.size(); ++p) {
    for (size_t off = part_offsets[p]; off < part_offsets[p + 1];
         off += kSegmentRows) {
      const size_t take = std::min(kSegmentRows, part_offsets[p + 1] - off);
      std::vector<SegmentPtr> group;
      group.reserve(src.size());
      for (const Column* col : src) {
        SODA_ASSIGN_OR_RETURN(SegmentPtr seg,
                              EncodeSegment(*col, off, take));
        group.push_back(std::move(seg));
      }
      groups.push_back(std::move(group));
      group_offsets.push_back(off + take);
    }
  }

  groups_ = std::move(groups);
  group_offsets_ = std::move(group_offsets);
  partition_offsets_ = std::move(part_offsets);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c] = Column(schema_.field(c).type);
  }
  sealed_ = true;
  return Status::OK();
}

Status Table::AdoptSealed(std::vector<std::vector<SegmentPtr>> groups,
                          std::vector<size_t> partition_offsets) {
  std::vector<size_t> offsets{0};
  for (const auto& group : groups) {
    if (group.size() != schema_.num_fields()) {
      return Status::ExecutionError("AdoptSealed: group arity mismatch");
    }
    size_t rows = 0;
    for (size_t c = 0; c < group.size(); ++c) {
      if (group[c] == nullptr ||
          group[c]->type != schema_.field(c).type) {
        return Status::ExecutionError("AdoptSealed: segment type mismatch");
      }
      if (c == 0) {
        rows = group[c]->row_count();
      } else if (group[c]->row_count() != rows) {
        return Status::ExecutionError("AdoptSealed: ragged row group");
      }
    }
    offsets.push_back(offsets.back() + rows);
  }
  if (partition_offsets.empty()) {
    partition_offsets = {0, offsets.back()};
  }
  if (partition_offsets.front() != 0 ||
      partition_offsets.back() != offsets.back() ||
      !std::is_sorted(partition_offsets.begin(), partition_offsets.end())) {
    return Status::ExecutionError("AdoptSealed: bad partition offsets");
  }
  for (size_t po : partition_offsets) {
    if (!std::binary_search(offsets.begin(), offsets.end(), po)) {
      return Status::ExecutionError(
          "AdoptSealed: partition offset not group-aligned");
    }
  }
  groups_ = std::move(groups);
  group_offsets_ = std::move(offsets);
  partition_offsets_ = std::move(partition_offsets);
  group_quarantined_.clear();
  table_quarantined_ = false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c] = Column(schema_.field(c).type);
  }
  sealed_ = true;
  return Status::OK();
}

// --- Table versions --------------------------------------------------------

Result<TablePtr> NewTable(std::string name, Schema schema,
                          PartitionSpec spec) {
  auto table = std::make_shared<Table>(std::move(name), std::move(schema));
  const bool partitioned = spec.partitioned();
  table->set_partition_spec(std::move(spec));
  if (partitioned) SODA_RETURN_NOT_OK(table->Seal());
  return table;
}

namespace {

/// Appends the rows of `columns` to `groups` as row groups of at most
/// kSegmentRows rows.
Status EncodeGroups(const std::vector<Column>& columns,
                    std::vector<std::vector<SegmentPtr>>* groups) {
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (size_t off = 0; off < n; off += kSegmentRows) {
    const size_t take = std::min(kSegmentRows, n - off);
    std::vector<SegmentPtr> group;
    group.reserve(columns.size());
    for (const Column& col : columns) {
      SODA_ASSIGN_OR_RETURN(SegmentPtr seg, EncodeSegment(col, off, take));
      group.push_back(std::move(seg));
    }
    groups->push_back(std::move(group));
  }
  return Status::OK();
}

/// The flat case of BuildNextVersion: `prev` is one range.
Result<TablePtr> BuildFlatVersion(const Table& prev, const GroupEdit& edit,
                                  const Table* staged, const char* site) {
  size_t bytes = 0;
  for (size_t c = 0; c < prev.num_columns(); ++c) {
    bytes += SliceBytes(prev.column(c), 0, prev.num_rows());
    if (staged) bytes += SliceBytes(staged->column(c), 0, staged->num_rows());
  }
  SODA_RETURN_NOT_OK(GuardReserve(QueryGuard::Current(), bytes, site));
  DataChunk rows;
  prev.ScanSlice(0, prev.num_rows(), &rows);
  if (edit) SODA_RETURN_NOT_OK(edit(&rows).status());
  auto next = std::make_shared<Table>(prev.name(), prev.schema());
  next->set_partition_spec(prev.partition_spec());
  for (size_t c = 0; c < prev.num_columns(); ++c) {
    if (staged) {
      rows.column(c).AppendSlice(staged->column(c), 0, staged->num_rows());
    }
    SODA_RETURN_NOT_OK(next->SetColumn(c, std::move(rows.column(c))));
  }
  if (next->partition_spec().partitioned() ||
      next->num_rows() >= kSealMinRows) {
    SODA_RETURN_NOT_OK(next->Seal());
  }
  return next;
}

}  // namespace

Result<TablePtr> BuildNextVersion(const Table& prev, const GroupEdit& edit,
                                  const Table* staged, const char* site) {
  if (staged) {
    if (staged->sealed() || staged->num_columns() != prev.num_columns()) {
      return Status::ExecutionError("append to '" + prev.name() +
                                    "': staged rows must be flat and match "
                                    "the table's arity");
    }
    for (size_t c = 0; c < prev.num_columns(); ++c) {
      if (staged->schema().field(c).type != prev.schema().field(c).type) {
        return Status::ExecutionError("append to '" + prev.name() +
                                      "': type mismatch at column " +
                                      std::to_string(c));
      }
    }
  }
  if (!prev.sealed()) return BuildFlatVersion(prev, edit, staged, site);

  // Bucket the staged rows by partition (one bucket when unpartitioned).
  const PartitionSpec& spec = prev.partition_spec();
  const std::vector<size_t>& prev_offsets = prev.partition_offsets();
  const size_t P = prev_offsets.size() - 1;
  std::vector<std::vector<uint32_t>> buckets(P);
  const size_t staged_rows = staged ? staged->num_rows() : 0;
  for (size_t r = 0; r < staged_rows; ++r) {
    const size_t p =
        spec.partitioned() && spec.num_partitions == P
            ? PartitionOfRow(spec, staged->column(spec.column_index), r)
            : 0;
    buckets[p].push_back(static_cast<uint32_t>(r));
  }

  std::vector<std::vector<SegmentPtr>> groups;
  std::vector<size_t> offsets{0};
  size_t total = 0;
  auto add = [&](const std::vector<Column>& columns) {
    total += columns.empty() ? 0 : columns[0].size();
    return EncodeGroups(columns, &groups);
  };
  DataChunk rows;
  size_t g = 0;
  for (size_t p = 0; p < P; ++p) {
    for (; g < prev.num_row_groups() &&
           prev.group_offset(g) < prev_offsets[p + 1];
         ++g) {
      if (edit) {
        prev.ScanSlice(prev.group_offset(g), prev.group_rows(g), &rows);
        SODA_ASSIGN_OR_RETURN(bool replaced, edit(&rows));
        if (replaced) {
          SODA_RETURN_NOT_OK(add(rows.columns()));
          continue;
        }
      }
      std::vector<SegmentPtr> group;
      group.reserve(prev.num_columns());
      for (size_t c = 0; c < prev.num_columns(); ++c) {
        group.push_back(prev.group_segment(g, c));
      }
      groups.push_back(std::move(group));
      total += prev.group_rows(g);
    }
    if (buckets[p].size() == staged_rows && staged_rows > 0) {
      SODA_RETURN_NOT_OK(add(staged->columns()));
    } else if (!buckets[p].empty()) {
      SODA_RETURN_NOT_OK(
          add(GatherRows(staged->columns(), buckets[p]).columns()));
    }
    offsets.push_back(total);
  }

  auto next = std::make_shared<Table>(prev.name(), prev.schema());
  next->set_partition_spec(spec);
  SODA_RETURN_NOT_OK(next->AdoptSealed(std::move(groups), std::move(offsets)));
  return next;
}

// --- Quarantine ----------------------------------------------------------

void Table::MarkGroupQuarantined(size_t g) {
  if (g >= groups_.size()) return;
  if (group_quarantined_.size() != groups_.size()) {
    group_quarantined_.assign(groups_.size(), 0);
  }
  group_quarantined_[g] = 1;
}

bool Table::quarantined() const {
  if (table_quarantined_) return true;
  for (uint8_t q : group_quarantined_) {
    if (q) return true;
  }
  return false;
}

size_t Table::num_quarantined_groups() const {
  if (table_quarantined_) return groups_.empty() ? 1 : groups_.size();
  size_t n = 0;
  for (uint8_t q : group_quarantined_) n += q != 0;
  return n;
}

Status Table::CheckReadable(size_t offset, size_t count) const {
  if (table_quarantined_) {
    return Status::DataLoss("table '" + name_ +
                            "' is quarantined (corrupt checkpoint block); "
                            "restore from a backup or DROP it");
  }
  if (group_quarantined_.empty() || count == 0) return Status::OK();
  const size_t end = offset + count;
  size_t g = std::upper_bound(group_offsets_.begin(), group_offsets_.end(),
                              offset) -
             group_offsets_.begin() - 1;
  for (; g < groups_.size() && group_offsets_[g] < end; ++g) {
    if (group_quarantined_[g]) {
      return Status::DataLoss(
          "table '" + name_ + "' row group " + std::to_string(g) + " (rows [" +
          std::to_string(group_offsets_[g]) + ", " +
          std::to_string(group_offsets_[g + 1]) +
          ")) is quarantined after a checksum failure; scans of other "
          "partitions still work");
    }
  }
  return Status::OK();
}

}  // namespace soda
