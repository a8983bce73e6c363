#include "storage/table.h"

#include <algorithm>
#include <numeric>

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
  for (const auto& f : schema_.fields()) {
    columns_.push_back(std::make_shared<Column>(f.type));
  }
}

Column& Table::column(size_t i) {
  SODA_DCHECK(!sealed_);
  if (columns_[i].use_count() > 1) {
    columns_[i] = std::make_shared<Column>(*columns_[i]);
  }
  return *columns_[i];
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
    if (!v.is_null() && v.type() != columns_[c]->type()) {
      // Allow numeric coercion; reject anything else.
      if (!(IsNumeric(v.type()) && IsNumeric(columns_[c]->type()))) {
        return Status::TypeError("cannot insert " +
                                 std::string(DataTypeToString(v.type())) +
                                 " into column '" + schema_.field(c).name +
                                 "' of type " +
                                 DataTypeToString(columns_[c]->type()));
      }
    }
  }
  size_t bytes = 0;
  for (const Value& v : row) bytes += ValueBytes(v);
  SODA_RETURN_NOT_OK(ChargeAppend(bytes));
  for (size_t c = 0; c < columns_.size(); ++c) column(c).AppendValue(row[c]);
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
    if (chunk.column(c).type() != columns_[c]->type()) {
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
    column(c).AppendSlice(chunk.column(c), 0, chunk.column(c).size());
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
    out->column(c).AppendSlice(*columns_[phys], offset, count);
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
    if (!GroupMayMatch(group, preds)) continue;
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

bool Table::GroupMayMatch(size_t g,
                          const std::vector<ScanPredicate>& preds) const {
  for (const auto& p : preds) {
    if (!SegmentMayMatch(*groups_[g][p.column], p)) return false;
  }
  return true;
}

Result<TablePtr> FlatView(TablePtr table, QueryGuard* guard,
                          const std::vector<size_t>* cols,
                          const Schema* schema) {
  const Table& in = *table;
  const size_t n = in.num_rows();
  SODA_RETURN_NOT_OK(in.CheckReadable(0, n));
  if (cols == nullptr && !in.sealed()) return table;
  std::vector<size_t> all(in.num_columns());
  std::iota(all.begin(), all.end(), 0);
  const std::vector<size_t>& sel = cols ? *cols : all;
  auto out = std::make_shared<Table>(
      in.name(), schema ? *schema : ProjectedSchema(in.schema(), sel));
  size_t bytes = 0;
  for (size_t c = 0; c < sel.size(); ++c) {
    out->columns_[c] = in.columns_[sel[c]];  // a sealed table's are empty
    for (const auto& group : in.groups_) bytes += DecodedBytes(*group[sel[c]]);
  }
  if (!in.sealed()) return out;
  SODA_RETURN_NOT_OK(GuardReserve(guard, bytes, kDecodeSite));
  DataChunk chunk(out->schema());
  for (size_t c = 0; c < sel.size(); ++c) chunk.column(c).Reserve(n);
  in.ScanSlice(0, n, &chunk, &sel);
  for (size_t c = 0; c < sel.size(); ++c) {
    out->columns_[c] = std::make_shared<Column>(std::move(chunk.column(c)));
  }
  return out;
}

Status Table::SetColumn(size_t i, Column column) {
  if (sealed_) return Status::ExecutionError("SetColumn on sealed table");
  if (i >= columns_.size()) return Status::OutOfRange("column index");
  if (column.type() != columns_[i]->type()) {
    return Status::TypeError("SetColumn type mismatch");
  }
  columns_[i] = std::make_shared<Column>(std::move(column));
  return Status::OK();
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
  for (const auto& c : columns_) bytes += c->MemoryUsage();
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
  // The rows appended to an empty sealed table, the way ApplyDelta appends
  // rows: clustered by partition (stable within a partition), in row
  // groups of kSegmentRows rows that never cross a partition boundary.
  const size_t P =
      spec_.partitioned() ? std::max<size_t>(spec_.num_partitions, 1) : 1;
  Table shell(name_, schema_);
  shell.set_partition_spec(spec_);
  SODA_RETURN_NOT_OK(shell.AdoptSealed({}, std::vector<size_t>(P + 1, 0)));
  TableDelta delta = DeltaFor(shell);
  for (size_t c = 0; c < columns_.size(); ++c) {
    delta.appended.push_back(std::move(column(c)));
  }
  Result<TablePtr> sealed = ApplyDelta(&shell, delta);
  for (size_t c = 0; c < columns_.size(); ++c) {
    *columns_[c] = std::move(delta.appended[c]);
  }
  SODA_RETURN_NOT_OK(sealed.status());
  *this = std::move(**sealed);
  return Status::OK();
}

Status Table::AdoptSealed(std::vector<RowGroup> groups,
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
    columns_[c] = std::make_shared<Column>(schema_.field(c).type);
  }
  sealed_ = true;
  return Status::OK();
}

// --- Table versions --------------------------------------------------------

TableDelta DeltaFor(const Table& prev) {
  TableDelta delta;
  delta.table = prev.name();
  delta.schema = prev.schema();
  delta.prev_rows = prev.num_rows();
  delta.prev_groups = prev.sealed() ? prev.num_row_groups() : 1;
  return delta;
}

Status EncodeGroups(const std::vector<Column>& columns, size_t begin,
                    size_t end, std::vector<RowGroup>* groups) {
  for (size_t off = begin; off < end; off += kSegmentRows) {
    const size_t take = std::min(kSegmentRows, end - off);
    RowGroup group;
    group.reserve(columns.size());
    for (const Column& col : columns) {
      SODA_ASSIGN_OR_RETURN(SegmentPtr seg, EncodeSegment(col, off, take));
      group.push_back(std::move(seg));
    }
    groups->push_back(std::move(group));
  }
  return Status::OK();
}

namespace {

/// The flat case of ApplyDelta: `prev`'s rows, unless the delta drops its
/// one group, followed by the appended rows.
Result<TablePtr> ApplyFlat(const Table& prev, const TableDelta& delta) {
  const bool keep = delta.replaced.empty();
  const size_t appended = delta.appended.empty() ? 0 : delta.appended[0].size();
  size_t bytes = 0;
  for (size_t c = 0; c < prev.num_columns(); ++c) {
    if (keep) bytes += SliceBytes(prev.column(c), 0, prev.num_rows());
    if (appended) bytes += SliceBytes(delta.appended[c], 0, appended);
  }
  SODA_RETURN_NOT_OK(ChargeAppend(bytes));
  auto next = std::make_shared<Table>(prev.name(), prev.schema());
  next->set_partition_spec(prev.partition_spec());
  for (size_t c = 0; c < prev.num_columns(); ++c) {
    Column col(prev.schema().field(c).type);
    col.Reserve((keep ? prev.num_rows() : 0) + appended);
    if (keep) col.AppendSlice(prev.column(c), 0, prev.num_rows());
    if (appended) col.AppendSlice(delta.appended[c], 0, appended);
    SODA_RETURN_NOT_OK(next->SetColumn(c, std::move(col)));
  }
  if (next->partition_spec().partitioned() ||
      next->num_rows() >= kSealMinRows) {
    SODA_RETURN_NOT_OK(next->Seal());
  }
  return next;
}

}  // namespace

Result<TablePtr> ApplyDelta(const Table* prev, const TableDelta& delta) {
  TablePtr created;
  if (delta.create) {
    created = std::make_shared<Table>(delta.table, delta.schema);
    created->set_partition_spec(delta.spec);
    if (delta.spec.partitioned()) SODA_RETURN_NOT_OK(created->Seal());
    prev = created.get();
  }
  const TableDelta expect = DeltaFor(*prev);
  bool fits = delta.create || (expect.schema == delta.schema &&
                               expect.prev_rows == delta.prev_rows &&
                               expect.prev_groups == delta.prev_groups);
  for (size_t i = 0; fits && i < delta.replaced.size(); ++i) {
    const size_t g = delta.replaced[i].first;
    fits = g < expect.prev_groups &&
           (i == 0 || g > delta.replaced[i - 1].first) &&
           (prev->sealed() || delta.replaced[i].second.empty());
  }
  fits &= delta.appended.empty() ||
          delta.appended.size() == prev->num_columns();
  fits &= !prev->partition_spec().partitioned() ||
          prev->partition_spec().column_index < prev->num_columns();
  for (size_t c = 0; fits && c < delta.appended.size(); ++c) {
    fits = delta.appended[c].type() == prev->schema().field(c).type &&
           delta.appended[c].size() == delta.appended[0].size();
  }
  if (!fits) {
    return Status::DataLoss("write to '" + delta.table + "' (against " +
                            std::to_string(delta.prev_rows) + " rows in " +
                            std::to_string(delta.prev_groups) +
                            " groups) does not fit the table");
  }
  if (!prev->sealed()) return ApplyFlat(*prev, delta);

  // Bucket the appended rows by partition (one bucket when unpartitioned).
  const PartitionSpec& spec = prev->partition_spec();
  const std::vector<size_t>& prev_offsets = prev->partition_offsets();
  const size_t P = prev_offsets.size() - 1;
  const size_t appended = delta.appended.empty() ? 0 : delta.appended[0].size();
  std::vector<std::vector<uint32_t>> buckets(P);
  for (size_t r = 0; r < appended; ++r) {
    const size_t p =
        spec.partitioned() && spec.num_partitions == P
            ? PartitionOfRow(spec, delta.appended[spec.column_index], r)
            : 0;
    buckets[p].push_back(static_cast<uint32_t>(r));
  }

  std::vector<RowGroup> groups;
  std::vector<size_t> offsets{0};
  size_t counted = 0;  // groups whose rows offsets already sum
  size_t next_replaced = 0;
  size_t g = 0;
  for (size_t p = 0; p < P; ++p) {
    for (; g < prev->num_row_groups() &&
           prev->group_offset(g) < prev_offsets[p + 1];
         ++g) {
      if (next_replaced < delta.replaced.size() &&
          delta.replaced[next_replaced].first == g) {
        const auto& replacement = delta.replaced[next_replaced++].second;
        groups.insert(groups.end(), replacement.begin(), replacement.end());
      } else {
        groups.push_back(prev->row_group(g));
      }
    }
    if (buckets[p].size() == appended) {
      SODA_RETURN_NOT_OK(EncodeGroups(delta.appended, 0, appended, &groups));
    } else if (!buckets[p].empty()) {
      SODA_RETURN_NOT_OK(
          EncodeGroups(GatherRows(delta.appended, buckets[p]).columns(), 0,
                       buckets[p].size(), &groups));
    }
    size_t total = offsets.back();
    for (; counted < groups.size(); ++counted) {
      total += groups[counted][0]->row_count();
    }
    offsets.push_back(total);
  }

  auto next = std::make_shared<Table>(prev->name(), prev->schema());
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
