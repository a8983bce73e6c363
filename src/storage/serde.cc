#include "storage/serde.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"

namespace soda {

namespace {

Status Truncated(const char* what) {
  return Status::ExecutionError(std::string("serde: truncated ") + what);
}

}  // namespace

Result<uint8_t> BinaryReader::U8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> BinaryReader::U32() {
  uint32_t v;
  SODA_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

Result<uint64_t> BinaryReader::U64() {
  uint64_t v;
  SODA_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

Result<int64_t> BinaryReader::I64() {
  int64_t v;
  SODA_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

Result<std::string> BinaryReader::Str() {
  SODA_ASSIGN_OR_RETURN(uint32_t n, U32());
  if (remaining() < n) return Truncated("string");
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

Status BinaryReader::Bytes(void* out, size_t n) {
  if (remaining() < n) return Truncated("bytes");
  // An empty vector's data() may be null, and memcpy requires valid
  // pointers even for zero bytes.
  if (n == 0) return Status::OK();
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<std::string_view> BinaryReader::View(size_t n) {
  if (remaining() < n) return Truncated("view");
  std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

void WriteSchema(const Schema& schema, BinaryWriter* w) {
  w->U32(static_cast<uint32_t>(schema.num_fields()));
  for (const auto& f : schema.fields()) {
    w->Str(f.name);
    w->Str(f.qualifier);
    w->U8(static_cast<uint8_t>(f.type));
  }
}

Result<Schema> ReadSchema(BinaryReader* r) {
  SODA_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    SODA_ASSIGN_OR_RETURN(std::string name, r->Str());
    SODA_ASSIGN_OR_RETURN(std::string qualifier, r->Str());
    SODA_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type == 0 || type > static_cast<uint8_t>(DataType::kVarchar)) {
      return Status::ExecutionError("serde: invalid field type");
    }
    schema.AddField(
        Field(std::move(name), static_cast<DataType>(type), qualifier));
  }
  return schema;
}

void WriteColumn(const Column& column, BinaryWriter* w) {
  const size_t n = column.size();
  w->U8(static_cast<uint8_t>(column.type()));
  w->U64(n);
  switch (column.type()) {
    case DataType::kDouble:
      w->Bytes(column.F64Data(), n * sizeof(double));
      break;
    case DataType::kVarchar:
      for (const auto& s : column.Strings()) w->Str(s);
      break;
    default:  // kBigInt / kBool share the int64 payload
      w->Bytes(column.I64Data(), n * sizeof(int64_t));
      break;
  }
  const auto& validity = column.Validity();
  w->U8(validity.empty() ? 0 : 1);
  if (!validity.empty()) w->Bytes(validity.data(), validity.size());
}

Result<Column> ReadColumn(BinaryReader* r) {
  SODA_ASSIGN_OR_RETURN(uint8_t type_byte, r->U8());
  if (type_byte == 0 || type_byte > static_cast<uint8_t>(DataType::kVarchar)) {
    return Status::ExecutionError("serde: invalid column type");
  }
  DataType type = static_cast<DataType>(type_byte);
  SODA_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  Column column;
  switch (type) {
    case DataType::kDouble: {
      // Divide instead of multiplying: `n` comes from disk and a crafted
      // value must not overflow the bounds check.
      if (n > r->remaining() / sizeof(double)) {
        return Status::ExecutionError("serde: truncated double payload");
      }
      std::vector<double> data(n);
      SODA_RETURN_NOT_OK(r->Bytes(data.data(), n * sizeof(double)));
      column = Column::FromDoubles(std::move(data));
      break;
    }
    case DataType::kVarchar: {
      std::vector<std::string> data;
      data.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        SODA_ASSIGN_OR_RETURN(std::string s, r->Str());
        data.push_back(std::move(s));
      }
      column = Column::FromStrings(std::move(data));
      break;
    }
    default: {
      if (n > r->remaining() / sizeof(int64_t)) {
        return Status::ExecutionError("serde: truncated int64 payload");
      }
      std::vector<int64_t> data(n);
      SODA_RETURN_NOT_OK(r->Bytes(data.data(), n * sizeof(int64_t)));
      column = Column::FromRawI64(type, std::move(data));
      break;
    }
  }
  SODA_ASSIGN_OR_RETURN(uint8_t has_validity, r->U8());
  if (has_validity) {
    std::vector<uint8_t> validity(n);
    SODA_RETURN_NOT_OK(r->Bytes(validity.data(), n));
    column.SetValidity(std::move(validity));
  }
  return column;
}

namespace {

// Table payload flags (serde format v3): sealed tables persist their
// encoded row groups verbatim — checkpoints shrink with the data and
// recovery replays encoded, bit-identically. v3 additionally frames every
// segment as [u32 payload_len][u32 crc32][payload] with explicit group
// offsets and a quarantine bitmap, so one corrupt segment costs one row
// group (quarantined, degraded reads), not the whole table.
constexpr uint8_t kTableFlagSealed = 0x1;
constexpr uint8_t kTableFlagPartitioned = 0x2;

}  // namespace

void WritePartitionSpec(const PartitionSpec& spec, BinaryWriter* w) {
  w->U8(static_cast<uint8_t>(spec.kind));
  w->Str(spec.column);
  w->U32(static_cast<uint32_t>(spec.column_index));
  w->U32(static_cast<uint32_t>(spec.num_partitions));
  w->U32(static_cast<uint32_t>(spec.bounds.size()));
  for (int64_t b : spec.bounds) w->I64(b);
}

Result<PartitionSpec> ReadPartitionSpec(BinaryReader* r) {
  PartitionSpec spec;
  SODA_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind > static_cast<uint8_t>(PartitionSpec::Kind::kRange)) {
    return Status::ExecutionError("serde: invalid partition kind");
  }
  spec.kind = static_cast<PartitionSpec::Kind>(kind);
  SODA_ASSIGN_OR_RETURN(spec.column, r->Str());
  SODA_ASSIGN_OR_RETURN(uint32_t col_idx, r->U32());
  spec.column_index = col_idx;
  SODA_ASSIGN_OR_RETURN(uint32_t num_parts, r->U32());
  spec.num_partitions = num_parts;
  SODA_ASSIGN_OR_RETURN(uint32_t num_bounds, r->U32());
  if (num_bounds > r->remaining() / sizeof(int64_t)) {
    return Status::ExecutionError("serde: truncated partition bounds");
  }
  spec.bounds.reserve(num_bounds);
  for (uint32_t i = 0; i < num_bounds; ++i) {
    SODA_ASSIGN_OR_RETURN(int64_t b, r->I64());
    spec.bounds.push_back(b);
  }
  return spec;
}

void WriteRowGroup(const RowGroup& group, BinaryWriter* w) {
  BinaryWriter sw;
  for (const SegmentPtr& seg : group) {
    sw = BinaryWriter();
    WriteSegment(*seg, &sw);
    w->U32(static_cast<uint32_t>(sw.buffer().size()));
    w->U32(Crc32(sw.buffer().data(), sw.buffer().size()));
    w->Bytes(sw.buffer().data(), sw.buffer().size());
  }
}

Result<RowGroup> ReadRowGroup(BinaryReader* r, const Schema& schema,
                              size_t rows, bool* corrupt) {
  // Segments are length + CRC framed: a checksum failure costs exactly
  // one row group — the group gets decode-safe all-NULL placeholders and
  // the read continues at the next frame.
  RowGroup group;
  group.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    SODA_ASSIGN_OR_RETURN(uint32_t payload_len, r->U32());
    SODA_ASSIGN_OR_RETURN(uint32_t crc, r->U32());
    SODA_ASSIGN_OR_RETURN(std::string_view payload, r->View(payload_len));
    SegmentPtr seg;
    if (Crc32(payload.data(), payload.size()) == crc) {
      BinaryReader sr(payload);
      auto parsed = ReadSegment(&sr);
      if (parsed.ok() && (*parsed)->type == schema.field(c).type &&
          (*parsed)->row_count() == rows) {
        seg = parsed.MoveValueOrDie();
        // Exclusively owned here (just parsed); stamp the verified
        // frame CRC so the scrub pass can re-check it later.
        const_cast<Segment*>(seg.get())->crc = crc;
      }
    }
    if (seg == nullptr) {
      *corrupt = true;
      seg = MakePlaceholderSegment(schema.field(c).type, rows);
    }
    group.push_back(std::move(seg));
  }
  return group;
}

void WriteTable(const Table& table, BinaryWriter* w) {
  w->Str(table.name());
  WriteSchema(table.schema(), w);
  uint8_t flags = 0;
  if (table.sealed()) flags |= kTableFlagSealed;
  if (table.partition_spec().partitioned()) flags |= kTableFlagPartitioned;
  w->U8(flags);
  if (table.partition_spec().partitioned()) {
    WritePartitionSpec(table.partition_spec(), w);
  }
  if (table.sealed()) {
    const size_t num_groups = table.num_row_groups();
    w->U32(static_cast<uint32_t>(num_groups));
    // Explicit group offsets: with them, a group whose segments are
    // corrupt still has a known row count, so its placeholder keeps the
    // table's row addressing intact.
    for (size_t g = 0; g <= num_groups; ++g) {
      w->U64(table.group_offset(g));  // group_offsets has num_groups+1 entries
    }
    const auto& offsets = table.partition_offsets();
    w->U32(static_cast<uint32_t>(offsets.size()));
    for (size_t o : offsets) w->U64(o);
    // Quarantine bitmap: quarantine survives checkpoint + restart.
    for (size_t g = 0; g < num_groups; ++g) {
      w->U8(table.group_quarantined(g) ? 1 : 0);
    }
    for (size_t g = 0; g < num_groups; ++g) {
      WriteRowGroup(table.row_group(g), w);
    }
    return;
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    WriteColumn(table.column(c), w);
  }
}

Result<TablePtr> ReadTable(BinaryReader* r) {
  SODA_ASSIGN_OR_RETURN(std::string name, r->Str());
  SODA_ASSIGN_OR_RETURN(Schema schema, ReadSchema(r));
  auto table = std::make_shared<Table>(name, schema);
  SODA_ASSIGN_OR_RETURN(uint8_t flags, r->U8());
  if (flags & kTableFlagPartitioned) {
    SODA_ASSIGN_OR_RETURN(PartitionSpec spec, ReadPartitionSpec(r));
    table->set_partition_spec(std::move(spec));
  }
  if (flags & kTableFlagSealed) {
    SODA_ASSIGN_OR_RETURN(uint32_t num_groups, r->U32());
    if (uint64_t{num_groups} + 1 > r->remaining() / sizeof(uint64_t)) {
      return Status::ExecutionError("serde: truncated group offsets");
    }
    std::vector<size_t> group_offsets;
    group_offsets.reserve(num_groups + 1);
    for (uint32_t g = 0; g <= num_groups; ++g) {
      SODA_ASSIGN_OR_RETURN(uint64_t o, r->U64());
      group_offsets.push_back(o);
    }
    if (group_offsets.front() != 0 ||
        !std::is_sorted(group_offsets.begin(), group_offsets.end())) {
      return Status::ExecutionError("serde: bad group offsets");
    }
    SODA_ASSIGN_OR_RETURN(uint32_t num_offsets, r->U32());
    if (num_offsets > r->remaining() / sizeof(uint64_t)) {
      return Status::ExecutionError("serde: truncated partition offsets");
    }
    std::vector<size_t> offsets;
    offsets.reserve(num_offsets);
    for (uint32_t i = 0; i < num_offsets; ++i) {
      SODA_ASSIGN_OR_RETURN(uint64_t o, r->U64());
      offsets.push_back(o);
    }
    std::vector<uint8_t> quarantined(num_groups, 0);
    if (num_groups > 0) {
      SODA_RETURN_NOT_OK(r->Bytes(quarantined.data(), num_groups));
    }
    std::vector<RowGroup> groups;
    groups.reserve(num_groups);
    for (uint32_t g = 0; g < num_groups; ++g) {
      bool corrupt = false;
      SODA_ASSIGN_OR_RETURN(
          RowGroup group,
          ReadRowGroup(r, schema, group_offsets[g + 1] - group_offsets[g],
                       &corrupt));
      if (corrupt) quarantined[g] = 1;
      groups.push_back(std::move(group));
    }
    SODA_RETURN_NOT_OK(
        table->AdoptSealed(std::move(groups), std::move(offsets)));
    for (uint32_t g = 0; g < num_groups; ++g) {
      if (quarantined[g]) table->MarkGroupQuarantined(g);
    }
    return table;
  }
  // Unsealed: plain columns in schema order.
  size_t rows = 0;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    SODA_ASSIGN_OR_RETURN(Column column, ReadColumn(r));
    if (column.type() != schema.field(c).type) {
      return Status::ExecutionError("serde: column/schema type mismatch");
    }
    if (c == 0) {
      rows = column.size();
    } else if (column.size() != rows) {
      return Status::ExecutionError("serde: ragged table payload");
    }
    SODA_RETURN_NOT_OK(table->SetColumn(c, std::move(column)));
  }
  return table;
}

}  // namespace soda
