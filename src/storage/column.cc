#include "storage/column.h"

namespace soda {

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kVarchar:
      str_.reserve(n);
      break;
    case DataType::kDouble:
      f64_.reserve(n);
      break;
    default:
      i64_.reserve(n);
      break;
  }
}

void Column::Clear() {
  i64_.clear();
  f64_.clear();
  str_.clear();
  validity_.clear();
}

void Column::AppendNull() {
  if (validity_.empty()) validity_.assign(size(), 1);
  switch (type_) {
    case DataType::kVarchar:
      str_.emplace_back();
      break;
    case DataType::kDouble:
      f64_.push_back(0.0);
      break;
    default:
      i64_.push_back(0);
      break;
  }
  validity_.push_back(0);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
    case DataType::kBigInt:
      AppendBigInt(v.AsBigInt());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kVarchar:
      AppendString(v.varchar_value());
      break;
    default:
      SODA_DCHECK(false && "append to invalid column");
  }
}

void Column::AppendFrom(const Column& other, size_t row) {
  SODA_DCHECK(other.type_ == type_);
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kVarchar:
      AppendString(other.str_[row]);
      break;
    case DataType::kDouble:
      AppendDouble(other.f64_[row]);
      break;
    default:
      AppendBigInt(other.i64_[row]);
      break;
  }
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(i64_[i] != 0);
    case DataType::kBigInt:
      return Value::BigInt(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kVarchar:
      return Value::Varchar(str_[i]);
    default:
      return Value::Null();
  }
}

bool Column::HasNulls() const {
  for (uint8_t v : validity_) {
    if (!v) return true;
  }
  return false;
}

void Column::AppendSlice(const Column& other, size_t offset, size_t count) {
  SODA_DCHECK(other.type_ == type_);
  SODA_DCHECK(offset + count <= other.size());
  bool other_has_validity = !other.validity_.empty();
  bool need_validity = other_has_validity || !validity_.empty();
  if (need_validity && validity_.empty()) validity_.assign(size(), 1);
  switch (type_) {
    case DataType::kVarchar:
      str_.insert(str_.end(), other.str_.begin() + offset,
                  other.str_.begin() + offset + count);
      break;
    case DataType::kDouble:
      f64_.insert(f64_.end(), other.f64_.begin() + offset,
                  other.f64_.begin() + offset + count);
      break;
    default:
      i64_.insert(i64_.end(), other.i64_.begin() + offset,
                  other.i64_.begin() + offset + count);
      break;
  }
  if (need_validity) {
    if (other_has_validity) {
      validity_.insert(validity_.end(), other.validity_.begin() + offset,
                       other.validity_.begin() + offset + count);
    } else {
      validity_.insert(validity_.end(), count, 1);
    }
  }
}

void Column::AppendGather(const Column& other, const uint32_t* rows,
                          size_t count) {
  SODA_DCHECK(other.type_ == type_);
  const bool other_has_validity = !other.validity_.empty();
  // Materialize our validity if the source has one (an empty destination
  // still needs the vector non-conceptually-empty, hence the flag).
  const bool need_validity = other_has_validity || !validity_.empty();
  if (need_validity && validity_.empty()) validity_.assign(size(), 1);
  const size_t old = size();
  // Numeric payloads and validity are sized once and written in place.
  auto gather = [rows, count, old](auto& dst, const auto& src) {
    dst.resize(old + count);
    auto* out = dst.data() + old;
    for (size_t i = 0; i < count; ++i) out[i] = src[rows[i]];
  };
  switch (type_) {
    case DataType::kVarchar:
      str_.reserve(old + count);
      for (size_t i = 0; i < count; ++i) str_.push_back(other.str_[rows[i]]);
      break;
    case DataType::kDouble:
      gather(f64_, other.f64_);
      break;
    default:
      gather(i64_, other.i64_);
      break;
  }
  if (need_validity) {
    if (other_has_validity) {
      gather(validity_, other.validity_);
    } else {
      validity_.insert(validity_.end(), count, 1);
    }
  }
}

void Column::AppendRepeated(const Column& other, size_t row, size_t count) {
  SODA_DCHECK(other.type_ == type_);
  const bool null = other.IsNull(row);
  const bool need_validity = null || !validity_.empty();
  if (need_validity && validity_.empty()) validity_.assign(size(), 1);
  switch (type_) {
    case DataType::kVarchar:
      str_.insert(str_.end(), count, null ? std::string() : other.str_[row]);
      break;
    case DataType::kDouble:
      f64_.insert(f64_.end(), count, null ? 0.0 : other.f64_[row]);
      break;
    default:
      i64_.insert(i64_.end(), count, null ? 0 : other.i64_[row]);
      break;
  }
  if (need_validity) {
    validity_.insert(validity_.end(), count, null ? 0 : 1);
  }
}

Column Column::FromDoubles(std::vector<double> data) {
  Column c(DataType::kDouble);
  c.f64_ = std::move(data);
  return c;
}

Column Column::FromBigInts(std::vector<int64_t> data) {
  Column c(DataType::kBigInt);
  c.i64_ = std::move(data);
  return c;
}

Column Column::FromRawI64(DataType type, std::vector<int64_t> data) {
  SODA_DCHECK(type == DataType::kBigInt || type == DataType::kBool);
  Column c(type);
  c.i64_ = std::move(data);
  return c;
}

Column Column::FromStrings(std::vector<std::string> data) {
  Column c(DataType::kVarchar);
  c.str_ = std::move(data);
  return c;
}

void Column::SetValidity(std::vector<uint8_t> validity) {
  SODA_DCHECK(validity.empty() || validity.size() == size());
  validity_ = std::move(validity);
}

void Column::ResizeNumeric(size_t n) {
  SODA_DCHECK(type_ != DataType::kVarchar);
  if (type_ == DataType::kDouble) {
    f64_.resize(n, 0.0);
  } else {
    i64_.resize(n, 0);
  }
  if (!validity_.empty()) validity_.resize(n, 1);
}

size_t Column::MemoryUsage() const {
  size_t bytes = i64_.capacity() * sizeof(int64_t) +
                 f64_.capacity() * sizeof(double) +
                 validity_.capacity();
  for (const auto& s : str_) bytes += sizeof(std::string) + s.capacity();
  return bytes;
}

}  // namespace soda
