#include "types/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace soda {

double Value::AsDouble() const {
  SODA_DCHECK(!null_);
  switch (type_) {
    case DataType::kBool:
    case DataType::kBigInt:
      return static_cast<double>(std::get<int64_t>(payload_));
    case DataType::kDouble:
      return std::get<double>(payload_);
    default:
      SODA_DCHECK(false && "AsDouble on non-numeric value");
      return 0;
  }
}

int64_t Value::AsBigInt() const {
  SODA_DCHECK(!null_);
  switch (type_) {
    case DataType::kBool:
    case DataType::kBigInt:
      return std::get<int64_t>(payload_);
    case DataType::kDouble:
      return static_cast<int64_t>(std::get<double>(payload_));
    default:
      SODA_DCHECK(false && "AsBigInt on non-numeric value");
      return 0;
  }
}

Result<Value> Value::CastTo(DataType target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case DataType::kBool:
      if (IsNumeric(type_)) return Value::Bool(AsDouble() != 0.0);
      break;
    case DataType::kBigInt:
      if (type_ == DataType::kDouble) {
        int64_t v = 0;
        return DoubleToBigInt(double_value(), &v) ? Value::BigInt(v)
                                                  : Value::Null(target);
      }
      if (IsNumeric(type_) || type_ == DataType::kBool) {
        return Value::BigInt(AsBigInt());
      }
      if (type_ == DataType::kVarchar) {
        char* end = nullptr;
        const std::string& s = varchar_value();
        long long v = std::strtoll(s.c_str(), &end, 10);
        if (end && *end == '\0' && !s.empty()) return Value::BigInt(v);
      }
      break;
    case DataType::kDouble:
      if (IsNumeric(type_) || type_ == DataType::kBool) {
        return Value::Double(AsDouble());
      }
      if (type_ == DataType::kVarchar) {
        char* end = nullptr;
        const std::string& s = varchar_value();
        double v = std::strtod(s.c_str(), &end);
        if (end && *end == '\0' && !s.empty()) return Value::Double(v);
      }
      break;
    case DataType::kVarchar:
      return Value::Varchar(ToString());
    default:
      break;
  }
  return Status::TypeError(std::string("cannot cast ") +
                           DataTypeToString(type_) + " to " +
                           DataTypeToString(target));
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kBigInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(bigint_value()));
      return buf;
    }
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_value());
      return buf;
    }
    case DataType::kVarchar:
      return varchar_value();
    default:
      return "<invalid>";
  }
}

bool Value::operator==(const Value& other) const {
  if (null_ || other.null_) return null_ == other.null_;
  if (type_ == DataType::kVarchar || other.type_ == DataType::kVarchar) {
    return type_ == other.type_ && varchar_value() == other.varchar_value();
  }
  return CompareDoubles(AsDouble(), other.AsDouble()) == 0;
}

bool Value::operator<(const Value& other) const {
  if (null_ != other.null_) return null_;  // NULLs first
  if (null_) return false;
  if (type_ == DataType::kVarchar && other.type_ == DataType::kVarchar) {
    return varchar_value() < other.varchar_value();
  }
  return CompareDoubles(AsDouble(), other.AsDouble()) < 0;
}

}  // namespace soda
