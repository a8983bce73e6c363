/// \file value.h
/// A boxed scalar value — used at the engine's edges (literals, query
/// results, tests). The vectorized execution path never boxes per-row
/// values; see storage/column.h.

#ifndef SODA_TYPES_VALUE_H_
#define SODA_TYPES_VALUE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>

#include "types/data_type.h"

namespace soda {

/// Dynamically typed scalar. NULL is represented by is_null() regardless of
/// the declared type.
class Value {
 public:
  /// NULL of unknown type.
  Value() : type_(DataType::kInvalid), null_(true) {}

  static Value Null(DataType type = DataType::kInvalid) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) { return Value(DataType::kBool, int64_t{b}); }
  static Value BigInt(int64_t i) { return Value(DataType::kBigInt, i); }
  static Value Double(double d) { return Value(DataType::kDouble, d); }
  static Value Varchar(std::string s) {
    Value v;
    v.type_ = DataType::kVarchar;
    v.null_ = false;
    v.payload_ = std::move(s);
    return v;
  }

  DataType type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return std::get<int64_t>(payload_) != 0; }
  int64_t bigint_value() const { return std::get<int64_t>(payload_); }
  double double_value() const { return std::get<double>(payload_); }
  const std::string& varchar_value() const {
    return std::get<std::string>(payload_);
  }

  /// Numeric value as double (works for kBigInt, kDouble, kBool).
  double AsDouble() const;
  /// Numeric value as int64 (truncates doubles).
  int64_t AsBigInt() const;

  /// Casts to `target`; numeric casts convert, string<->numeric parses /
  /// formats. Returns TypeError when impossible.
  Result<Value> CastTo(DataType target) const;

  /// SQL-ish rendering ("NULL", "3.14", "'abc'" without quotes).
  std::string ToString() const;

  /// Deep equality: same nullness and, for non-null, same type-family and
  /// payload (ints and doubles compare numerically).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Ordering for sorting: NULLs first, then by payload.
  bool operator<(const Value& other) const;

 private:
  template <typename T>
  Value(DataType t, T payload) : type_(t), null_(false), payload_(payload) {}

  DataType type_;
  bool null_;
  std::variant<int64_t, double, std::string> payload_;
};

/// Three-way DOUBLE compare: negative, zero or positive as `a` sorts
/// before, equal to or after `b`. PostgreSQL's rule makes it a total
/// order: NaN equals NaN and sorts after every number; -0.0 equals 0.0.
/// Comparisons, ORDER BY, join keys, grouping and scan pushdown (zone
/// maps included) all use it.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = std::isnan(a);  // at least one side is NaN here
  return a_nan == std::isnan(b) ? 0 : (a_nan ? 1 : -1);
}

/// DOUBLE -> BIGINT, truncating toward zero. False for NaN and for values
/// outside BIGINT's range [-2^63, 2^63), where a plain cast is undefined;
/// CAST and the integral math functions make those rows NULL.
inline bool DoubleToBigInt(double d, int64_t* out) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(d >= -kTwo63 && d < kTwo63)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

}  // namespace soda

#endif  // SODA_TYPES_VALUE_H_
