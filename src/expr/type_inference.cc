#include "expr/type_inference.h"

#include <set>

namespace soda {

namespace {
Status IncompatibleTypes(const std::string& what, DataType l, DataType r) {
  return Status::TypeError("incompatible types for " + what + ": " +
                           DataTypeToString(l) + " vs " +
                           DataTypeToString(r));
}
}  // namespace

Result<DataType> InferBinaryType(BinaryOp op, DataType l, DataType r) {
  if (IsLogical(op)) {
    if (l != DataType::kBool || r != DataType::kBool) {
      return IncompatibleTypes("logical operator", l, r);
    }
    return DataType::kBool;
  }
  if (IsComparison(op)) {
    DataType common = CommonType(l, r);
    if (common == DataType::kInvalid) {
      return IncompatibleTypes("comparison", l, r);
    }
    return DataType::kBool;
  }
  if (op == BinaryOp::kConcat) {
    // Either side may be coerced to string.
    return DataType::kVarchar;
  }
  // Arithmetic.
  if (!IsNumeric(l) || !IsNumeric(r)) {
    return IncompatibleTypes("arithmetic", l, r);
  }
  if (op == BinaryOp::kPow) return DataType::kDouble;
  if (l == DataType::kBigInt && r == DataType::kBigInt) {
    return DataType::kBigInt;
  }
  return DataType::kDouble;
}

Result<DataType> InferUnaryType(UnaryOp op, DataType child) {
  if (op == UnaryOp::kNot) {
    if (child != DataType::kBool) {
      return Status::TypeError("NOT requires a boolean operand");
    }
    return DataType::kBool;
  }
  if (!IsNumeric(child)) {
    return Status::TypeError("unary minus requires a numeric operand");
  }
  return child;
}

namespace {
const std::set<std::string>& ScalarFunctions() {
  static const std::set<std::string> kFns = {
      "abs",  "sqrt",  "pow",      "power", "exp",   "ln",    "log",
      "floor", "ceil", "round",    "least", "greatest", "mod", "sign",
      "length", "lower", "upper",  "substr", "like", "isnull"};
  return kFns;
}

const std::set<std::string>& AggregateFunctions() {
  static const std::set<std::string> kFns = {"count", "sum",    "avg", "min",
                                             "max",   "stddev", "var"};
  return kFns;
}
}  // namespace

bool IsScalarFunction(const std::string& name) {
  return ScalarFunctions().count(name) > 0;
}

bool IsAggregateFunction(const std::string& name) {
  return AggregateFunctions().count(name) > 0;
}

Result<DataType> InferFunctionType(const std::string& name,
                                   const std::vector<DataType>& args) {
  auto require_arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::TypeError(name + " expects " + std::to_string(n) +
                               " argument(s), got " +
                               std::to_string(args.size()));
    }
    return Status::OK();
  };
  auto all_numeric = [&]() -> Status {
    for (DataType t : args) {
      if (!IsNumeric(t)) {
        return Status::TypeError(name + " expects numeric arguments");
      }
    }
    return Status::OK();
  };

  if (name == "abs" || name == "sign") {
    SODA_RETURN_NOT_OK(require_arity(1));
    SODA_RETURN_NOT_OK(all_numeric());
    return args[0];
  }
  if (name == "sqrt" || name == "exp" || name == "ln" || name == "log") {
    SODA_RETURN_NOT_OK(require_arity(1));
    SODA_RETURN_NOT_OK(all_numeric());
    return DataType::kDouble;
  }
  if (name == "floor" || name == "ceil" || name == "round") {
    SODA_RETURN_NOT_OK(require_arity(1));
    SODA_RETURN_NOT_OK(all_numeric());
    return DataType::kBigInt;
  }
  if (name == "pow" || name == "power") {
    SODA_RETURN_NOT_OK(require_arity(2));
    SODA_RETURN_NOT_OK(all_numeric());
    return DataType::kDouble;
  }
  if (name == "mod") {
    SODA_RETURN_NOT_OK(require_arity(2));
    SODA_RETURN_NOT_OK(all_numeric());
    return (args[0] == DataType::kBigInt && args[1] == DataType::kBigInt)
               ? DataType::kBigInt
               : DataType::kDouble;
  }
  if (name == "least" || name == "greatest") {
    if (args.empty()) {
      return Status::TypeError(name + " expects at least one argument");
    }
    SODA_RETURN_NOT_OK(all_numeric());
    DataType out = args[0];
    for (DataType t : args) out = CommonType(out, t);
    return out;
  }
  if (name == "length") {
    SODA_RETURN_NOT_OK(require_arity(1));
    if (args[0] != DataType::kVarchar) {
      return Status::TypeError("length expects a VARCHAR argument");
    }
    return DataType::kBigInt;
  }
  if (name == "lower" || name == "upper") {
    SODA_RETURN_NOT_OK(require_arity(1));
    if (args[0] != DataType::kVarchar) {
      return Status::TypeError(name + " expects a VARCHAR argument");
    }
    return DataType::kVarchar;
  }
  if (name == "like") {
    SODA_RETURN_NOT_OK(require_arity(2));
    if (args[0] != DataType::kVarchar || args[1] != DataType::kVarchar) {
      return Status::TypeError("like expects (VARCHAR, VARCHAR)");
    }
    return DataType::kBool;
  }
  if (name == "isnull") {
    SODA_RETURN_NOT_OK(require_arity(1));
    return DataType::kBool;  // any argument type
  }
  if (name == "substr") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::TypeError("substr expects 2 or 3 arguments");
    }
    if (args[0] != DataType::kVarchar || args[1] != DataType::kBigInt ||
        (args.size() == 3 && args[2] != DataType::kBigInt)) {
      return Status::TypeError("substr expects (VARCHAR, BIGINT[, BIGINT])");
    }
    return DataType::kVarchar;
  }
  return Status::TypeError("unknown function: " + name);
}

Result<DataType> InferAggregateType(const std::string& name, DataType arg) {
  if (name == "count") return DataType::kBigInt;
  if (!IsNumeric(arg)) {
    return Status::TypeError(name + " expects a numeric argument");
  }
  if (name == "min" || name == "max" || name == "sum") return arg;
  if (name == "avg" || name == "stddev" || name == "var") {
    return DataType::kDouble;
  }
  return Status::TypeError("unknown aggregate: " + name);
}

}  // namespace soda
