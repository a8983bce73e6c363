#include "expr/evaluator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <type_traits>

#include "util/logging.h"
#include "util/string_util.h"

namespace soda {

namespace {

/// One evaluated expression node. A column reference borrows the input
/// chunk's column, a computed node owns its result, and a non-NULL literal
/// stays scalar: a one-row column whose row 0 stands for every row. The
/// kernels below read all three through typed readers, so neither column
/// references nor literals are copied at any node.
struct Operand {
  const Column* borrowed = nullptr;
  Column owned;
  bool scalar = false;

  const Column& column() const { return borrowed ? *borrowed : owned; }
  DataType type() const { return column().type(); }
  /// Validity bytes, or null when every row is valid.
  const uint8_t* validity() const {
    const std::vector<uint8_t>& v = column().Validity();
    return scalar || v.empty() ? nullptr : v.data();
  }
};

/// Typed element readers: row i of a column payload, or the one scalar
/// value for every row.
template <typename T>
struct ColumnReader {
  const T* data;
  const T& operator[](size_t i) const { return data[i]; }
};
template <typename T>
struct ScalarReader {
  T value;
  const T& operator[](size_t) const { return value; }
};

template <typename T>
const T* Payload(const Column& c) {
  if constexpr (std::is_same_v<T, double>) {
    return c.F64Data();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return c.Strings().data();
  } else {
    return c.I64Data();
  }
}

/// Calls `fn` with a reader over `o`'s payload, which must be of type T
/// (int64_t for BIGINT/BOOL, double, std::string).
template <typename T, typename Fn>
void Read(const Operand& o, Fn&& fn) {
  const T* data = Payload<T>(o.column());
  if (o.scalar) {
    fn(ScalarReader<T>{data[0]});
  } else {
    fn(ColumnReader<T>{data});
  }
}

/// Read() for a numeric operand of either payload type.
template <typename Fn>
void ReadNumeric(const Operand& o, Fn&& fn) {
  if (o.type() == DataType::kDouble) {
    Read<double>(o, fn);
  } else {
    Read<int64_t>(o, fn);
  }
}

/// Turns a scalar operand into an owned column of `n` copies.
const Column& Materialize(Operand* o, size_t n) {
  if (!o->scalar) return o->column();
  Column c(o->type());
  switch (c.type()) {
    case DataType::kDouble:
      c.AppendRunDouble(o->owned.GetDouble(0), n);
      break;
    case DataType::kVarchar:
      c.AppendRepeated(o->owned, 0, n);
      break;
    default:
      c.AppendRunBigInt(o->owned.GetBigInt(0), n);
      break;
  }
  o->owned = std::move(c);
  o->scalar = false;
  return o->owned;
}

/// ANDs `o`'s validity into `acc`, where empty means all valid so far.
void AndValidity(const Operand& o, size_t n, std::vector<uint8_t>* acc) {
  const uint8_t* v = o.validity();
  if (v == nullptr) return;
  if (acc->empty()) {
    acc->assign(v, v + n);
  } else {
    for (size_t i = 0; i < n; ++i) (*acc)[i] &= v[i];
  }
}

/// AND of the operands' validity; empty (all valid) when none has any.
std::vector<uint8_t> MergeValidity(std::initializer_list<const Operand*> ops,
                                   size_t n) {
  std::vector<uint8_t> out;
  for (const Operand* o : ops) AndValidity(*o, n, &out);
  return out;
}

/// Installs `validity` on a numeric result and zeroes its NULL rows'
/// payload, which the kernels computed from placeholder inputs.
void SetNulls(Column* out, std::vector<uint8_t> validity) {
  if (validity.empty()) return;
  const size_t n = validity.size();
  if (out->type() == DataType::kDouble) {
    double* o = out->MutableF64Data();
    for (size_t i = 0; i < n; ++i) o[i] = validity[i] ? o[i] : 0.0;
  } else {
    int64_t* o = out->MutableI64Data();
    for (size_t i = 0; i < n; ++i) o[i] = validity[i] ? o[i] : 0;
  }
  out->SetValidity(std::move(validity));
}

/// A numeric result column of `n` zeroed rows, written in place.
Column NumericResult(DataType type, size_t n) {
  Column c(type);
  c.ResizeNumeric(n);
  return c;
}

/// out[i] = op(a[i], b[i]) in R; A and B are readers of any numeric type.
template <typename R, typename A, typename B, typename Op>
void Map2(const A& a, const B& b, R* out, size_t n, Op op) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = op(static_cast<R>(a[i]), static_cast<R>(b[i]));
  }
}

/// `^`: an exponent of 2 squares by multiplication, which is correctly
/// rounded and equals the lambda kernel's kSquareTop bit for bit.
double Pow(double x, double y) { return y == 2.0 ? x * x : std::pow(x, y); }

/// BIGINT + - * wrap around on overflow instead of being undefined.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

template <typename A, typename B>
void IntArithmetic(BinaryOp op, const A& a, const B& b, int64_t* out,
                   std::vector<uint8_t>* validity, size_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      Map2<int64_t>(a, b, out, n, [](int64_t x, int64_t y) {
        return Wrap(static_cast<uint64_t>(x) + static_cast<uint64_t>(y));
      });
      return;
    case BinaryOp::kSub:
      Map2<int64_t>(a, b, out, n, [](int64_t x, int64_t y) {
        return Wrap(static_cast<uint64_t>(x) - static_cast<uint64_t>(y));
      });
      return;
    case BinaryOp::kMul:
      Map2<int64_t>(a, b, out, n, [](int64_t x, int64_t y) {
        return Wrap(static_cast<uint64_t>(x) * static_cast<uint64_t>(y));
      });
      return;
    default: {
      // kDiv / kMod: a zero divisor yields NULL (evaluator.h); -1 is
      // special-cased because INT64_MIN / -1 traps.
      const bool mod = op == BinaryOp::kMod;
      if (validity->empty()) validity->assign(n, 1);
      uint8_t* valid = validity->data();
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = a[i];
        const int64_t d = b[i];
        if (d == 0) {
          valid[i] = 0;
        } else if (d == -1) {
          out[i] = mod ? 0 : Wrap(0 - static_cast<uint64_t>(x));
        } else {
          out[i] = mod ? x % d : x / d;
        }
      }
      return;
    }
  }
}

template <typename A, typename B>
void DoubleArithmetic(BinaryOp op, const A& a, const B& b, double* out,
                      size_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      Map2<double>(a, b, out, n, std::plus<double>());
      return;
    case BinaryOp::kSub:
      Map2<double>(a, b, out, n, std::minus<double>());
      return;
    case BinaryOp::kMul:
      Map2<double>(a, b, out, n, std::multiplies<double>());
      return;
    case BinaryOp::kDiv:
      Map2<double>(a, b, out, n, std::divides<double>());
      return;
    case BinaryOp::kMod:
      Map2<double>(a, b, out, n,
                   [](double x, double y) { return std::fmod(x, y); });
      return;
    default:
      Map2<double>(a, b, out, n, Pow);
      return;
  }
}

/// + - * / % ^ of two numeric operands into a result of `type` (BIGINT
/// only when both operands are BIGINT; `^` is always DOUBLE).
Status Arithmetic(BinaryOp op, DataType type, const Operand& l,
                  const Operand& r, size_t n, Operand* out) {
  std::vector<uint8_t> validity = MergeValidity({&l, &r}, n);
  Column res = NumericResult(type, n);
  if (type == DataType::kBigInt) {
    if (l.type() == DataType::kDouble || r.type() == DataType::kDouble) {
      return Status::Internal("BIGINT arithmetic over a DOUBLE operand");
    }
    int64_t* o = res.MutableI64Data();
    Read<int64_t>(l, [&](const auto& a) {
      Read<int64_t>(r, [&](const auto& b) {
        IntArithmetic(op, a, b, o, &validity, n);
      });
    });
  } else {
    double* o = res.MutableF64Data();
    if (op == BinaryOp::kPow && r.scalar && r.column().GetNumeric(0) == 2.0) {
      ReadNumeric(l, [&](const auto& a) {
        for (size_t i = 0; i < n; ++i) {
          const double x = static_cast<double>(a[i]);
          o[i] = x * x;
        }
      });
    } else {
      ReadNumeric(l, [&](const auto& a) {
        ReadNumeric(r, [&](const auto& b) {
          DoubleArithmetic(op, a, b, o, n);
        });
      });
    }
  }
  SetNulls(&res, std::move(validity));
  out->owned = std::move(res);
  return Status::OK();
}

/// out[i] = pred(cmp(a[i], b[i])) for the comparison `op`, where cmp is a
/// three-way compare.
template <typename A, typename B, typename Cmp>
void CompareMap(BinaryOp op, const A& a, const B& b, int64_t* out, size_t n,
                Cmp cmp) {
  switch (op) {
    case BinaryOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) == 0;
      return;
    case BinaryOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) != 0;
      return;
    case BinaryOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) < 0;
      return;
    case BinaryOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) <= 0;
      return;
    case BinaryOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) > 0;
      return;
    default:
      for (size_t i = 0; i < n; ++i) out[i] = cmp(a[i], b[i]) >= 0;
      return;
  }
}

/// = <> < <= > >= into a BOOL column. VARCHAR compares bytewise, two
/// BIGINT/BOOL operands exactly, anything else as DOUBLE (CompareDoubles'
/// NaN rule).
Status Comparison(BinaryOp op, const Operand& l, const Operand& r, size_t n,
                  Operand* out) {
  std::vector<uint8_t> validity = MergeValidity({&l, &r}, n);
  Column res = NumericResult(DataType::kBool, n);
  int64_t* o = res.MutableI64Data();
  const bool l_str = l.type() == DataType::kVarchar;
  if (l_str || r.type() == DataType::kVarchar) {
    if (!l_str || r.type() != DataType::kVarchar) {
      return Status::Internal("comparison of VARCHAR with a non-VARCHAR");
    }
    Read<std::string>(l, [&](const auto& a) {
      Read<std::string>(r, [&](const auto& b) {
        CompareMap(op, a, b, o, n,
                   [](const std::string& x, const std::string& y) {
                     return x.compare(y);
                   });
      });
    });
  } else if (l.type() != DataType::kDouble && r.type() != DataType::kDouble) {
    Read<int64_t>(l, [&](const auto& a) {
      Read<int64_t>(r, [&](const auto& b) {
        CompareMap(op, a, b, o, n, [](int64_t x, int64_t y) {
          return (x > y) - (x < y);
        });
      });
    });
  } else {
    ReadNumeric(l, [&](const auto& a) {
      ReadNumeric(r, [&](const auto& b) {
        CompareMap(op, a, b, o, n, [](auto x, auto y) {
          return CompareDoubles(static_cast<double>(x),
                                static_cast<double>(y));
        });
      });
    });
  }
  SetNulls(&res, std::move(validity));
  out->owned = std::move(res);
  return Status::OK();
}

/// AND / OR; NULL counts as FALSE (evaluator.h), so the result has no NULLs.
void Logical(BinaryOp op, const Operand& l, const Operand& r, size_t n,
             Operand* out) {
  Column res = NumericResult(DataType::kBool, n);
  int64_t* o = res.MutableI64Data();
  const uint8_t* va = l.validity();
  const uint8_t* vb = r.validity();
  const bool is_and = op == BinaryOp::kAnd;
  Read<int64_t>(l, [&](const auto& a) {
    Read<int64_t>(r, [&](const auto& b) {
      for (size_t i = 0; i < n; ++i) {
        const bool x = (va == nullptr || va[i]) && a[i] != 0;
        const bool y = (vb == nullptr || vb[i]) && b[i] != 0;
        o[i] = is_and ? (x && y) : (x || y);
      }
    });
  });
  out->owned = std::move(res);
}

Column Concat(const Column& l, const Column& r, size_t n) {
  Column result(DataType::kVarchar);
  result.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      result.AppendNull();
    } else {
      result.AppendString(l.GetValue(i).ToString() +
                          r.GetValue(i).ToString());
    }
  }
  return result;
}

/// SQL LIKE matching: % = any sequence, _ = any single character.
bool LikeMatch(const char* s, const char* se, const char* p, const char* pe) {
  while (p != pe) {
    if (*p == '%') {
      ++p;
      if (p == pe) return true;
      for (const char* t = s; t <= se; ++t) {
        if (LikeMatch(t, se, p, pe)) return true;
      }
      return false;
    }
    if (s == se) return false;
    if (*p != '_' && *p != *s) return false;
    ++p;
    ++s;
  }
  return s == se;
}

/// out[i] = fn(x[i]) converted to BIGINT by DoubleToBigInt; a row whose
/// value is NaN or outside BIGINT's range becomes NULL in `validity`
/// (empty = all valid).
template <typename X, typename Fn>
void DoublesToBigInt(const X& x, size_t n, Fn fn, int64_t* out,
                     std::vector<uint8_t>* validity) {
  for (size_t i = 0; i < n; ++i) {
    if (!DoubleToBigInt(fn(static_cast<double>(x[i])), &out[i])) {
      if (validity->empty()) validity->assign(n, 1);
      (*validity)[i] = 0;
    }
  }
}

Status EvalFunction(const Expression& expr, std::vector<Operand>& args,
                    size_t n, Operand* out) {
  const std::string& fn = expr.function_name;

  // pow and mod are the `^` and `%` kernels under another name.
  if (fn == "pow" || fn == "power" || fn == "mod") {
    const BinaryOp op = fn == "mod" ? BinaryOp::kMod : BinaryOp::kPow;
    return Arithmetic(op, expr.type, args[0], args[1], n, out);
  }
  // isnull never propagates NULL — it *reports* it.
  if (fn == "isnull") {
    Column result = NumericResult(DataType::kBool, n);
    const uint8_t* v = args[0].validity();
    int64_t* o = result.MutableI64Data();
    for (size_t i = 0; v != nullptr && i < n; ++i) o[i] = v[i] == 0;
    out->owned = std::move(result);
    return Status::OK();
  }
  if (fn == "like") {
    const Column& s = Materialize(&args[0], n);
    const Column& p = Materialize(&args[1], n);
    Column result(DataType::kBool);
    result.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (s.IsNull(i) || p.IsNull(i)) {
        result.AppendNull();
        continue;
      }
      const std::string& sv = s.GetString(i);
      const std::string& pv = p.GetString(i);
      result.AppendBool(LikeMatch(sv.data(), sv.data() + sv.size(),
                                  pv.data(), pv.data() + pv.size()));
    }
    out->owned = std::move(result);
    return Status::OK();
  }

  if (fn == "length" || fn == "lower" || fn == "upper" || fn == "substr") {
    for (Operand& a : args) Materialize(&a, n);
    const Column& s = args[0].column();
    Column result(expr.type);
    result.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (s.IsNull(i)) {
        result.AppendNull();
        continue;
      }
      const std::string& v = s.GetString(i);
      if (fn == "length") {
        result.AppendBigInt(static_cast<int64_t>(v.size()));
      } else if (fn == "lower") {
        result.AppendString(ToLower(v));
      } else if (fn == "upper") {
        result.AppendString(ToUpper(v));
      } else {  // substr(s, start[, len]) with 1-based start
        int64_t start = args[1].column().GetBigInt(i);
        size_t begin = start > 0 ? static_cast<size_t>(start - 1) : 0;
        size_t len = args.size() == 3 && !args[2].column().IsNull(i)
                         ? static_cast<size_t>(std::max<int64_t>(
                               0, args[2].column().GetBigInt(i)))
                         : std::string::npos;
        result.AppendString(begin < v.size() ? v.substr(begin, len) : "");
      }
    }
    out->owned = std::move(result);
    return Status::OK();
  }

  // Numeric functions, computed in double space unless input and result
  // are both BIGINT.
  Column res = NumericResult(expr.type, n);
  std::vector<uint8_t> validity;
  if (fn == "least" || fn == "greatest") {
    const bool least = fn == "least";
    auto fold = [&](auto* o) {
      using T = std::remove_pointer_t<decltype(o)>;
      for (size_t k = 0; k < args.size(); ++k) {
        ReadNumeric(args[k], [&](const auto& x) {
          for (size_t i = 0; i < n; ++i) {
            const T v = static_cast<T>(x[i]);
            o[i] = k == 0 ? v : (least ? std::min(o[i], v) : std::max(o[i], v));
          }
        });
        AndValidity(args[k], n, &validity);
      }
    };
    if (expr.type == DataType::kDouble) {
      fold(res.MutableF64Data());
    } else {
      fold(res.MutableI64Data());
    }
  } else {
    double (*f)(double) = nullptr;
    if (fn == "abs") {
      f = [](double x) { return std::fabs(x); };
    } else if (fn == "sqrt") {
      f = [](double x) { return std::sqrt(x); };
    } else if (fn == "exp") {
      f = [](double x) { return std::exp(x); };
    } else if (fn == "ln" || fn == "log") {
      f = [](double x) { return std::log(x); };
    } else if (fn == "floor") {
      f = [](double x) { return std::floor(x); };
    } else if (fn == "ceil") {
      f = [](double x) { return std::ceil(x); };
    } else if (fn == "round") {
      f = [](double x) { return std::nearbyint(x); };
    } else if (fn == "sign") {
      f = [](double x) { return static_cast<double>((x > 0) - (x < 0)); };
    } else {
      return Status::Internal("unimplemented scalar function: " + fn);
    }
    validity = MergeValidity({&args[0]}, n);
    if (expr.type == DataType::kDouble) {
      double* o = res.MutableF64Data();
      ReadNumeric(args[0], [&](const auto& x) {
        for (size_t i = 0; i < n; ++i) o[i] = f(static_cast<double>(x[i]));
      });
    } else if (args[0].type() == DataType::kDouble) {
      Read<double>(args[0], [&](const auto& x) {
        DoublesToBigInt(x, n, f, res.MutableI64Data(), &validity);
      });
    } else {
      // BIGINT in and out, exact: floor, ceil and round are the identity.
      const bool abs = fn == "abs";
      const bool sign = fn == "sign";
      int64_t* o = res.MutableI64Data();
      Read<int64_t>(args[0], [&](const auto& x) {
        for (size_t i = 0; i < n; ++i) {
          const int64_t v = x[i];
          if (sign) {
            o[i] = (v > 0) - (v < 0);
          } else {
            o[i] = abs && v < 0 ? Wrap(0 - static_cast<uint64_t>(v)) : v;
          }
        }
      });
    }
  }
  SetNulls(&res, std::move(validity));
  out->owned = std::move(res);
  return Status::OK();
}

Status EvalCast(const Expression& expr, Operand* child, size_t n,
                Operand* out) {
  if (IsNumeric(expr.type) && IsNumeric(child->type())) {
    Column res = NumericResult(expr.type, n);
    std::vector<uint8_t> validity = MergeValidity({child}, n);
    if (expr.type == DataType::kDouble) {
      double* o = res.MutableF64Data();
      ReadNumeric(*child, [&](const auto& x) {
        for (size_t i = 0; i < n; ++i) o[i] = static_cast<double>(x[i]);
      });
    } else if (child->type() == DataType::kDouble) {
      Read<double>(*child, [&](const auto& x) {
        DoublesToBigInt(x, n, [](double v) { return v; },
                        res.MutableI64Data(), &validity);
      });
    } else {
      int64_t* o = res.MutableI64Data();
      Read<int64_t>(*child, [&](const auto& x) {
        for (size_t i = 0; i < n; ++i) o[i] = x[i];
      });
    }
    SetNulls(&res, std::move(validity));
    out->owned = std::move(res);
    return Status::OK();
  }
  const Column& c = Materialize(child, n);
  Column result(expr.type);
  result.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (c.IsNull(i)) {
      result.AppendNull();
      continue;
    }
    SODA_ASSIGN_OR_RETURN(Value v, c.GetValue(i).CastTo(expr.type));
    result.AppendValue(v);
  }
  out->owned = std::move(result);
  return Status::OK();
}

Status Eval(const Expression& expr, const DataChunk& input, Operand* out) {
  const size_t n = input.num_rows();
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      SODA_DCHECK(expr.column_index < input.num_columns());
      out->borrowed = &input.column(expr.column_index);
      return Status::OK();
    case ExprKind::kLiteral: {
      Column one(expr.type == DataType::kInvalid ? DataType::kBigInt
                                                 : expr.type);
      one.AppendValue(expr.literal);
      if (expr.literal.is_null()) {
        out->owned = Column(one.type());
        out->owned.AppendRepeated(one, 0, n);
      } else {
        out->owned = std::move(one);
        out->scalar = true;
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      Operand l, r;
      SODA_RETURN_NOT_OK(Eval(*expr.children[0], input, &l));
      SODA_RETURN_NOT_OK(Eval(*expr.children[1], input, &r));
      if (IsLogical(expr.binary_op)) {
        Logical(expr.binary_op, l, r, n, out);
        return Status::OK();
      }
      if (IsComparison(expr.binary_op)) {
        return Comparison(expr.binary_op, l, r, n, out);
      }
      if (expr.binary_op == BinaryOp::kConcat) {
        out->owned = Concat(Materialize(&l, n), Materialize(&r, n), n);
        return Status::OK();
      }
      return Arithmetic(expr.binary_op, expr.type, l, r, n, out);
    }
    case ExprKind::kUnary: {
      Operand c;
      SODA_RETURN_NOT_OK(Eval(*expr.children[0], input, &c));
      Column res = NumericResult(expr.type, n);
      if (expr.unary_op == UnaryOp::kNot) {
        int64_t* o = res.MutableI64Data();
        Read<int64_t>(c, [&](const auto& x) {
          for (size_t i = 0; i < n; ++i) o[i] = x[i] == 0;
        });
      } else if (expr.type == DataType::kDouble) {
        double* o = res.MutableF64Data();
        ReadNumeric(c, [&](const auto& x) {
          for (size_t i = 0; i < n; ++i) o[i] = -static_cast<double>(x[i]);
        });
      } else {
        int64_t* o = res.MutableI64Data();
        Read<int64_t>(c, [&](const auto& x) {
          for (size_t i = 0; i < n; ++i) {
            o[i] = Wrap(0 - static_cast<uint64_t>(x[i]));
          }
        });
      }
      SetNulls(&res, MergeValidity({&c}, n));
      out->owned = std::move(res);
      return Status::OK();
    }
    case ExprKind::kFunction: {
      std::vector<Operand> args(expr.children.size());
      for (size_t i = 0; i < expr.children.size(); ++i) {
        SODA_RETURN_NOT_OK(Eval(*expr.children[i], input, &args[i]));
      }
      return EvalFunction(expr, args, n, out);
    }
    case ExprKind::kCase: {
      // Eager evaluation of all branches, then per-row select.
      const size_t num_branches = expr.children.size();
      std::vector<Operand> parts(num_branches);
      for (size_t k = 0; k < num_branches; ++k) {
        SODA_RETURN_NOT_OK(Eval(*expr.children[k], input, &parts[k]));
        Materialize(&parts[k], n);
      }
      const size_t num_when = num_branches / 2;
      const Column& else_col = parts.back().column();
      Column result(expr.type);
      result.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Column* chosen = &else_col;
        for (size_t w = 0; w < num_when; ++w) {
          const Column& cond = parts[2 * w].column();
          if (!cond.IsNull(i) && cond.GetBigInt(i) != 0) {
            chosen = &parts[2 * w + 1].column();
            break;
          }
        }
        if (chosen->type() == expr.type) {
          result.AppendFrom(*chosen, i);
        } else {
          SODA_ASSIGN_OR_RETURN(Value v,
                                chosen->GetValue(i).CastTo(expr.type));
          result.AppendValue(v);
        }
      }
      out->owned = std::move(result);
      return Status::OK();
    }
    case ExprKind::kCast: {
      Operand c;
      SODA_RETURN_NOT_OK(Eval(*expr.children[0], input, &c));
      return EvalCast(expr, &c, n, out);
    }
    case ExprKind::kParameter:
      // EXECUTE substitutes literals into a clone of the prepared plan
      // before lowering; a parameter reaching the evaluator is a bug.
      return Status::Internal("unsubstituted parameter $" +
                              std::to_string(expr.column_index) +
                              " reached execution");
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

Status EvaluateExpression(const Expression& expr, const DataChunk& input,
                          Column* out) {
  Operand o;
  SODA_RETURN_NOT_OK(Eval(expr, input, &o));
  const size_t n = input.num_rows();
  Materialize(&o, n);
  if (o.borrowed != nullptr) {
    Column copy(o.borrowed->type());
    copy.AppendSlice(*o.borrowed, 0, n);
    *out = std::move(copy);
  } else {
    *out = std::move(o.owned);
  }
  return Status::OK();
}

Status EvaluatePredicate(const Expression& expr, const DataChunk& input,
                         std::vector<uint32_t>* selection) {
  Operand result;
  SODA_RETURN_NOT_OK(Eval(expr, input, &result));
  if (result.type() != DataType::kBool) {
    return Status::TypeError("predicate must be boolean, got " +
                             std::string(DataTypeToString(result.type())));
  }
  const size_t n = input.num_rows();
  const uint8_t* valid = result.validity();
  Read<int64_t>(result, [&](const auto& x) {
    for (size_t i = 0; i < n; ++i) {
      if ((valid == nullptr || valid[i]) && x[i] != 0) {
        selection->push_back(static_cast<uint32_t>(i));
      }
    }
  });
  return Status::OK();
}

Result<Value> EvaluateConstantExpression(const Expression& expr) {
  if (!expr.IsConstant()) {
    return Status::InvalidArgument("expression is not constant");
  }
  // Evaluate over a one-row chunk: a single dummy column provides n=1.
  DataChunk chunk;
  Column dummy(DataType::kBigInt);
  dummy.AppendBigInt(0);
  chunk.AddColumn(std::move(dummy));
  Column out;
  SODA_RETURN_NOT_OK(EvaluateExpression(expr, chunk, &out));
  if (out.size() != 1) return Status::Internal("constant eval arity");
  return out.GetValue(0);
}

}  // namespace soda
