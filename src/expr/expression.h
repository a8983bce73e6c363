/// \file expression.h
/// Bound (resolved, typed) scalar expressions.
///
/// The SQL binder turns parser expressions into this representation:
/// column references are positional indices into the operator's input
/// schema, every node carries its result type. Lambda expressions (§7 of
/// the paper) bind to the concatenation of their tuple parameters'
/// schemas, so a bound lambda body is an ordinary `Expression` and reuses
/// the whole evaluation stack.

#ifndef SODA_EXPR_EXPRESSION_H_
#define SODA_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"

namespace soda {

enum class ExprKind {
  kColumnRef,  ///< input column by position
  kLiteral,    ///< constant
  kBinary,     ///< arithmetic / comparison / logical / concat
  kUnary,      ///< negate / not
  kFunction,   ///< scalar function call by name
  kCase,       ///< CASE WHEN ... THEN ... [ELSE ...] END
  kCast,       ///< CAST(child AS type)
  kParameter,  ///< typed $n placeholder in a prepared plan (never executed:
               ///< EXECUTE substitutes a literal before the plan runs)
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kPow,     ///< `^` — the paper's Listing 3 uses (a.x-b.x)^2
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kConcat,  ///< `||`
};

enum class UnaryOp { kNegate, kNot };

const char* BinaryOpToString(BinaryOp op);
bool IsComparison(BinaryOp op);
bool IsLogical(BinaryOp op);

struct Expression;
using ExprPtr = std::unique_ptr<Expression>;

/// A bound expression tree node.
struct Expression {
  ExprKind kind;
  DataType type = DataType::kInvalid;

  // kColumnRef; kParameter reuses this field as the 1-based $n slot
  size_t column_index = 0;
  std::string column_name;  ///< for diagnostics / output naming

  // kLiteral
  Value literal;

  // kBinary / kUnary
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNegate;

  // kFunction
  std::string function_name;  ///< lower-cased

  // kCase: children = [when1, then1, when2, then2, ..., else]; the else
  // branch is always present (bound to NULL literal when omitted).
  // kCast: target type in `type`, single child.
  std::vector<ExprPtr> children;

  // --- factories ---------------------------------------------------------
  static ExprPtr ColumnRef(size_t index, DataType type, std::string name = "");
  static ExprPtr Literal(Value v);
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r, DataType type);
  static ExprPtr Unary(UnaryOp op, ExprPtr child, DataType type);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args,
                          DataType type);
  static ExprPtr Case(std::vector<ExprPtr> children, DataType type);
  static ExprPtr Cast(ExprPtr child, DataType target);
  static ExprPtr Parameter(size_t slot, DataType type);

  ExprPtr Clone() const;
  std::string ToString() const;

  /// True when no kColumnRef occurs in the tree (then the expression can be
  /// folded to a literal).
  bool IsConstant() const;
};

/// True when every expression is a bare column reference (a projection
/// that only selects columns).
bool AllColumnRefs(const std::vector<ExprPtr>& exprs);

}  // namespace soda

#endif  // SODA_EXPR_EXPRESSION_H_
