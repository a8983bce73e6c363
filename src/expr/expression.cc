#include "expr/expression.h"

#include "util/logging.h"

namespace soda {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kPow:
      return "^";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kConcat:
      return "||";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogical(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

bool AllColumnRefs(const std::vector<ExprPtr>& exprs) {
  for (const auto& e : exprs) {
    if (e->kind != ExprKind::kColumnRef) return false;
  }
  return true;
}

ExprPtr Expression::ColumnRef(size_t index, DataType type, std::string name) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kColumnRef;
  e->type = type;
  e->column_index = index;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Expression::Literal(Value v) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kLiteral;
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

ExprPtr Expression::Binary(BinaryOp op, ExprPtr l, ExprPtr r, DataType type) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kBinary;
  e->type = type;
  e->binary_op = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Expression::Unary(UnaryOp op, ExprPtr child, DataType type) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kUnary;
  e->type = type;
  e->unary_op = op;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expression::Function(std::string name, std::vector<ExprPtr> args,
                             DataType type) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kFunction;
  e->type = type;
  e->function_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expression::Case(std::vector<ExprPtr> children, DataType type) {
  SODA_DCHECK(children.size() % 2 == 1);  // pairs + else
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kCase;
  e->type = type;
  e->children = std::move(children);
  return e;
}

ExprPtr Expression::Cast(ExprPtr child, DataType target) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kCast;
  e->type = target;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expression::Parameter(size_t slot, DataType type) {
  auto e = std::make_unique<Expression>();
  e->kind = ExprKind::kParameter;
  e->type = type;
  e->column_index = slot;
  return e;
}

ExprPtr Expression::Clone() const {
  auto e = std::make_unique<Expression>();
  e->kind = kind;
  e->type = type;
  e->column_index = column_index;
  e->column_name = column_name;
  e->literal = literal;
  e->binary_op = binary_op;
  e->unary_op = unary_op;
  e->function_name = function_name;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string Expression::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      // The index is part of the rendering: two same-named columns from
      // different relations must never print equal (the binder compares
      // bound-expression strings to match GROUP BY expressions).
      return (column_name.empty() ? "" : column_name) + "#" +
             std::to_string(column_index);
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " +
             BinaryOpToString(binary_op) + " " + children[1]->ToString() + ")";
    case ExprKind::kUnary:
      return std::string(unary_op == UnaryOp::kNegate ? "-" : "NOT ") +
             children[0]->ToString();
    case ExprKind::kFunction: {
      std::string out = function_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (size_t i = 0; i + 1 < children.size(); i += 2) {
        out += " WHEN " + children[i]->ToString() + " THEN " +
               children[i + 1]->ToString();
      }
      out += " ELSE " + children.back()->ToString() + " END";
      return out;
    }
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " +
             DataTypeToString(type) + ")";
    case ExprKind::kParameter:
      return "$" + std::to_string(column_index);
  }
  return "?";
}

bool Expression::IsConstant() const {
  // Parameters are not foldable: their value arrives at EXECUTE time.
  if (kind == ExprKind::kColumnRef || kind == ExprKind::kParameter) {
    return false;
  }
  for (const auto& c : children) {
    if (!c->IsConstant()) return false;
  }
  return true;
}

}  // namespace soda
