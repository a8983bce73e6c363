#include "expr/lambda_kernel.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace soda {

void LambdaKernel::Push(Op op, uint32_t arg, size_t* depth, int delta) {
  code_.push_back({op, arg});
  *depth = static_cast<size_t>(static_cast<long>(*depth) + delta);
  max_stack_ = std::max(max_stack_, *depth);
}

Status LambdaKernel::Emit(const Expression& e, size_t a_width, size_t* depth) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (!IsNumeric(e.type) && e.type != DataType::kBool) {
        return Status::TypeError(
            "lambda kernels support numeric columns only, got " +
            std::string(DataTypeToString(e.type)) + " for " + e.column_name);
      }
      if (e.column_index < a_width) {
        Push(Op::kPushA, static_cast<uint32_t>(e.column_index), depth, +1);
      } else {
        Push(Op::kPushB, static_cast<uint32_t>(e.column_index - a_width),
             depth, +1);
      }
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      if (e.literal.is_null()) {
        return Status::TypeError("NULL literals not allowed in lambdas");
      }
      constants_.push_back(e.literal.AsDouble());
      Push(Op::kPushConst, static_cast<uint32_t>(constants_.size() - 1),
           depth, +1);
      return Status::OK();
    }
    case ExprKind::kBinary: {
      SODA_RETURN_NOT_OK(Emit(*e.children[0], a_width, depth));
      SODA_RETURN_NOT_OK(Emit(*e.children[1], a_width, depth));
      Op op;
      switch (e.binary_op) {
        case BinaryOp::kAdd: op = Op::kAdd; break;
        case BinaryOp::kSub: op = Op::kSub; break;
        case BinaryOp::kMul: op = Op::kMul; break;
        case BinaryOp::kDiv: op = Op::kDiv; break;
        case BinaryOp::kMod: op = Op::kMod; break;
        case BinaryOp::kPow: op = Op::kPow; break;
        case BinaryOp::kEq: op = Op::kEq; break;
        case BinaryOp::kNe: op = Op::kNe; break;
        case BinaryOp::kLt: op = Op::kLt; break;
        case BinaryOp::kLe: op = Op::kLe; break;
        case BinaryOp::kGt: op = Op::kGt; break;
        case BinaryOp::kGe: op = Op::kGe; break;
        case BinaryOp::kAnd: op = Op::kAnd; break;
        case BinaryOp::kOr: op = Op::kOr; break;
        default:
          return Status::TypeError("operator not supported in lambda: " +
                                   std::string(BinaryOpToString(e.binary_op)));
      }
      Push(op, 0, depth, -1);
      return Status::OK();
    }
    case ExprKind::kUnary: {
      SODA_RETURN_NOT_OK(Emit(*e.children[0], a_width, depth));
      Push(e.unary_op == UnaryOp::kNegate ? Op::kNeg : Op::kNot, 0, depth, 0);
      return Status::OK();
    }
    case ExprKind::kParameter:
      return Status::TypeError("parameters not supported in lambdas");
    case ExprKind::kFunction: {
      const std::string& fn = e.function_name;
      if (fn == "least" || fn == "greatest") {
        SODA_RETURN_NOT_OK(Emit(*e.children[0], a_width, depth));
        for (size_t i = 1; i < e.children.size(); ++i) {
          SODA_RETURN_NOT_OK(Emit(*e.children[i], a_width, depth));
          Push(fn == "least" ? Op::kMin : Op::kMax, 0, depth, -1);
        }
        return Status::OK();
      }
      for (const auto& c : e.children) {
        SODA_RETURN_NOT_OK(Emit(*c, a_width, depth));
      }
      if (fn == "abs") {
        Push(Op::kAbs, 0, depth, 0);
      } else if (fn == "sqrt") {
        Push(Op::kSqrt, 0, depth, 0);
      } else if (fn == "exp") {
        Push(Op::kExp, 0, depth, 0);
      } else if (fn == "ln" || fn == "log") {
        Push(Op::kLn, 0, depth, 0);
      } else if (fn == "floor") {
        Push(Op::kFloor, 0, depth, 0);
      } else if (fn == "ceil") {
        Push(Op::kCeil, 0, depth, 0);
      } else if (fn == "round") {
        Push(Op::kRound, 0, depth, 0);
      } else if (fn == "sign") {
        Push(Op::kSign, 0, depth, 0);
      } else if (fn == "pow" || fn == "power") {
        Push(Op::kPow, 0, depth, -1);
      } else if (fn == "mod") {
        Push(Op::kMod, 0, depth, -1);
      } else {
        return Status::TypeError("function not supported in lambda: " + fn);
      }
      return Status::OK();
    }
    case ExprKind::kCase: {
      // Lower CASE to nested selects, emitted right-to-left:
      //   select(cond_i, then_i, rest)
      // Start with the else branch on the stack, then wrap each WHEN from
      // the last to the first. kSelect pops (cond, then, else) in emit
      // order cond,then,else -> we emit cond, then, else and pop 2.
      size_t num_when = e.children.size() / 2;
      // Build recursively: emit cond1, then1, (cond2, then2, (..., else,
      // select), select), select.
      // Simpler: recursive lambda.
      std::function<Status(size_t)> emit_from = [&](size_t w) -> Status {
        if (w == num_when) return Emit(*e.children.back(), a_width, depth);
        SODA_RETURN_NOT_OK(Emit(*e.children[2 * w], a_width, depth));
        SODA_RETURN_NOT_OK(Emit(*e.children[2 * w + 1], a_width, depth));
        SODA_RETURN_NOT_OK(emit_from(w + 1));
        Push(Op::kSelect, 0, depth, -2);
        return Status::OK();
      };
      return emit_from(0);
    }
    case ExprKind::kCast: {
      if (!IsNumeric(e.type) && e.type != DataType::kBool) {
        return Status::TypeError("non-numeric cast in lambda");
      }
      SODA_RETURN_NOT_OK(Emit(*e.children[0], a_width, depth));
      if (e.type == DataType::kBigInt) Push(Op::kRound, 0, depth, 0);
      return Status::OK();
    }
  }
  return Status::Internal("unknown expression kind in lambda");
}

namespace {

bool GetConstant(const Expression& e, double* v) {
  if (e.kind != ExprKind::kLiteral || e.literal.is_null() ||
      !IsNumeric(e.literal.type())) {
    return false;
  }
  *v = e.literal.AsDouble();
  return true;
}

}  // namespace

bool LambdaKernel::DetectDistanceForm(const Expression& body, size_t a_width,
                                      SpecialForm* form,
                                      std::vector<DiffTerm>* terms) {
  auto operand = [&](const Expression& e, Operand* out) {
    if (e.kind != ExprKind::kColumnRef) return false;
    if (!IsNumeric(e.type) && e.type != DataType::kBool) return false;
    if (e.column_index < a_width) {
      out->index = static_cast<uint32_t>(e.column_index);
      out->from_b = false;
    } else {
      out->index = static_cast<uint32_t>(e.column_index - a_width);
      out->from_b = true;
    }
    return true;
  };
  auto diff = [&](const Expression& e, DiffTerm* t) {
    return e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kSub &&
           operand(*e.children[0], &t->x) && operand(*e.children[1], &t->y);
  };
  // Core term shapes: (x-y)^2 / pow(x-y, 2) / abs(x-y).
  auto core = [&](const Expression& e, SpecialForm* f, DiffTerm* t) {
    double exponent;
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kPow &&
        GetConstant(*e.children[1], &exponent) && exponent == 2.0 &&
        diff(*e.children[0], t)) {
      *f = SpecialForm::kSumSquaredDiffs;
      return true;
    }
    if (e.kind == ExprKind::kFunction &&
        (e.function_name == "pow" || e.function_name == "power") &&
        e.children.size() == 2 && GetConstant(*e.children[1], &exponent) &&
        exponent == 2.0 && diff(*e.children[0], t)) {
      *f = SpecialForm::kSumSquaredDiffs;
      return true;
    }
    if (e.kind == ExprKind::kFunction && e.function_name == "abs" &&
        e.children.size() == 1 && diff(*e.children[0], t)) {
      *f = SpecialForm::kSumAbsDiffs;
      return true;
    }
    return false;
  };
  // Term: core, optionally scaled by a constant on either side.
  auto term = [&](const Expression& e, SpecialForm* f, DiffTerm* t) {
    if (core(e, f, t)) return true;
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kMul) {
      double w;
      if (GetConstant(*e.children[0], &w) && core(*e.children[1], f, t)) {
        t->weight = w;
        return true;
      }
      if (GetConstant(*e.children[1], &w) && core(*e.children[0], f, t)) {
        t->weight = w;
        return true;
      }
    }
    return false;
  };

  // Flatten the +-tree and parse every leaf as a term of one family.
  std::vector<const Expression*> stack = {&body};
  SpecialForm detected = SpecialForm::kNone;
  while (!stack.empty()) {
    const Expression* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAdd) {
      stack.push_back(e->children[0].get());
      stack.push_back(e->children[1].get());
      continue;
    }
    SpecialForm f = SpecialForm::kNone;
    DiffTerm t;
    if (!term(*e, &f, &t)) return false;
    if (detected == SpecialForm::kNone) detected = f;
    if (f != detected) return false;  // mixed families -> VM
    terms->push_back(t);
  }
  if (terms->empty()) return false;
  *form = detected;
  return true;
}

std::optional<LambdaKernel::DimensionForm> LambdaKernel::PerDimensionForm(
    size_t d) const {
  if (form_ == SpecialForm::kNone || terms_.size() != d) return std::nullopt;
  DimensionForm out;
  out.squared = form_ == SpecialForm::kSumSquaredDiffs;
  out.weights.assign(d, 0.0);
  std::vector<bool> seen(d, false);
  for (const DiffTerm& t : terms_) {
    const size_t j = t.x.index;
    if (t.x.from_b == t.y.from_b || t.y.index != j || j >= d || seen[j]) {
      return std::nullopt;
    }
    seen[j] = true;
    out.weights[j] = t.weight;
  }
  return out;
}

void LambdaKernel::Peephole() {
  constexpr uint32_t kMaxIdx = (1u << 14) - 1;
  std::vector<Instr> out;
  out.reserve(code_.size());
  auto is_push_col = [](const Instr& i) {
    return i.op == Op::kPushA || i.op == Op::kPushB;
  };
  for (const Instr& ins : code_) {
    // [PushX x][PushY y][kSub] -> kPushDiff(x, y)
    if (ins.op == Op::kSub && out.size() >= 2 &&
        is_push_col(out[out.size() - 2]) && is_push_col(out.back()) &&
        out[out.size() - 2].arg <= kMaxIdx && out.back().arg <= kMaxIdx) {
      Instr y = out.back();
      out.pop_back();
      Instr x = out.back();
      out.pop_back();
      uint32_t arg = x.arg | (x.op == Op::kPushB ? 1u << 14 : 0) |
                     (y.arg << 15) | (y.op == Op::kPushB ? 1u << 29 : 0);
      out.push_back({Op::kPushDiff, arg});
      continue;
    }
    // [X][PushConst 2.0][kPow] -> [X][kSquareTop]
    if (ins.op == Op::kPow && !out.empty() &&
        out.back().op == Op::kPushConst &&
        constants_[out.back().arg] == 2.0) {
      out.pop_back();
      out.push_back({Op::kSquareTop, 0});
      continue;
    }
    out.push_back(ins);
  }
  code_ = std::move(out);
}

Result<LambdaKernel> LambdaKernel::Compile(const Expression& body,
                                           size_t a_width) {
  LambdaKernel k;
  size_t depth = 0;
  SODA_RETURN_NOT_OK(k.Emit(body, a_width, &depth));
  if (depth != 1) {
    return Status::Internal("lambda program stack imbalance");
  }
  if (k.max_stack_ > 64) {
    return Status::InvalidArgument("lambda expression too deeply nested");
  }
  // Tier 1: pattern-compile the common distance families to a native term
  // loop (our stand-in for HyPer's LLVM-compiled lambdas, see header).
  if (DetectDistanceForm(body, a_width, &k.form_, &k.terms_)) {
    return k;
  }
  k.terms_.clear();
  // Tier 2: fuse frequent instruction pairs in the register VM.
  k.Peephole();
  return k;
}

double LambdaKernel::Eval(const double* a, const double* b) const {
  // Tier 1: pattern-compiled distance families run as a native loop.
  if (form_ == SpecialForm::kSumSquaredDiffs) {
    double acc = 0;
    for (const DiffTerm& t : terms_) {
      double diff = (t.x.from_b ? b : a)[t.x.index] -
                    (t.y.from_b ? b : a)[t.y.index];
      acc += t.weight * diff * diff;
    }
    return acc;
  }
  if (form_ == SpecialForm::kSumAbsDiffs) {
    double acc = 0;
    for (const DiffTerm& t : terms_) {
      double diff = (t.x.from_b ? b : a)[t.x.index] -
                    (t.y.from_b ? b : a)[t.y.index];
      acc += t.weight * std::fabs(diff);
    }
    return acc;
  }

  double stack[64];
  size_t sp = 0;
  for (const Instr& ins : code_) {
    switch (ins.op) {
      case Op::kPushA:
        stack[sp++] = a[ins.arg];
        break;
      case Op::kPushB:
        stack[sp++] = b[ins.arg];
        break;
      case Op::kPushConst:
        stack[sp++] = constants_[ins.arg];
        break;
      case Op::kPushDiff: {
        const double* xs = (ins.arg & (1u << 14)) ? b : a;
        const double* ys = (ins.arg & (1u << 29)) ? b : a;
        stack[sp++] = xs[ins.arg & 0x3FFF] - ys[(ins.arg >> 15) & 0x3FFF];
        break;
      }
      case Op::kSquareTop:
        stack[sp - 1] *= stack[sp - 1];
        break;
      case Op::kAdd:
        stack[sp - 2] += stack[sp - 1];
        --sp;
        break;
      case Op::kSub:
        stack[sp - 2] -= stack[sp - 1];
        --sp;
        break;
      case Op::kMul:
        stack[sp - 2] *= stack[sp - 1];
        --sp;
        break;
      case Op::kDiv:
        stack[sp - 2] /= stack[sp - 1];
        --sp;
        break;
      case Op::kMod:
        stack[sp - 2] = std::fmod(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::kPow: {
        double e = stack[sp - 1];
        double base = stack[sp - 2];
        // Fast paths for the small integer exponents lambdas typically use.
        if (e == 2.0) {
          stack[sp - 2] = base * base;
        } else if (e == 1.0) {
          stack[sp - 2] = base;
        } else {
          stack[sp - 2] = std::pow(base, e);
        }
        --sp;
        break;
      }
      case Op::kNeg:
        stack[sp - 1] = -stack[sp - 1];
        break;
      case Op::kAbs:
        stack[sp - 1] = std::fabs(stack[sp - 1]);
        break;
      case Op::kSqrt:
        stack[sp - 1] = std::sqrt(stack[sp - 1]);
        break;
      case Op::kExp:
        stack[sp - 1] = std::exp(stack[sp - 1]);
        break;
      case Op::kLn:
        stack[sp - 1] = std::log(stack[sp - 1]);
        break;
      case Op::kFloor:
        stack[sp - 1] = std::floor(stack[sp - 1]);
        break;
      case Op::kCeil:
        stack[sp - 1] = std::ceil(stack[sp - 1]);
        break;
      case Op::kRound:
        stack[sp - 1] = std::nearbyint(stack[sp - 1]);
        break;
      case Op::kSign:
        stack[sp - 1] = (stack[sp - 1] > 0) - (stack[sp - 1] < 0);
        break;
      case Op::kMin:
        stack[sp - 2] = std::min(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::kMax:
        stack[sp - 2] = std::max(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::kEq:
        stack[sp - 2] = stack[sp - 2] == stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kNe:
        stack[sp - 2] = stack[sp - 2] != stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kLt:
        stack[sp - 2] = stack[sp - 2] < stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kLe:
        stack[sp - 2] = stack[sp - 2] <= stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kGt:
        stack[sp - 2] = stack[sp - 2] > stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kGe:
        stack[sp - 2] = stack[sp - 2] >= stack[sp - 1] ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kAnd:
        stack[sp - 2] =
            (stack[sp - 2] != 0.0 && stack[sp - 1] != 0.0) ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kOr:
        stack[sp - 2] =
            (stack[sp - 2] != 0.0 || stack[sp - 1] != 0.0) ? 1.0 : 0.0;
        --sp;
        break;
      case Op::kNot:
        stack[sp - 1] = stack[sp - 1] == 0.0 ? 1.0 : 0.0;
        break;
      case Op::kSelect: {
        double else_v = stack[sp - 1];
        double then_v = stack[sp - 2];
        double cond = stack[sp - 3];
        stack[sp - 3] = cond != 0.0 ? then_v : else_v;
        sp -= 2;
        break;
      }
    }
  }
  return stack[0];
}

}  // namespace soda
