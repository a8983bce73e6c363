/// \file lambda_kernel.h
/// Compilation of numeric lambda bodies into flat register programs.
///
/// The paper's analytics operators accept user lambdas (e.g. a distance
/// metric for k-Means, §7) and compile them *into* the operator so the
/// inner loop pays no interpretation or virtual-call cost. soda's
/// equivalent: a bound lambda body over the concatenated tuple schemas
/// (a.*, b.*) is lowered once, at plan time, into a postfix program over a
/// small double-register stack. `LambdaKernel::Eval(a, b)` then runs with
/// only array indexing and arithmetic — no allocation, no dispatch through
/// `Expression`, no boxing.
///
/// Only numeric lambdas are compilable (column refs of BIGINT/DOUBLE/BOOL,
/// arithmetic, comparisons, logical ops, numeric functions, CASE). That
/// covers every lambda the paper shows; operators fall back to a
/// BindError for anything else.
///
/// HyPer JIT-compiles any lambda to native code via LLVM. soda's
/// substitute is two-tier (DESIGN.md §3): bodies matching the common
/// distance families — weighted sums of squared differences or of
/// absolute differences, which cover L2, L1/k-Medians, and per-coordinate
/// weighted metrics — are *pattern-compiled* into a native term loop;
/// everything else runs on the register VM with peephole-fused
/// super-instructions (diff, square). A pattern-compiled body with one
/// `a[j] - b[j]` term per dimension also reports its per-dimension weights
/// (`PerDimensionForm`), so an operator can run it in its own column-blocked
/// loop — the k-Means operator does, with no call per (point, center)
/// pair. The ablation benchmark bench_ablation_lambda_overhead measures
/// both tiers against the hard-coded metric.

#ifndef SODA_EXPR_LAMBDA_KERNEL_H_
#define SODA_EXPR_LAMBDA_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "util/status.h"

namespace soda {

/// A compiled numeric scalar program over two input tuples.
class LambdaKernel {
 public:
  /// Compiles `body`, whose column refs index the concatenation of tuple
  /// `a` (indices [0, a_width)) and tuple `b` (indices [a_width, ...)).
  static Result<LambdaKernel> Compile(const Expression& body, size_t a_width);

  /// Evaluates for one (a, b) tuple pair given as dense double arrays.
  double Eval(const double* a, const double* b) const;

  /// Upper bound of stack slots the program uses (for diagnostics).
  size_t max_stack() const { return max_stack_; }
  size_t num_instructions() const { return code_.size(); }

  /// True when the body was pattern-compiled to a native distance loop
  /// (exposed for tests and the §7 ablation).
  bool is_pattern_compiled() const { return form_ != SpecialForm::kNone; }

  /// A distance over d-wide tuples that sums one weighted term per
  /// dimension: weights[j] * (a[j] - b[j])^2 when `squared`, else
  /// weights[j] * |a[j] - b[j]|.
  struct DimensionForm {
    bool squared = true;
    std::vector<double> weights;
  };

  /// The body's DimensionForm over d-wide tuples, when its pattern form has
  /// exactly one `a[j] - b[j]` term (or `b[j] - a[j]`) for every j in
  /// [0, d), in any term order. `(w * t) * t` and `w * |t|` give each
  /// term Eval's bits; a caller summing in dimension order may differ from
  /// Eval, which sums in term order, in the last bit.
  /// Empty for every other body, including a cross index
  /// (`a[0] - b[1]`), a missing or repeated dimension and mixed families.
  std::optional<DimensionForm> PerDimensionForm(size_t d) const;

 private:
  enum class Op : uint8_t {
    kPushA,     // push a[arg]
    kPushB,     // push b[arg]
    kPushConst, // push constants_[arg]
    kPushDiff,  // fused: push operand(arg.x) - operand(arg.y)
    kSquareTop, // fused: top = top * top
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMod,
    kPow,
    kNeg,
    kAbs,
    kSqrt,
    kExp,
    kLn,
    kFloor,
    kCeil,
    kRound,
    kSign,
    kMin,
    kMax,
    kEq,   // comparisons produce 1.0 / 0.0
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
    kNot,
    kSelect,  // pops else, then, cond; pushes cond!=0 ? then : else
  };

  struct Instr {
    Op op;
    uint32_t arg = 0;
  };

  /// Operand descriptor: index plus which tuple array it reads.
  /// Packed into Instr::arg for kPushDiff as x | (y << 15) | flags.
  struct Operand {
    uint32_t index = 0;
    bool from_b = false;
  };

  enum class SpecialForm { kNone, kSumSquaredDiffs, kSumAbsDiffs };

  /// One term of a pattern-compiled distance: weight * f(x - y).
  struct DiffTerm {
    Operand x, y;
    double weight = 1.0;
  };

  Status Emit(const Expression& e, size_t a_width, size_t* depth);
  void Push(Op op, uint32_t arg, size_t* depth, int delta);
  void Peephole();
  static bool DetectDistanceForm(const Expression& body, size_t a_width,
                                 SpecialForm* form,
                                 std::vector<DiffTerm>* terms);

  std::vector<Instr> code_;
  std::vector<double> constants_;
  size_t max_stack_ = 0;
  SpecialForm form_ = SpecialForm::kNone;
  std::vector<DiffTerm> terms_;
};

}  // namespace soda

#endif  // SODA_EXPR_LAMBDA_KERNEL_H_
