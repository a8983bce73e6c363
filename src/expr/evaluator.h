/// \file evaluator.h
/// Vectorized evaluation of bound expressions over DataChunks.
///
/// This is soda's substitute for HyPer's LLVM-compiled data-centric
/// pipelines (DESIGN.md §3): each expression node processes a whole chunk
/// at a time over raw column arrays, so per-row virtual dispatch is
/// eliminated — the property the paper attributes to compiled lambdas
/// ("because all code is compiled together, no virtual function calls are
/// involved", §7). Column references are read in place and non-NULL
/// literals stay scalars; arithmetic and comparisons run as typed
/// column-column, column-scalar and scalar-column loops that write the
/// result payload directly.
///
/// NULL semantics (simplified three-valued logic, documented deviation):
/// any NULL operand yields a NULL result for arithmetic, comparisons and
/// functions; logical AND/OR treat NULL as FALSE; integer division by zero
/// yields NULL (so eager CASE evaluation is total). The payload of a NULL
/// row is zero.
///
/// Arithmetic: `x ^ 2` and pow(x, 2) — any exponent equal to 2 — are
/// computed as x * x, which is correctly rounded and equals the lambda
/// kernel's squaring bit for bit. BIGINT + - * and negation wrap around on
/// overflow; x / -1 is -x (wrapping) and x % -1 is 0. A DOUBLE turned into
/// BIGINT — CAST, or floor/ceil/round/abs/sign with a BIGINT result — is
/// NULL when it is NaN or outside BIGINT's range (DoubleToBigInt); over a
/// BIGINT argument those functions are exact.
///
/// Comparisons follow CompareDoubles (types/value.h) for DOUBLE operands:
/// NaN = NaN is TRUE, NaN is greater than every number, -0.0 = 0.0.

#ifndef SODA_EXPR_EVALUATOR_H_
#define SODA_EXPR_EVALUATOR_H_

#include "expr/expression.h"
#include "storage/data_chunk.h"
#include "util/status.h"

namespace soda {

/// Evaluates `expr` for every row of `input`; `*out` receives a fresh
/// column of `input.num_rows()` results of type `expr.type`.
Status EvaluateExpression(const Expression& expr, const DataChunk& input,
                          Column* out);

/// Evaluates a filter predicate and appends the indices of rows where it is
/// TRUE (NULL counts as not-selected) to `selection`.
Status EvaluatePredicate(const Expression& expr, const DataChunk& input,
                         std::vector<uint32_t>* selection);

/// Scalar interpretation of a constant expression (no column refs).
Result<Value> EvaluateConstantExpression(const Expression& expr);

}  // namespace soda

#endif  // SODA_EXPR_EVALUATOR_H_
