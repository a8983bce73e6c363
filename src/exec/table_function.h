/// \file table_function.h
/// The table-function registry: the SQL surface of the paper's physical
/// operators (§6, Listing 2/3) and the system tables.
///
/// Calling convention (positional, mixed): relation arguments are
/// parenthesized subqueries, lambda arguments are λ-expressions, scalar
/// arguments are constant expressions. The binder groups them by kind in
/// order of appearance, checks them against the entry's signature and
/// casts each scalar to its declared type.
///
/// Each function is one entry (name, signature, bind, run) of the static
/// table in table_function.cc, next to its usage line; adding a function
/// is adding an entry there.

#ifndef SODA_EXEC_TABLE_FUNCTION_H_
#define SODA_EXEC_TABLE_FUNCTION_H_

#include <string_view>
#include <vector>

#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/status.h"

namespace soda {

struct BoundLambda;
struct ExecContext;
struct PlanNode;

/// Static shape of one table function's argument list.
struct TableFunctionSignature {
  size_t num_relations = 0;  ///< required relation arguments
  /// Per accepted lambda: the relation args (indices) forming its tuple
  /// parameters; one = unary lambda, two = binary.
  std::vector<std::vector<size_t>> lambda_param_relations;
  size_t min_scalars = 0;
  std::vector<DataType> scalar_types;  ///< one per accepted scalar
};

/// What `run` receives; scalars are already cast to the signature's types.
struct TableFunctionCall {
  const std::vector<TablePtr>& inputs;
  const std::vector<Value>& scalars;
  const std::vector<BoundLambda>& lambdas;
  ExecContext& ctx;
};

/// One registry entry.
struct TableFunction {
  const char* name;  ///< lower-case SQL name
  TableFunctionSignature signature;
  /// Validates the relation input schemas; returns the output schema.
  Result<Schema> (*bind)(const std::vector<Schema>& inputs);
  Result<TablePtr> (*run)(const TableFunctionCall& call);
};

/// The entry named `lower_name`, or null.
const TableFunction* FindTableFunction(std::string_view lower_name);

/// Runs a kTableFunction node over its already materialized relation
/// inputs: looks up the entry and calls `run` with the plan's lambdas.
Result<TablePtr> ExecuteTableFunctionWithInputs(
    const PlanNode& plan, const std::vector<TablePtr>& inputs,
    ExecContext& ctx);

}  // namespace soda

#endif  // SODA_EXEC_TABLE_FUNCTION_H_
