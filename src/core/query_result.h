/// \file query_result.h
/// Materialized query results returned by soda::Engine.

#ifndef SODA_CORE_QUERY_RESULT_H_
#define SODA_CORE_QUERY_RESULT_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "storage/table.h"

namespace soda {

/// A finished query's result relation plus execution statistics.
class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(TablePtr table, ExecStats stats)
      : table_(std::move(table)), stats_(stats) {}

  /// Number of result rows (0 for DDL/DML statements).
  size_t num_rows() const { return table_ ? table_->num_rows() : 0; }
  size_t num_columns() const { return table_ ? table_->num_columns() : 0; }

  /// The result schema (empty for DDL/DML).
  const Schema& schema() const {
    static const Schema kEmpty;
    return table_ ? table_->schema() : kEmpty;
  }

  /// Cell access (boxed; intended for result consumption, not hot loops).
  Value GetValue(size_t row, size_t col) const {
    return cells(col).GetValue(row);
  }

  /// Typed convenience accessors.
  int64_t GetInt(size_t row, size_t col) const {
    return cells(col).GetBigInt(row);
  }
  double GetDouble(size_t row, size_t col) const {
    return cells(col).GetNumeric(row);
  }
  const std::string& GetString(size_t row, size_t col) const {
    return cells(col).GetString(row);
  }
  bool IsNull(size_t row, size_t col) const { return cells(col).IsNull(row); }

  /// Underlying relation (null for DDL/DML).
  const TablePtr& table() const { return table_; }

  /// Execution statistics (iteration counts, materialization accounting).
  const ExecStats& stats() const { return stats_; }

  /// Pretty ASCII rendering of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Read-only: the result may share its columns with other tables.
  const Column& cells(size_t c) const {
    return std::as_const(*table_).column(c);
  }

  TablePtr table_;
  ExecStats stats_;
};

}  // namespace soda

#endif  // SODA_CORE_QUERY_RESULT_H_
