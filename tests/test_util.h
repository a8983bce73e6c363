/// \file test_util.h
/// Shared helpers for the soda test suite.

#ifndef SODA_TESTS_TEST_UTIL_H_
#define SODA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "util/status.h"

namespace soda::testing {

// `_st` is a copy: `expr` is often `SomeCall().status()`, a reference into
// a temporary Result that dies at the end of the declaration.
#define ASSERT_OK(expr)                                              \
  do {                                                               \
    const ::soda::Status _st = (expr);                               \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();           \
  } while (0)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    const ::soda::Status _st = (expr);                               \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();           \
  } while (0)

/// Executes `sql`, failing the test on error.
inline QueryResult RunQuery(Engine& engine, const std::string& sql) {
  auto result = engine.Execute(sql);
  EXPECT_TRUE(result.ok()) << "query failed: " << result.status().ToString()
                           << "\nSQL: " << sql;
  return result.ok() ? std::move(result.ValueOrDie()) : QueryResult();
}

/// Expects the query to fail with the given status code.
inline void ExpectError(Engine& engine, const std::string& sql,
                        StatusCode code) {
  auto result = engine.Execute(sql);
  ASSERT_FALSE(result.ok()) << "expected failure for: " << sql;
  EXPECT_EQ(result.status().code(), code)
      << "got: " << result.status().ToString() << "\nSQL: " << sql;
}

/// Column `col` of the result as doubles (numeric columns).
inline std::vector<double> NumericColumn(const QueryResult& r, size_t col) {
  std::vector<double> out;
  out.reserve(r.num_rows());
  for (size_t i = 0; i < r.num_rows(); ++i) out.push_back(r.GetDouble(i, col));
  return out;
}

inline std::vector<int64_t> IntColumn(const QueryResult& r, size_t col) {
  std::vector<int64_t> out;
  out.reserve(r.num_rows());
  for (size_t i = 0; i < r.num_rows(); ++i) out.push_back(r.GetInt(i, col));
  return out;
}

/// Creates `name (k BIGINT, v BIGINT)` with k = 0..rows-1 and v = k % 7
/// through SQL, so a durable engine logs it: one INSERT .. SELECT from an
/// unlogged sequence table that is dropped again. From kSealMinRows rows on
/// the table is sealed, kSegmentRows rows per group and partition.
inline void CreateSequenceTable(Engine& engine, const std::string& name,
                                int64_t rows,
                                const std::string& partition_clause = "") {
  auto seq = std::make_shared<Table>(
      "seq_source", Schema({Field("k", DataType::kBigInt)}));
  Column k(DataType::kBigInt);
  for (int64_t i = 0; i < rows; ++i) k.AppendBigInt(i);
  ASSERT_OK(seq->SetColumn(0, std::move(k)));
  ASSERT_OK(engine.catalog().RegisterTable(std::move(seq)));
  ASSERT_OK(engine
                .ExecuteScript("CREATE TABLE " + name +
                               " (k BIGINT, v BIGINT)" + partition_clause +
                               "; INSERT INTO " + name +
                               " SELECT k, k % 7 FROM seq_source")
                .status());
  ASSERT_OK(engine.catalog().DropTable("seq_source"));
}

}  // namespace soda::testing

#endif  // SODA_TESTS_TEST_UTIL_H_
