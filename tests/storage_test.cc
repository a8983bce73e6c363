/// Tests for columnar storage: Column, DataChunk, Table, Catalog.

#include <gtest/gtest.h>

#include <functional>

#include "storage/catalog.h"
#include "storage/data_chunk.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace soda {
namespace {

TEST(ColumnTest, AppendAndRead) {
  Column c(DataType::kBigInt);
  c.AppendBigInt(1);
  c.AppendBigInt(-2);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetBigInt(0), 1);
  EXPECT_EQ(c.GetBigInt(1), -2);
  EXPECT_FALSE(c.HasNulls());
}

TEST(ColumnTest, NullsMaterializeValidityLazily) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_TRUE(c.Validity().empty());  // dense fast path
  c.AppendNull();
  c.AppendDouble(3.0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.HasNulls());
}

TEST(ColumnTest, GetValueBoxesCorrectly) {
  Column c(DataType::kVarchar);
  c.AppendString("hello");
  c.AppendNull();
  EXPECT_EQ(c.GetValue(0), Value::Varchar("hello"));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, AppendValueCoercesNumerics) {
  Column c(DataType::kDouble);
  c.AppendValue(Value::BigInt(3));
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 3.0);
  Column i(DataType::kBigInt);
  i.AppendValue(Value::Double(3.7));
  EXPECT_EQ(i.GetBigInt(0), 3);
}

TEST(ColumnTest, AppendSlicePreservesValidity) {
  Column src(DataType::kBigInt);
  src.AppendBigInt(1);
  src.AppendNull();
  src.AppendBigInt(3);
  Column dst(DataType::kBigInt);
  dst.AppendSlice(src, 1, 2);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.GetBigInt(1), 3);
}

TEST(ColumnTest, AppendSliceDenseIntoNullable) {
  Column dst(DataType::kBigInt);
  dst.AppendNull();
  Column src(DataType::kBigInt);
  src.AppendBigInt(5);
  dst.AppendSlice(src, 0, 1);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_FALSE(dst.IsNull(1));
  EXPECT_EQ(dst.GetBigInt(1), 5);
}

TEST(ColumnTest, AppendGatherReordersAndPreservesNulls) {
  Column src(DataType::kBigInt);
  src.AppendBigInt(10);
  src.AppendNull();
  src.AppendBigInt(30);
  src.AppendBigInt(40);
  Column dst(DataType::kBigInt);
  const uint32_t rows[] = {3, 1, 1, 0};
  dst.AppendGather(src, rows, 4);
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.GetBigInt(0), 40);
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_TRUE(dst.IsNull(2));
  EXPECT_EQ(dst.GetBigInt(3), 10);
}

TEST(ColumnTest, AppendGatherStringsAndDenseValidity) {
  Column src(DataType::kVarchar);
  src.AppendString("a");
  src.AppendString("b");
  Column dst(DataType::kVarchar);
  dst.AppendNull();  // dst already nullable, src dense
  const uint32_t rows[] = {1, 0};
  dst.AppendGather(src, rows, 2);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.GetString(1), "b");
  EXPECT_EQ(dst.GetString(2), "a");
}

TEST(ColumnTest, AppendRepeatedBulkCopiesOneRow) {
  Column src(DataType::kDouble);
  src.AppendDouble(2.5);
  src.AppendNull();
  Column dst(DataType::kDouble);
  dst.AppendRepeated(src, 0, 3);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_FALSE(dst.HasNulls());
  EXPECT_DOUBLE_EQ(dst.GetDouble(2), 2.5);
  dst.AppendRepeated(src, 1, 2);  // repeating a NULL materializes validity
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_DOUBLE_EQ(dst.GetDouble(0), 2.5);
  EXPECT_TRUE(dst.IsNull(3));
  EXPECT_TRUE(dst.IsNull(4));
}

TEST(ColumnTest, BulkConstruction) {
  Column c = Column::FromDoubles({1.0, 2.0, 3.0});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(c.F64Data()[1], 2.0);
  Column i = Column::FromBigInts({4, 5});
  EXPECT_EQ(i.GetBigInt(1), 5);
}

TEST(ColumnTest, MemoryUsageGrows) {
  Column c(DataType::kBigInt);
  size_t before = c.MemoryUsage();
  for (int i = 0; i < 10000; ++i) c.AppendBigInt(i);
  EXPECT_GT(c.MemoryUsage(), before);
  EXPECT_GE(c.MemoryUsage(), 10000 * sizeof(int64_t));
}

TEST(DataChunkTest, SchemaConstruction) {
  Schema s({Field("a", DataType::kBigInt), Field("b", DataType::kVarchar)});
  DataChunk chunk(s);
  EXPECT_EQ(chunk.num_columns(), 2u);
  EXPECT_EQ(chunk.num_rows(), 0u);
  chunk.AppendRow({Value::BigInt(1), Value::Varchar("x")});
  EXPECT_EQ(chunk.num_rows(), 1u);
  auto row = chunk.GetRow(0);
  EXPECT_EQ(row[0], Value::BigInt(1));
  EXPECT_EQ(row[1], Value::Varchar("x"));
}

TEST(TableTest, AppendRowTypeChecks) {
  Table t("t", Schema({Field("a", DataType::kBigInt),
                       Field("s", DataType::kVarchar)}));
  ASSERT_OK(t.AppendRow({Value::BigInt(1), Value::Varchar("x")}));
  // Numeric coercion allowed.
  ASSERT_OK(t.AppendRow({Value::Double(2.9), Value::Varchar("y")}));
  EXPECT_EQ(t.column(0).GetBigInt(1), 2);
  // Arity mismatch rejected.
  EXPECT_FALSE(t.AppendRow({Value::BigInt(1)}).ok());
  // Type mismatch rejected.
  EXPECT_FALSE(t.AppendRow({Value::Varchar("no"), Value::Varchar("y")}).ok());
}

TEST(TableTest, ScanSliceRoundTrip) {
  Table t("t", Schema({Field("a", DataType::kBigInt)}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(t.AppendRow({Value::BigInt(i)}));
  }
  DataChunk chunk;
  t.ScanSlice(10, 5, &chunk);
  ASSERT_EQ(chunk.num_rows(), 5u);
  EXPECT_EQ(chunk.column(0).GetBigInt(0), 10);
  EXPECT_EQ(chunk.column(0).GetBigInt(4), 14);
  // Out-of-range slice is clamped.
  t.ScanSlice(95, 100, &chunk);
  EXPECT_EQ(chunk.num_rows(), 5u);
  t.ScanSlice(200, 10, &chunk);
  EXPECT_EQ(chunk.num_rows(), 0u);
}

TEST(TableTest, SetColumnValidation) {
  Table t("t", Schema({Field("a", DataType::kDouble)}));
  ASSERT_OK(t.SetColumn(0, Column::FromDoubles({1, 2, 3})));
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_FALSE(t.SetColumn(0, Column::FromBigInts({1})).ok());
  EXPECT_FALSE(t.SetColumn(5, Column::FromDoubles({1})).ok());
}

/// Every cell of `t`, row by row.
std::vector<std::vector<Value>> Rows(const Table& t) {
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.GetRow(r));
  return rows;
}

/// A column selection of a flat table shares the table's buffers, and each
/// write path of a table built from it copies a shared column first: the
/// source and an earlier selection keep their rows and their buffers.
TEST(TableTest, WritesToASharedSelectionLeaveSourceAndViewsUnchanged) {
  auto src = std::make_shared<Table>(
      "t", Schema({Field("a", DataType::kBigInt),
                   Field("s", DataType::kVarchar),
                   Field("x", DataType::kDouble)}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(src->AppendRow({Value::BigInt(i),
                              Value::Varchar("v" + std::to_string(i)),
                              Value::Double(0.5 * static_cast<double>(i))}));
  }
  const Table& source = *src;
  const std::vector<size_t> cols{2, 0, 1};
  const Schema renamed({Field("x2", DataType::kDouble),
                        Field("a2", DataType::kBigInt),
                        Field("s2", DataType::kVarchar)});
  auto earlier = FlatView(src, nullptr, &cols, &renamed);
  ASSERT_OK(earlier.status());
  const Table& view = **earlier;
  EXPECT_EQ(view.schema().field(1).name, "a2");
  // Shared, not copied: the view reads the source's buffers.
  EXPECT_EQ(view.column(0).F64Data(), source.column(2).F64Data());
  EXPECT_EQ(view.column(1).I64Data(), source.column(0).I64Data());
  EXPECT_EQ(&view.column(2).Strings(), &source.column(1).Strings());
  const auto src_rows = Rows(source);
  const auto view_rows = Rows(view);
  const int64_t* src_a = source.column(0).I64Data();
  const double* src_x = source.column(2).F64Data();
  const std::vector<std::string>* src_s = &source.column(1).Strings();

  DataChunk chunk(renamed);
  chunk.column(0).AppendDouble(-1.0);
  chunk.column(1).AppendBigInt(-1);
  chunk.column(2).AppendString("new");
  const std::vector<std::function<Status(Table&)>> writes = {
      [](Table& t) {
        return t.AppendRow(
            {Value::Double(-1.0), Value::BigInt(-1), Value::Varchar("new")});
      },
      [&](Table& t) { return t.AppendChunk(chunk); },
      [](Table& t) {
        t.column(0).AppendDouble(-1.0);
        t.column(1).AppendBigInt(-1);
        t.column(2).AppendString("new");
        return Status::OK();
      },
  };
  for (size_t w = 0; w < writes.size(); ++w) {
    auto sel = FlatView(src, nullptr, &cols, &renamed);
    ASSERT_OK(sel.status());
    ASSERT_OK(writes[w](**sel));
    EXPECT_EQ((*sel)->num_rows(), 101u) << "write " << w;
    EXPECT_EQ((*sel)->GetRow(100)[2], Value::Varchar("new")) << "write " << w;
    EXPECT_EQ(Rows(source), src_rows) << "write " << w;
    EXPECT_EQ(Rows(view), view_rows) << "write " << w;
    EXPECT_EQ(source.column(0).I64Data(), src_a) << "write " << w;
    EXPECT_EQ(source.column(2).F64Data(), src_x) << "write " << w;
    EXPECT_EQ(&source.column(1).Strings(), src_s) << "write " << w;
    EXPECT_EQ(view.column(1).I64Data(), src_a) << "write " << w;
  }
}

TEST(TableTest, ToStringContainsHeaderAndRows) {
  Table t("t", Schema({Field("name", DataType::kVarchar)}));
  ASSERT_OK(t.AppendRow({Value::Varchar("alpha")}));
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
}

TEST(CatalogTest, CreateLookupDrop) {
  Catalog cat;
  ASSERT_OK(cat.CreateTable("T1", Schema({Field("a", DataType::kBigInt)}))
                .status());
  EXPECT_TRUE(cat.HasTable("t1"));
  EXPECT_TRUE(cat.HasTable("T1"));  // case-insensitive
  auto t = cat.GetTable("t1");
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->name(), "t1");
  // Duplicate rejected.
  auto dup = cat.CreateTable("t1", Schema());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  ASSERT_OK(cat.DropTable("T1"));
  EXPECT_FALSE(cat.HasTable("t1"));
  EXPECT_EQ(cat.DropTable("t1").code(), StatusCode::kKeyError);
  EXPECT_EQ(cat.GetTable("t1").status().code(), StatusCode::kKeyError);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  ASSERT_OK(cat.CreateTable("zeta", Schema()).status());
  ASSERT_OK(cat.CreateTable("alpha", Schema()).status());
  auto names = cat.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(CatalogTest, RegisterExternallyBuiltTable) {
  Catalog cat;
  auto t = std::make_shared<Table>("bulk", Schema({Field("x", DataType::kDouble)}));
  ASSERT_OK(cat.RegisterTable(t));
  EXPECT_TRUE(cat.HasTable("bulk"));
  EXPECT_EQ(cat.RegisterTable(t).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace soda
