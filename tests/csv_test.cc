/// Tests for CSV import/export: record splitting, schema inference,
/// round-tripping, and error handling.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "storage/csv.h"
#include "tests/test_util.h"

namespace soda {
namespace {

using testing::RunQuery;

class CsvTest : public ::testing::Test {
 protected:
  /// A temp file holding `content`. The name carries the pid: ctest runs
  /// each test in its own process, in parallel, with the same counter.
  std::string WriteTemp(const std::string& content) {
    std::string path = ::testing::TempDir() + "soda_csv_" +
                       std::to_string(getpid()) + "_" +
                       std::to_string(counter_++) + ".csv";
    std::ofstream f(path);
    f << content;
    return path;
  }
  void TearDown() override {
    // Temp files are small; leave cleanup to the OS temp dir.
  }
  Catalog catalog_;
  static int counter_;
};
int CsvTest::counter_ = 0;

TEST_F(CsvTest, SplitPlainRecord) {
  auto r = internal::SplitCsvRecord("a,b,,d", ',');
  ASSERT_OK(r.status());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "", "d"}));
}

TEST_F(CsvTest, SplitQuotedRecord) {
  auto r = internal::SplitCsvRecord("\"a,b\",\"he said \"\"hi\"\"\",c", ',');
  ASSERT_OK(r.status());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0], "a,b");
  EXPECT_EQ((*r)[1], "he said \"hi\"");
}

TEST_F(CsvTest, SplitRejectsUnterminatedQuote) {
  EXPECT_FALSE(internal::SplitCsvRecord("\"oops", ',').ok());
}

TEST_F(CsvTest, ImportInfersTypes) {
  std::string path = WriteTemp(
      "id,score,name\n"
      "1,2.5,alice\n"
      "2,3,bob\n"
      "3,,carol\n");
  auto t = ImportCsv(&catalog_, "people", path);
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->num_rows(), 3u);
  EXPECT_EQ((*t)->schema().field(0).type, DataType::kBigInt);
  EXPECT_EQ((*t)->schema().field(1).type, DataType::kDouble);  // mixed 2.5/3
  EXPECT_EQ((*t)->schema().field(2).type, DataType::kVarchar);
  EXPECT_EQ((*t)->column(0).GetBigInt(2), 3);
  EXPECT_TRUE((*t)->column(1).IsNull(2));  // empty cell -> NULL
}

TEST_F(CsvTest, ImportWithoutHeader) {
  std::string path = WriteTemp("1,x\n2,y\n");
  CsvOptions opts;
  opts.header = false;
  auto t = ImportCsv(&catalog_, "nh", path, opts);
  ASSERT_OK(t.status());
  EXPECT_EQ((*t)->schema().field(0).name, "c1");
  EXPECT_EQ((*t)->num_rows(), 2u);
}

TEST_F(CsvTest, ImportErrors) {
  EXPECT_FALSE(ImportCsv(&catalog_, "x", "/nonexistent/file.csv").ok());
  std::string ragged = WriteTemp("a,b\n1,2\n3\n");
  EXPECT_FALSE(ImportCsv(&catalog_, "ragged", ragged).ok());
  EXPECT_FALSE(catalog_.HasTable("ragged"));  // failed import leaves nothing
  std::string empty = WriteTemp("");
  EXPECT_FALSE(ImportCsv(&catalog_, "empty", empty).ok());
}

TEST_F(CsvTest, RoundTrip) {
  // Export a table with tricky content and re-import it.
  Schema schema({Field("a", DataType::kBigInt),
                 Field("s", DataType::kVarchar)});
  Table t("t", schema);
  ASSERT_OK(t.AppendRow({Value::BigInt(1), Value::Varchar("plain")}));
  ASSERT_OK(t.AppendRow({Value::BigInt(2), Value::Varchar("with,comma")}));
  ASSERT_OK(t.AppendRow({Value::BigInt(3), Value::Varchar("with \"quote\"")}));
  ASSERT_OK(t.AppendRow({Value::Null(DataType::kBigInt),
                         Value::Varchar("null id")}));
  std::string path = WriteTemp("");
  ASSERT_OK(ExportCsv(t, path));

  auto back = ImportCsv(&catalog_, "roundtrip", path);
  ASSERT_OK(back.status());
  ASSERT_EQ((*back)->num_rows(), 4u);
  EXPECT_EQ((*back)->column(1).GetString(1), "with,comma");
  EXPECT_EQ((*back)->column(1).GetString(2), "with \"quote\"");
  EXPECT_TRUE((*back)->column(0).IsNull(3));
}

TEST_F(CsvTest, ImportedTableIsQueryable) {
  Engine engine;
  std::string path = WriteTemp(
      "label,x1,x2\n"
      "0,1.0,2.0\n"
      "0,1.5,2.5\n"
      "1,10.0,20.0\n");
  ASSERT_OK(ImportCsv(&engine.catalog(), "labeled", path).status());
  auto r = RunQuery(engine,
                    "SELECT label, count(*) c, avg(x1) m FROM labeled "
                    "GROUP BY label ORDER BY label");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetInt(0, 1), 2);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1.25);
  // Straight into an analytics operator.
  auto model = RunQuery(engine,
                        "SELECT * FROM NAIVE_BAYES_TRAIN("
                        "(SELECT label, x1, x2 FROM labeled))");
  EXPECT_EQ(model.num_rows(), 4u);
}

TEST_F(CsvTest, ExportErrorPath) {
  Table t("t", Schema({Field("a", DataType::kBigInt)}));
  EXPECT_FALSE(ExportCsv(t, "/nonexistent/dir/out.csv").ok());
}

}  // namespace
}  // namespace soda
