/// \file exec_kernel_test.cc
/// The typed batch kernels every ITERATE round runs — the join probe, the
/// cross join and the hash-aggregate consume loop — against row-at-a-time
/// references written independently of the engine: nested loops for the
/// joins, one map fold per input row for GROUP BY. The SQL cases run on
/// one worker and on the 4-worker pool; the operator cases push one chunk
/// through a transform and also check when the probe hands its input
/// columns through instead of gathering them.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/hash_join.h"
#include "storage/column.h"
#include "storage/data_chunk.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace soda {
namespace {

using testing::RunQuery;

// Force a real pool even on single-core machines, as parallel_exec_test.cc
// does: otherwise "the pool" would be the serial path again.
const bool kForceMultiThreadedPool = [] {
  setenv("SODA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

using Row = std::vector<std::string>;

/// One cell as text that tells every bit apart: NULL, the string, the
/// double's bit pattern or the integer.
std::string CellText(const Column& col, size_t row) {
  if (col.IsNull(row)) return "NULL";
  switch (col.type()) {
    case DataType::kVarchar:
      return "s:" + col.GetString(row);
    case DataType::kDouble:
      return "d:" + std::to_string(std::bit_cast<uint64_t>(col.GetDouble(row)));
    default:
      return "i:" + std::to_string(col.GetBigInt(row));
  }
}

std::vector<Row> RowsOf(const std::vector<const Column*>& cols) {
  const size_t n = cols.empty() ? 0 : cols[0]->size();
  std::vector<Row> rows(n);
  for (size_t r = 0; r < n; ++r) {
    for (const Column* c : cols) rows[r].push_back(CellText(*c, r));
  }
  return rows;
}

std::vector<Row> RowsOf(const Table& t) {
  std::vector<const Column*> cols;
  for (size_t c = 0; c < t.num_columns(); ++c) cols.push_back(&t.column(c));
  return RowsOf(cols);
}

std::vector<Row> RowsOf(const DataChunk& chunk) {
  std::vector<const Column*> cols;
  for (const Column& c : chunk.columns()) cols.push_back(&c);
  return RowsOf(cols);
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A table named `name` with columns `name0, name1, ...` holding `cols`.
TablePtr MakeTable(const std::string& name, std::vector<Column> cols) {
  std::vector<Field> fields;
  for (size_t c = 0; c < cols.size(); ++c) {
    fields.emplace_back(name + std::to_string(c), cols[c].type());
  }
  auto t = std::make_shared<Table>(name, Schema(std::move(fields)));
  for (size_t c = 0; c < cols.size(); ++c) {
    EXPECT_TRUE(t->SetColumn(c, std::move(cols[c])).ok());
  }
  return t;
}

/// The table's columns, copied into one chunk.
DataChunk ChunkOf(const Table& t) {
  std::vector<Column> cols;
  for (size_t c = 0; c < t.num_columns(); ++c) cols.push_back(t.column(c));
  return DataChunk(std::move(cols));
}

/// Join-key equality written independently of the engine: NULL never
/// matches, DOUBLEs compare with CompareDoubles (NaN = NaN, -0.0 = 0.0),
/// BIGINT and VARCHAR exactly.
bool KeyEqual(const Column& a, size_t i, const Column& b, size_t j) {
  if (a.IsNull(i) || b.IsNull(j)) return false;
  switch (a.type()) {
    case DataType::kVarchar:
      return a.GetString(i) == b.GetString(j);
    case DataType::kDouble:
      return CompareDoubles(a.GetDouble(i), b.GetDouble(j)) == 0;
    default:
      return a.GetBigInt(i) == b.GetBigInt(j);
  }
}

/// Left-major nested loop: every (left row ++ right row) pair whose keys
/// are equal (`key >= 0`), or every pair (`lkey < 0`, a cross join).
std::vector<Row> NestedLoop(const Table& left, int lkey, const Table& right,
                            int rkey) {
  const std::vector<Row> l = RowsOf(left);
  const std::vector<Row> r = RowsOf(right);
  std::vector<Row> out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (lkey >= 0 && !KeyEqual(left.column(static_cast<size_t>(lkey)), i,
                                 right.column(static_cast<size_t>(rkey)), j)) {
        continue;
      }
      Row row = l[i];
      row.insert(row.end(), r[j].begin(), r[j].end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

Schema ConcatSchema(const Table& left, const Table& right) {
  std::vector<Field> fields = left.schema().fields();
  for (const Field& f : right.schema().fields()) fields.push_back(f);
  return Schema(std::move(fields));
}

/// Address of a column's payload: equal before and after a transform when
/// the column was moved through, different when it was gathered.
const void* Payload(const Column& c) {
  switch (c.type()) {
    case DataType::kVarchar:
      return c.Strings().data();
    case DataType::kDouble:
      return c.F64Data();
    default:
      return c.I64Data();
  }
}

/// What one Apply call emitted.
struct Emitted {
  std::vector<Row> rows;           ///< in emission order
  std::vector<size_t> chunk_rows;  ///< rows of each emitted chunk
  size_t moved_chunks = 0;  ///< chunks whose column 0 is the input's buffer
};

Emitted ApplyOnce(const Transform& t, DataChunk chunk) {
  Emitted e;
  const void* input = chunk.num_columns() ? Payload(chunk.column(0)) : nullptr;
  Status st = t.Apply(chunk, [&](DataChunk& out) {
    std::vector<Row> rows = RowsOf(out);
    e.rows.insert(e.rows.end(), rows.begin(), rows.end());
    e.chunk_rows.push_back(out.num_rows());
    if (out.num_rows() > 0 && Payload(out.column(0)) == input) {
      ++e.moved_chunks;
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return e;
}

/// Probes `probe` (one chunk, key column `pkey`) against `build` (key
/// column `bkey`) and checks the rows against the nested loop. Returns
/// what was emitted.
Emitted ExpectProbeMatchesNestedLoop(const TablePtr& probe, size_t pkey,
                                     const TablePtr& build, size_t bkey) {
  auto ht = JoinHashTable::Build(build, {bkey});
  EXPECT_TRUE(ht.ok());
  if (!ht.ok()) return {};
  HashJoinProbeTransform t(*ht, {pkey}, ConcatSchema(*probe, *build));
  Emitted e = ApplyOnce(t, ChunkOf(*probe));
  const std::vector<Row> expected =
      NestedLoop(*probe, static_cast<int>(pkey), *build,
                 static_cast<int>(bkey));
  // Probe rows come out in order; the order among one row's matches
  // follows the build's chains, so compare as multisets.
  EXPECT_EQ(Sorted(e.rows), Sorted(expected));
  for (size_t rows : e.chunk_rows) EXPECT_LE(rows, kChunkCapacity);
  return e;
}

Column BigInts(const std::vector<int64_t>& v) { return Column::FromBigInts(v); }

/// `n` probe keys drawn from [0, domain), as BIGINT.
std::vector<int64_t> Draws(Rng& rng, size_t n, uint64_t domain) {
  std::vector<int64_t> out(n);
  for (auto& x : out) x = static_cast<int64_t>(rng.Below(domain));
  return out;
}

Column Labels(const std::string& prefix, size_t n) {
  Column c(DataType::kVarchar);
  for (size_t i = 0; i < n; ++i) c.AppendString(prefix + std::to_string(i));
  return c;
}

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i);
  return v;
}

// --- join probe, one chunk through the operator -------------------------

TEST(ExecKernelProbeTest, EveryRowMatchingOncePassesTheChunkThrough) {
  Rng rng(11);
  const TablePtr build =
      MakeTable("b", {BigInts(Iota(1000)), Labels("w", 1000)});
  for (size_t n : {size_t{1}, size_t{700}, kChunkCapacity}) {
    const TablePtr probe =
        MakeTable("p", {BigInts(Draws(rng, n, 1000)), Labels("v", n)});
    Emitted e = ExpectProbeMatchesNestedLoop(probe, 0, build, 0);
    // One match per row, in order: the output is the chunk itself.
    EXPECT_EQ(e.chunk_rows, std::vector<size_t>{n});
    EXPECT_EQ(e.moved_chunks, 1u) << n << " rows";
    EXPECT_EQ(e.rows, NestedLoop(*probe, 0, *build, 0));
  }
}

TEST(ExecKernelProbeTest, RowMatchingTwiceOrNoneIsGathered) {
  Rng rng(12);
  // Key 5 appears twice on the build side; key 1000 not at all.
  std::vector<int64_t> bkeys = Iota(1000);
  bkeys.push_back(5);
  const TablePtr build =
      MakeTable("b", {BigInts(bkeys), Labels("w", bkeys.size())});
  for (size_t n : {size_t{700}, kChunkCapacity}) {
    for (int64_t odd : {int64_t{5}, int64_t{1000}}) {
      // Every position of the odd row, the chunk's last included: there a
      // first batch of exactly n pairs still owes the row's second match.
      for (size_t at : {size_t{0}, n / 2, n - 1}) {
        std::vector<int64_t> pkeys = Draws(rng, n, 1000);
        for (auto& k : pkeys) {
          if (k == 5) k = 6;
        }
        pkeys[at] = odd;
        const TablePtr probe =
            MakeTable("p", {BigInts(pkeys), Labels("v", n)});
        Emitted e = ExpectProbeMatchesNestedLoop(probe, 0, build, 0);
        EXPECT_EQ(e.moved_chunks, 0u) << "odd key " << odd << " at " << at;
      }
    }
  }
}

TEST(ExecKernelProbeTest, NullDoubleAndVarcharKeys) {
  // NULL keys on both sides never match, so a chunk holding one is
  // gathered.
  Column bnull(DataType::kBigInt);
  Column pnull(DataType::kBigInt);
  for (int64_t i = 0; i < 50; ++i) {
    if (i % 7 == 3) {
      bnull.AppendNull();
    } else {
      bnull.AppendBigInt(i);
    }
    if (i % 5 == 1) {
      pnull.AppendNull();
    } else {
      pnull.AppendBigInt(49 - i);
    }
  }
  Emitted nulls = ExpectProbeMatchesNestedLoop(
      MakeTable("p", {pnull, Labels("v", 50)}), 0,
      MakeTable("b", {bnull, Labels("w", 50)}), 0);
  EXPECT_EQ(nulls.moved_chunks, 0u);

  // DOUBLE keys: -0.0 finds 0.0 and NaN finds NaN, once each, so the
  // chunk passes through.
  const double nan = std::nan("");
  const TablePtr dbuild = MakeTable(
      "b", {Column::FromDoubles({0.0, nan, 1.5, -2.25, 1e300}),
            Labels("w", 5)});
  const TablePtr dprobe = MakeTable(
      "p", {Column::FromDoubles({-0.0, 1e300, nan, 1.5, 0.0, -2.25, nan}),
            Labels("v", 7)});
  Emitted doubles = ExpectProbeMatchesNestedLoop(dprobe, 0, dbuild, 0);
  EXPECT_EQ(doubles.rows.size(), 7u);
  EXPECT_EQ(doubles.moved_chunks, 1u);

  // VARCHAR keys, FK→PK: passes through; one unknown key: gathered.
  const TablePtr sbuild = MakeTable("b", {Labels("k", 300), BigInts(Iota(300))});
  Column skeys(DataType::kVarchar);
  for (size_t i = 0; i < 900; ++i) {
    skeys.AppendString("k" + std::to_string((i * 7) % 300));
  }
  Emitted strings = ExpectProbeMatchesNestedLoop(
      MakeTable("p", {skeys, BigInts(Iota(900))}), 0, sbuild, 0);
  EXPECT_EQ(strings.moved_chunks, 1u);
  skeys.AppendString("k300");
  Emitted unknown = ExpectProbeMatchesNestedLoop(
      MakeTable("p", {skeys, BigInts(Iota(901))}), 0, sbuild, 0);
  EXPECT_EQ(unknown.moved_chunks, 0u);
}

TEST(ExecKernelProbeTest, DuplicateChainLongerThanABatchResumes) {
  // 2.5 batches of key 7 on the build side, interleaved with other keys.
  const size_t dup = kChunkCapacity * 5 / 2;
  std::vector<int64_t> bkeys;
  for (size_t i = 0; i < dup; ++i) {
    bkeys.push_back(7);
    if (i % 3 == 0) bkeys.push_back(static_cast<int64_t>(100 + i));
  }
  const TablePtr build =
      MakeTable("b", {BigInts(bkeys), BigInts(Iota(bkeys.size()))});
  const TablePtr probe =
      MakeTable("p", {BigInts({7, 8, 7, 103, 7}), Labels("v", 5)});
  Emitted e = ExpectProbeMatchesNestedLoop(probe, 0, build, 0);
  EXPECT_EQ(e.rows.size(), 3 * dup + 1);
  EXPECT_EQ(e.moved_chunks, 0u);
  // Full batches until the last: the cursor resumes inside a chain.
  for (size_t i = 0; i + 1 < e.chunk_rows.size(); ++i) {
    EXPECT_EQ(e.chunk_rows[i], kChunkCapacity) << "batch " << i;
  }
}

// --- cross join, one chunk through the operator -------------------------

/// A right side of `n` rows: BIGINT with NULLs and VARCHAR with NULLs.
TablePtr CrossRight(size_t n) {
  Column ints(DataType::kBigInt);
  Column strs(DataType::kVarchar);
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 2) {
      ints.AppendNull();
    } else {
      ints.AppendBigInt(static_cast<int64_t>(i) * 3);
    }
    if (i % 4 == 1) {
      strs.AppendNull();
    } else {
      strs.AppendString("r" + std::to_string(i));
    }
  }
  return MakeTable("r", {std::move(ints), std::move(strs)});
}

TablePtr CrossLeft(size_t n) {
  Column ints(DataType::kBigInt);
  Column dbls(DataType::kDouble);
  for (size_t i = 0; i < n; ++i) {
    ints.AppendBigInt(static_cast<int64_t>(i));
    if (i % 3 == 1) {
      dbls.AppendNull();
    } else {
      dbls.AppendDouble(0.5 * static_cast<double>(i));
    }
  }
  return MakeTable("l", {std::move(ints), std::move(dbls), Labels("v", n)});
}

TEST(ExecKernelCrossJoinTest, MatchesNestedLoopWithTheSameChunkBoundaries) {
  for (size_t rn : {size_t{0}, size_t{1}, size_t{7}, kChunkCapacity,
                    kChunkCapacity + 1}) {
    for (size_t ln : {size_t{1}, size_t{3}, size_t{700}}) {
      if (ln * rn > 3 * (kChunkCapacity + 1)) continue;
      const TablePtr left = CrossLeft(ln);
      const TablePtr right = CrossRight(rn);
      CrossJoinTransform t(right, ConcatSchema(*left, *right));
      Emitted e = ApplyOnce(t, ChunkOf(*left));
      // Left-major order, full chunks up to the last.
      EXPECT_EQ(e.rows, NestedLoop(*left, -1, *right, -1))
          << ln << " x " << rn;
      const size_t total = ln * rn;
      ASSERT_EQ(e.chunk_rows.size(),
                (total + kChunkCapacity - 1) / kChunkCapacity)
          << ln << " x " << rn;
      for (size_t i = 0; i < e.chunk_rows.size(); ++i) {
        EXPECT_EQ(e.chunk_rows[i],
                  std::min(kChunkCapacity, total - i * kChunkCapacity));
      }
    }
  }
}

// --- SQL: one worker and the 4-worker pool against the references -------

/// Registers `t` as a table named `name` with its own column names.
void Register(Engine& engine, const std::string& name, const Table& t) {
  std::string cols;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Field& f = t.schema().field(c);
    cols += (c ? ", " : "") + f.name + " " + DataTypeToString(f.type);
  }
  ASSERT_OK(engine.Execute("CREATE TABLE " + name + " (" + cols + ")")
                .status());
  auto table = engine.catalog().GetTable(name);
  ASSERT_OK(table.status());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ASSERT_OK((*table)->SetColumn(c, t.column(c)));
  }
}

/// Runs `sql` on one worker and on the pool and checks both results,
/// as multisets, against `expected`.
void ExpectRowsAtBothWorkerCounts(Engine& engine, const std::string& sql,
                                  const std::vector<Row>& expected) {
  const std::vector<Row> want = Sorted(expected);
  for (bool serial : {true, false}) {
    QueryResult r;
    if (serial) {
      ScopedSerialExecution one_worker;
      r = RunQuery(engine, sql);
    } else {
      r = RunQuery(engine, sql);
    }
    ASSERT_NE(r.table(), nullptr) << sql;
    EXPECT_EQ(Sorted(RowsOf(std::as_const(*r.table()))), want)
        << sql << (serial ? " (1 worker)" : " (pool)");
  }
}

/// Joins l and r (columns l0.., r0..) on l.l0 = r.r0 in SQL and checks
/// every output column against the nested loop.
void ExpectSqlJoinMatchesNestedLoop(const TablePtr& left,
                                    const TablePtr& right) {
  Engine engine;
  Register(engine, "l", *left);
  Register(engine, "r", *right);
  ExpectRowsAtBothWorkerCounts(engine,
                               "SELECT * FROM l JOIN r ON l.l0 = r.r0",
                               NestedLoop(*left, 0, *right, 0));
}

TEST(ExecKernelSqlTest, JoinProbeMatchesNestedLoop) {
  Rng rng(21);
  // 20k probe rows: more than one morsel, so the pool really splits them.
  const size_t n = 20000;
  const size_t m = 1000;
  const TablePtr right = MakeTable("r", {BigInts(Iota(m)), Labels("w", m)});
  // FK→PK: every probe row matches once.
  ExpectSqlJoinMatchesNestedLoop(
      MakeTable("l", {BigInts(Draws(rng, n, m)), BigInts(Iota(n))}), right);
  // Duplicate, missing and NULL keys.
  std::vector<int64_t> keys = Draws(rng, m, m * 5 / 6);
  Column dup_keys(DataType::kBigInt);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 97 == 0) {
      dup_keys.AppendNull();
    } else {
      dup_keys.AppendBigInt(keys[i]);
    }
  }
  ExpectSqlJoinMatchesNestedLoop(
      MakeTable("l", {BigInts(Draws(rng, n, m)), BigInts(Iota(n))}),
      MakeTable("r", {std::move(dup_keys), Labels("w", m)}));
  // DOUBLE keys with -0.0 and NaN on both sides.
  const double nan = std::nan("");
  const std::vector<double> domain = {0.0, -0.0, nan, 0.25, -1.5, 1e-300};
  std::vector<double> ld(20000), rd(domain.size() * 3);
  for (auto& x : ld) x = domain[rng.Below(domain.size())];
  for (size_t i = 0; i < rd.size(); ++i) rd[i] = domain[i % domain.size()];
  ExpectSqlJoinMatchesNestedLoop(
      MakeTable("l", {Column::FromDoubles(ld), BigInts(Iota(ld.size()))}),
      MakeTable("r", {Column::FromDoubles(rd), BigInts(Iota(rd.size()))}));
  // VARCHAR keys, FK→PK.
  Column lk(DataType::kVarchar);
  for (size_t i = 0; i < n; ++i) {
    lk.AppendString("k" + std::to_string(rng.Below(m)));
  }
  ExpectSqlJoinMatchesNestedLoop(
      MakeTable("l", {std::move(lk), BigInts(Iota(n))}),
      MakeTable("r", {Labels("k", m), BigInts(Iota(m))}));
}

TEST(ExecKernelSqlTest, CrossJoinMatchesNestedLoop) {
  for (size_t rn : {size_t{0}, size_t{1}, size_t{7}, kChunkCapacity,
                    kChunkCapacity + 1}) {
    // Several morsels of left rows where the product stays small.
    const size_t ln = rn <= 7 ? 20000 : 5;
    const TablePtr left = CrossLeft(ln);
    const TablePtr right = CrossRight(rn);
    Engine engine;
    Register(engine, "l", *left);
    Register(engine, "r", *right);
    ExpectRowsAtBothWorkerCounts(engine, "SELECT * FROM l, r",
                                 NestedLoop(*left, -1, *right, -1));
  }
}

// --- hash-aggregate consume: every AggOp against a row-at-a-time fold ----

/// Row-at-a-time accumulators of one group, folded in row order.
struct RefGroup {
  Row key;
  int64_t rows = 0;
  int64_t xn = 0, xsum = 0, xmin = 0, xmax = 0;
  double xdsum = 0, xdsq = 0;
  int64_t yn = 0;
  double ysum = 0, ysq = 0, ymin = 0, ymax = 0;
  int64_t sn = 0;
};

std::string IntText(int64_t v) { return "i:" + std::to_string(v); }
std::string DblText(double v) {
  return "d:" + std::to_string(std::bit_cast<uint64_t>(v));
}

/// var/stddev as the engine defines them: the sample variance from the
/// sum and the sum of squares, clamped at 0; NULL below two values.
void AppendVar(Row* row, int64_t n, double sum, double sq) {
  if (n < 2) {
    row->push_back("NULL");
    row->push_back("NULL");
    return;
  }
  const double cnt = static_cast<double>(n);
  double var = (sq - sum * sum / cnt) / (cnt - 1);
  if (var < 0) var = 0;
  row->push_back(DblText(var));
  row->push_back(DblText(std::sqrt(var)));
}

/// The grouping key as text: NULLs group together, -0.0 with 0.0 and
/// every NaN with every NaN, so those print as one value.
std::string GroupKeyText(const Column& c, size_t row) {
  if (c.type() == DataType::kDouble && !c.IsNull(row)) {
    const double v = c.GetDouble(row);
    if (std::isnan(v)) return "d:nan";
    if (v == 0.0) return DblText(0.0);
  }
  return CellText(c, row);
}

constexpr char kAggList[] =
    "count(*), count(x), sum(x), avg(x), min(x), max(x), var(x), "
    "stddev(x), count(y), sum(y), avg(y), min(y), max(y), var(y), "
    "stddev(y), count(s)";

/// Reference rows of `SELECT keys..., <kAggList> FROM t GROUP BY keys`
/// over t(keys..., x BIGINT, y DOUBLE, s VARCHAR), key cells as
/// GroupKeyText.
std::vector<Row> ReferenceGroupBy(const Table& t, size_t num_keys) {
  const Column& x = t.column(num_keys);
  const Column& y = t.column(num_keys + 1);
  const Column& s = t.column(num_keys + 2);
  std::map<Row, RefGroup> groups;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row key;
    for (size_t c = 0; c < num_keys; ++c) {
      key.push_back(GroupKeyText(t.column(c), r));
    }
    RefGroup& g = groups[key];
    g.key = key;
    g.rows++;
    if (!x.IsNull(r)) {
      const int64_t v = x.GetBigInt(r);
      if (g.xn == 0 || v < g.xmin) g.xmin = v;
      if (g.xn == 0 || v > g.xmax) g.xmax = v;
      g.xn++;
      g.xsum += v;
      g.xdsum += static_cast<double>(v);
      g.xdsq += static_cast<double>(v) * static_cast<double>(v);
    }
    if (!y.IsNull(r)) {
      const double v = y.GetDouble(r);
      if (g.yn == 0 || CompareDoubles(v, g.ymin) < 0) g.ymin = v;
      if (g.yn == 0 || CompareDoubles(v, g.ymax) > 0) g.ymax = v;
      g.yn++;
      g.ysum += v;
      g.ysq += v * v;
    }
    if (!s.IsNull(r)) g.sn++;
  }
  std::vector<Row> out;
  for (const auto& [key, g] : groups) {
    Row row = key;
    row.push_back(IntText(g.rows));
    row.push_back(IntText(g.xn));
    if (g.xn == 0) {
      for (int i = 0; i < 6; ++i) row.push_back("NULL");
    } else {
      row.push_back(IntText(g.xsum));
      row.push_back(DblText(g.xdsum / static_cast<double>(g.xn)));
      row.push_back(IntText(g.xmin));
      row.push_back(IntText(g.xmax));
      AppendVar(&row, g.xn, g.xdsum, g.xdsq);
    }
    row.push_back(IntText(g.yn));
    if (g.yn == 0) {
      for (int i = 0; i < 6; ++i) row.push_back("NULL");
    } else {
      row.push_back(DblText(g.ysum));
      row.push_back(DblText(g.ysum / static_cast<double>(g.yn)));
      row.push_back(DblText(g.ymin));
      row.push_back(DblText(g.ymax));
      AppendVar(&row, g.yn, g.ysum, g.ysq);
    }
    row.push_back(IntText(g.sn));
    out.push_back(std::move(row));
  }
  return out;
}

/// The engine's rows of the same GROUP BY, key cells as GroupKeyText.
std::vector<Row> EngineGroupBy(Engine& engine, size_t num_keys,
                               const std::string& keys) {
  QueryResult r = RunQuery(engine, "SELECT " + keys + ", " + kAggList +
                                       " FROM t GROUP BY " + keys);
  const Table& t = std::as_const(*r.table());
  std::vector<Row> rows = RowsOf(t);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < num_keys; ++c) {
      rows[i][c] = GroupKeyText(t.column(c), i);
    }
  }
  return rows;
}

/// A key column of `n` cells drawn from `groups` values of `type`, a
/// NULL where `null_every` divides the row (0: never).
Column KeyColumn(Rng& rng, DataType type, size_t n, uint64_t groups,
                 size_t null_every) {
  Column c(type);
  for (size_t i = 0; i < n; ++i) {
    if (null_every != 0 && i % null_every == 0) {
      c.AppendNull();
      continue;
    }
    const uint64_t g = rng.Below(groups);
    if (type != DataType::kDouble) {
      c.AppendBigInt(static_cast<int64_t>(g) * 1000003 - 7);
    } else if (g == 0) {
      c.AppendDouble(i % 2 ? -0.0 : 0.0);  // one group, two spellings
    } else if (g == 1) {
      c.AppendDouble(std::nan(""));
    } else {
      c.AppendDouble(static_cast<double>(g) * 0.375);
    }
  }
  return c;
}

/// Arguments x BIGINT, y DOUBLE, s VARCHAR, NULL where `null_every`
/// divides the row plus an offset per column (0: never). `dyadic` keeps y
/// on multiples of 1/4, so its sums are exact in any order.
std::vector<Column> ArgColumns(Rng& rng, size_t n, size_t null_every,
                               bool dyadic) {
  Column x(DataType::kBigInt), y(DataType::kDouble), s(DataType::kVarchar);
  auto null_at = [null_every](size_t i, size_t off) {
    return null_every != 0 && (i + off) % null_every == 0;
  };
  for (size_t i = 0; i < n; ++i) {
    if (null_at(i, 1)) {
      x.AppendNull();
    } else {
      x.AppendBigInt(static_cast<int64_t>(rng.Below(2001)) - 1000);
    }
    if (null_at(i, 2)) {
      y.AppendNull();
    } else if (dyadic) {
      y.AppendDouble(static_cast<double>(rng.Below(801)) * 0.25 - 100.0);
    } else {
      y.AppendDouble(rng.Uniform(-1e3, 1e3));
    }
    if (null_at(i, 3)) {
      s.AppendNull();
    } else {
      s.AppendString("s" + std::to_string(i % 13));
    }
  }
  return {std::move(x), std::move(y), std::move(s)};
}

struct GroupByCase {
  const char* name;
  std::vector<DataType> key_types;
  size_t key_null_every;
};

/// Every AggOp over BIGINT and DOUBLE keys, with and without NULL
/// arguments. One worker folds each group's rows in row order, so it must
/// equal the row-at-a-time fold to the bit over arbitrary doubles; the
/// pool merges partials in its own order, so it is held to the bit over
/// dyadic arguments, whose sums are exact in any order.
TEST(ExecKernelAggregateTest, ConsumeMatchesRowAtATimeFold) {
  const std::vector<GroupByCase> cases = {
      {"bigint key", {DataType::kBigInt}, 0},
      {"bigint key with NULLs", {DataType::kBigInt}, 11},
      {"double key with NULLs", {DataType::kDouble}, 13},
      {"bigint and double keys", {DataType::kBigInt, DataType::kDouble}, 17},
  };
  Rng rng(31);
  const size_t n = 30000;  // several morsels
  for (const GroupByCase& gc : cases) {
    for (size_t arg_nulls : {size_t{0}, size_t{5}}) {
      for (bool dyadic : {false, true}) {
        std::vector<Column> cols;
        std::string keys;
        for (size_t k = 0; k < gc.key_types.size(); ++k) {
          cols.push_back(
              KeyColumn(rng, gc.key_types[k], n, 400, gc.key_null_every));
          keys += (k ? ", t" : "t") + std::to_string(k);
        }
        for (Column& a : ArgColumns(rng, n, arg_nulls, dyadic)) {
          cols.push_back(std::move(a));
        }
        const size_t num_keys = gc.key_types.size();
        std::vector<Field> fields;
        for (size_t k = 0; k < num_keys; ++k) {
          fields.emplace_back("t" + std::to_string(k), gc.key_types[k]);
        }
        fields.emplace_back("x", DataType::kBigInt);
        fields.emplace_back("y", DataType::kDouble);
        fields.emplace_back("s", DataType::kVarchar);
        Table t("t", Schema(fields));
        for (size_t c = 0; c < cols.size(); ++c) {
          ASSERT_OK(t.SetColumn(c, cols[c]));
        }
        Engine engine;
        Register(engine, "t", t);
        const std::vector<Row> expected =
            Sorted(ReferenceGroupBy(t, num_keys));
        const std::string label = std::string(gc.name) +
                                  (arg_nulls ? ", NULL args" : "") +
                                  (dyadic ? ", dyadic" : "");
        {
          ScopedSerialExecution one_worker;
          EXPECT_EQ(Sorted(EngineGroupBy(engine, num_keys, keys)), expected)
              << label << " (1 worker)";
        }
        if (dyadic) {
          EXPECT_EQ(Sorted(EngineGroupBy(engine, num_keys, keys)), expected)
              << label << " (pool)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace soda
