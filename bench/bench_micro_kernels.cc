/// Microbenchmarks (google-benchmark) for the performance-critical kernels
/// the paper's design decisions rest on: a hard-coded distance and a
/// lambda body's distance chunk on the expression evaluator (§7), CSR
/// construction with re-labeling (§6.3), vectorized expression evaluation,
/// and the parallel aggregation merge.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "expr/evaluator.h"
#include "graph/csr.h"
#include "graph/ldbc_generator.h"
#include "storage/data_chunk.h"
#include "storage/table.h"
#include "util/parallel.h"
#include "util/query_guard.h"
#include "util/rng.h"

namespace soda {
namespace {

/// Squared L2 from a point (columns 0..d-1) to one center, the center's
/// coordinates as literals: the body k-Means evaluates per center for a
/// lambda without a per-dimension form.
ExprPtr CenterL2Body(const std::vector<double>& center) {
  ExprPtr sum;
  for (size_t j = 0; j < center.size(); ++j) {
    auto diff = Expression::Binary(
        BinaryOp::kSub, Expression::ColumnRef(j, DataType::kDouble, "a"),
        Expression::Literal(Value::Double(center[j])), DataType::kDouble);
    auto sq = Expression::Binary(BinaryOp::kPow, std::move(diff),
                                 Expression::Literal(Value::BigInt(2)),
                                 DataType::kDouble);
    sum = sum ? Expression::Binary(BinaryOp::kAdd, std::move(sum),
                                   std::move(sq), DataType::kDouble)
              : std::move(sq);
  }
  return sum;
}

void BM_HardcodedL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> a(d), b(d);
  for (size_t j = 0; j < d; ++j) {
    a[j] = rng.NextDouble();
    b[j] = rng.NextDouble();
  }
  for (auto _ : state) {
    double acc = 0;
    for (size_t j = 0; j < d; ++j) {
      double diff = a[j] - b[j];
      acc += diff * diff;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HardcodedL2)->Arg(3)->Arg(10)->Arg(50);

/// One distance chunk on the expression evaluator: the squared L2 body
/// against one center over kChunkCapacity points of d DOUBLE columns.
void BM_EvaluatorL2Chunk(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> center(d);
  for (double& c : center) c = rng.NextDouble();
  ExprPtr body = CenterL2Body(center);
  DataChunk chunk;
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(kChunkCapacity);
    for (double& v : col) v = rng.NextDouble();
    chunk.AddColumn(Column::FromDoubles(std::move(col)));
  }
  Column out;
  for (auto _ : state) {
    if (!EvaluateExpression(*body, chunk, &out).ok()) {
      state.SkipWithError("evaluation failed");
      return;
    }
    benchmark::DoNotOptimize(out.F64Data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChunkCapacity));
}
BENCHMARK(BM_EvaluatorL2Chunk)->Arg(3)->Arg(10)->Arg(50);

void BM_CsrBuild(benchmark::State& state) {
  const size_t vertices = static_cast<size_t>(state.range(0));
  GeneratedGraph g = GenerateSocialGraph(vertices, 16, 7);
  for (auto _ : state) {
    auto csr = CsrBuilder::Build(g.src, g.dst);
    benchmark::DoNotOptimize(csr->num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges));
}
BENCHMARK(BM_CsrBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_VectorizedExpression(benchmark::State& state) {
  const size_t rows = kChunkCapacity;
  Rng rng(3);
  std::vector<double> x(rows), y(rows);
  for (size_t i = 0; i < rows; ++i) {
    x[i] = rng.NextDouble();
    y[i] = rng.NextDouble();
  }
  DataChunk chunk;
  chunk.AddColumn(Column::FromDoubles(std::move(x)));
  chunk.AddColumn(Column::FromDoubles(std::move(y)));
  // (x - y)^2 + (y - x)^2
  auto expr = Expression::Binary(
      BinaryOp::kAdd,
      Expression::Binary(
          BinaryOp::kPow,
          Expression::Binary(BinaryOp::kSub,
                             Expression::ColumnRef(0, DataType::kDouble, "x"),
                             Expression::ColumnRef(1, DataType::kDouble, "y"),
                             DataType::kDouble),
          Expression::Literal(Value::BigInt(2)), DataType::kDouble),
      Expression::Binary(
          BinaryOp::kPow,
          Expression::Binary(BinaryOp::kSub,
                             Expression::ColumnRef(1, DataType::kDouble, "y"),
                             Expression::ColumnRef(0, DataType::kDouble, "x"),
                             DataType::kDouble),
          Expression::Literal(Value::BigInt(2)), DataType::kDouble),
      DataType::kDouble);
  for (auto _ : state) {
    Column out;
    Status st = EvaluateExpression(*expr, chunk, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_VectorizedExpression);

void BM_ChunkScan(benchmark::State& state) {
  const size_t n = 1 << 20;
  std::vector<double> vals(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) vals[i] = rng.NextDouble();
  Table t("t", Schema({Field("x", DataType::kDouble)}));
  (void)t.SetColumn(0, Column::FromDoubles(std::move(vals)));
  for (auto _ : state) {
    DataChunk chunk;
    double sum = 0;
    for (size_t offset = 0; offset < n; offset += kChunkCapacity) {
      t.ScanSlice(offset, kChunkCapacity, &chunk);
      const double* data = chunk.column(0).F64Data();
      for (size_t i = 0; i < chunk.num_rows(); ++i) sum += data[i];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ChunkScan);

/// Cost of the resource governor on the hot loop: an unguarded ParallelFor
/// sum over 10M tuples vs the guard-aware overload that probes the
/// cancel/deadline/fault state once per morsel. The probe is one relaxed
/// atomic load plus a steady-clock read every morsel (16K tuples), so the
/// two should stay within ~2% of each other.
constexpr size_t kScanTuples = 10'000'000;

std::vector<int64_t> MakeScanInput() {
  std::vector<int64_t> data(kScanTuples);
  Rng rng(7);
  for (auto& v : data) v = static_cast<int64_t>(rng.Next() & 0xffff);
  return data;
}

void BM_ParallelForScan(benchmark::State& state) {
  const std::vector<int64_t> data = MakeScanInput();
  for (auto _ : state) {
    std::atomic<int64_t> sum{0};
    ParallelFor(data.size(), [&](size_t begin, size_t end, size_t) {
      int64_t local = 0;
      for (size_t i = begin; i < end; ++i) local += data[i];
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScanTuples));
}
BENCHMARK(BM_ParallelForScan)->Unit(benchmark::kMillisecond);

void BM_GuardedParallelForScan(benchmark::State& state) {
  const std::vector<int64_t> data = MakeScanInput();
  // No timeout, no budget: pure probe overhead.
  QueryGuard guard(QueryLimits{}, nullptr);
  for (auto _ : state) {
    std::atomic<int64_t> sum{0};
    Status st =
        ParallelFor(&guard, data.size(), [&](size_t begin, size_t end, size_t) {
          int64_t local = 0;
          for (size_t i = begin; i < end; ++i) local += data[i];
          sum.fetch_add(local, std::memory_order_relaxed);
        });
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScanTuples));
}
BENCHMARK(BM_GuardedParallelForScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace soda

BENCHMARK_MAIN();
