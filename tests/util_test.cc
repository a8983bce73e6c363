/// Tests for the utility kernel: Status/Result, the thread pool, the
/// morsel-driven ParallelFor, the RNG, and string helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "util/parallel.h"
#include "util/query_guard.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace soda {
namespace {

// The global pool is sized from hardware_concurrency at first use, which
// would silently route ParallelFor through its serial path on single-core
// CI machines and skip the pool-specific code (exception capture, cursor
// abort). Force a real pool before anything touches it; an explicit
// SODA_THREADS from the environment still wins.
const bool kForceMultiThreadedPool = [] {
  setenv("SODA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsParseError());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::KeyError("x").code(), StatusCode::kKeyError);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;  // shared rep
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(a.ToString(), b.ToString());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = Half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> err = Half(3);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Chain(int x) {
  SODA_ASSIGN_OR_RETURN(int h, Half(x));
  return h + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Chain(4).ok());
  EXPECT_EQ(*Chain(4), 3);
  EXPECT_FALSE(Chain(5).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(42);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = r.MoveValueOrDie();
  EXPECT_EQ(*v, 42);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, WorkerIdsInRange) {
  std::atomic<bool> bad{false};
  ParallelFor(100000, [&](size_t, size_t, size_t worker) {
    if (worker >= NumWorkers()) bad.store(true);
  }, 128);
  EXPECT_FALSE(bad.load());
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::atomic<size_t> total{0};
  ParallelFor(64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(100, [&](size_t b, size_t e, size_t) {
        total.fetch_add(e - b);
      });
    }
  }, 1);
  EXPECT_EQ(total.load(), 64 * 100u);
}

TEST(ParallelForTest, SerialScopeForcesSingleWorker) {
  ScopedSerialExecution serial;
  std::set<size_t> workers;
  ParallelFor(100000, [&](size_t, size_t, size_t worker) {
    workers.insert(worker);  // safe: serial
  }, 64);
  EXPECT_EQ(workers.size(), 1u);
  EXPECT_TRUE(workers.count(0));
}

TEST(ParallelForTest, WorkerExceptionPropagatesToCaller) {
  // Regression: an exception thrown on a pool worker used to escape the
  // worker's stack and std::terminate the process. It must be captured
  // and rethrown on the calling thread.
  EXPECT_THROW(
      ParallelFor(
          100000,
          [&](size_t begin, size_t, size_t) {
            if (begin >= 50000) throw std::runtime_error("boom");
          },
          128),
      std::runtime_error);

  // The pool must stay usable after the failure.
  std::atomic<size_t> covered{0};
  ParallelFor(10000, [&](size_t b, size_t e, size_t) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 10000u);
}

TEST(ParallelForTest, FirstExceptionWinsAndStopsTheCursor) {
  std::atomic<size_t> morsels_run{0};
  try {
    ParallelFor(
        1 << 20,
        [&](size_t, size_t, size_t) {
          morsels_run.fetch_add(1);
          throw std::runtime_error("every morsel throws");
        },
        64);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // The abort flag stops remaining morsels: far fewer than the 16384
  // total run (at most one in-flight morsel per worker).
  EXPECT_LE(morsels_run.load(), NumWorkers() + 1);
}

TEST(GuardedParallelForTest, CancellationStopsMidLoop) {
  auto token = std::make_shared<CancelToken>();
  QueryGuard guard(QueryLimits{}, token);
  std::atomic<size_t> seen{0};
  Status st = ParallelFor(
      &guard, 1 << 20,
      [&](size_t, size_t, size_t) {
        if (seen.fetch_add(1) == 2) token->Cancel();
      },
      256);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // Cooperative: cancellation is observed at a morsel boundary, so not
  // every morsel ran.
  EXPECT_LT(seen.load(), (1u << 20) / 256);
}

// Per-morsel state indexed by MorselIndex relies on this: the body sees
// the same default-size morsels on the pool and on the serial path.
TEST(GuardedParallelForTest, RunsBodyOncePerMorselOnEveryPath) {
  const size_t total = 3 * kDefaultMorselSize + 5;
  ASSERT_EQ(NumMorsels(total), 4u);
  for (bool serial : {false, true}) {
    std::optional<ScopedSerialExecution> scope;
    if (serial) scope.emplace();
    std::vector<std::atomic<size_t>> rows(NumMorsels(total));
    std::atomic<bool> misaligned{false};
    Status st = ParallelFor(
        nullptr, total, [&](size_t begin, size_t end, size_t) {
          if (begin % kDefaultMorselSize != 0 ||
              end - begin > kDefaultMorselSize) {
            misaligned = true;
            return;
          }
          rows[MorselIndex(begin)] += end - begin;
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(misaligned.load()) << "serial=" << serial;
    for (size_t m = 0; m < rows.size(); ++m) {
      EXPECT_EQ(rows[m].load(),
                std::min(kDefaultMorselSize, total - m * kDefaultMorselSize))
          << "serial=" << serial << " morsel " << m;
    }
  }
}

TEST(GuardedParallelForTest, DeadlineSurfacesAsStatus) {
  QueryLimits limits;
  limits.timeout_ms = 1;
  QueryGuard guard(limits, nullptr);
  std::atomic<bool> spin{true};
  Status st = ParallelFor(
      &guard, 1 << 20,
      [&](size_t begin, size_t, size_t) {
        // Burn a little wall clock so the 1ms deadline passes.
        volatile double x = 1.0;
        for (int i = 0; i < 20000; ++i) x = x * 1.0000001;
        (void)begin;
      },
      64);
  (void)spin;
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(GuardedParallelForTest, NullGuardStillHonorsFaultInjection) {
  FaultInjector::Global().Arm("exec.morsel", FaultInjector::Kind::kError);
  Status st = ParallelFor(
      nullptr, 100000, [](size_t, size_t, size_t) {}, 128);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  FaultInjector::Global().Reset();

  // Fires exactly once, then disarms.
  Status again = ParallelFor(
      nullptr, 100000, [](size_t, size_t, size_t) {}, 128);
  EXPECT_TRUE((again).ok());
}

TEST(GuardedParallelForTest, MemoryOverdraftDetectedAtMorselBoundary) {
  QueryLimits limits;
  limits.memory_limit_bytes = 1024;
  QueryGuard guard(limits, nullptr);
  // Overdraw the budget, then run: the next probe reports exhaustion.
  Status reserve = guard.ReserveBytes(4096, "test.reserve");
  EXPECT_EQ(reserve.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE((guard.ReserveBytes(512, "test.reserve")).ok());
  EXPECT_TRUE((guard.Check("test.site")).ok());
  EXPECT_EQ(guard.bytes_reserved(), 512u);
}

TEST(FaultInjectorTest, SpecParsing) {
  FaultInjector& fi = FaultInjector::Global();
  EXPECT_TRUE((fi.ArmFromSpec("storage.append=oom:2,iterate.step=error")).ok());
  // Two probes pass, the third fires.
  EXPECT_TRUE((fi.Probe("storage.append")).ok());
  EXPECT_TRUE((fi.Probe("storage.append")).ok());
  EXPECT_EQ(fi.Probe("storage.append").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(fi.Probe("iterate.step").code(), StatusCode::kInternal);
  fi.Reset();

  EXPECT_FALSE(fi.ArmFromSpec("site=frobnicate").ok());
  EXPECT_FALSE(fi.ArmFromSpec("site=oom:notanumber").ok());
  fi.Reset();
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.Uniform(5.0, 15.0);
    ASSERT_GE(v, 5.0);
    ASSERT_LT(v, 15.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 10.0, 0.2);  // mean of U(5, 15)
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC_12"), "abc_12");
  EXPECT_EQ(ToUpper("AbC_12"), "ABC_12");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

}  // namespace
}  // namespace soda
