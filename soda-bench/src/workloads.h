/// \file workloads.h
/// The three workloads and the helpers they share. See README.md for why
/// each workload exists and which layer metric should move which
/// end-to-end metric.

#ifndef SODA_BENCH_WORKLOADS_H_
#define SODA_BENCH_WORKLOADS_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "core/engine.h"
#include "sample.h"
#include "tracer.h"

namespace sb {

void RunAnalytics(const Options& opts, Report* report, Tracer* tracer);
void RunIterate(const Options& opts, Report* report, Tracer* tracer);
void RunSqlMix(const Options& opts, Report* report, Tracer* tracer);

/// Per-layer metric name -> value, filled by a traced run.
using LayerValues = std::map<std::string, double>;

/// Latencies of one statement class.
struct StatementClass {
  std::string name;  ///< the per-statement metric name, e.g. "pagerank_s"
  std::string unit;  ///< "s" or "ms": how the note prints it
  Samples samples;
};

/// Median CPU seconds (sample.h) of repeated set-ups, each from scratch,
/// each scaled by a calibration (calibrate.h) taken between them. Repeats at
/// least kMinSetups times and then until two seconds have passed, so that
/// a set-up of a few milliseconds still has a steady median.
template <typename Fn>
double MedianSetup(Fn&& setup_once) {
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 50;
  Samples times;
  Calibration calib;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || SecondsSince(t0) < 2.0);
       ++i) {
    const Instant start = ReadClocks();
    setup_once();
    times.Add(start, ReadClocks());
    calib.Sample();
  }
  return Median(calib.Scaled(times));
}

/// Emits the end-to-end metrics of the measured phase in CPU time
/// (sample.h), scaled by the calibration of the phase (Calib()):
/// `setup_s` comes from MedianSetup; `cycles` are the workload's cycle
/// times; `classes` hold every measured statement; `shortest` indexes the
/// shortest class. Every class is also noted by its own name with median,
/// tail percentile and sample count, as are the unscaled values, the
/// wall-clock rate over `wall_s` and `peak_rss_mb`, read at the end of the
/// measured phase.
void EmitEndToEnd(Report* report, double setup_s, double wall_s,
                  const Samples& cycles,
                  const std::vector<StatementClass>& classes, size_t shortest,
                  double peak_rss_mb);

/// Emits every per-layer metric: measured ones from `values` plus the
/// process peak RSS and the span count, the rest as absent with the reason
/// from `absent` (or a generic one).
void EmitLayers(Report* report, const Tracer& tracer, LayerValues values,
                const std::map<std::string, std::string>& absent);

/// Writes the spans next to the result file and notes each span name's
/// median duration and self time.
void EmitTrace(Report* report, const Tracer& tracer, const std::string& path);

/// Feature-only copy of a generated table (drops the leading id column).
/// Same as bench/kmeans_bench_common.h's, which the benchmark does not
/// depend on: it builds from src/ alone.
soda::TablePtr FeatureView(const soda::Table& t);

/// A full reference ranking for top-100 checks.
struct RankReference {
  std::unordered_map<int64_t, double> rank;
  std::vector<double> sorted_desc;
};
/// `shift` is added to every rank (non-zero only to prove checks fail).
RankReference MakeRankReference(const soda::Table& ranks, double shift);

/// Top-100 check of a (vertex, rank) result ordered by rank DESC: every
/// returned rank equals the reference rank of its vertex, ranks descend,
/// and nothing left out ranks above the last one returned. The tolerance
/// is relative to the top rank.
bool CheckTopRanks(const soda::Table& got, const RankReference& ref,
                   double rel_tol, std::string* why);

/// Centers as [cluster][coordinate], read from a (cluster, coords...)
/// table; `shift` is added to every coordinate.
using Centers = std::vector<std::vector<double>>;
Centers CentersOf(const soda::Table& t, double shift);
bool CheckCenters(const soda::Table& got, const Centers& expected,
                  double rel_tol, std::string* why);

/// One in-process statement of a cycle and the check of its result.
struct CycleStatement {
  size_t cls;  ///< index into the workload's StatementClass list
  std::string sql;
  std::function<bool(const soda::QueryResult&, std::string*)> check;
};

/// A closed loop of cycles measured for a fixed time.
struct Measured {
  std::vector<StatementClass> classes;
  Samples cycles;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0;  ///< process CPU seconds of the whole phase
  soda::ExecStats stats;  ///< summed over every statement
  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Runs the statements in order, checking each, and records the cycle;
/// spans (when `tracer` is enabled) wrap each Engine::Execute under a
/// "cycle" root.
void RunCycle(soda::Engine* engine, const std::vector<CycleStatement>& stmts,
              Measured* m, Report* report, Tracer* tracer);

/// Repeats RunCycle until `seconds` have passed (at least one cycle).
Measured MeasureCycles(soda::Engine* engine,
                       const std::vector<CycleStatement>& stmts,
                       const std::vector<StatementClass>& classes,
                       double seconds, Report* report, Tracer* tracer);

/// Cache counters over an interval from two soda_status() snapshots: the
/// plan-cache and join-recycler hit ratios with their lookup counts. Returns
/// every counter's delta (empty, and a failure, when a snapshot failed).
std::map<std::string, double> StatusDeltas(
    const soda::Result<std::map<std::string, double>>& before,
    const soda::Result<std::map<std::string, double>>& after, Report* report,
    LayerValues* out);

/// Process CPU time ÷ (wall time × nproc); notes the base.
double CpuBusy(double cpu_s, double wall_s, Report* report);
/// Traced ÷ untraced median cycle CPU time (scaled, calibrate.h) − 1;
/// notes the base.
double TraceOverhead(const Samples& untraced, const Samples& traced,
                     Report* report);

/// The traced run of an in-process workload: the loop untraced for half of
/// `seconds`, then traced for the other half. Fills the tracing overhead,
/// the CPU busy share, the cache ratios and the per-cycle ExecStats counts,
/// and returns the traced half.
Measured TracedCycles(soda::Engine* engine,
                      const std::vector<CycleStatement>& stmts,
                      const std::vector<StatementClass>& classes,
                      double seconds, Report* report, Tracer* tracer,
                      LayerValues* out);

/// Layer metrics common to all workloads: ProbeLayers (repeated up to
/// 0.3 s per statement; medians) and EXPLAIN ANALYZE over one statement of
/// each class, summed over the statements; core.overhead_us comes from the
/// statement with the shortest run.
void ProbeStatements(soda::Engine* engine, const std::vector<CycleStatement>& stmts,
                     Tracer* tracer, Report* report, LayerValues* out);

size_t NumCpus();

}  // namespace sb

#endif  // SODA_BENCH_WORKLOADS_H_
