#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

#include "calibrate.h"
#include "layers.h"
#include "workloads.h"

namespace sb {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order (BENCHMARK.json lists the same).
const LayerSpec kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"sql.bind_us", "us"},
    {"sql.optimize_us", "us"},
    {"core.overhead_us", "us"},
    {"core.plan_cache_hit_ratio", "ratio"},
    {"core.plan_cache_lookups", "count"},
    {"core.ht_recycle_hit_ratio", "ratio"},
    {"core.ht_recycle_lookups", "count"},
    {"core.prepared_vs_adhoc", "ratio"},
    {"core.prepared_pairs", "count"},
    {"exec.lower_us", "us"},
    {"exec.verify_us", "us"},
    {"exec.run_ms", "ms"},
    {"exec.iterate_rounds", "count"},
    {"exec.round_ms", "ms"},
    {"exec.materialized_tuples", "count"},
    {"exec.peak_bound_tuples", "count"},
    {"exec.op.scan_ms", "ms"},
    {"exec.op.hash_build_ms", "ms"},
    {"exec.op.hash_probe_ms", "ms"},
    {"exec.op.aggregate_ms", "ms"},
    {"exec.op.sort_ms", "ms"},
    {"exec.op.table_function_ms", "ms"},
    {"exec.bytes_reserved_mb", "MB"},
    {"exec.scan_chunks_per_row", "ratio"},
    {"analytics.pagerank_ms", "ms"},
    {"analytics.kmeans_ms", "ms"},
    {"analytics.naive_bayes_ms", "ms"},
    {"analytics.feed_ms", "ms"},
    {"graph.csr_build_ms", "ms"},
    {"graph.csr_bytes_per_edge", "B"},
    {"storage.seal_ms", "ms"},
    {"storage.table_bytes_per_row", "B"},
    {"storage.catalog_growth_bytes", "B"},
    {"storage.catalog_base_bytes", "B"},
    {"storage.wal_bytes_per_write", "B"},
    {"storage.dml_count", "count"},
    {"storage.checkpoint_ms", "ms"},
    {"server.roundtrip_overhead_us", "us"},
    {"server.admitted", "count"},
    {"server.shed", "count"},
    {"server.errors", "count"},
    {"util.cpu_busy_frac", "ratio"},
    {"util.peak_rss_mb", "MB"},
    {"contenders.spark_kmeans_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

}  // namespace

void EmitEndToEnd(Report* report, double setup_s, double wall_s,
                  const Samples& cycles,
                  const std::vector<StatementClass>& classes, size_t shortest,
                  double peak_rss_mb) {
  const Calibration& calib = Calib();
  double log_sum = 0;
  double cpu_s = 0;  // each class at its median: one slow sample moves nothing
  size_t statements = 0;
  std::vector<double> medians;
  for (const StatementClass& c : classes) {
    report->NoteSummary(c.name, c.samples, c.unit, c.unit == "ms" ? 1e3 : 1.0);
    const double median = Median(calib.Scaled(c.samples));
    log_sum += std::log(median * 1e3);
    cpu_s += median * static_cast<double>(c.samples.size());
    statements += c.samples.size();
    medians.push_back(median);
  }
  report->NoteSummary("cycle", cycles, "s", 1.0);
  report->Note("calibration", "kernel median " + Fmt(calib.MedianMs()) +
                                  " CPU ms (n=" + std::to_string(calib.size()) +
                                  "), reference " +
                                  Fmt(Calibration::kReferenceMs) + " ms");
  report->Note("stmts_per_wall_s", Fmt(static_cast<double>(statements) / wall_s) +
                                       " (" + Fmt(wall_s) + " s measured)");
  report->Metric("setup_s", setup_s, "s");
  report->Metric("stmts_per_cpu_s", static_cast<double>(statements) / cpu_s, "1/s");
  report->Metric("short_cpu_ms", medians[shortest] * 1e3, "ms");
  report->Metric("geomean_cpu_ms",
                 std::exp(log_sum / static_cast<double>(classes.size())), "ms");
  // Not a bounded metric: on iterate's small process the allocator makes
  // it bimodal (README.md).
  report->Note("peak_rss_mb", Fmt(peak_rss_mb));
}

void EmitLayers(Report* report, const Tracer& tracer, LayerValues values,
                const std::map<std::string, std::string>& absent) {
  values["util.peak_rss_mb"] = PeakRssMb();
  values["trace.spans"] = static_cast<double>(tracer.size());
  for (const LayerSpec& spec : kLayerMetrics) {
    auto v = values.find(spec.name);
    if (v != values.end()) {
      report->Metric(spec.name, v->second, spec.unit);
      continue;
    }
    auto why = absent.find(spec.name);
    report->Absent(spec.name, spec.unit,
                   why != absent.end() ? why->second
                                       : "layer not exercised by this workload");
  }
}

void EmitTrace(Report* report, const Tracer& tracer, const std::string& path) {
  for (const auto& [name, st] : tracer.Stats()) {
    report->Note("span " + name,
                 "n=" + std::to_string(st.count) + " median_us=" +
                     Fmt(Median(st.duration_us)) +
                     " median_self_us=" + Fmt(Median(st.self_us)));
  }
  if (!tracer.Write(path)) report->Fail("could not write spans to " + path);
  report->Note("spans_file", path);
}

soda::TablePtr FeatureView(const soda::Table& t) {
  soda::Schema schema;
  for (size_t j = 1; j < t.num_columns(); ++j) {
    schema.AddField(t.schema().field(j));
  }
  auto out = std::make_shared<soda::Table>("view", schema);
  for (size_t j = 1; j < t.num_columns(); ++j) {
    soda::Column col(t.column(j).type());
    col.AppendSlice(t.column(j), 0, t.num_rows());
    (void)out->SetColumn(j - 1, std::move(col));
  }
  return out;
}

RankReference MakeRankReference(const soda::Table& ranks, double shift) {
  RankReference ref;
  for (size_t i = 0; i < ranks.num_rows(); ++i) {
    const double r = ranks.column(1).GetNumeric(i) + shift;
    ref.rank[ranks.column(0).GetBigInt(i)] = r;
    ref.sorted_desc.push_back(r);
  }
  std::sort(ref.sorted_desc.rbegin(), ref.sorted_desc.rend());
  return ref;
}

bool CheckTopRanks(const soda::Table& got, const RankReference& ref,
                   double rel_tol, std::string* why) {
  const size_t n = std::min<size_t>(100, ref.sorted_desc.size());
  if (got.num_rows() != n) {
    *why = "expected " + std::to_string(n) + " rows, got " +
           std::to_string(got.num_rows());
    return false;
  }
  const double tol =
      rel_tol * (ref.sorted_desc.empty() ? 1.0 : ref.sorted_desc[0]);
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = got.column(0).GetBigInt(i);
    const double r = got.column(1).GetNumeric(i);
    auto it = ref.rank.find(v);
    if (it == ref.rank.end() || std::abs(it->second - r) > tol) {
      *why = "vertex " + std::to_string(v) + " rank " + Fmt(r, 12) +
             " differs from the reference";
      return false;
    }
    if (i > 0 && r > got.column(1).GetNumeric(i - 1) + tol) {
      *why = "ranks are not in descending order";
      return false;
    }
  }
  if (n > 0 && got.column(1).GetNumeric(n - 1) < ref.sorted_desc[n - 1] - tol) {
    *why = "a vertex ranking above the 100th was left out";
    return false;
  }
  return true;
}

Centers CentersOf(const soda::Table& t, double shift) {
  Centers out(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 1; c < t.num_columns(); ++c) {
      out[r].push_back(t.column(c).GetNumeric(r) + shift);
    }
  }
  return out;
}

bool CheckCenters(const soda::Table& got, const Centers& expected,
                  double rel_tol, std::string* why) {
  if (got.num_rows() != expected.size()) {
    *why = "expected " + std::to_string(expected.size()) + " centers, got " +
           std::to_string(got.num_rows());
    return false;
  }
  for (size_t r = 0; r < got.num_rows(); ++r) {
    if (got.column(0).GetNumeric(r) != static_cast<double>(r) ||
        got.num_columns() != expected[r].size() + 1) {
      *why = "center row " + std::to_string(r) + " has the wrong shape";
      return false;
    }
    for (size_t c = 0; c < expected[r].size(); ++c) {
      const double a = got.column(c + 1).GetNumeric(r);
      const double b = expected[r][c];
      if (std::abs(a - b) > rel_tol * std::max(1.0, std::abs(b))) {
        *why = "center " + std::to_string(r) + " coordinate " +
               std::to_string(c + 1) + ": " + Fmt(a, 12) + " vs " + Fmt(b, 12);
        return false;
      }
    }
  }
  return true;
}

void RunCycle(soda::Engine* engine, const std::vector<CycleStatement>& stmts,
              Measured* m, Report* report, Tracer* tracer) {
  const int64_t stmt_id = tracer->NewStatement();
  ScopedSpan cycle(tracer, "cycle", -1, stmt_id);
  const Instant t0 = ReadClocks();
  for (const CycleStatement& s : stmts) {
    const Instant s0 = ReadClocks();
    soda::Result<soda::QueryResult> r = [&] {
      ScopedSpan span(tracer, "core.execute", cycle.id(), stmt_id);
      return engine->Execute(s.sql);
    }();
    const Instant s1 = ReadClocks();
    StatementClass& cls = m->classes[s.cls];
    std::string why;
    bool ok = r.ok();
    if (!ok) {
      why = r.status().ToString();
    } else {
      ok = s.check(*r, &why);
    }
    report->Count(ok, cls.name + ": " + why);
    Calib().Sample();
    if (!ok) continue;
    cls.samples.Add(s0, s1);
    const soda::ExecStats& st = r->stats();
    m->stats.iterations_run += st.iterations_run;
    m->stats.cumulative_materialized_tuples += st.cumulative_materialized_tuples;
    m->stats.peak_bound_tuples =
        std::max(m->stats.peak_bound_tuples, st.peak_bound_tuples);
  }
  m->cycles.Add(t0, ReadClocks());
}

Measured MeasureCycles(soda::Engine* engine,
                       const std::vector<CycleStatement>& stmts,
                       const std::vector<StatementClass>& classes,
                       double seconds, Report* report, Tracer* tracer) {
  Measured m;
  m.classes = classes;
  const double cpu0 = CpuSeconds();
  m.start_ns = NowNs();
  do {
    RunCycle(engine, stmts, &m, report, tracer);
  } while (SecondsSince(m.start_ns) < seconds);
  m.end_ns = NowNs();
  m.cpu_s = CpuSeconds() - cpu0;
  return m;
}

std::map<std::string, double> StatusDeltas(
    const soda::Result<std::map<std::string, double>>& before,
    const soda::Result<std::map<std::string, double>>& after, Report* report,
    LayerValues* out) {
  std::map<std::string, double> d;
  if (!before.ok() || !after.ok()) {
    report->Fail("soda_status(): " +
                 (before.ok() ? after.status() : before.status()).ToString());
    return d;
  }
  for (const auto& [k, v] : *after) {
    auto b = before->find(k);
    d[k] = v - (b == before->end() ? 0.0 : b->second);
  }
  LayerValues& v = *out;
  const double pc = d["plan_cache_hits"] + d["plan_cache_misses"];
  const double ht = d["ht_cache_hits"] + d["ht_cache_misses"];
  v["core.plan_cache_lookups"] = pc;
  v["core.ht_recycle_lookups"] = ht;
  if (pc > 0) v["core.plan_cache_hit_ratio"] = d["plan_cache_hits"] / pc;
  if (ht > 0) v["core.ht_recycle_hit_ratio"] = d["ht_cache_hits"] / ht;
  return d;
}

double CpuBusy(double cpu_s, double wall_s, Report* report) {
  const double cpus = static_cast<double>(NumCpus());
  report->Note("util.cpu_busy_frac base", "cpu_s=" + Fmt(cpu_s) + " wall_s=" +
                                              Fmt(wall_s) + " nproc=" + Fmt(cpus));
  return cpu_s / (wall_s * cpus);
}

double TraceOverhead(const Samples& untraced, const Samples& traced,
                     Report* report) {
  const double base = Median(Calib().Scaled(untraced));
  const double with = Median(Calib().Scaled(traced));
  report->Note("trace.overhead_frac base",
               "untraced median cycle " + Fmt(base) + " CPU s (n=" +
                   std::to_string(untraced.size()) + "), traced " + Fmt(with) +
                   " s (n=" + std::to_string(traced.size()) + ")");
  return base > 0 ? with / base - 1.0 : 0.0;
}

Measured TracedCycles(soda::Engine* engine,
                      const std::vector<CycleStatement>& stmts,
                      const std::vector<StatementClass>& classes,
                      double seconds, Report* report, Tracer* tracer,
                      LayerValues* out) {
  LayerValues& v = *out;
  Tracer untraced(false);
  const Measured plain =
      MeasureCycles(engine, stmts, classes, seconds / 2, report, &untraced);
  const auto status0 = EngineStatus(engine);
  Measured traced =
      MeasureCycles(engine, stmts, classes, seconds / 2, report, tracer);
  v["util.cpu_busy_frac"] = CpuBusy(traced.cpu_s, traced.wall_s(), report);
  StatusDeltas(status0, EngineStatus(engine), report, out);
  v["trace.overhead_frac"] =
      TraceOverhead(plain.cycles, traced.cycles, report);

  // ExecStats counts per cycle; the iterations include the operators' own.
  const double cycles = static_cast<double>(traced.cycles.size());
  const double rounds = static_cast<double>(traced.stats.iterations_run);
  v["exec.iterate_rounds"] = rounds / cycles;
  v["exec.materialized_tuples"] =
      static_cast<double>(traced.stats.cumulative_materialized_tuples) / cycles;
  v["exec.peak_bound_tuples"] =
      static_cast<double>(traced.stats.peak_bound_tuples);
  if (rounds > 0) {
    double total_s = 0;
    for (const double c : traced.cycles.cpu) total_s += c;
    v["exec.round_ms"] = total_s * 1e3 / rounds;
  }
  return traced;
}

void ProbeStatements(soda::Engine* engine,
                     const std::vector<CycleStatement>& stmts, Tracer* tracer,
                     Report* report, LayerValues* out) {
  LayerValues& v = *out;
  OpTimes ops;
  double cheapest_run_ms = std::numeric_limits<double>::infinity();
  for (const CycleStatement& s : stmts) {
    // Repeat cheap statements, so that a median stands for each layer.
    std::map<std::string, std::vector<double>> reps;
    const int64_t t0 = NowNs();
    for (int i = 0; i < 25 && (i == 0 || SecondsSince(t0) < 0.3); ++i) {
      soda::Result<LayerTimes> t = ProbeLayers(engine, s.sql, tracer);
      if (!t.ok()) {
        report->Fail("layer probe: " + t.status().ToString());
        break;
      }
      reps["sql.parse_us"].push_back(t->parse_us);
      reps["sql.bind_us"].push_back(t->bind_us);
      reps["sql.optimize_us"].push_back(t->optimize_us);
      reps["core.overhead_us"].push_back(t->overhead_us());
      reps["exec.lower_us"].push_back(t->lower_us);
      reps["exec.verify_us"].push_back(t->verify_us);
      reps["exec.run_ms"].push_back(t->run_us * 1e-3);
    }
    for (const auto& [name, values] : reps) {
      if (name != "core.overhead_us") v[name] += Median(values);
    }
    // The difference of two runs of a long statement is run-time noise, so
    // the overhead comes from the cheapest statement of the set.
    const double run_ms = Median(reps["exec.run_ms"]);
    if (!reps["core.overhead_us"].empty() && run_ms < cheapest_run_ms) {
      cheapest_run_ms = run_ms;
      v["core.overhead_us"] = Median(reps["core.overhead_us"]);
    }
    soda::Result<OpTimes> o = ExplainAnalyze(engine, s.sql);
    if (!o.ok()) {
      report->Fail("EXPLAIN ANALYZE: " + o.status().ToString());
      continue;
    }
    ops.Add(*o);
  }
  v["exec.op.scan_ms"] = ops.scan_ms;
  v["exec.op.hash_build_ms"] = ops.hash_build_ms;
  v["exec.op.hash_probe_ms"] = ops.hash_probe_ms;
  v["exec.op.aggregate_ms"] = ops.aggregate_ms;
  v["exec.op.sort_ms"] = ops.sort_ms;
  v["exec.op.table_function_ms"] = ops.table_function_ms;
  v["exec.bytes_reserved_mb"] = ops.bytes_reserved / (1024.0 * 1024.0);
}

size_t NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace sb
