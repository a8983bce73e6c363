/// The `analytics` workload: the paper's layer-4 operators (Fig. 4/5)
/// as whole SQL statements, in process, one client, volatile engine.

#include <cstdio>
#include <cstdlib>

#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "bench_support/workloads.h"
#include "contenders/contender.h"
#include "graph/csr.h"
#include "graph/ldbc_generator.h"
#include "layers.h"
#include "workloads.h"

namespace sb {

namespace {

constexpr double kDamping = 0.85;
constexpr int64_t kPageRankRounds = 45;
constexpr int64_t kKMeansRounds = 3;
constexpr size_t kDims = 8;
constexpr size_t kClusters = 8;
/// Naive Bayes, the shortest statement (about a sixth of the others), runs
/// this many times a cycle, so that its median rests on more samples.
constexpr int kNaiveBayesPerCycle = 3;

struct Sizes {
  size_t vertices;
  size_t degree;
  size_t rows;  ///< vector and labeled table rows
};

struct Inputs {
  std::unique_ptr<soda::Engine> engine;
  soda::GeneratedGraph graph;
};

template <typename T>
T Must(soda::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "soda-bench: %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

/// Generates and registers the inputs from the seed: graph, vectors with
/// sampled centers, labeled vectors.
Inputs Setup(const Sizes& s, uint64_t seed) {
  using namespace soda;
  Inputs in;
  in.engine = std::make_unique<Engine>();
  in.graph = GenerateSocialGraph(s.vertices, s.degree, seed * 4 + 1);
  Catalog* cat = &in.engine->catalog();
  Must(workloads::RegisterGraph(cat, "edges", in.graph), "register graph");
  TablePtr vec = Must(
      workloads::GenerateVectorTable(cat, "vec", s.rows, kDims, seed * 4 + 2),
      "generate vectors");
  Must(workloads::SampleInitialCenters(cat, "centers", *vec, kClusters,
                                       seed * 4 + 3),
       "sample centers");
  Must(workloads::GenerateLabeledTable(cat, "lab", s.rows, kDims, seed * 4 + 4),
       "generate labeled vectors");
  return in;
}

/// Expected Naive Bayes model rows (class, attr, prior, mean, variance,
/// cnt) from the plain-SQL sufficient statistics (NaiveBayesSql).
std::vector<std::vector<double>> ExpectedModel(soda::Engine* engine,
                                               double shift) {
  soda::QueryResult r = Must(
      engine->Execute(soda::workloads::NaiveBayesSql("lab", kDims)),
      "Naive Bayes statistics in SQL");
  double total = 0;
  for (size_t i = 0; i < r.num_rows(); ++i) total += r.GetDouble(i, 1);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    const double cnt = r.GetDouble(i, 1);
    const double prior = (cnt + 1.0) / (total + static_cast<double>(r.num_rows()));
    for (size_t j = 0; j < kDims; ++j) {
      const double mean = r.GetDouble(i, 2 + 2 * j) / cnt;
      const double var = r.GetDouble(i, 3 + 2 * j) / cnt - mean * mean;
      rows.push_back({r.GetDouble(i, 0), static_cast<double>(j + 1), prior,
                      mean + shift, var, cnt});
    }
  }
  return rows;
}

bool CheckModel(const soda::QueryResult& got,
                const std::vector<std::vector<double>>& expected,
                std::string* why) {
  if (got.num_rows() != expected.size() || got.num_columns() != 6) {
    *why = "model has " + std::to_string(got.num_rows()) + " rows, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    for (size_t c = 0; c < 6; ++c) {
      const double a = got.GetDouble(r, c);
      const double b = expected[r][c];
      // The variance comes from E[x^2] - E[x]^2 on both sides, which
      // cancels digits; 1e-6 relative still catches any real error.
      if (std::abs(a - b) > 1e-6 * std::max(1.0, std::abs(b))) {
        *why = "model row " + std::to_string(r) + " column " +
               std::to_string(c) + ": " + Fmt(a, 12) + " vs " + Fmt(b, 12);
        return false;
      }
    }
  }
  return true;
}

/// Median CPU time (sample.h) of `reps` calls of `fn` (each must
/// succeed), under one span per call.
template <typename Fn>
double DirectMs(Tracer* tracer, const char* span, int reps, Report* report,
                Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan s(tracer, span);
    const double cpu0 = CpuSeconds();
    auto r = fn();
    ms.push_back((CpuSeconds() - cpu0) * 1e3);
    report->Count(r.ok(), std::string(span) + ": " + r.status().ToString());
  }
  return Median(ms);
}

}  // namespace

void RunAnalytics(const Options& opts, Report* report, Tracer* tracer) {
  using namespace soda;
  const Sizes sizes = opts.tiny ? Sizes{2000, 20, 20000} : Sizes{50000, 90, 2000000};
  Inputs in;
  const double setup_s =
      MedianSetup([&] { in = Inputs(); in = Setup(sizes, opts.seed); });
  Engine* engine = in.engine.get();
  report->Note("inputs", std::to_string(in.graph.num_vertices) + " vertices, " +
                             std::to_string(in.graph.num_edges) + " edges; " +
                             std::to_string(sizes.rows) + "x" +
                             std::to_string(kDims) + " vectors, k=" +
                             std::to_string(kClusters));

  // References, computed outside the timed phases.
  const TablePtr edges = Must(engine->catalog().GetTable("edges"), "edges");
  const TablePtr vec = FeatureView(*Must(engine->catalog().GetTable("vec"), "vec"));
  const TablePtr centers =
      FeatureView(*Must(engine->catalog().GetTable("centers"), "centers"));
  const TablePtr lab = Must(engine->catalog().GetTable("lab"), "lab");
  auto reference = MakeSingleThreadedEngine();
  const TablePtr ref_ranks =
      Must(reference->PageRank(*edges, kDamping, kPageRankRounds), "reference PageRank");
  const RankReference ranks =
      MakeRankReference(*ref_ranks, opts.inject_wrong ? 1e-3 : 0.0);
  const Centers ref_centers = CentersOf(
      *Must(reference->KMeans(*vec, *centers, kKMeansRounds), "reference k-Means"),
      opts.inject_wrong ? 1.0 : 0.0);
  const auto ref_model = ExpectedModel(engine, opts.inject_wrong ? 1.0 : 0.0);

  // Ranks of the full operator output sum to 1 (dangling mass is spread).
  {
    QueryResult r = Must(
        engine->Execute("SELECT sum(rank) s, count(*) n FROM PAGERANK((SELECT "
                        "src, dst FROM edges), 0.85, 0.0, 45)"),
        "PageRank rank sum");
    const double sum = r.GetDouble(0, 0) + (opts.inject_wrong ? 1.0 : 0.0);
    report->Count(std::abs(sum - 1.0) < 1e-9 &&
                      r.GetInt(0, 1) == static_cast<int64_t>(in.graph.num_vertices),
                  "PageRank ranks sum to " + Fmt(sum, 12) + ", not 1");
  }

  const std::vector<StatementClass> classes = {
      {"pagerank_s", "s", {}}, {"kmeans_s", "s", {}}, {"naive_bayes_s", "s", {}}};
  const std::vector<CycleStatement> stmts = {
      {0, workloads::PageRankOperatorSql("edges", kDamping, 0.0, kPageRankRounds),
       [&](const QueryResult& r, std::string* why) {
         return CheckTopRanks(*r.table(), ranks, 1e-9, why);
       }},
      {1, workloads::KMeansOperatorSql("vec", "centers", kDims, kKMeansRounds),
       [&](const QueryResult& r, std::string* why) {
         return CheckCenters(*r.table(), ref_centers, 1e-6, why);
       }},
      {2, workloads::NaiveBayesOperatorSql("lab", kDims),
       [&](const QueryResult& r, std::string* why) {
         return CheckModel(r, ref_model, why);
       }},
  };

  std::vector<CycleStatement> cycle = stmts;
  for (int i = 1; i < kNaiveBayesPerCycle; ++i) cycle.push_back(stmts[2]);

  report->Note("rss_after_setup_mb", Fmt(PeakRssMb()));
  report->Note("flush_policy", "volatile engine, no WAL");
  Tracer untraced(false);
  // One untimed cycle: lazy set-up and caches.
  MeasureCycles(engine, cycle, classes, 0.0, report, &untraced);
  if (!opts.trace) {
    const Measured m =
        MeasureCycles(engine, cycle, classes, opts.seconds, report, &untraced);
    EmitEndToEnd(report, setup_s, m.wall_s(), m.cycles, m.classes,
                 /*shortest=*/2, PeakRssMb());
    return;
  }

  LayerValues v;
  std::map<std::string, std::string> absent;
  const Measured traced =
      TracedCycles(engine, cycle, classes, opts.seconds, report, tracer, &v);
  ProbeStatements(engine, stmts, tracer, report, &v);

  // The operators called directly on the same tables; the rest of each
  // statement's time is the SQL input pipeline feeding it.
  PageRankOptions po;
  po.damping = kDamping;
  po.epsilon = 0.0;
  po.max_iterations = kPageRankRounds;
  KMeansOptions ko;
  ko.max_iterations = kKMeansRounds;
  v["analytics.pagerank_ms"] = DirectMs(tracer, "analytics.RunPageRank", 1, report,
                                        [&] { return RunPageRank(*edges, po); });
  v["analytics.kmeans_ms"] = DirectMs(tracer, "analytics.RunKMeans", 1, report,
                                      [&] { return RunKMeans(*vec, *centers, ko); });
  v["analytics.naive_bayes_ms"] = DirectMs(tracer, "analytics.TrainNaiveBayes", 3,
                                           report, [&] { return TrainNaiveBayes(*lab); });
  v["analytics.feed_ms"] =
      (CpuMedian(traced.classes[0].samples) +
       CpuMedian(traced.classes[1].samples) +
       CpuMedian(traced.classes[2].samples)) * 1e3 -
      (v["analytics.pagerank_ms"] + v["analytics.kmeans_ms"] +
       v["analytics.naive_bayes_ms"]);

  size_t csr_bytes = 0;
  v["graph.csr_build_ms"] =
      DirectMs(tracer, "graph.CsrBuilder::Build", 1, report, [&] {
        auto g = CsrBuilder::Build(in.graph.src, in.graph.dst);
        if (g.ok()) csr_bytes = g->MemoryUsage();
        return g;
      });
  v["graph.csr_bytes_per_edge"] =
      static_cast<double>(csr_bytes) / static_cast<double>(in.graph.num_edges);

  auto spark = MakeRddEngine();
  v["contenders.spark_kmeans_ms"] =
      DirectMs(tracer, "contenders.RddEngine::KMeans", 1, report,
               [&] { return spark->KMeans(*vec, *centers, kKMeansRounds); });
  absent["core.prepared_vs_adhoc"] = "no prepared statements in this workload";
  absent["core.prepared_pairs"] = absent["core.prepared_vs_adhoc"];
  absent["exec.scan_chunks_per_row"] = "no point lookups in this workload";

  EmitLayers(report, *tracer, v, absent);
}

}  // namespace sb
