/// The `iterate` workload: PageRank and k-Means written with the paper's
/// layer-3 ITERATE construct, in process, one client, volatile engine.

#include <cstdio>
#include <cstdlib>

#include "bench_support/workloads.h"
#include "graph/ldbc_generator.h"
#include "layers.h"
#include "workloads.h"

namespace sb {

namespace {

constexpr double kDamping = 0.85;
constexpr int64_t kPageRankRounds = 45;
constexpr int64_t kKMeansSteps = 5;
constexpr size_t kDims = 4;
constexpr size_t kClusters = 8;

struct Sizes {
  size_t vertices;
  size_t degree;
  size_t rows;
};

soda::QueryResult MustRun(soda::Engine* engine, const std::string& sql) {
  auto r = engine->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "soda-bench: %s: %s\n", sql.substr(0, 80).c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

std::unique_ptr<soda::Engine> Setup(const Sizes& s, uint64_t seed,
                                    size_t* num_vertices) {
  using namespace soda;
  auto engine = std::make_unique<Engine>();
  const GeneratedGraph graph =
      GenerateSocialGraph(s.vertices, s.degree, seed * 4 + 1);
  *num_vertices = graph.num_vertices;
  Catalog* cat = &engine->catalog();
  auto ok = [](const Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "soda-bench: %s: %s\n", what, st.ToString().c_str());
      std::exit(1);
    }
  };
  ok(workloads::RegisterGraph(cat, "edges", graph).status(), "register graph");
  // The SQL variants read the out-degree from a materialized table.
  MustRun(engine.get(), "CREATE TABLE deg (src BIGINT, cnt BIGINT)");
  MustRun(engine.get(), "INSERT INTO deg " + workloads::DegreeTableSql("edges"));
  auto vec = workloads::GenerateVectorTable(cat, "vec", s.rows, kDims, seed * 4 + 2);
  ok(vec.status(), "generate vectors");
  ok(workloads::SampleInitialCenters(cat, "centers", **vec, kClusters, seed * 4 + 3)
         .status(),
     "sample centers");
  return engine;
}

std::string Distance(const std::string& a, const std::string& b) {
  std::string out;
  for (size_t j = 1; j <= kDims; ++j) {
    if (j > 1) out += " + ";
    out += "(" + a + ".x" + std::to_string(j) + " - " + b + ".x" +
           std::to_string(j) + ")^2";
  }
  return out;
}

/// k-Means with ITERATE whose state is the k centers: each step assigns
/// every point to its nearest center of the state and averages the
/// points per center. After i steps the centers equal the operator's
/// after i Lloyd rounds.
///
/// The repository's workloads::KMeansIterateSql keeps the n assignments
/// as state instead and recomputes the new centers twice per step (once
/// for the minimum distance, once for the distance it is compared with).
/// Both copies come from a parallel float AVG whose low bits depend on
/// the merge order, so the float equality in its argmin join drops rows:
/// at 50k x 4 rows on 4 threads it returns wrong centers that differ from
/// run to run. Here both uses read the one materialized state.
std::string KMeansIterateSql(int64_t steps) {
  std::string cols;
  std::string avgs;
  for (size_t j = 1; j <= kDims; ++j) {
    const std::string x = "x" + std::to_string(j);
    cols += ", " + x;
    avgs += ", avg(v." + x + ") " + x;
  }
  const std::string assign =
      "SELECT dd.id id, min(c.cid) cid FROM vec dd, iterate c, "
      "(SELECT d2.id did, min(" + Distance("d2", "c2") + ") mind "
      "FROM vec d2, iterate c2 GROUP BY d2.id) m "
      "WHERE m.did = dd.id AND (" + Distance("dd", "c") + ") = m.mind "
      "GROUP BY dd.id";
  const std::string step = "SELECT max(s.i) + 1 i, a.cid cid" + avgs +
                           " FROM (" + assign + ") a JOIN vec v ON v.id = a.id, "
                           "(SELECT max(i) i FROM iterate) s GROUP BY a.cid";
  return "SELECT cid" + cols + " FROM ITERATE((SELECT 0 i, cid" + cols +
         " FROM centers), (" + step + "), (SELECT 1 FROM iterate WHERE i >= " +
         std::to_string(steps) + ")) ORDER BY cid";
}

}  // namespace

void RunIterate(const Options& opts, Report* report, Tracer* tracer) {
  using namespace soda;
  const Sizes sizes = opts.tiny ? Sizes{500, 20, 2000} : Sizes{5000, 90, 50000};
  std::unique_ptr<Engine> engine;
  size_t num_vertices = 0;
  const double setup_s = MedianSetup([&] {
    engine.reset();
    engine = Setup(sizes, opts.seed, &num_vertices);
  });
  report->Note("inputs", std::to_string(num_vertices) + " vertices; " +
                             std::to_string(sizes.rows) + "x" +
                             std::to_string(kDims) + " vectors, k=" +
                             std::to_string(kClusters));

  // References: the operator forms on the same input, computed once.
  const QueryResult full_ranks = MustRun(
      engine.get(), "SELECT vertex, rank FROM PAGERANK((SELECT src, dst FROM "
                    "edges), 0.85, 0.0, 45)");
  const RankReference ranks =
      MakeRankReference(*full_ranks.table(), opts.inject_wrong ? 1e-3 : 0.0);
  const Centers ref_centers = CentersOf(
      *MustRun(engine.get(), workloads::KMeansOperatorSql("vec", "centers", kDims,
                                                          kKMeansSteps))
           .table(),
      opts.inject_wrong ? 1.0 : 0.0);

  const std::vector<StatementClass> classes = {{"pagerank_s", "s", {}},
                                               {"kmeans_s", "s", {}}};
  const std::vector<CycleStatement> stmts = {
      {0,
       workloads::PageRankIterateSql("edges", "deg", num_vertices, kDamping,
                                     kPageRankRounds),
       [&](const QueryResult& r, std::string* why) {
         // Different summation order than the operator: compare with a
         // tolerance far below any rank gap that matters.
         return CheckTopRanks(*r.table(), ranks, 1e-7, why);
       }},
      {1, KMeansIterateSql(kKMeansSteps),
       [&](const QueryResult& r, std::string* why) {
         return CheckCenters(*r.table(), ref_centers, 1e-7, why);
       }},
  };

  report->Note("rss_after_setup_mb", Fmt(PeakRssMb()));
  report->Note("flush_policy", "volatile engine, no WAL");
  Tracer untraced(false);
  // One untimed cycle: lazy set-up and caches.
  MeasureCycles(engine.get(), stmts, classes, 0.0, report, &untraced);
  if (!opts.trace) {
    const Measured m = MeasureCycles(engine.get(), stmts, classes, opts.seconds,
                                     report, &untraced);
    EmitEndToEnd(report, setup_s, m.wall_s(), m.cycles, m.classes,
                 /*shortest=*/1, PeakRssMb());
    return;
  }

  LayerValues v;
  std::map<std::string, std::string> absent;
  TracedCycles(engine.get(), stmts, classes, opts.seconds, report, tracer, &v);
  ProbeStatements(engine.get(), stmts, tracer, report, &v);
  absent["core.prepared_vs_adhoc"] = "no prepared statements in this workload";
  absent["core.prepared_pairs"] = absent["core.prepared_vs_adhoc"];
  absent["exec.scan_chunks_per_row"] = "no point lookups in this workload";
  absent["graph.csr_build_ms"] = "ITERATE runs hash joins, no CSR";
  absent["graph.csr_bytes_per_edge"] = absent["graph.csr_build_ms"];
  EmitLayers(report, *tracer, v, absent);
}

}  // namespace sb
