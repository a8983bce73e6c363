/// The `sql_mix` workload: one connection over loopback to an in-process
/// soda::Server on a durable engine. Each cycle runs a four-query report,
/// then point lookups (ad hoc and prepared) with single-row INSERTs in
/// between, and now and then a one-row UPDATE, all on the same table. One
/// statement is in flight at a time, so that its CPU time is its own
/// (sample.h). At the end the engine is closed and reopened from its data
/// dir.
///
/// Every expected value is derived from the seed and from the writes the
/// server acknowledged. The writes are built so that they never change a
/// report's answer while still invalidating the plans and join builds the
/// reports depend on: inserted rows carry customer ids outside `cust`
/// (the join drops them), keys above the seed range (the report filters
/// drop them) and negative values (they never reach the top ten).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <unistd.h>

#include "calibrate.h"
#include "client.h"
#include "layers.h"
#include "server/server.h"
#include "workloads.h"

namespace sb {

namespace {

constexpr size_t kPartitions = 8;
constexpr int64_t kRegions = 16;
constexpr int64_t kTags = 100000;
constexpr int64_t kMaxValue = 100000;  // values are whole numbers: exact sums
/// One cycle: the four report queries, then kReadsPerCycle point lookups,
/// ad hoc and prepared in turn, with a single-row INSERT after every
/// kReadsPerInsert of them. The second and fourth cycles of a measured
/// phase end with a one-row UPDATE. Every insert leaves a small row group
/// that later scans visit, so the table grows during a run.
constexpr int kReadsPerCycle = 40;
constexpr int kReadsPerInsert = 4;
/// The calibration kernel (calibrate.h) runs after the reports and after
/// every kReadsPerCalibration lookups.
constexpr int kReadsPerCalibration = 8;
/// Written keys start at kOwnKey, kPhaseKeys apart per phase.
constexpr int64_t kOwnKey = int64_t{1} << 40;
constexpr int64_t kPhaseKeys = int64_t{1} << 36;

struct Sizes {
  size_t fact;
  size_t cust;
};

/// The seed rows: fact by key k in [0, fact), cust by id.
struct SeedData {
  std::vector<int64_t> cust, tag;
  std::vector<double> v;
  std::vector<int64_t> region;
};

SeedData Generate(const Sizes& s, uint64_t seed) {
  SeedData d;
  std::mt19937_64 rng(seed * 7919 + 17);
  d.cust.resize(s.fact);
  d.tag.resize(s.fact);
  d.v.resize(s.fact);
  for (size_t i = 0; i < s.fact; ++i) {
    d.cust[i] = static_cast<int64_t>(rng() % s.cust);
    d.tag[i] = static_cast<int64_t>(rng() % kTags);
    d.v[i] = static_cast<double>(rng() % kMaxValue);
  }
  d.region.resize(s.cust);
  for (auto& r : d.region) r = static_cast<int64_t>(rng() % kRegions);
  return d;
}

struct Row {
  int64_t cust;
  int64_t tag;
  double v;
};

/// The four report answers, computed from the seed rows.
struct Expected {
  std::vector<std::vector<double>> join;     // region, sum, count
  std::vector<std::vector<double>> expr;     // tag % 7, sum, count
  std::vector<std::vector<double>> top_cust; // cust, sum
  std::vector<std::vector<double>> top_v;    // k, v
};

Expected ComputeExpected(const SeedData& d, double shift) {
  Expected e;
  std::vector<double> rsum(kRegions, 0), rcnt(kRegions, 0);
  std::vector<double> gsum(7, 0), gcnt(7, 0);
  std::vector<double> csum(d.region.size(), 0);
  std::vector<bool> cseen(d.region.size(), false);
  for (size_t k = 0; k < d.v.size(); ++k) {
    const int64_t c = d.cust[k];
    rsum[d.region[c]] += d.v[k];
    rcnt[d.region[c]] += 1;
    gsum[d.tag[k] % 7] += d.v[k];
    gcnt[d.tag[k] % 7] += 1;
    csum[c] += d.v[k];
    cseen[c] = true;
  }
  for (int64_t r = 0; r < kRegions; ++r) {
    if (rcnt[r] > 0) e.join.push_back({double(r), rsum[r] + shift, rcnt[r]});
  }
  for (int g = 0; g < 7; ++g) {
    if (gcnt[g] > 0) e.expr.push_back({double(g), gsum[g], gcnt[g]});
  }
  std::vector<size_t> custs;
  for (size_t c = 0; c < csum.size(); ++c) {
    if (cseen[c]) custs.push_back(c);
  }
  const size_t n_top = std::min<size_t>(10, custs.size());
  std::partial_sort(custs.begin(), custs.begin() + n_top, custs.end(),
                    [&](size_t a, size_t b) {
                      return csum[a] != csum[b] ? csum[a] > csum[b] : a < b;
                    });
  for (size_t i = 0; i < n_top; ++i) {
    e.top_cust.push_back({double(custs[i]), csum[custs[i]]});
  }
  std::vector<size_t> keys(d.v.size());
  for (size_t k = 0; k < keys.size(); ++k) keys[k] = k;
  const size_t n_v = std::min<size_t>(10, keys.size());
  std::partial_sort(keys.begin(), keys.begin() + n_v, keys.end(),
                    [&](size_t a, size_t b) {
                      return d.v[a] != d.v[b] ? d.v[a] > d.v[b] : a < b;
                    });
  for (size_t i = 0; i < n_v; ++i) e.top_v.push_back({double(keys[i]), d.v[keys[i]]});
  return e;
}

/// Exact comparison: every expected value is a whole number.
bool SameRows(const soda::TablePtr& got, const std::vector<std::vector<double>>& exp,
              std::string* why) {
  if (got == nullptr || got->num_rows() != exp.size()) {
    *why = "expected " + std::to_string(exp.size()) + " rows, got " +
           std::to_string(got ? got->num_rows() : 0);
    return false;
  }
  for (size_t r = 0; r < exp.size(); ++r) {
    if (got->num_columns() != exp[r].size()) {
      *why = "wrong column count";
      return false;
    }
    for (size_t c = 0; c < exp[r].size(); ++c) {
      if (got->column(c).GetNumeric(r) != exp[r][c]) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + Fmt(got->column(c).GetNumeric(r), 17) + " vs " +
               Fmt(exp[r][c], 17);
        return false;
      }
    }
  }
  return true;
}

bool SamePoint(const soda::TablePtr& got, const Row& exp, std::string* why) {
  return SameRows(got, {{double(exp.cust), double(exp.tag), exp.v}}, why);
}

struct Report4 {
  std::string name;
  std::string sql;
  const std::vector<std::vector<double>>* expected;
};

std::string PointSql(int64_t k) {
  return "SELECT cust, tag, v FROM fact WHERE k = " + std::to_string(k);
}

/// Latencies of one mix run.
struct MixResult {
  Samples point, prepared, insert, update, reports, cycles;
  std::vector<Samples> report = std::vector<Samples>(4);
  size_t dml = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// The rows the client has written (acknowledged only), by key.
using OwnRows = std::map<int64_t, Row>;

class Mix {
 public:
  Mix(const Options& opts, const Sizes& sizes, const SeedData& seed,
      const std::vector<Report4>& reports, Report* report, OwnRows* own)
      : opts_(opts), sizes_(sizes), seed_(seed), reports_(reports),
        report_(report), own_(own) {}

  /// Connects the client and prepares its lookup.
  soda::Status Connect(uint16_t port) {
    auto client = Client::Connect(port);
    if (!client.ok()) return client.status();
    client_.emplace(std::move(*client));
    return client_->Prepare("pt", "PREPARE pt (BIGINT) AS SELECT cust, tag, v "
                                  "FROM fact WHERE k = $1");
  }
  void Disconnect() { client_.reset(); }

  /// Runs whole cycles until `seconds` have passed (at least one). Phase 0
  /// is the warm-up and only reads; the measured phases also write.
  MixResult Run(double seconds, Tracer* tracer, uint64_t phase) {
    MixResult out;
    std::mt19937_64 rng(opts_.seed * 1000003 + phase * 101);
    int64_t next_key = kOwnKey + static_cast<int64_t>(phase) * kPhaseKeys;
    out.start_ns = NowNs();
    for (int cycle = 0; cycle == 0 || SecondsSince(out.start_ns) < seconds;
         ++cycle) {
      const int64_t stmt = tracer->NewStatement();
      ScopedSpan span(tracer, "mix_cycle", -1, stmt);
      const Instant c0 = ReadClocks();
      Reports(tracer, span.id(), &out);
      Calib().Sample();
      for (int i = 0; i < kReadsPerCycle; ++i) {
        Lookup(tracer, span.id(), &rng, i % 2 == 0, &out);
        if (phase > 0 && i % kReadsPerInsert == kReadsPerInsert - 1) {
          Insert(tracer, span.id(), &rng, next_key++, &out);
        }
        if (i % kReadsPerCalibration == kReadsPerCalibration - 1) Calib().Sample();
      }
      if (phase > 0 && (cycle == 1 || cycle == 3)) Update(tracer, span.id(), &out);
      out.cycles.Add(c0, ReadClocks());
    }
    out.end_ns = NowNs();
    return out;
  }

 private:
  /// Times one round trip, [*start, *end], under a "server.roundtrip"
  /// span.
  template <typename Fn>
  auto Timed(Tracer* tracer, int64_t parent, Instant* start, Instant* end,
             Fn&& fn) {
    ScopedSpan span(tracer, "server.roundtrip", parent, tracer->NewStatement());
    *start = ReadClocks();
    auto r = fn();
    *end = ReadClocks();
    return r;
  }

  void Reports(Tracer* tracer, int64_t parent, MixResult* out) {
    const Instant r0 = ReadClocks();
    bool all_ok = true;
    for (size_t q = 0; q < reports_.size(); ++q) {
      Instant s0{};
      Instant s1{};
      auto r = Timed(tracer, parent, &s0, &s1,
                     [&] { return client_->Query(reports_[q].sql); });
      std::string why;
      const bool ok = r.ok() ? SameRows(*r, *reports_[q].expected, &why)
                             : (why = r.status().ToString(), false);
      report_->Count(ok, reports_[q].name + ": " + why);
      all_ok = all_ok && ok;
      if (ok) out->report[q].Add(s0, s1);
    }
    if (all_ok) out->reports.Add(r0, ReadClocks());
  }

  /// A point lookup of a seed row or, one time in five, of a written row.
  void Lookup(Tracer* tracer, int64_t parent, std::mt19937_64* rng, bool adhoc,
              MixResult* out) {
    int64_t k = 0;
    Row exp{};
    if (!own_->empty() && (*rng)() % 5 == 0) {
      const int64_t lo = own_->begin()->first;
      const int64_t span = own_->rbegin()->first - lo + 1;
      auto it = own_->lower_bound(lo + static_cast<int64_t>((*rng)() % span));
      k = it->first;
      exp = it->second;
    } else {
      k = static_cast<int64_t>((*rng)() % sizes_.fact);
      exp = {seed_.cust[k], seed_.tag[k], seed_.v[k]};
    }
    if (opts_.inject_wrong) exp.v += 1.0;
    Instant s0{};
    Instant s1{};
    auto r = Timed(tracer, parent, &s0, &s1, [&] {
      return adhoc ? client_->Query(PointSql(k))
                   : client_->ExecutePrepared("pt", {soda::Value::BigInt(k)});
    });
    std::string why;
    const bool ok = r.ok() ? SamePoint(*r, exp, &why)
                           : (why = r.status().ToString(), false);
    report_->Count(ok, (adhoc ? "point k=" : "prepared k=") + std::to_string(k) +
                           ": " + why);
    if (ok) (adhoc ? out->point : out->prepared).Add(s0, s1);
  }

  void Insert(Tracer* tracer, int64_t parent, std::mt19937_64* rng, int64_t k,
              MixResult* out) {
    const Row row{static_cast<int64_t>(sizes_.cust) +
                      static_cast<int64_t>((*rng)() % 1000000),
                  static_cast<int64_t>((*rng)() % kTags), -1.0};
    Instant s0{};
    Instant s1{};
    auto r = Timed(tracer, parent, &s0, &s1, [&] {
      return client_->Query("INSERT INTO fact VALUES (" + std::to_string(k) +
                            ", " + std::to_string(row.cust) + ", " +
                            std::to_string(row.tag) + ", -1.0)");
    });
    report_->Count(r.ok(), "insert: " + r.status().ToString());
    if (!r.ok()) return;
    (*own_)[k] = row;
    out->insert.Add(s0, s1);
    ++out->dml;
  }

  /// Rewrites the partition that holds the newest written row.
  void Update(Tracer* tracer, int64_t parent, MixResult* out) {
    if (own_->empty()) return;
    const int64_t k = own_->rbegin()->first;
    Instant s0{};
    Instant s1{};
    auto r = Timed(tracer, parent, &s0, &s1, [&] {
      return client_->Query("UPDATE fact SET v = v - 1 WHERE k = " +
                            std::to_string(k));
    });
    report_->Count(r.ok(), "update: " + r.status().ToString());
    if (!r.ok()) return;
    (*own_)[k].v -= 1;
    out->update.Add(s0, s1);
    ++out->dml;
  }

  const Options& opts_;
  const Sizes sizes_;
  const SeedData& seed_;
  const std::vector<Report4>& reports_;
  Report* report_;
  OwnRows* own_;
  std::optional<Client> client_;
};

std::unique_ptr<soda::Engine> OpenEngine(const std::string& dir) {
  soda::EngineOptions o;
  o.data_dir = dir;
  // fsync on the virtual machines this runs on does not reach a real
  // device; the same flush policy is used on both sides of any comparison
  // and is recorded.
  o.wal_fsync = soda::WalFsyncMode::kOff;
  auto engine = std::make_unique<soda::Engine>(o);
  if (!engine->startup_status().ok()) {
    std::fprintf(stderr, "soda-bench: open %s: %s\n", dir.c_str(),
                 engine->startup_status().ToString().c_str());
    std::exit(1);
  }
  return engine;
}

void MustOk(const soda::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "soda-bench: %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

/// A flat copy of the seed fact rows with fact's partition spec.
soda::TablePtr FactTable(const soda::Table& like, size_t rows, const SeedData& d) {
  auto t = std::make_shared<soda::Table>("fact", like.schema());
  t->set_partition_spec(like.partition_spec());
  std::vector<int64_t> k(rows);
  for (size_t i = 0; i < rows; ++i) k[i] = static_cast<int64_t>(i);
  MustOk(t->SetColumn(0, soda::Column::FromBigInts(std::move(k))), "fact.k");
  MustOk(t->SetColumn(1, soda::Column::FromBigInts(d.cust)), "fact.cust");
  MustOk(t->SetColumn(2, soda::Column::FromBigInts(d.tag)), "fact.tag");
  MustOk(t->SetColumn(3, soda::Column::FromDoubles(d.v)), "fact.v");
  return t;
}

/// Generate, load, seal and checkpoint into a fresh data dir.
std::unique_ptr<soda::Engine> Setup(const std::string& dir, const Sizes& s,
                                    uint64_t seed, SeedData* data,
                                    double* checkpoint_ms) {
  std::filesystem::remove_all(dir);
  auto engine = OpenEngine(dir);
  *data = Generate(s, seed);
  auto run = [&](const std::string& sql) {
    MustOk(engine->Execute(sql).status(), sql.c_str());
  };
  run("CREATE TABLE fact (k BIGINT, cust BIGINT, tag BIGINT, v DOUBLE) "
      "PARTITION BY HASH(cust) PARTITIONS " + std::to_string(kPartitions));
  run("CREATE TABLE cust (cust BIGINT, region BIGINT)");
  soda::Catalog& cat = engine->catalog();
  auto fact = cat.GetTable("fact");
  MustOk(fact.status(), "fact");
  soda::TablePtr t = FactTable(**fact, s.fact, *data);
  MustOk(t->Seal(), "seal fact");
  MustOk(cat.ReplaceTable("fact", t), "load fact");
  auto cust = std::make_shared<soda::Table>("cust", (*cat.GetTable("cust"))->schema());
  std::vector<int64_t> ids(s.cust);
  for (size_t i = 0; i < s.cust; ++i) ids[i] = static_cast<int64_t>(i);
  MustOk(cust->SetColumn(0, soda::Column::FromBigInts(std::move(ids))), "cust.cust");
  MustOk(cust->SetColumn(1, soda::Column::FromBigInts(data->region)), "cust.region");
  MustOk(cat.ReplaceTable("cust", cust), "load cust");
  // Bulk-registered tables are not logged; the checkpoint persists them.
  const int64_t c0 = NowNs();
  run("CHECKPOINT");
  *checkpoint_ms = SecondsSince(c0) * 1e3;
  return engine;
}

/// After the reopen: every acknowledged INSERT and UPDATE is visible and
/// the row count is the seed rows plus the acknowledged inserts.
void CheckDurable(soda::Engine* engine, const Sizes& s, const SeedData& d,
                  const OwnRows& own, double shift, Report* report) {
  const size_t inserted = own.size();
  auto count = engine->Execute("SELECT count(*) n FROM fact");
  const bool count_ok =
      count.ok() && count->GetInt(0, 0) == static_cast<int64_t>(s.fact + inserted) +
                                               static_cast<int64_t>(shift);
  report->Count(count_ok, "durability: row count after reopen is " +
                              (count.ok() ? std::to_string(count->GetInt(0, 0))
                                          : count.status().ToString()) +
                              ", expected " + std::to_string(s.fact + inserted));
  auto rows = engine->Execute("SELECT k, cust, tag, v FROM fact WHERE k >= " +
                              std::to_string(kOwnKey) + " ORDER BY k");
  std::vector<std::vector<double>> expected;
  for (const auto& [k, r] : own) {
    expected.push_back({double(k), double(r.cust), double(r.tag), r.v + shift});
  }
  std::string why;
  report->Count(rows.ok() && SameRows(rows->table(), expected, &why),
                "durability: acknowledged writes after reopen: " +
                    (rows.ok() ? why : rows.status().ToString()));
  // A sample of seed rows survived the checkpoint load as well.
  for (int64_t k : {int64_t{0}, static_cast<int64_t>(s.fact / 2),
                    static_cast<int64_t>(s.fact - 1)}) {
    auto r = engine->Execute(PointSql(k));
    report->Count(r.ok() && SamePoint(r->table(), {d.cust[k], d.tag[k], d.v[k]}, &why),
                  "durability: seed row " + std::to_string(k) + ": " + why);
  }
}

}  // namespace

void RunSqlMix(const Options& opts, Report* report, Tracer* tracer) {
  const Sizes sizes = opts.tiny ? Sizes{16000, 8000} : Sizes{1600000, 800000};
  const std::string dir =
      opts.out_dir + "/data-sql_mix-" + std::to_string(::getpid());
  SeedData data;
  std::unique_ptr<soda::Engine> engine;
  std::vector<double> checkpoint_ms;
  const double setup_s = MedianSetup([&] {
    engine.reset();
    double ms = 0;
    engine = Setup(dir, sizes, opts.seed, &data, &ms);
    checkpoint_ms.push_back(ms);
  });
  report->Note("inputs", "fact " + std::to_string(sizes.fact) + " rows (" +
                             std::to_string(kPartitions) +
                             " hash partitions on cust, sealed), cust " +
                             std::to_string(sizes.cust) + " rows");
  report->Note("flush_policy", "soda.wal_fsync = off (durable engine, WAL "
                               "not forced to the device)");

  const Expected expected = ComputeExpected(data, opts.inject_wrong ? 1.0 : 0.0);
  const std::string n0 = std::to_string(sizes.fact);
  const std::vector<Report4> reports = {
      {"report.join_groupby_s",
       "SELECT c.region, sum(f.v) s, count(*) n FROM fact f JOIN cust c ON "
       "f.cust = c.cust GROUP BY c.region ORDER BY c.region",
       &expected.join},
      {"report.expr_groupby_s",
       "SELECT tag % 7 g, sum(v) s, count(*) n FROM fact WHERE k < " + n0 +
           " GROUP BY tag % 7 ORDER BY g",
       &expected.expr},
      {"report.topn_groupby_s",
       "SELECT cust, sum(v) s FROM fact WHERE k < " + n0 +
           " GROUP BY cust ORDER BY s DESC, cust LIMIT 10",
       &expected.top_cust},
      {"report.topn_sort_s", "SELECT k, v FROM fact ORDER BY v DESC, k LIMIT 10",
       &expected.top_v},
  };

  OwnRows own;
  Mix mix(opts, sizes, data, reports, report, &own);
  soda::Server server(engine.get(), soda::ServerOptions{});
  MustOk(server.Start(), "server start");
  MustOk(mix.Connect(server.port()), "connect and prepare");
  report->Note("rss_after_setup_mb", Fmt(PeakRssMb()));
  Tracer untraced(false);
  // One untimed cycle warms the caches and lazy set-up (phase 0 only
  // reads).
  mix.Run(0.0, &untraced, 0);

  LayerValues v;
  std::map<std::string, std::string> absent;
  MixResult m;
  double peak_rss_mb = 0;
  if (!opts.trace) {
    m = mix.Run(opts.seconds, &untraced, 1);
    peak_rss_mb = PeakRssMb();
  } else {
    const MixResult plain = mix.Run(opts.seconds / 2, &untraced, 1);
    const auto status0 = EngineStatus(engine.get());
    const double mem0 = static_cast<double>(engine->catalog().TotalMemoryUsage());
    const soda::AdmissionStats adm0 = server.admission_stats();
    const uint64_t err0 = server.stats().statements_error.load();
    const double cpu0 = CpuSeconds();
    m = mix.Run(opts.seconds / 2, tracer, 2);
    v["util.cpu_busy_frac"] = CpuBusy(CpuSeconds() - cpu0, m.wall_s(), report);
    const soda::AdmissionStats adm1 = server.admission_stats();
    v["server.admitted"] = static_cast<double>(adm1.admitted - adm0.admitted);
    v["server.shed"] = static_cast<double>(
        (adm1.shed_queue_full + adm1.shed_queue_timeout + adm1.shed_watermark) -
        (adm0.shed_queue_full + adm0.shed_queue_timeout + adm0.shed_watermark));
    v["server.errors"] =
        static_cast<double>(server.stats().statements_error.load() - err0);
    v["storage.catalog_base_bytes"] = mem0;
    v["storage.catalog_growth_bytes"] =
        static_cast<double>(engine->catalog().TotalMemoryUsage()) - mem0;
    auto d = StatusDeltas(status0, EngineStatus(engine.get()), report, &v);
    v["storage.dml_count"] = static_cast<double>(m.dml);
    // A checkpoint in between would rotate the log; none runs here.
    if (m.dml > 0 && d["checkpoint_count"] == 0) {
      v["storage.wal_bytes_per_write"] = d["wal_bytes"] / static_cast<double>(m.dml);
    }
    v["trace.overhead_frac"] = TraceOverhead(plain.cycles, m.cycles, report);

    // Probes in process, the client idle: layers of each report query and
    // of a point lookup.
    std::vector<CycleStatement> probe;
    for (const Report4& r : reports) probe.push_back({0, r.sql, nullptr});
    probe.push_back({0, PointSql(static_cast<int64_t>(sizes.fact / 3)), nullptr});
    ProbeStatements(engine.get(), probe, tracer, report, &v);
    if (auto o = ExplainAnalyze(engine.get(), probe.back().sql); o.ok()) {
      v["exec.scan_chunks_per_row"] = o->scan_chunks;  // the lookup returns 1 row
    }

    // Prepared EXECUTE against the same lookup as literal text.
    MustOk(engine->Execute("PREPARE bench_pt (BIGINT) AS SELECT cust, tag, v "
                           "FROM fact WHERE k = $1").status(),
           "prepare");
    std::vector<double> prep_us, adhoc_us, local_us, wire_us;
    std::mt19937_64 rng(opts.seed);
    for (int i = 0; i < 30; ++i) {
      const int64_t k = static_cast<int64_t>(rng() % sizes.fact);
      int64_t t0 = NowNs();
      {
        ScopedSpan s(tracer, "core.ExecutePrepared");
        report->Count(engine->ExecutePrepared("bench_pt", {soda::Value::BigInt(k)},
                                              soda::ExecOptions{}).ok(),
                      "in-process EXECUTE");
      }
      prep_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      t0 = NowNs();
      {
        ScopedSpan s(tracer, "core.execute");
        report->Count(engine->Execute(PointSql(k)).ok(), "in-process lookup");
      }
      adhoc_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    v["core.prepared_vs_adhoc"] = Median(prep_us) / Median(adhoc_us);
    v["core.prepared_pairs"] = static_cast<double>(prep_us.size());

    // Round trip minus the in-process Execute of the same statement.
    if (auto c = Client::Connect(server.port()); c.ok()) {
      for (int i = 0; i < 50; ++i) {
        const std::string sql = PointSql(static_cast<int64_t>(rng() % sizes.fact));
        int64_t t0 = NowNs();
        {
          ScopedSpan s(tracer, "server.roundtrip");
          report->Count(c->Query(sql).ok(), "round trip lookup");
        }
        wire_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        t0 = NowNs();
        report->Count(engine->Execute(sql).ok(), "in-process lookup");
        local_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      v["server.roundtrip_overhead_us"] = Median(wire_us) - Median(local_us);
    } else {
      report->Fail("probe connect: " + c.status().ToString());
    }

    // Sealing a flat copy of the seed fact rows.
    auto fact = engine->catalog().GetTable("fact");
    MustOk(fact.status(), "fact");
    soda::TablePtr copy = FactTable(**fact, sizes.fact, data);
    {
      ScopedSpan s(tracer, "storage.Table::Seal");
      const int64_t t0 = NowNs();
      report->Count(copy->Seal().ok(), "seal copy of fact");
      v["storage.seal_ms"] = SecondsSince(t0) * 1e3;
    }
    v["storage.table_bytes_per_row"] = static_cast<double>((*fact)->MemoryUsage()) /
                                       static_cast<double>((*fact)->num_rows());
    report->Note("storage.table_bytes_per_row base",
                 std::to_string((*fact)->num_rows()) + " fact rows");
    v["storage.checkpoint_ms"] = Median(checkpoint_ms);
    absent["analytics.feed_ms"] = "analytics operators are idle in this workload";
    absent["exec.round_ms"] = "no ITERATE rounds in this workload";
  }
  mix.Disconnect();
  MustOk(server.Shutdown(), "server shutdown");

  // Close and reopen: checkpoint load plus WAL replay.
  engine.reset();
  Samples recovery;
  const Instant r0 = ReadClocks();
  engine = OpenEngine(dir);
  recovery.Add(r0, ReadClocks());
  CheckDurable(engine.get(), sizes, data, own, opts.inject_wrong ? 1.0 : 0.0, report);
  report->Note("peak_rss_after_reopen_mb", Fmt(PeakRssMb()));
  engine.reset();
  std::filesystem::remove_all(dir);

  if (!opts.trace) {
    Samples dml = m.insert;
    dml.Append(m.update);
    report->NoteSummary("point_tail_ms", m.point, "ms", 1e3);
    report->NoteSummary("write_tail_ms", dml, "ms", 1e3);
    report->NoteSummary("update_s", m.update, "s", 1.0);
    report->NoteSummary("report_s", m.reports, "s", 1.0);
    report->NoteSummary("recovery_s", recovery, "s", 1.0);
    std::vector<StatementClass> classes = {
        {"point_ms", "ms", m.point},      {"prepared_ms", "ms", m.prepared},
        {"write_ms", "ms", m.insert},     {reports[0].name, "s", m.report[0]},
        {reports[1].name, "s", m.report[1]}, {reports[2].name, "s", m.report[2]},
        {reports[3].name, "s", m.report[3]}};
    // The INSERT is the shortest class. Its CPU time also moved least with
    // the host: the lookups scan a column that fits the shared cache only
    // when the other guests leave room.
    EmitEndToEnd(report, setup_s, m.wall_s(), m.cycles, classes,
                 /*shortest=*/2, peak_rss_mb);
    return;
  }
  EmitLayers(report, *tracer, v, absent);
}

}  // namespace sb
