#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "exec/physical_plan.h"
#include "exec/plan_verifier.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace sb {

namespace {

/// Runs `fn` under a span named `name` and adds its wall time to `*us`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int64_t parent, int64_t stmt,
           double* us, Fn&& fn) {
  ScopedSpan span(tracer, name, parent, stmt);
  const int64_t t0 = NowNs();
  auto result = fn();
  *us += static_cast<double>(NowNs() - t0) * 1e-3;
  return result;
}

}  // namespace

soda::Result<LayerTimes> ProbeLayers(soda::Engine* engine,
                                     const std::string& sql, Tracer* tracer) {
  using namespace soda;
  LayerTimes t;
  const int64_t stmt = tracer->NewStatement();
  ScopedSpan root(tracer, "probe", -1, stmt);
  const int64_t parent = root.id();

  // Cold caches for both paths, so that they do the same work and the
  // difference is the engine's own overhead.
  engine->plan_cache().Clear();
  engine->ht_recycler().EvictAll();
  SODA_ASSIGN_OR_RETURN(
      QueryResult direct,
      Timed(tracer, "core.execute", parent, stmt, &t.execute_us,
            [&] { return engine->Execute(sql); }));

  // The same statement, layer by layer, on a pinned catalog snapshot (as
  // the engine's SELECT path does).
  Catalog snapshot;
  engine->catalog().SnapshotInto(&snapshot);
  SODA_RETURN_NOT_OK(Timed(tracer, "sql.tokenize", parent, stmt, &t.parse_us,
                           [&] { return Tokenize(sql); })
                         .status());
  SODA_ASSIGN_OR_RETURN(Statement parsed,
                        Timed(tracer, "sql.parse", parent, stmt, &t.parse_us,
                              [&] { return ParseStatement(sql); }));
  if (parsed.kind != StatementKind::kSelect || parsed.select == nullptr) {
    return Status::InvalidArgument("probe needs a SELECT: " + sql);
  }
  Binder binder(&snapshot);
  SODA_ASSIGN_OR_RETURN(PlanPtr plan,
                        Timed(tracer, "sql.bind", parent, stmt, &t.bind_us, [&] {
                          return binder.BindSelectStatement(*parsed.select);
                        }));
  if (engine->options().optimize) {
    plan = Timed(tracer, "sql.optimize", parent, stmt, &t.optimize_us,
                 [&] { return OptimizePlan(std::move(plan), &snapshot); });
  }
  SODA_ASSIGN_OR_RETURN(PhysicalPlan physical,
                        Timed(tracer, "exec.lower", parent, stmt, &t.lower_us,
                              [&] { return LowerPlan(*plan); }));
  SODA_RETURN_NOT_OK(Timed(tracer, "exec.verify", parent, stmt, &t.verify_us,
                           [&] { return VerifyPlan(*plan, physical); }));
  engine->ht_recycler().EvictAll();
  ExecContext ctx;
  ctx.catalog = &snapshot;
  ctx.max_iterations = engine->options().max_iterations;
  // As in Engine::Execute: plans lowered inside the run (ITERATE rounds)
  // are verified there, and join builds go through the recycler.
  ctx.verify_plans = engine->options().verify_plans;
  ctx.ht_recycler = &engine->ht_recycler();
  SODA_RETURN_NOT_OK(Timed(tracer, "exec.run", parent, stmt, &t.run_us,
                           [&] { return physical.Execute(ctx); }));
  const TablePtr result = physical.result();
  if (result == nullptr || result->num_rows() != direct.num_rows()) {
    return Status::ExecutionError("layer-by-layer result differs from "
                                  "Engine::Execute for: " + sql);
  }
  return t;
}

void OpTimes::Add(const OpTimes& o) {
  scan_ms += o.scan_ms;
  hash_build_ms += o.hash_build_ms;
  hash_probe_ms += o.hash_probe_ms;
  aggregate_ms += o.aggregate_ms;
  sort_ms += o.sort_ms;
  table_function_ms += o.table_function_ms;
  bytes_reserved += o.bytes_reserved;
  scan_chunks += o.scan_chunks;
}

namespace {

double FieldAfter(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

}  // namespace

soda::Result<OpTimes> ExplainAnalyze(soda::Engine* engine,
                                     const std::string& sql) {
  SODA_ASSIGN_OR_RETURN(soda::QueryResult r,
                        engine->Execute("EXPLAIN ANALYZE " + sql));
  OpTimes t;
  bool in_pipelines = false;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    const std::string& line = r.GetString(i, 0);
    if (line.find("=== Pipelines ===") != std::string::npos) {
      in_pipelines = true;
      continue;
    }
    if (!in_pipelines) continue;
    if (line.find("bytes_reserved=") != std::string::npos) {
      t.bytes_reserved += FieldAfter(line, "bytes_reserved=");
      continue;
    }
    // Operator lines are indented by two spaces: "  <name>  ... time=Xms".
    if (line.size() < 3 || line[0] != ' ' || line[2] == ' ') continue;
    const std::string op = line.substr(2);
    const double ms = FieldAfter(line, "time=");
    auto starts = [&](const char* p) { return op.rfind(p, 0) == 0; };
    if (starts("Scan ")) {
      t.scan_ms += ms;
      t.scan_chunks += FieldAfter(line, "chunks=");
    } else if (starts("HashBuild") || starts("CrossJoinBuild")) {
      t.hash_build_ms += ms;
    } else if (starts("HashJoinProbe")) {
      t.hash_probe_ms += ms;
    } else if (starts("Aggregate")) {
      t.aggregate_ms += ms;
    } else if (starts("Sort")) {
      t.sort_ms += ms;
    } else if (starts("TableFunction")) {
      t.table_function_ms += ms;
    }
  }
  if (!in_pipelines) {
    return soda::Status::ExecutionError("EXPLAIN ANALYZE printed no pipelines");
  }
  return t;
}

soda::Result<std::map<std::string, double>> EngineStatus(soda::Engine* engine) {
  SODA_ASSIGN_OR_RETURN(soda::QueryResult r,
                        engine->Execute("SELECT metric, value FROM soda_status()"));
  std::map<std::string, double> out;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    out[r.GetString(i, 0)] = r.GetDouble(i, 1);
  }
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace sb
