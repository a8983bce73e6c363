/// \file layers.h
/// Measuring the engine's layers from outside: a statement decomposed
/// into the public entry points of `sql` and `exec`, the operator lines
/// of EXPLAIN ANALYZE, soda_status() counters, and process counters.

#ifndef SODA_BENCH_LAYERS_H_
#define SODA_BENCH_LAYERS_H_

#include <map>
#include <string>

#include "core/engine.h"
#include "tracer.h"

namespace sb {

/// One statement run through Engine::Execute and then again through the
/// layer entry points (Tokenize + ParseStatement, BindSelectStatement,
/// OptimizePlan, LowerPlan, VerifyPlan, PhysicalPlan::Execute) on a
/// catalog snapshot. Both paths start with the plan cache and the join
/// recycler emptied, so they do the same work. Times in microseconds.
struct LayerTimes {
  double execute_us = 0;
  double parse_us = 0;
  double bind_us = 0;
  double optimize_us = 0;
  double lower_us = 0;
  double verify_us = 0;
  double run_us = 0;
  /// Execute minus the sum of the decomposed layer calls.
  double overhead_us() const {
    return execute_us -
           (parse_us + bind_us + optimize_us + lower_us + verify_us + run_us);
  }
};

/// `sql` must be a SELECT. Spans go under one "probe" root span.
soda::Result<LayerTimes> ProbeLayers(soda::Engine* engine,
                                     const std::string& sql, Tracer* tracer);

/// Inclusive operator times summed from the EXPLAIN ANALYZE lines.
struct OpTimes {
  double scan_ms = 0;
  double hash_build_ms = 0;
  double hash_probe_ms = 0;
  double aggregate_ms = 0;
  double sort_ms = 0;
  double table_function_ms = 0;
  double bytes_reserved = 0;
  double scan_chunks = 0;

  void Add(const OpTimes& o);
};

soda::Result<OpTimes> ExplainAnalyze(soda::Engine* engine,
                                     const std::string& sql);

/// soda_status() as metric -> value.
soda::Result<std::map<std::string, double>> EngineStatus(soda::Engine* engine);

/// Process peak resident set (VmHWM) in MB.
double PeakRssMb();

}  // namespace sb

#endif  // SODA_BENCH_LAYERS_H_
