/// soda-bench: the benchmark program. Runs one workload for a fixed time,
/// checks every result, and prints the metrics; the last line of standard
/// output is one JSON object {correct, attempted, failed, metrics}.
///
///   soda_bench --workload analytics|iterate|sql_mix --seed N --seconds S
///              --trace 0|1 --out-dir DIR [--source-id ID] [--tiny]
///              [--inject-wrong]
///
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
/// from a traced run. --tiny and --inject-wrong serve the self-test.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "sample.h"
#include "tracer.h"
#include "util/thread_pool.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SODA_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SODA_BENCH_SANITIZED 1
#endif
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: soda_bench --workload analytics|iterate|sql_mix "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--source-id ID] [--tiny] [--inject-wrong]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SODA_BENCH_SANITIZED
  std::fprintf(stderr,
               "soda-bench: refusing to run a sanitizer build; timings of an "
               "instrumented build mean nothing. Rebuild without "
               "-fsanitize.\n");
  return 2;
#endif
  // One pool thread: every statement runs on the thread that issued it,
  // so the process's CPU time during a statement is its work (sample.h).
  // Set before anything sizes the pool.
  setenv("SODA_THREADS", "1", 1);
  sb::Options opts;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "soda-bench: %s needs a value\n", arg.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else if (arg == "--source-id") {
      source_id = value();
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--inject-wrong") {
      opts.inject_wrong = true;
    } else {
      return Usage();
    }
  }
  using RunFn = void (*)(const sb::Options&, sb::Report*, sb::Tracer*);
  RunFn run = nullptr;
  if (opts.workload == "analytics") run = sb::RunAnalytics;
  if (opts.workload == "iterate") run = sb::RunIterate;
  if (opts.workload == "sql_mix") run = sb::RunSqlMix;
  if (run == nullptr || opts.out_dir.empty() || !(opts.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(opts.out_dir);

  sb::Report report;
  report.Note("workload", opts.workload);
  report.Note("seed", std::to_string(opts.seed));
  report.Note("seconds", sb::Fmt(opts.seconds));
  report.Note("trace", opts.trace ? "1" : "0");
  report.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Note("engine_pool_threads",
              std::to_string(soda::ThreadPool::Global().num_threads()));
  report.Note("source", source_id);
  report.Note("build_type", SODA_BENCH_BUILD_TYPE);
  if (opts.tiny) report.Note("sizes", "tiny (self-test)");
  if (opts.inject_wrong) report.Note("inject_wrong", "1 (self-test)");

  sb::Tracer tracer(opts.trace);
  const sb::StealTicks steal0 = sb::ReadStealTicks();
  run(opts, &report, &tracer);
  report.Note("cpu_steal_frac",
              sb::Fmt(sb::StealShare(steal0, sb::ReadStealTicks())));
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0");
  if (opts.trace) sb::EmitTrace(&report, tracer, stem + ".spans.jsonl");
  if (report.attempted() == 0) report.Count(false, "no statement was attempted");
  return report.Finish(stem + ".result.json");
}
