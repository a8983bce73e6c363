/// \file bench.h
/// Shared pieces of the soda benchmark program: run options, the clock,
/// latency summaries and the result sink every workload reports into.

#ifndef SODA_BENCH_BENCH_H_
#define SODA_BENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sample.h"

namespace sb {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured phase
  bool trace = false;   ///< traced run: per-layer metrics instead of e2e
  bool tiny = false;    ///< self-test input sizes
  /// Perturb one expected value per check so that every check fails:
  /// proves the checks can fail (self-test only).
  bool inject_wrong = false;
  std::string out_dir;  ///< trace and result files are written here
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Median plus the highest percentile with at least ten samples beyond it.
struct Summary {
  size_t n = 0;
  double median = 0;
  double tail = 0;      ///< value at `tail_pct`; 0 when no percentile qualifies
  double tail_pct = 0;  ///< 0 when fewer than 20 samples
};

Summary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// Collects the run's counters, checks and metrics (thread-safe) and
/// prints them at the end: human-readable lines, then the one JSON line
/// the caller parses.
class Report {
 public:
  /// One statement or check was attempted; `ok` = it succeeded and its
  /// output was correct. A failure is printed with `what`.
  void Count(bool ok, const std::string& what);

  /// A failed correctness check that is not a statement of its own; it
  /// counts as attempted too, so that failed never exceeds attempted.
  void Fail(const std::string& what);

  /// A metric of the final JSON object.
  void Metric(const std::string& name, double value, const std::string& unit);

  /// A per-layer metric this workload does not exercise: reported as 0
  /// with the reason, so the omission is explicit.
  void Absent(const std::string& name, const std::string& unit,
              const std::string& reason);

  /// An informational, named measurement that is not part of the JSON
  /// metrics (per-statement latencies, ratio bases, provenance).
  void Note(const std::string& key, const std::string& value);
  /// Notes the samples' CPU-time median and tail (sample.h) and their
  /// wall-time median.
  void NoteSummary(const std::string& name, const Samples& s,
                   const std::string& unit, double scale);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  /// Prints notes and metrics, writes them to `result_path` as JSON, and
  /// prints the final JSON line. Returns the process exit code.
  int Finish(const std::string& result_path);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::string>> absent_;
  std::vector<std::string> failures_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
std::string Fmt(double v, int precision = 6);

}  // namespace sb

#endif  // SODA_BENCH_BENCH_H_
