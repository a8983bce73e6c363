/// \file tracer.h
/// Outside-in spans for the traced run.
///
/// The benchmark records a span around each call it makes into a public
/// function of one of the engine's modules (Engine::Execute, Tokenize,
/// Binder::BindSelectStatement, LowerPlan, RunPageRank, a server round
/// trip, ...). A span has a name, start, end, the span that caused it and
/// the id of the statement it belongs to. Spans stay in memory and are
/// written out as JSON lines when the run ends. A span's self time is its
/// duration minus the part of it covered by its children.

#ifndef SODA_BENCH_TRACER_H_
#define SODA_BENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sb {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  ///< -1 while open
  int64_t parent = -1;  ///< index of the parent span, -1 for a root
  int64_t stmt = -1;    ///< statement id shared by one statement's spans
};

struct SpanStats {
  size_t count = 0;
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (-1 when tracing is off).
  int64_t Begin(const std::string& name, int64_t parent, int64_t stmt);
  void End(int64_t id);
  int64_t NewStatement();

  /// Per span name: durations and self times.
  std::map<std::string, SpanStats> Stats() const;
  size_t size() const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_stmt_ = 0;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             int64_t stmt = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, stmt)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace sb

#endif  // SODA_BENCH_TRACER_H_
