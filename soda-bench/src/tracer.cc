#include "tracer.h"

#include <algorithm>
#include <fstream>

#include "bench.h"

namespace sb {

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t stmt) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.stmt = stmt;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::NewStatement() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_stmt_++;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanStats> Tracer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, for the self-time subtraction.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      const Span& ch = spans_[c];
      if (ch.end_ns < 0) continue;
      const int64_t b = std::max(ch.start_ns, s.start_ns);
      const int64_t e = std::min(ch.end_ns, s.end_ns);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_b = 0;
    int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const int64_t dur = s.end_ns - s.start_ns;
    SpanStats& st = out[s.name];
    ++st.count;
    st.duration_us.push_back(static_cast<double>(dur) * 1e-3);
    st.self_us.push_back(static_cast<double>(dur - covered) * 1e-3);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"stmt\": " << s.stmt << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace sb
