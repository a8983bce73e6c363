#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace sb {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = Median(values);
  std::sort(values.begin(), values.end());
  // Highest of the usual percentiles that leaves >= 10 samples above it.
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(s.n) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      size_t idx = static_cast<size_t>(
          std::ceil(pct / 100.0 * static_cast<double>(s.n)));
      idx = std::min(s.n - 1, idx == 0 ? 0 : idx - 1);
      s.tail = values[idx];
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

void Report::Count(bool ok, const std::string& what) {
  if (ok) {
    attempted_.fetch_add(1);
  } else {
    Fail(what);
  }
}

void Report::Fail(const std::string& what) {
  attempted_.fetch_add(1);
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the log bounded: a broken build can fail every statement.
  if (failures_.size() < 20) {
    failures_.push_back(what);
    std::fprintf(stderr, "soda-bench: FAILED: %s\n", what.c_str());
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit});
}

void Report::Absent(const std::string& name, const std::string& unit,
                    const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    absent_.emplace_back(name, reason);
  }
  Metric(name, 0, unit);
}

void Report::Note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.emplace_back(key, value);
}

void Report::NoteSummary(const std::string& name, const Samples& samples,
                         const std::string& unit, double scale) {
  const Summary s = Summarize(samples.cpu);
  std::string v = "cpu_median=" + Fmt(s.median * scale) + " " + unit;
  if (s.tail_pct > 0) {
    v += " cpu_p" + Fmt(s.tail_pct, 4) + "=" + Fmt(s.tail * scale) + " " + unit;
  } else {
    v += " tail=n/a(<20 samples)";
  }
  v += " wall_median=" + Fmt(WallMedian(samples) * scale) + " " + unit +
       " n=" + std::to_string(s.n);
  Note(name, v);
}

int Report::Finish(const std::string& result_path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : notes_) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [k, why] : absent_) {
    std::printf("# absent %s: %s\n", k.c_str(), why.c_str());
  }
  for (const Entry& m : metrics_) {
    std::printf("%-34s %16s %s\n", m.name.c_str(), Fmt(m.value, 9).c_str(),
                m.unit.c_str());
  }
  const bool correct = failed_.load() == 0;
  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) metrics += ", ";
    metrics += JsonString(metrics_[i].name) + ": {\"value\": " +
               JsonNumber(metrics_[i].value) +
               ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  metrics += "}";
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_.load()) +
      ", \"failed\": " + std::to_string(failed_.load()) +
      ", \"metrics\": " + metrics + "}";

  if (!result_path.empty()) {
    std::ofstream out(result_path);
    out << "{\"result\": " << line << ",\n \"notes\": {";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << JsonString(notes_[i].first) << ": "
          << JsonString(notes_[i].second);
    }
    out << "},\n \"absent\": {";
    for (size_t i = 0; i < absent_.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << JsonString(absent_[i].first) << ": "
          << JsonString(absent_[i].second);
    }
    out << "},\n \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(failures_[i]);
    }
    out << "]}\n";
  }
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace sb
