#include "sample.h"

#include <time.h>

#include <fstream>
#include <string>

#include "bench.h"

namespace sb {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Instant ReadClocks() { return Instant{NowNs(), CpuSeconds()}; }

void Samples::Add(const Instant& start, const Instant& end) {
  cpu.push_back(end.cpu_s - start.cpu_s);
  wall.push_back(static_cast<double>(end.wall_ns - start.wall_ns) * 1e-9);
  start_ns.push_back(start.wall_ns);
}

void Samples::Append(const Samples& other) {
  cpu.insert(cpu.end(), other.cpu.begin(), other.cpu.end());
  wall.insert(wall.end(), other.wall.begin(), other.wall.end());
  start_ns.insert(start_ns.end(), other.start_ns.begin(), other.start_ns.end());
}

double CpuMedian(const Samples& s) { return Median(s.cpu); }

double WallMedian(const Samples& s) { return Median(s.wall); }

StealTicks ReadStealTicks() {
  StealTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  uint64_t v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const StealTicks& from, const StealTicks& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

}  // namespace sb
