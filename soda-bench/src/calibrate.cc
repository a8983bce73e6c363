#include "calibrate.h"

#include <cmath>

#include "bench.h"

namespace sb {

namespace {

/// 16M slots of 8 bytes: 128 MB, beyond the last-level cache.
constexpr size_t kSlots = size_t{1} << 24;
/// Random probes go to the first 2 MB (about one core's L2 cache) and to
/// the first 8 MB.
constexpr size_t kSmallSlots = size_t{1} << 18;
constexpr size_t kMidSlots = size_t{1} << 20;
constexpr size_t kProbes = size_t{1} << 16;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void Calibration::Init() {
  table_.resize(kSlots);
  for (size_t i = 0; i < kSlots; ++i) table_[i] = Mix(i);
}

void Calibration::Sample() {
  if (table_.empty()) Init();
  const double cpu0 = CpuSeconds();
  uint64_t sum = 0;
  // Independent random probes, as hash-join probes and aggregations issue
  // them, into a core-private and a shared-cache-sized table.
  for (size_t i = 0; i < kProbes; ++i) sum += table_[Mix(i + sink_) & (kSmallSlots - 1)];
  for (size_t i = 0; i < kProbes; ++i) sum += table_[Mix(i + sum) & (kMidSlots - 1)];
  // A sequential pass over memory, as a scan makes it.
  for (size_t i = 0; i < kSlots; ++i) sum ^= table_[i] * 31;
  sink_ += sum & 1;
  ms_.push_back((CpuSeconds() - cpu0) * 1e3);
  at_ns_.push_back(NowNs());
}

double Calibration::MedianMs() const { return Median(ms_); }

std::vector<double> Calibration::Scaled(const Samples& s) const {
  const double all = MedianMs();
  std::vector<double> out;
  for (size_t i = 0; i < s.size(); ++i) {
    const int64_t from = s.start_ns[i] - kWindowNs;
    const int64_t to = s.start_ns[i] + static_cast<int64_t>(s.wall[i] * 1e9) + kWindowNs;
    std::vector<double> near;
    for (size_t k = 0; k < ms_.size(); ++k) {
      if (at_ns_[k] >= from && at_ns_[k] <= to) near.push_back(ms_[k]);
    }
    const double ms = near.size() >= 2 ? Median(near) : all;
    out.push_back(ms > 0 ? s.cpu[i] * std::pow(kReferenceMs / ms, kElasticity)
                         : s.cpu[i]);
  }
  return out;
}

Calibration& Calib() {
  static Calibration calib;
  return calib;
}

}  // namespace sb
