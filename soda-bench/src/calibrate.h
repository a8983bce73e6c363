/// \file calibrate.h
/// A fixed reference kernel that measures how fast the host runs the
/// process right now.
///
/// On a shared virtual machine the CPU time of the same work moves with
/// the load of the other guests (clock, shared caches, memory bandwidth):
/// on a 4-vCPU test machine one ITERATE statement took between 0.94 s and
/// 1.52 s of CPU within one process, drifting over about ten seconds. The
/// kernel below is code of the benchmark, not of the engine: random probes
/// into a 2 MB and an 8 MB table and a sequential pass over 128 MB, like
/// the hash joins, aggregations and scans of the engine. The workloads run
/// it between statements, and each statement sample is scaled by
/// (kReferenceMs ÷ the median kernel time within kWindowNs of it) to the
/// power kElasticity. The scaled value is the CPU time on a host where the
/// kernel takes kReferenceMs.
///
/// Of seven kernels tried beside the analytics statements, this one left
/// the least spread; the others probed 32 MB to 256 MB tables. The
/// statements react more strongly to the host than the kernel does: their
/// CPU time moved by 1.2 to 1.6 times the kernel's (in logs), hence the
/// exponent.

#ifndef SODA_BENCH_CALIBRATE_H_
#define SODA_BENCH_CALIBRATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sample.h"

namespace sb {

class Calibration {
 public:
  /// About the median CPU time of one kernel call on a 4-vCPU test
  /// machine; fixes the scale of the scaled metrics.
  static constexpr double kReferenceMs = 36.0;
  /// How strongly statement CPU time follows the kernel's (see above).
  static constexpr double kElasticity = 1.3;
  /// Kernel calls this close to a sample (before its start or after its
  /// end) set its scale.
  static constexpr int64_t kWindowNs = 5000000000;

  /// Runs the kernel once and records its CPU time.
  void Sample();
  size_t size() const { return ms_.size(); }
  /// Median CPU milliseconds of all recorded kernel calls.
  double MedianMs() const;

  /// CPU seconds of every sample, each scaled by (kReferenceMs ÷ the
  /// median kernel time within kWindowNs of it, or of all calls when fewer
  /// than two are that close) to the power kElasticity.
  std::vector<double> Scaled(const Samples& s) const;

 private:
  void Init();

  std::vector<uint64_t> table_;
  std::vector<double> ms_;
  std::vector<int64_t> at_ns_;  ///< when each call ended
  uint64_t sink_ = 0;
};

/// The calibration the statement loops of every workload sample into.
Calibration& Calib();

}  // namespace sb

#endif  // SODA_BENCH_CALIBRATE_H_
