/// \file sample.h
/// Latency samples measured in the process's CPU time.
///
/// The benchmark runs on shared virtual machines, where the wall time of a
/// statement tracks how much CPU the host grants far more than anything in
/// the program: over ten runs of the same code on the parallel engine, the
/// middle half of the statement rate spanned 60% of its median. So the
/// bounded metrics count CPU time instead. The engine runs with one pool
/// thread (main.cc) and one statement is in flight at a time, so the
/// process's CPU time during a statement is the statement's own work: what
/// its latency is on a dedicated core. The operating system leaves the
/// time the hypervisor steals and the time the process waits for a CPU
/// out of it.
/// How fast that time runs still varies; calibrate.h scales it. Wall times
/// are kept beside it and printed as notes.

#ifndef SODA_BENCH_SAMPLE_H_
#define SODA_BENCH_SAMPLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sb {

/// Process CPU seconds, every thread (CLOCK_PROCESS_CPUTIME_ID).
double CpuSeconds();

/// A point in time on both clocks: wall (NowNs) and process CPU.
struct Instant {
  int64_t wall_ns;
  double cpu_s;
};
Instant ReadClocks();

/// Samples (seconds) of one statement class.
struct Samples {
  std::vector<double> cpu;   ///< process CPU seconds during each sample
  std::vector<double> wall;  ///< wall seconds of each sample
  std::vector<int64_t> start_ns;  ///< NowNs() at the start of each sample

  void Add(const Instant& start, const Instant& end);
  void Append(const Samples& other);
  size_t size() const { return cpu.size(); }
};

/// Median CPU seconds of the samples.
double CpuMedian(const Samples& s);
/// Median wall seconds of the samples.
double WallMedian(const Samples& s);

/// Machine-wide CPU steal counters from /proc/stat, for the run's note.
struct StealTicks {
  uint64_t total = 0;  ///< jiffies in every state
  uint64_t steal = 0;
};
StealTicks ReadStealTicks();
/// Share of the machine's CPU time the hypervisor stole between two reads.
double StealShare(const StealTicks& from, const StealTicks& to);

}  // namespace sb

#endif  // SODA_BENCH_SAMPLE_H_
