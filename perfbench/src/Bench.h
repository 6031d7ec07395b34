//===- perfbench/src/Bench.h - Shared benchmark types ----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the perfbench workloads: command-line options, the
/// result every run prints (correctness verdict, attempted/failed counts
/// and named metrics with units), and small measurement helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Clock.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (CSV).
  std::string TraceOut;
};

/// One reported metric; Value is printed with full precision.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything a run reports. The final stdout line is built from this.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Workload parameters, stamped into the run's header line.
  std::vector<std::pair<std::string, std::string>> Params;

  void add(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void param(const std::string &Key, const std::string &Val) {
    Params.emplace_back(Key, Val);
  }
  void param(const std::string &Key, uint64_t Val) {
    Params.emplace_back(Key, std::to_string(Val));
  }
  /// Why each failed correctness check failed; repeated on stdout.
  std::vector<std::string> Failures;

  /// Records a failed correctness check; the run exits nonzero.
  void fail(const std::string &Why) {
    Correct = false;
    Failures.push_back(Why);
    std::fprintf(stderr, "perfbench: AUDIT FAILURE: %s\n", Why.c_str());
  }
};

inline uint64_t nowNs() { return crafty::monotonicNanos(); }

inline double seconds(uint64_t Ns) { return (double)Ns * 1e-9; }

/// Latency distribution in nanoseconds: exact below 2048 ns, then 1024
/// linear sub-buckets per power of two (under 0.1% error), so memory
/// stays fixed however many requests a window completes.
class LatencyHistogram {
public:
  LatencyHistogram() : Counts(NumBuckets) {}

  void add(uint64_t Ns) {
    ++Counts[bucket(Ns > UINT32_MAX ? UINT32_MAX : (uint32_t)Ns)];
    ++Total;
  }
  void merge(const LatencyHistogram &O) {
    for (size_t I = 0; I != NumBuckets; ++I)
      Counts[I] += O.Counts[I];
    Total += O.Total;
  }
  uint64_t count() const { return Total; }

  /// The \p Q quantile (0..1) in microseconds; 0 when empty.
  double quantileUs(double Q) const {
    if (!Total)
      return 0;
    uint64_t Rank = std::min<uint64_t>(Total - 1, (uint64_t)(Q * Total));
    uint64_t Seen = 0;
    for (size_t B = 0; B != NumBuckets; ++B) {
      Seen += Counts[B];
      if (Seen > Rank)
        return midpoint(B) * 1e-3;
    }
    return midpoint(NumBuckets - 1) * 1e-3;
  }

private:
  static constexpr unsigned SubBits = 10;
  static constexpr size_t NumBuckets = (32 - SubBits + 1) << SubBits;

  static size_t bucket(uint32_t V) {
    if (V < (2u << SubBits))
      return V;
    unsigned Shift = 31 - __builtin_clz(V) - SubBits;
    return ((size_t)Shift << SubBits) + (V >> Shift);
  }
  static double midpoint(size_t B) {
    if (B < (2u << SubBits))
      return (double)B;
    unsigned Shift = (unsigned)(B >> SubBits) - 1;
    uint64_t Low = (uint64_t)(B - ((size_t)Shift << SubBits)) << Shift;
    return (double)Low + (double)(1ull << Shift) / 2;
  }

  std::vector<uint32_t> Counts;
  uint64_t Total = 0;
};

/// Mean of the middle half of \p V (the interquartile mean): as robust
/// as a median to a few outlying windows, but it moves smoothly when the
/// windows split between two speeds, where a median jumps between them.
inline double interquartileMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Cut = V.size() / 4;
  double Sum = 0;
  for (size_t I = Cut; I != V.size() - Cut; ++I)
    Sum += V[I];
  return Sum / (double)(V.size() - 2 * Cut);
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Safe ratio for per-layer metrics: 0 when the layer saw no work.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Peak resident memory of this process, in MiB.
double peakRssMb();

/// One timed phase cut into equal windows by completion time. Reported
/// figures are robust averages over the windows, so a burst of
/// interference from outside the benchmark moves a few windows, not the
/// result.
struct Windows {
  Windows(unsigned N, uint64_t StartNs, uint64_t WidthNs)
      : StartNs(StartNs), WidthNs(WidthNs), Ops(N), Reads(N), Writes(N) {}

  /// The window holding time \p Ns, or -1 outside the phase.
  int index(uint64_t Ns) const {
    if (Ns < StartNs)
      return -1;
    uint64_t W = (Ns - StartNs) / WidthNs;
    return W < Ops.size() ? (int)W : -1;
  }
  /// Folds another recorder of the same phase (one per thread) in.
  void merge(const Windows &O);
  /// Work units completed per second (interquartile mean over windows).
  double rate() const;

  uint64_t StartNs, WidthNs;
  std::vector<uint64_t> Ops; ///< Work units completed per window.
  std::vector<LatencyHistogram> Reads, Writes;
};

/// Adds ops_per_s and the p50/p99 read and write latencies to \p R, and
/// prints their sample counts on a comment line. Throughput and p50 are
/// interquartile means over the windows; p99 is their median, because a
/// host stall inflates the tail of every window it touches and a median
/// tolerates stalls in up to half of them.
void addWindowedMetrics(Result &R, const Windows &W);

/// What the host did during a run, for its stamp: time the hypervisor
/// stole from the guest's vCPUs (/proc/stat), the CPU time this process
/// achieved, and two arithmetic probes timed on the calling thread before
/// every segment (see probeNsPerStep). None of it feeds a metric; it lets
/// a later run tell a slower host from a slower program.
class HostMonitor {
public:
  HostMonitor();
  /// Runs the probes; call on the thread (and CPU) the segment runs on.
  void beforeSegment();
  /// Adds the host figures since construction to \p R's stamp and prints
  /// the probes by segment.
  void stamp(Result &R) const;

private:
  uint64_t StartNs, StartSteal, StartTicks;
  double StartCpuS;
  std::vector<double> ChainNs, LanesNs; ///< Per segment, ns per step.
};

/// Each timed segment starts with this much unmeasured warm-up.
constexpr uint64_t SegmentWarmupNs = 250000000ull;

/// One-second segments a run measures: one per second, or, in a traced
/// run, one per two seconds for each of its untraced and traced phases.
inline unsigned segments(const Options &O) {
  return O.Trace ? std::max(1u, O.Seconds / 2) : O.Seconds;
}

/// What a simulated power failure and recovery reported.
struct RecoveryOutcome {
  double ReplayMs = 0;
  uint64_t RolledBack = 0;
};

/// The workloads (KvBench.cpp, BankBench.cpp); failures land in \p R.
void runKv(const Options &O, Result &R);
void runBank(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
