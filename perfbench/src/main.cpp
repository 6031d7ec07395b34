//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload kv-read|kv-write|ptm-bank --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//                  [--git-sha SHA] [--src-digest HEX]
//
// Runs one workload and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones (tracing off); with --trace 1 they are
// the per-layer ones from a separate traced phase. Earlier stdout lines
// starting with '#' carry the host/run stamp, sample counts and any audit
// failures. Exits 1 when any correctness audit fails, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cpuid.h>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

void perfbench::Windows::merge(const Windows &O) {
  for (size_t I = 0; I != Ops.size(); ++I) {
    Ops[I] += O.Ops[I];
    Reads[I].merge(O.Reads[I]);
    Writes[I].merge(O.Writes[I]);
  }
}

double perfbench::Windows::rate() const {
  std::vector<double> Rate;
  for (uint64_t N : Ops)
    Rate.push_back(N / seconds(WidthNs));
  return interquartileMean(Rate);
}

void perfbench::addWindowedMetrics(Result &R, const Windows &W) {
  std::vector<double> R50, R99, W50, W99;
  size_t MinReads = SIZE_MAX, MinWrites = SIZE_MAX, NReads = 0, NWrites = 0;
  std::printf("# ops_per_s by window:");
  for (size_t I = 0; I != W.Ops.size(); ++I) {
    std::printf(" %.0f", W.Ops[I] / seconds(W.WidthNs));
    R50.push_back(W.Reads[I].quantileUs(0.50));
    R99.push_back(W.Reads[I].quantileUs(0.99));
    W50.push_back(W.Writes[I].quantileUs(0.50));
    W99.push_back(W.Writes[I].quantileUs(0.99));
    MinReads = std::min<size_t>(MinReads, W.Reads[I].count());
    MinWrites = std::min<size_t>(MinWrites, W.Writes[I].count());
    NReads += W.Reads[I].count();
    NWrites += W.Writes[I].count();
  }
  std::printf("\n");
  R.add("ops_per_s", W.rate(), "1/s");
  R.add("read_p50_us", interquartileMean(R50), "us");
  R.add("read_p99_us", median(R99), "us");
  R.add("write_p50_us", interquartileMean(W50), "us");
  R.add("write_p99_us", median(W99), "us");
  std::printf("# windows=%zu x %.2f s; samples read=%zu write=%zu; fewest "
              "per window read=%zu write=%zu (p99 has >= %zu / %zu beyond)\n",
              W.Ops.size(), seconds(W.WidthNs), NReads, NWrites, MinReads,
              MinWrites, MinReads / 100, MinWrites / 100);
}

namespace {

/// Steal and total ticks summed over the guest's CPUs (/proc/stat).
void cpuTicks(uint64_t &Steal, uint64_t &Total) {
  Steal = Total = 0;
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return;
  unsigned long long V[8] = {};
  if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                  &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
    Steal = V[7];
    for (unsigned long long X : V)
      Total += X;
  }
  std::fclose(F);
}

double processCpuS() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return (double)(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         (double)(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// Median of five timings of 2^18 multiply-xorshift steps spread over
/// \p Lanes independent chains, in ns per step. One lane is latency
/// bound and tracks the core's clock; eight lanes are bound by multiplier
/// throughput, which a busy sibling hyperthread on the same physical
/// core (another guest's vCPU, invisible from here) takes a share of.
template <unsigned Lanes> double probeNsPerStep() {
  constexpr unsigned Steps = 1u << 18;
  uint64_t L[Lanes];
  for (unsigned I = 0; I != Lanes; ++I)
    L[I] = I + 1;
  std::vector<double> Ns;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    uint64_t T0 = nowNs();
    for (unsigned I = 0; I != Steps / Lanes; ++I)
      for (uint64_t &V : L) {
        V = V * 0x9e3779b97f4a7c15ull + I;
        V ^= V >> 29;
      }
    Ns.push_back((double)(nowNs() - T0) / Steps);
  }
  uint64_t X = 0;
  for (uint64_t V : L)
    X ^= V;
  asm volatile("" : : "r"(X));
  return median(Ns);
}

} // namespace

perfbench::HostMonitor::HostMonitor()
    : StartNs(nowNs()), StartCpuS(processCpuS()) {
  cpuTicks(StartSteal, StartTicks);
}

void perfbench::HostMonitor::beforeSegment() {
  ChainNs.push_back(probeNsPerStep<1>());
  LanesNs.push_back(probeNsPerStep<8>());
}

void perfbench::HostMonitor::stamp(Result &R) const {
  uint64_t Steal, Ticks;
  cpuTicks(Steal, Ticks);
  double WallS = seconds(nowNs() - StartNs);
  char Buf[64];
  auto Put = [&](const char *Key, double V) {
    std::snprintf(Buf, sizeof(Buf), "%.4g", V);
    R.param(Key, Buf);
  };
  Put("host.steal_frac", ratio((double)(Steal - StartSteal),
                               (double)(Ticks - StartTicks)));
  Put("host.process_cpus", ratio(processCpuS() - StartCpuS, WallS));
  Put("host.chain_ns_per_step", median(ChainNs));
  Put("host.lanes_ns_per_step", median(LanesNs));
  for (const auto *V : {&ChainNs, &LanesNs}) {
    std::printf("# host %s ns/step by segment:",
                V == &ChainNs ? "chain" : "lanes");
    for (double X : *V)
      std::printf(" %.4f", X);
    std::printf("\n");
  }
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if ((unsigned char)C >= 0x20)
      Out += C;
  }
  return Out + '"';
}

std::string cpuModel() {
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
    return "unknown";
  for (unsigned I = 0; I != 3; ++I)
    __get_cpuid(0x80000002 + I, &Regs[I * 4], &Regs[I * 4 + 1],
                &Regs[I * 4 + 2], &Regs[I * 4 + 3]);
  std::string S(reinterpret_cast<const char *>(Regs), sizeof(Regs));
  S = S.c_str();
  size_t B = S.find_first_not_of(' ');
  return B == std::string::npos ? "unknown" : S.substr(B);
}

unsigned onlineCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return (unsigned)CPU_COUNT(&Set);
}

void printStamp(const Options &O, const Result &R, unsigned Cpus,
                const std::string &GitSha, const std::string &SrcDigest) {
  std::string J = "{\"nproc\":" + std::to_string(Cpus) +
                  ",\"cpu\":" + jsonString(cpuModel()) +
                  ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
                  ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
                  ",\"git_sha\":" + jsonString(GitSha) +
                  ",\"src_digest\":" + jsonString(SrcDigest) +
                  ",\"workload\":" + jsonString(O.Workload) +
                  ",\"seed\":" + std::to_string(O.Seed) +
                  ",\"seconds\":" + std::to_string(O.Seconds) +
                  ",\"trace\":" + (O.Trace ? "1" : "0") + ",\"params\":{";
  for (size_t I = 0; I != R.Params.size(); ++I)
    J += (I ? "," : "") + jsonString(R.Params[I].first) + ":" +
         jsonString(R.Params[I].second);
  std::printf("# stamp %s}}\n", J.c_str());
}

void printResult(const Result &R) {
  std::string J = std::string("{\"correct\": ") +
                  (R.Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    J += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " + Buf +
         ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  std::printf("%s}}\n", J.c_str());
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv-read|kv-write|ptm-bank --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA] [--src-digest HEX]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // A fixed threshold keeps every multi-MiB pool and table in its own
  // mapping, returned on free. glibc's default raises the threshold after
  // the first such free, so later pools land in the heap and peak RSS
  // depends on the order of set-ups rather than on what is resident.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Options O;
  std::string GitSha = "unavailable", SrcDigest = "unavailable";
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      return usage("missing value");
    std::string Flag = Argv[I], Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = (unsigned)std::strtoul(Val.c_str(), &End, 10);
    } else if (Flag == "--trace") {
      O.Trace = Val == "1";
    } else if (Flag == "--trace-out") {
      O.TraceOut = Val;
    } else if (Flag == "--git-sha") {
      GitSha = Val;
    } else if (Flag == "--src-digest") {
      SrcDigest = Val;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      return usage(("bad number for " + Flag).c_str());
  }
  if (O.Seconds < 1 || O.Seconds > 120)
    return usage("--seconds must be 1..120");

  // Counted before a workload pins its threads to fewer CPUs.
  unsigned Cpus = onlineCpus();
  Result R;
  if (O.Workload == "kv-read" || O.Workload == "kv-write")
    runKv(O, R);
  else if (O.Workload == "ptm-bank")
    runBank(O, R);
  else
    return usage("unknown workload");

  printStamp(O, R, Cpus, GitSha, SrcDigest);
  // Also on stdout, so a harness that keeps only stdout can say why.
  for (const std::string &Why : R.Failures)
    std::printf("# audit failure: %s\n", Why.c_str());
  printResult(R);
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
