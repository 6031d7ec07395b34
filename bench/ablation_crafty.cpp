//===- bench/ablation_crafty.cpp - Crafty design-choice ablations ---------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Ablations of the design choices DESIGN.md calls out:
//   1. The chunked-mode initial k (Section 4.4): persist-latency
//      amortization versus abort exposure, measured on a capacity-bound
//      transaction that always runs under the SGL.
//   2. Undo-log size: smaller circular logs trigger the Section 5.2
//      half-log checks (and forced commits) more often.
//   3. Conflict-detection granularity: cache-line (HTM-faithful) versus
//      word (no false sharing).
//   4. Hardware write capacity: how much of the workload falls back to
//      the SGL as the emulated write set shrinks.
//
//===----------------------------------------------------------------------===//

#include "core/Crafty.h"
#include "harness/Harness.h"
#include "support/Clock.h"

using namespace crafty;

namespace {

double timedSglTransaction(unsigned InitialK, unsigned Repeat) {
  PMemConfig PC;
  PC.PoolBytes = 64 << 20;
  PC.DrainLatencyNs = 300;
  PMemPool Pool(PC);
  HtmConfig HC;
  HC.MaxWriteSetLines = 16; // Capacity-bound: always chunked.
  HtmRuntime Htm(HC);
  CraftyConfig CC;
  CC.NumThreads = 1;
  CC.InitialChunkK = InitialK;
  CC.SglAttemptThreshold = 1;
  CraftyRuntime Rt(Pool, Htm, CC);
  auto *Data = static_cast<uint64_t *>(Rt.carve(256 * CacheLineBytes));
  uint64_t T0 = monotonicNanos();
  for (unsigned R = 0; R != Repeat; ++R)
    Rt.run(0, [&](TxnContext &Tx) {
      for (unsigned I = 0; I != 128; ++I) // One line per write.
        Tx.store(&Data[I * 8], R + I);
    });
  return (double)(monotonicNanos() - T0) * 1e-3 / Repeat;
}

void ablateChunkK() {
  std::printf("\n-- Ablation 1: chunked-mode initial k (128-write "
              "transaction, write capacity 16 lines, 300 ns drain) --\n");
  std::printf("%-10s %14s\n", "initial k", "usec per txn");
  for (unsigned K : {1u, 2u, 4u, 8u, 16u, 64u})
    std::printf("%-10u %14.1f\n", K, timedSglTransaction(K, 40));
}

double timedSmallLog(size_t LogEntries, uint64_t MaxLag) {
  PMemConfig PC;
  PC.PoolBytes = 64 << 20;
  PC.DrainLatencyNs = 300;
  PC.MaxThreads = 8;
  PMemPool Pool(PC);
  HtmRuntime Htm((HtmConfig()));
  CraftyConfig CC;
  CC.NumThreads = 2;
  CC.LogEntriesPerThread = LogEntries;
  CC.MaxLag = MaxLag;
  CraftyRuntime Rt(Pool, Htm, CC);
  auto *Data = static_cast<uint64_t *>(Rt.carve(CacheLineBytes));
  constexpr unsigned Ops = 4000;
  uint64_t T0 = monotonicNanos();
  for (unsigned I = 0; I != Ops; ++I)
    Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(&Data[0], Tx.load(&Data[0]) + 1);
      Tx.store(&Data[1], I);
    });
  return (double)(monotonicNanos() - T0) * 1e-3 / Ops;
}

void ablateLogSize() {
  std::printf("\n-- Ablation 2: circular-log size and MAX_LAG (2-write "
              "transactions; smaller logs and tighter lag run the "
              "Section 5.2 checks more often) --\n");
  std::printf("%-14s %-14s %14s\n", "log entries", "MAX_LAG",
              "usec per txn");
  for (size_t Entries : {64ul, 256ul, 4096ul, 16384ul})
    std::printf("%-14zu %-14s %14.2f\n", Entries, "default",
                timedSmallLog(Entries, CraftyConfig().MaxLag));
  for (uint64_t Lag : {64ull, 1024ull})
    std::printf("%-14zu %-14llu %14.2f\n", 16384ul,
                (unsigned long long)Lag, timedSmallLog(16384, Lag));
}

void ablateGranularity() {
  std::printf("\n-- Ablation 3: conflict-detection granularity on "
              "bank (high contention), 4 threads --\n");
  std::printf("%-10s %16s %16s\n", "shift", "ops/sec", "hw conflicts");
  for (unsigned Shift : {6u, 3u}) {
    ExperimentConfig C;
    C.Workload = WorkloadKind::BankHigh;
    C.System = SystemKind::Crafty;
    C.Threads = 4;
    C.OpsPerThread = 1500;
    C.DrainLatencyNs = 0;
    C.Htm.ConflictGranularityShift = Shift;
    ExperimentResult R = runExperiment(C);
    std::printf("%-10s %16.0f %16llu\n",
                Shift == 6 ? "line (64B)" : "word (8B)", R.OpsPerSecond,
                (unsigned long long)R.Hw.AbortConflict);
  }
}

void ablateWriteCapacity() {
  std::printf("\n-- Ablation 4: emulated HTM write capacity on the "
              "labyrinth kernel (long transactions) --\n");
  std::printf("%-12s %14s %14s %14s\n", "lines", "ops/sec", "sgl txns",
              "capacity aborts");
  for (size_t Lines : {64ul, 128ul, 256ul, 512ul}) {
    ExperimentConfig C;
    C.Workload = WorkloadKind::Labyrinth;
    C.System = SystemKind::Crafty;
    C.Threads = 2;
    C.OpsPerThread = 60;
    C.DrainLatencyNs = 0;
    C.Htm.MaxWriteSetLines = Lines;
    ExperimentResult R = runExperiment(C);
    std::printf("%-12zu %14.0f %14llu %14llu\n", Lines, R.OpsPerSecond,
                (unsigned long long)R.Txn.Sgl,
                (unsigned long long)R.Hw.AbortCapacity);
  }
}

} // namespace

int main() {
  std::printf("Crafty design-choice ablations\n");
  ablateChunkK();
  ablateLogSize();
  ablateGranularity();
  ablateWriteCapacity();
  return 0;
}
