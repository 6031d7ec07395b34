//===- perfbench/src/BankBench.cpp - In-process Crafty bank workload ------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// ptm-bank: two threads drive PtmBackend::run on one CraftyRuntime over
// 4096 cache-line accounts (the paper's Figure 6(b) medium contention).
// 80% of transactions are the paper's bank transfer (5 transfers, 10
// writes); 20% read 10 random accounts. No network is involved.
//
// Correctness: money is conserved after the run, and again after a
// simulated power failure and RecoveryObserver recovery; a perturbed
// expected total must then fail that check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Trace.h"

#include "core/Crafty.h"
#include "recovery/Recovery.h"
#include "support/Rng.h"

#include <atomic>
#include <memory>
#include <thread>

using namespace crafty;
using namespace perfbench;

namespace {

constexpr unsigned NumThreads = 2;
constexpr unsigned NumAccounts = 4096;
constexpr unsigned TransfersPerTxn = 5;
constexpr unsigned ReadsPerTxn = 10;
constexpr unsigned ReadOnlyPct = 20;
constexpr uint64_t InitialBalance = 1000000;
constexpr uint64_t SegmentNs = 1000000000ull;

/// Pool, HTM runtime and Crafty runtime of one run (members destroyed in
/// reverse order: the runtime before what it uses).
struct Bank {
  std::unique_ptr<PMemPool> Pool;
  std::unique_ptr<HtmRuntime> Htm;
  std::unique_ptr<CraftyRuntime> Rt;
  uint64_t *Accounts = nullptr;

  uint64_t *account(unsigned I) { return Accounts + (size_t)I * 8; }
  uint64_t total() {
    uint64_t T = 0;
    for (unsigned I = 0; I != NumAccounts; ++I)
      T += *account(I);
    return T;
  }
};

Bank setUpBank(bool PhaseTimings) {
  Bank B;
  PMemConfig PC;
  PC.PoolBytes = 4 << 20;
  PC.Mode = PMemMode::Tracked;
  PC.DrainLatencyNs = 300;
  PC.EvictionPerMillion = 0;
  B.Pool = std::make_unique<PMemPool>(PC);
  B.Htm = std::make_unique<HtmRuntime>(HtmConfig{});
  CraftyConfig CC;
  CC.NumThreads = NumThreads;
  CC.CollectPhaseTimings = PhaseTimings;
  B.Rt = std::make_unique<CraftyRuntime>(*B.Pool, *B.Htm, CC);
  B.Accounts =
      static_cast<uint64_t *>(B.Rt->carve(NumAccounts * CacheLineBytes));
  for (unsigned I = 0; I != NumAccounts; ++I) {
    uint64_t V = InitialBalance;
    B.Pool->persistDirect(B.account(I), &V, sizeof(V));
  }
  return B;
}

/// One worker's measurements.
struct WorkerOut {
  explicit WorkerOut(const Windows &W) : W(W) {}
  Windows W;               ///< Transactions completed in the timed windows.
  uint64_t Attempted = 0;  ///< Transactions run, warm-up included.
  uint64_t BodyStarts = 0; ///< Body executions (traced run only).
};

void worker(Bank &B, unsigned Tid, uint64_t Seed, std::atomic<bool> &Stop,
            TraceBuffer *TB, WorkerOut &Out) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + Tid + 1);
  unsigned From[TransfersPerTxn], To[TransfersPerTxn];
  uint64_t Amount[TransfersPerTxn];
  unsigned Reads[ReadsPerTxn];
  uint64_t Sink = 0;
  PtmBackend &Ptm = *B.Rt;
  while (!Stop.load(std::memory_order_relaxed)) {
    // Inputs are drawn before run(): bodies may execute several times.
    bool ReadOnly = R.nextBounded(100) < ReadOnlyPct;
    if (ReadOnly) {
      for (unsigned &A : Reads)
        A = (unsigned)R.nextBounded(NumAccounts);
    } else {
      for (unsigned I = 0; I != TransfersPerTxn; ++I) {
        From[I] = (unsigned)R.nextBounded(NumAccounts);
        To[I] = (unsigned)((From[I] + 1 + R.nextBounded(NumAccounts - 1)) %
                           NumAccounts);
        Amount[I] = 1 + R.nextBounded(100);
      }
    }
    uint64_t RunId = TB ? TB->newId() : 0;
    uint64_t T0 = nowNs();
    Ptm.run(Tid, [&](TxnContext &Tx) {
      uint64_t B0 = 0;
      if (TB) {
        ++Out.BodyStarts;
        B0 = nowNs();
      }
      if (ReadOnly) {
        uint64_t Sum = 0;
        for (unsigned A : Reads)
          Sum += Tx.load(B.account(A));
        Sink += Sum;
      } else {
        for (unsigned I = 0; I != TransfersPerTxn; ++I) {
          uint64_t *F = B.account(From[I]), *T = B.account(To[I]);
          Tx.store(F, Tx.load(F) - Amount[I]);
          Tx.store(T, Tx.load(T) + Amount[I]);
        }
      }
      if (TB)
        TB->record(SpanPtmBody, TB->newId(), RunId, SpanPtmRun, 0, B0,
                   nowNs());
    });
    uint64_t T1 = nowNs();
    ++Out.Attempted;
    if (TB)
      TB->record(SpanPtmRun, RunId, 0, 0, 0, T0, T1);
    int Win = Out.W.index(T1);
    if (Win >= 0) {
      ++Out.W.Ops[Win];
      (ReadOnly ? Out.W.Reads : Out.W.Writes)[Win].add(T1 - T0);
    }
  }
  (void)Sink;
}

RuntimeCounters readCounters(Bank &B) {
  RuntimeCounters C;
  C.Ptm = B.Rt->txnStats();
  C.Htm = B.Rt->htmStats();
  C.NonTxClockBumps = B.Htm->nonTxClockBumps();
  C.Pm = B.Pool->stats();
  return C;
}

/// Checks the books, crashes, recovers and checks them again; then
/// proves the check can fail by perturbing one balance.
RecoveryOutcome crashAndAudit(Bank &B, TraceBuffer *TB, Result &R) {
  const uint64_t Expected = InitialBalance * NumAccounts;
  RecoveryOutcome Out;
  if (B.total() != Expected)
    R.fail("bank total " + std::to_string(B.total()) + " != " +
           std::to_string(Expected) + " after the run");
  {
    ScopedSpan Sp(TB, SpanCrash);
    B.Pool->crash();
  }
  {
    ScopedSpan Sp(TB, SpanRecover);
    uint64_t T0 = nowNs();
    RecoveryReport Rep = RecoveryObserver::recoverPool(*B.Pool);
    Out.ReplayMs = (nowNs() - T0) * 1e-6;
    Out.RolledBack = Rep.SequencesRolledBack;
    if (!Rep.HeaderValid)
      R.fail("recovery found no valid pool header");
  }
  ScopedSpan Sp(TB, SpanAudit);
  uint64_t After = B.total();
  if (After != Expected)
    R.fail("bank total " + std::to_string(After) + " != " +
           std::to_string(Expected) + " after crash + recovery");
  *B.account(NumAccounts / 2) += 1;
  if (B.total() == Expected)
    R.fail("audit self-check: a perturbed balance went unnoticed");
  *B.account(NumAccounts / 2) -= 1;
  return Out;
}

/// What one phase of one-second segments measured.
struct PhaseOut {
  explicit PhaseOut(unsigned Segments) : W(Segments, 0, SegmentNs) {}
  Windows W; ///< Window I holds segment I.
  uint64_t Attempted = 0, BodyStarts = 0;
  RuntimeCounters Counters; ///< Summed over the segments' runtimes.
  std::vector<double> SetupS, ReplayMs;
  uint64_t RolledBack = 0;
};

/// Runs \p Segments segments. Each builds a fresh runtime, starts fresh
/// workers, warms up, measures one one-second window, then crashes,
/// recovers and audits. On a shared host, where threads and memory land
/// moves a whole process's latency by tens of percent; rebuilding every
/// second samples that placement anew, and the reported figures are
/// medians over segments. Spans go to \p Tr when it is non-null.
PhaseOut runPhase(uint64_t Seed, unsigned Segments, bool PhaseTimings,
                  Tracer *Tr, HostMonitor *Host, Result &R) {
  PhaseOut P(Segments);
  TraceBuffer *TB = Tr ? Tr->buffer(0) : nullptr;
  for (unsigned Seg = 0; Seg != Segments; ++Seg) {
    if (Host)
      Host->beforeSegment();
    Bank B;
    {
      ScopedSpan Sp(TB, SpanSetupPool);
      uint64_t T0 = nowNs();
      B = setUpBank(PhaseTimings);
      P.SetupS.push_back(seconds(nowNs() - T0));
    }
    RuntimeCounters Before = readCounters(B);
    uint64_t Start = nowNs() + SegmentWarmupNs;
    Windows SegW(1, Start, SegmentNs);
    std::atomic<bool> Stop{false};
    std::vector<WorkerOut> Outs(NumThreads, WorkerOut(SegW));
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back(worker, std::ref(B), T, Seed * Segments + Seg,
                           std::ref(Stop), Tr ? Tr->buffer(T + 1) : nullptr,
                           std::ref(Outs[T]));
    uint64_t End = Start + SegmentNs;
    while (nowNs() < End)
      std::this_thread::sleep_for(std::chrono::nanoseconds(End - nowNs()));
    Stop.store(true);
    for (std::thread &Th : Threads)
      Th.join();
    for (const WorkerOut &O : Outs) {
      SegW.merge(O.W);
      P.Attempted += O.Attempted;
      P.BodyStarts += O.BodyStarts;
    }
    P.W.Ops[Seg] = SegW.Ops[0];
    P.W.Reads[Seg] = SegW.Reads[0];
    P.W.Writes[Seg] = SegW.Writes[0];
    P.Counters += readCounters(B).since(Before);
    RecoveryOutcome Rec = crashAndAudit(B, TB, R);
    P.ReplayMs.push_back(Rec.ReplayMs);
    P.RolledBack += Rec.RolledBack;
  }
  return P;
}

} // namespace

void perfbench::runBank(const Options &O, Result &R) {
  R.param("flush_policy", "PMemMode::Tracked, DrainLatencyNs=300, eviction "
                          "off, no persist barriers");
  R.param("threads", NumThreads);
  R.param("accounts", NumAccounts);
  R.param("transfers_per_txn", TransfersPerTxn);
  R.param("reads_per_readonly_txn", ReadsPerTxn);
  R.param("readonly_pct", ReadOnlyPct);
  R.param("segments", segments(O));
  R.param("segment_warmup_s", "0.25");

  HostMonitor Host;
  Tracer Tr(O.Trace);
  // A traced run splits its segments between an untraced phase and a
  // traced one; the traced phase also collects Crafty phase timings, a
  // construction-time setting.
  unsigned Segments = segments(O);
  PhaseOut Main = runPhase(O.Seed, Segments, /*PhaseTimings=*/false,
                           nullptr, &Host, R);
  R.Attempted += Main.Attempted;
  Host.stamp(R);
  if (!O.Trace) {
    addWindowedMetrics(R, Main.W);
    R.add("setup_s", median(Main.SetupS), "s");
    R.add("rss_mb", peakRssMb(), "MB");
    return;
  }
  PhaseOut Traced = runPhase(O.Seed, Segments, /*PhaseTimings=*/true, &Tr,
                             nullptr, R);
  R.Attempted += Traced.Attempted;
  const RuntimeCounters &D = Traced.Counters;

  LayerValues V;
  double Txns = (double)D.Ptm.transactions();
  addRuntimeLayers(V, D, Txns, /*Barriers=*/0);
  V["core.body_runs_per_txn"] = ratio(Traced.BodyStarts, Txns);
  TraceBuffer::NameAgg Run = Tr.total(SpanPtmRun);
  V["core.overhead_us_per_txn"] =
      ratio((Run.TotalNs - Run.ChildNs) * 1e-3, (double)Run.Count);
  V["recovery.replay_ms"] = median(Traced.ReplayMs);
  V["recovery.sequences_rolled_back"] =
      ratio(Traced.RolledBack, (double)Segments);
  V["trace.overhead_frac"] = 1.0 - Traced.W.rate() / Main.W.rate();
  emitPerLayer(R, V);

  std::printf("# traced phase: %.0f transactions, %.0f txn/s traced vs %.0f "
              "untraced\n",
              Txns, Traced.W.rate(), Main.W.rate());
  Tr.printSummary();
  if (!O.TraceOut.empty() && !Tr.write(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
}
