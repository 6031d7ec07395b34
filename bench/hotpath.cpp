//===- bench/hotpath.cpp - Hot-path perf-trajectory benchmark -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Machine-readable hot-path benchmark: one committed persistent
// transaction per operation, wall-clock timed, emitted as JSON so every
// PR can append a trajectory point to BENCH_hotpath.json and the
// project's "as fast as the hardware allows" goal has a measured history.
//
// Three transaction shapes bracket the hot paths the runtime optimizes:
//
//  - bank_10w:     10 writes to distinct cache lines (the micro_ops /
//                  Figure 6 bank profile) -- undo staging, rollback and
//                  two hardware transactions per op on Crafty.
//  - ssca2_2w:     2 writes (the Figure 8 ssca2 profile) -- fixed
//                  per-transaction overhead dominates.
//  - btree_lookup: 16 strided reads, 1 write every 16th op (a B+tree
//                  lookup-heavy mix) -- the read-only fast path and the
//                  write-set-empty load path dominate.
//
// Persist latency is emulated at zero and (except for checker rows) the
// pool runs in latency-only mode: the bench isolates instruction-path
// cost, which is what hot-path PRs change; figure-level orderings with
// realistic persist latency remain the harness benches' job.
//
// Output schema (see README "Hot-path perf trajectory"):
//   {"schema": "crafty-hotpath-bench-v1", "points": [
//      {"label": ..., "ops_scale": ..., "host": {...}, "results": [
//         {"shape": ..., "system": ..., "threads": N, "checkers": bool,
//          "ops": N, "ns_per_op": X, "ops_per_sec": Y,
//          "clwb_calls": N, "lines_scheduled": N, "drains": N,
//          "empty_drains": N}, ...]}, ...]}
// (the flush counters appear on points recorded since the coalescing
// layer landed; earlier points lack them).
//
// Usage: hotpath [--label NAME] [--out FILE | --append FILE]
//                [--stats-out FILE]
//   --out       write a fresh single-point trajectory file
//   --append    splice the point into FILE's points array (creating FILE
//               if absent); this is how BENCH_hotpath.json accumulates
//   --stats-out additionally write a crafty-flush-stats-v1 JSON with the
//               per-cell flush counters and coalescing ratios (the CI
//               perf-smoke artifact)
// CRAFTY_BENCH_OPS_SCALE scales the per-cell operation counts.
//
//===----------------------------------------------------------------------===//

#include "HostStamp.h"
#include "baselines/Factory.h"
#include "core/Crafty.h"
#include "support/Clock.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace crafty;

namespace {

constexpr unsigned WordsPerLine = CacheLineBytes / 8;

struct Shape {
  const char *Name;
  unsigned WritesPerOp; // Upper bound; sizes the baselines' redo logs.
  uint64_t BaseOps;
};

const Shape Shapes[] = {
    {"bank_10w", 10, 20000},
    {"ssca2_2w", 2, 40000},
    {"btree_lookup", 1, 40000},
};

struct Cell {
  SystemKind System;
  unsigned Threads;
  bool Checkers;
};

// Crafty + baselines single-threaded; Crafty again with both dynamic
// checkers attached (their "on" cost is part of the trajectory) and on a
// 1/2/4/8-thread sweep, where commit-time read-set validation and the
// contention machinery (backoff, snapshot extension, clock elision)
// actually run (single-threaded commits are serialization-adjacent to
// their snapshot and skip validation).
const Cell Cells[] = {
    {SystemKind::NonDurable, 1, false}, {SystemKind::DudeTm, 1, false},
    {SystemKind::NvHtm, 1, false},      {SystemKind::Crafty, 1, false},
    {SystemKind::Crafty, 1, true},      {SystemKind::Crafty, 2, false},
    {SystemKind::Crafty, 4, false},     {SystemKind::Crafty, 8, false},
};

double opsScale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read before threads spawn.
  if (const char *Scale = std::getenv("CRAFTY_BENCH_OPS_SCALE")) {
    double F = std::atof(Scale);
    if (F > 0)
      return F;
  }
  return 1.0;
}

struct CellResult {
  const char *ShapeName;
  const char *SystemName;
  unsigned Threads;
  bool Checkers;
  uint64_t Ops;
  double NsPerOp;
  double OpsPerSec;
  /// Flush-pipeline counters for the whole cell (PMemPool::stats()):
  /// requests vs write-backs actually scheduled after coalescing, and
  /// drain traffic split into useful and empty fences.
  PMemStats Flush;
  /// Aggregated hardware-transaction and persistent-transaction counters
  /// (abort causes, clock bumps, SGL waits) for the contention columns of
  /// the --stats-out report.
  HtmStats Htm;
  PtmStats Txn;
  /// Global-clock advances taken outside hardware transactions (chunked
  /// writebacks, rollbacks, SGL release) over the cell.
  uint64_t NonTxClockBumps;
};

CellResult runCell(const Shape &S, const Cell &C, uint64_t Ops) {
  // Per-thread data: bank/ssca2 write disjoint lines (the contention-free
  // shape isolates per-access cost; conflicts are the figure benches'
  // subject), btree_lookup reads a shared array.
  constexpr unsigned DataLinesPerThread = 64;
  constexpr unsigned LookupLines = 4096;

  size_t RedoBudget =
      (size_t)Ops * (S.WritesPerOp + 2) * 32 + (1 << 20);
  PMemConfig PC;
  PC.PoolBytes = (64ull << 20) + (uint64_t)RedoBudget * (C.Threads + 1) +
                 (uint64_t)LookupLines * CacheLineBytes;
  // Checker rows need tracked line state (PersistCheck audits real CLWB
  // and eviction traffic); plain rows run latency-only.
  PC.Mode = C.Checkers ? PMemMode::Tracked : PMemMode::LatencyOnly;
  PC.DrainLatencyNs = 0;
  PC.MaxThreads = C.Threads + 4;
  PMemPool Pool(PC);
  HtmRuntime Htm((HtmConfig()));

  BackendOptions BO;
  BO.NumThreads = C.Threads;
  BO.EnablePersistCheck = C.Checkers;
  BO.EnableTxRaceCheck = C.Checkers;
  BO.NvHtmLogBytesPerThread =
      std::max<size_t>(BO.NvHtmLogBytesPerThread, RedoBudget);
  BO.DudeTmLogBytesTotal = std::max<size_t>(BO.DudeTmLogBytesTotal,
                                            RedoBudget * C.Threads);
  std::unique_ptr<PtmBackend> Backend = createBackend(C.System, Pool, Htm, BO);

  auto *Data = static_cast<uint64_t *>(Pool.carve(
      (size_t)C.Threads * DataLinesPerThread * CacheLineBytes));
  auto *Lookup =
      static_cast<uint64_t *>(Pool.carve(LookupLines * CacheLineBytes));

  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != C.Threads; ++T) {
    Threads.emplace_back([&, T] {
      uint64_t *Mine = Data + (size_t)T * DataLinesPerThread * WordsPerLine;
      Ready.fetch_add(1, std::memory_order_release);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      if (std::strcmp(S.Name, "bank_10w") == 0) {
        for (uint64_t I = 0; I != Ops; ++I)
          Backend->run(T, [&](TxnContext &Tx) {
            for (unsigned W = 0; W != 10; ++W)
              Tx.store(&Mine[W * WordsPerLine], I + W);
          });
      } else if (std::strcmp(S.Name, "ssca2_2w") == 0) {
        for (uint64_t I = 0; I != Ops; ++I)
          Backend->run(T, [&](TxnContext &Tx) {
            Tx.store(&Mine[(I % 32) * WordsPerLine], I);
            Tx.store(&Mine[(I % 32 + 32) * WordsPerLine], I + 1);
          });
      } else { // btree_lookup
        for (uint64_t I = 0; I != Ops; ++I) {
          uint64_t Root = (I * 2654435761ull) % LookupLines;
          Backend->run(T, [&](TxnContext &Tx) {
            uint64_t Sum = 0;
            for (unsigned D = 0; D != 16; ++D)
              Sum += Tx.load(
                  &Lookup[((Root + D * 37) % LookupLines) * WordsPerLine]);
            if (I % 16 == 0)
              Tx.store(&Mine[(I / 16 % DataLinesPerThread) * WordsPerLine],
                       Sum + I);
          });
        }
      }
    });
  }
  while (Ready.load(std::memory_order_acquire) != C.Threads)
    std::this_thread::yield();
  uint64_t T0 = monotonicNanos();
  Go.store(true, std::memory_order_release);
  for (auto &Th : Threads)
    Th.join();
  Backend->quiesce();
  uint64_t T1 = monotonicNanos();

  CellResult R;
  R.ShapeName = S.Name;
  R.SystemName = Backend->name();
  R.Threads = C.Threads;
  R.Checkers = C.Checkers;
  R.Ops = Ops * C.Threads;
  R.NsPerOp = R.Ops ? (double)(T1 - T0) / (double)R.Ops : 0;
  R.OpsPerSec = T1 > T0 ? (double)R.Ops * 1e9 / (double)(T1 - T0) : 0;
  R.Flush = Pool.stats();
  R.Htm = Backend->htmStats();
  R.Txn = Backend->txnStats();
  R.NonTxClockBumps = Htm.nonTxClockBumps();
  return R;
}

std::string formatPoint(const std::string &Label, double Scale,
                        const std::vector<CellResult> &Results) {
  std::string Out;
  JsonWriter W(Out, JsonWriter::Pretty, TrajectoryPointDepth);
  W.beginObject()
      .field("label", Label)
      .field("ops_scale", Scale);
  writeHostStamp(W);
  W.key("results")
      .beginArray();
  for (const CellResult &R : Results)
    W.beginObject(/*Inline=*/true)
        .field("shape", R.ShapeName)
        .field("system", R.SystemName)
        .field("threads", R.Threads)
        .field("checkers", R.Checkers)
        .field("ops", R.Ops)
        .field("ns_per_op", R.NsPerOp, 1)
        .field("ops_per_sec", R.OpsPerSec, 0)
        .field("clwb_calls", R.Flush.ClwbCalls)
        .field("lines_scheduled", R.Flush.LinesScheduled)
        .field("drains", R.Flush.Drains)
        .field("empty_drains", R.Flush.EmptyDrains)
        .endObject();
  W.endArray().endObject();
  return Out;
}

/// Standalone flush- and contention-counter report (--stats-out): the
/// same cells with per-operation flush rates, the coalescing ratio,
/// per-cause abort counts and the clock-bump-per-commit ratio, for the
/// CI artifact alongside the trajectory point.
std::string formatStats(const std::string &Label, double Scale,
                        const std::vector<CellResult> &Results) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject()
      .field("schema", "crafty-flush-stats-v1")
      .field("label", Label)
      .field("ops_scale", Scale)
      .key("results")
      .beginArray();
  for (const CellResult &R : Results) {
    double Ops = R.Ops ? (double)R.Ops : 1.0;
    double Coalesced =
        R.Flush.ClwbCalls
            ? 1.0 - (double)R.Flush.LinesScheduled / (double)R.Flush.ClwbCalls
            : 0.0;
    // Contention columns: abort taxonomy, fallback serialization and
    // clock pressure. Clock bumps count both in-transaction commit bumps
    // and the non-transactional ones (chunked batches, SGL release);
    // read-only clock elision shows up as a ratio below 1.
    uint64_t Txns = R.Txn.transactions();
    double BumpsPerCommit =
        Txns ? (double)(R.Htm.ClockBumps + R.NonTxClockBumps) / (double)Txns
             : 0.0;
    W.beginObject(/*Inline=*/true)
        .field("shape", R.ShapeName)
        .field("system", R.SystemName)
        .field("threads", R.Threads)
        .field("checkers", R.Checkers)
        .field("clwb_calls", R.Flush.ClwbCalls)
        .field("lines_scheduled", R.Flush.LinesScheduled)
        .field("drains", R.Flush.Drains)
        .field("empty_drains", R.Flush.EmptyDrains)
        .field("clwb_calls_per_op", (double)R.Flush.ClwbCalls / Ops, 2)
        .field("lines_scheduled_per_op",
               (double)R.Flush.LinesScheduled / Ops, 2)
        .field("coalesced_fraction", Coalesced, 3)
        .field("aborts_conflict", R.Htm.AbortConflict)
        .field("aborts_capacity", R.Htm.AbortCapacity)
        .field("aborts_explicit", R.Htm.AbortExplicit)
        .field("aborts_zero", R.Htm.AbortZero)
        .field("sgl_commits", R.Txn.Sgl)
        .field("sgl_waits", R.Txn.SglWaits)
        .field("snapshot_extensions", R.Htm.SnapshotExtensions)
        .field("clock_bumps", R.Htm.ClockBumps)
        .field("nontx_clock_bumps", R.NonTxClockBumps)
        .field("clock_bumps_per_commit", BumpsPerCommit, 3)
        .endObject();
  }
  W.endArray().endObject();
  Out += '\n';
  return Out;
}

/// Report-only scaling sanity check (the CI perf-smoke gate): 2-thread
/// Crafty bank_10w throughput should not fall below 1-thread. On 1-core
/// runners oversubscription makes this expected, so the check warns
/// rather than fails.
void checkScaling(const std::vector<CellResult> &Results) {
  for (const char *ShapeName : {"bank_10w"}) {
    double Ops1 = 0, Ops2 = 0;
    for (const CellResult &R : Results) {
      if (std::strcmp(R.ShapeName, ShapeName) != 0 || R.Checkers ||
          std::strcmp(R.SystemName, "Crafty") != 0)
        continue;
      if (R.Threads == 1)
        Ops1 = R.OpsPerSec;
      else if (R.Threads == 2)
        Ops2 = R.OpsPerSec;
    }
    if (Ops1 > 0 && Ops2 > 0 && Ops2 < Ops1)
      std::fprintf(stderr,
                   "hotpath: SCALING-WARNING %s: 2-thread Crafty "
                   "%.0f ops/s < 1-thread %.0f ops/s (report-only; "
                   "expected on single-core runners)\n",
                   ShapeName, Ops2, Ops1);
  }
}

constexpr const char *Schema = "crafty-hotpath-bench-v1";
constexpr const char *Unit = "ns_per_op = wall nanoseconds per committed "
                             "transaction; drain latency 0";

} // namespace

int main(int argc, char **argv) {
  std::string Label = "unlabeled";
  std::string OutPath, AppendPath, StatsPath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "hotpath: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--label")
      Label = Next();
    else if (Arg == "--out")
      OutPath = Next();
    else if (Arg == "--append")
      AppendPath = Next();
    else if (Arg == "--stats-out")
      StatsPath = Next();
    else {
      std::fprintf(stderr,
                   "usage: hotpath [--label NAME] [--out FILE | --append "
                   "FILE] [--stats-out FILE]\n");
      return 2;
    }
  }

  double Scale = opsScale();
  std::vector<CellResult> Results;
  for (const Shape &S : Shapes) {
    uint64_t Ops = (uint64_t)((double)S.BaseOps * Scale);
    if (Ops == 0)
      Ops = 1;
    for (const Cell &C : Cells) {
      // Checker rows run a fraction of the ops: the checkers' shadow
      // bookkeeping is O(accesses) and their absolute ns/op would
      // otherwise dominate wall time without adding information.
      uint64_t CellOps = C.Checkers ? std::max<uint64_t>(Ops / 10, 1) : Ops;
      CellResult R = runCell(S, C, CellOps);
      std::fprintf(stderr, "%-14s %-18s t=%u checkers=%d  %9.1f ns/op\n",
                   R.ShapeName, R.SystemName, R.Threads, (int)R.Checkers,
                   R.NsPerOp);
      Results.push_back(R);
    }
  }
  checkScaling(Results);

  if (!StatsPath.empty()) {
    if (!writeTextFile(StatsPath, formatStats(Label, Scale, Results)))
      return 1;
    std::fprintf(stderr, "wrote flush stats to %s\n", StatsPath.c_str());
  }

  std::string Point = formatPoint(Label, Scale, Results);
  if (!AppendPath.empty()) {
    if (!appendTrajectoryPoint(AppendPath, Schema, Unit, Point)) {
      std::fprintf(stderr, "hotpath: cannot append to %s (not a %s file?)\n",
                   AppendPath.c_str(), Schema);
      return 1;
    }
    std::fprintf(stderr, "appended point '%s' to %s\n", Label.c_str(),
                 AppendPath.c_str());
  } else if (!OutPath.empty()) {
    if (!writeTextFile(OutPath, trajectoryDocument(Schema, Unit, Point)))
      return 1;
    std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  } else {
    std::fputs(trajectoryDocument(Schema, Unit, Point).c_str(), stdout);
  }
  return 0;
}
