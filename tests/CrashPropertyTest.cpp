//===- tests/CrashPropertyTest.cpp - Crash-consistency properties ---------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Property-based crash-consistency tests (DESIGN.md Section 5): random
// multithreaded transaction histories run in tracked persistent memory
// under randomized spontaneous cache eviction; the pool then crashes and
// the recovery observer repairs it. Afterwards:
//
//  (a) every transaction is all-or-nothing (the bank total is conserved
//      and per-account deltas are transfer-consistent);
//  (b) a monotone side structure is a clean prefix (the recovered state
//      corresponds to a serialization prefix);
//  (c) a second crash+recovery immediately after is a no-op fixpoint.
//
// The sweep is parameterized over Crafty variants, thread counts, log
// sizes, MAX_LAG settings and eviction rates, across several seeds each.
//
//===----------------------------------------------------------------------===//

#include "core/Crafty.h"
#include "recovery/Recovery.h"

#include "gtest/gtest.h"

#include <thread>
#include <tuple>
#include <vector>

using namespace crafty;

namespace {

struct CrashParams {
  const char *Name;
  unsigned Threads;
  size_t LogEntries;
  uint64_t MaxLag; // 0 = default (effectively off).
  uint32_t EvictionPerMillion;
  bool DisableRedo;
  bool DisableValidate;
  /// Write lines back at CLWB issue time (the earliest legal instant):
  /// any flush the coalescing filter wrongly suppressed after a re-dirty
  /// becomes lost data here, so recovery would fail loudly.
  bool EagerWriteback = false;
};

const CrashParams ParamTable[] = {
    {"single_thread", 1, 1 << 10, 0, 30000, false, false},
    {"two_threads", 2, 1 << 10, 0, 30000, false, false},
    {"four_threads", 4, 1 << 10, 0, 30000, false, false},
    // 8 threads: snapshot extension and abort backoff fire under real
    // contention, feeding the crash/recovery sweep through the
    // contention-optimized commit paths.
    {"eight_threads", 8, 1 << 10, 0, 30000, false, false},
    {"tiny_log_wraparound", 2, 128, 0, 30000, false, false},
    {"tight_maxlag", 3, 1 << 10, 32, 30000, false, false},
    {"no_redo_variant", 3, 1 << 10, 0, 30000, true, false},
    {"no_validate_variant", 3, 1 << 10, 0, 30000, false, true},
    {"heavy_eviction", 3, 1 << 10, 0, 200000, false, false},
    {"no_eviction", 3, 1 << 10, 0, 0, false, false},
    {"eager_writeback", 3, 1 << 10, 0, 30000, false, false, true},
    {"eager_writeback_tiny_log", 2, 128, 0, 30000, false, false, true},
};

class CrashProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CrashProperty, RecoveredStateIsConsistent) {
  const CrashParams &P = ParamTable[std::get<0>(GetParam())];
  uint64_t Seed = std::get<1>(GetParam());

  PMemConfig PC;
  PC.PoolBytes = 8 << 20;
  PC.Mode = PMemMode::Tracked;
  PC.DrainLatencyNs = 0;
  PC.EvictionPerMillion = P.EvictionPerMillion;
  PC.EvictionSeed = Seed * 31 + 7;
  PC.EagerWriteback = P.EagerWriteback;
  PMemPool Pool(PC);
  HtmRuntime Htm{HtmConfig{}};
  CraftyConfig CC;
  CC.NumThreads = P.Threads;
  CC.LogEntriesPerThread = P.LogEntries;
  if (P.MaxLag)
    CC.MaxLag = P.MaxLag;
  CC.DisableRedo = P.DisableRedo;
  CC.DisableValidate = P.DisableValidate;
  CraftyRuntime Rt(Pool, Htm, CC);

  constexpr unsigned NumAccounts = 24;
  constexpr uint64_t Initial = 500;
  auto *Accounts =
      static_cast<uint64_t *>(Rt.carve(NumAccounts * CacheLineBytes));
  // One monotone per-thread journal word: each committed txn writes its
  // op index, so the recovered value names a serialization prefix.
  auto *Journal =
      static_cast<uint64_t *>(Rt.carve(P.Threads * CacheLineBytes));
  for (unsigned I = 0; I != NumAccounts; ++I) {
    uint64_t V = Initial;
    Pool.persistDirect(&Accounts[I * 8], &V, sizeof(V));
  }

  const int OpsPerThread = 300;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != P.Threads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(Seed * 1000003 + T);
      for (int I = 0; I != OpsPerThread; ++I) {
        unsigned From = (unsigned)R.nextBounded(NumAccounts);
        unsigned To = (unsigned)((From + 1 + R.nextBounded(NumAccounts - 1)) %
                                 NumAccounts);
        uint64_t Amount = 1 + R.nextBounded(9);
        Rt.run(T, [&](TxnContext &Tx) {
          // The From account is debited in two steps so every transaction
          // repeats a store to the same word, exercising Log-phase undo
          // coalescing in the crash/recovery sweep.
          Tx.store(&Accounts[From * 8], Tx.load(&Accounts[From * 8]) - 1);
          Tx.store(&Accounts[From * 8],
                   Tx.load(&Accounts[From * 8]) - (Amount - 1));
          Tx.store(&Accounts[To * 8], Tx.load(&Accounts[To * 8]) + Amount);
          Tx.store(&Journal[T * 8], (uint64_t)I + 1);
        });
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();

  Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(Pool);
  ASSERT_TRUE(Rep.HeaderValid);

  // (a) Conservation: partial transactions would break the total.
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumAccounts; ++I)
    Total += Accounts[I * 8];
  EXPECT_EQ(Total, Initial * NumAccounts) << P.Name << " seed " << Seed;

  // (b) Prefix: journals never exceed the issued op count, and with a
  // tight MAX_LAG the recovered prefix must be near the crash point.
  for (unsigned T = 0; T != P.Threads; ++T) {
    EXPECT_LE(Journal[T * 8], (uint64_t)OpsPerThread);
    if (P.MaxLag && P.MaxLag <= 64) {
      EXPECT_GE(Journal[T * 8], (uint64_t)OpsPerThread / 2)
          << "MAX_LAG must bound rollback (" << P.Name << ")";
    }
  }

  // (c) Crash + recovery again: already-consistent state is a fixpoint.
  Pool.crash();
  RecoveryReport Rep2 = RecoveryObserver::recoverPool(Pool);
  EXPECT_EQ(Rep2.SequencesFound, 0u) << "logs were zeroed by recovery";
  uint64_t Total2 = 0;
  for (unsigned I = 0; I != NumAccounts; ++I)
    Total2 += Accounts[I * 8];
  EXPECT_EQ(Total2, Total);
}

std::string crashName(
    const ::testing::TestParamInfo<CrashProperty::ParamType> &Info) {
  return std::string(ParamTable[std::get<0>(Info.param)].Name) + "_seed" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashProperty,
    ::testing::Combine(::testing::Range(0, (int)std::size(ParamTable)),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)),
    crashName);

// Continuing to run after a crash and recovery must work: the runtime's
// volatile log cursors point past the zeroed log, which decodes cleanly.
TEST(CrashRestart, RuntimeContinuesAfterRecovery) {
  PMemConfig PC;
  PC.PoolBytes = 8 << 20;
  PC.Mode = PMemMode::Tracked;
  PC.DrainLatencyNs = 0;
  PMemPool Pool(PC);
  HtmRuntime Htm{HtmConfig{}};
  CraftyConfig CC;
  CC.NumThreads = 1;
  CC.LogEntriesPerThread = 256;
  CraftyRuntime Rt(Pool, Htm, CC);
  auto *Counter = static_cast<uint64_t *>(Rt.carve(64));
  for (int I = 0; I != 50; ++I)
    Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  Pool.crash();
  RecoveryObserver::recoverPool(Pool);
  uint64_t AfterFirst = *Counter;
  EXPECT_EQ(AfterFirst, 49u);
  // Keep going with the same runtime (its head cursor is volatile state
  // that survived the simulated power failure only because the process
  // did; a real restart would attach fresh).
  for (int I = 0; I != 50; ++I)
    Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  Pool.crash();
  RecoveryObserver::recoverPool(Pool);
  EXPECT_EQ(*Counter, AfterFirst + 49);
}

} // namespace

namespace {

// A full restart: crash, recover, then attach a *fresh* runtime (new HTM
// runtime, new thread contexts) to the surviving pool and keep working.
TEST(CrashRestart, AttachAfterRecovery) {
  PMemConfig PC;
  PC.PoolBytes = 8 << 20;
  PC.Mode = PMemMode::Tracked;
  PC.DrainLatencyNs = 0;
  PMemPool Pool(PC);
  CraftyConfig CC;
  CC.NumThreads = 2;
  CC.LogEntriesPerThread = 256;
  uint64_t *Counter = nullptr;
  {
    HtmRuntime Htm{HtmConfig{}};
    CraftyRuntime Rt(Pool, Htm, CC);
    Counter = static_cast<uint64_t *>(Rt.carve(64));
    for (int I = 0; I != 40; ++I)
      Rt.run(0, [&](TxnContext &Tx) {
        Tx.store(Counter, Tx.load(Counter) + 1);
      });
    Pool.crash(); // The first "process" dies here.
  }
  RecoveryReport Rep = RecoveryObserver::recoverPool(Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  EXPECT_EQ(*Counter, 39u);
  // Second "process": fresh HTM runtime, attach to the existing layout.
  HtmRuntime Htm2{HtmConfig{}};
  std::unique_ptr<CraftyRuntime> Rt2 = CraftyRuntime::attach(Pool, Htm2, CC);
  for (int I = 0; I != 40; ++I)
    Rt2->run(1, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  Pool.crash();
  RecoveryObserver::recoverPool(Pool);
  EXPECT_EQ(*Counter, 39u + 39u);
}

TEST(CrashRestartDeath, AttachRejectsMismatchedGeometry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        PMemConfig PC;
        PC.PoolBytes = 4 << 20;
        PC.Mode = PMemMode::Tracked;
        PMemPool Pool(PC);
        CraftyConfig CC;
        CC.NumThreads = 2;
        CC.LogEntriesPerThread = 256;
        HtmRuntime Htm{HtmConfig{}};
        CraftyRuntime Rt(Pool, Htm, CC);
        CC.LogEntriesPerThread = 512; // Wrong geometry.
        HtmRuntime Htm2{HtmConfig{}};
        auto Rt2 = CraftyRuntime::attach(Pool, Htm2, CC);
      },
      "does not match");
}

} // namespace
