//===- tests/CraftyTest.cpp - Crafty runtime tests ------------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of Crafty's Log/Redo/Validate phases, the SGL fallback
// with chunked execution, variants (NoRedo/NoValidate), thread-unsafe
// mode, allocation replay, and crash consistency with recovery.
//
//===----------------------------------------------------------------------===//

#include "check/PersistCheck.h"
#include "check/TxRaceCheck.h"
#include "core/Crafty.h"
#include "recovery/Recovery.h"

#include "gtest/gtest.h"

#include <mutex>
#include <thread>
#include <vector>

using namespace crafty;

namespace {

struct TestSystem {
  PMemPool Pool;
  HtmRuntime Htm;
  CraftyRuntime Rt;

  TestSystem(CraftyConfig CC, HtmConfig HC = HtmConfig(),
             PMemConfig PC = defaultPoolConfig())
      : Pool(PC), Htm(HC), Rt(Pool, Htm, CC) {}

  ~TestSystem() {
    // Every test in this file runs under PersistCheck (see config()); a
    // correct runtime must produce no persist-ordering violations.
    if (PersistCheck *PC = Rt.persistCheck()) {
      EXPECT_EQ(PC->violationCount(), 0u) << PC->formatViolations();
    }
  }

  static PMemConfig defaultPoolConfig() {
    PMemConfig PC;
    PC.PoolBytes = 8 << 20;
    PC.Mode = PMemMode::Tracked;
    PC.DrainLatencyNs = 0;
    return PC;
  }
};

CraftyConfig config(unsigned Threads = 1) {
  CraftyConfig C;
  C.NumThreads = Threads;
  C.LogEntriesPerThread = 1 << 12;
  C.EnablePersistCheck = true;
  return C;
}

TEST(Crafty, BasicTransactionCommitsViaRedo) {
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(&Data[0], 11);
    Tx.store(&Data[1], 22);
    Tx.store(&Data[2], Tx.load(&Data[0]) + Tx.load(&Data[1]));
  });
  EXPECT_EQ(Data[0], 11u);
  EXPECT_EQ(Data[1], 22u);
  EXPECT_EQ(Data[2], 33u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Redo, 1u);
  EXPECT_EQ(St.Validate, 0u);
  EXPECT_EQ(St.Writes, 3u);
}

TEST(Crafty, ReadOnlyFastPath) {
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  Data[0] = 5;
  S.Pool.persistDirect(&Data[0], &Data[0], 8);
  uint64_t Seen = 0;
  S.Rt.run(0, [&](TxnContext &Tx) { Seen = Tx.load(&Data[0]); });
  EXPECT_EQ(Seen, 5u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.ReadOnly, 1u);
  EXPECT_EQ(St.Redo, 0u);
}

TEST(Crafty, ReadOnlyCommitDoesNotAdvanceClock) {
  // Pins the read-only clock elision: a read-only commit validates
  // against a clock sample and must not fetch_add the global clock --
  // the bump would invalidate every other core's clock line for a
  // transaction that published nothing.
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) { Tx.store(&Data[0], 5); });
  uint64_t ClockBefore = S.Htm.globalClock();
  for (int I = 0; I != 50; ++I) {
    uint64_t Seen = 0;
    S.Rt.run(0, [&](TxnContext &Tx) { Seen = Tx.load(&Data[0]); });
    EXPECT_EQ(Seen, 5u);
  }
  EXPECT_EQ(S.Htm.globalClock(), ClockBefore);
  EXPECT_EQ(S.Rt.txnStats().ReadOnly, 50u);
}

TEST(Crafty, RepeatedWritesToSameWord) {
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(&Data[0], 1);
    Tx.store(&Data[0], Tx.load(&Data[0]) + 1);
    Tx.store(&Data[0], Tx.load(&Data[0]) + 1);
  });
  EXPECT_EQ(Data[0], 3u);
}

TEST(Crafty, NoRedoVariantCommitsViaValidate) {
  CraftyConfig C = config();
  C.DisableRedo = true;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  for (int I = 0; I != 10; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(&Data[0], Tx.load(&Data[0]) + 1);
    });
  EXPECT_EQ(Data[0], 10u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Validate, 10u);
  EXPECT_EQ(St.Redo, 0u);
}

TEST(Crafty, SequentialTransactionsAccumulate) {
  TestSystem S(config());
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  for (int I = 0; I != 100; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  EXPECT_EQ(*Counter, 100u);
}

TEST(Crafty, MultithreadedBankConservesTotal) {
  constexpr unsigned NumThreads = 4;
  constexpr unsigned NumAccounts = 64;
  constexpr int OpsPerThread = 800;
  TestSystem S(config(NumThreads));
  auto *Accounts =
      static_cast<uint64_t *>(S.Rt.carve(NumAccounts * CacheLineBytes));
  for (unsigned I = 0; I != NumAccounts; ++I)
    Accounts[I * 8] = 1000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(T + 3);
      for (int I = 0; I != OpsPerThread; ++I) {
        unsigned From = R.nextBounded(NumAccounts);
        unsigned To =
            (From + 1 + R.nextBounded(NumAccounts - 1)) % NumAccounts;
        S.Rt.run(T, [&](TxnContext &Tx) {
          uint64_t F = Tx.load(&Accounts[From * 8]);
          uint64_t G = Tx.load(&Accounts[To * 8]);
          Tx.store(&Accounts[From * 8], F - 5);
          Tx.store(&Accounts[To * 8], G + 5);
        });
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumAccounts; ++I)
    Total += Accounts[I * 8];
  EXPECT_EQ(Total, 1000u * NumAccounts);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.transactions(), (uint64_t)NumThreads * OpsPerThread);
  EXPECT_EQ(St.Writes, (uint64_t)NumThreads * OpsPerThread * 2);
}

TEST(Crafty, EightThreadMixedStressUnderBothCheckers) {
  // The contention machinery (backoff, snapshot extension, sorted
  // commit locking, clock elision) under full dynamic checking: 8
  // threads, 3:1 write:read mix over shared accounts, both PersistCheck
  // and TxRaceCheck attached, zero violations required.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned NumAccounts = 32;
  constexpr int OpsPerThread = 250;
  CraftyConfig C = config(NumThreads);
  C.EnableTxRaceCheck = true;
  TestSystem S(C);
  auto *Accounts =
      static_cast<uint64_t *>(S.Rt.carve(NumAccounts * CacheLineBytes));
  for (unsigned I = 0; I != NumAccounts; ++I)
    Accounts[I * 8] = 1000;
  S.Pool.persistDirect(Accounts, Accounts, NumAccounts * CacheLineBytes);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(T + 11);
      for (int I = 0; I != OpsPerThread; ++I) {
        unsigned From = R.nextBounded(NumAccounts);
        unsigned To =
            (From + 1 + R.nextBounded(NumAccounts - 1)) % NumAccounts;
        if (I % 4 == 3) { // Read-only balance sum over a window.
          S.Rt.run(T, [&](TxnContext &Tx) {
            uint64_t Sum = 0;
            for (unsigned K = 0; K != 8; ++K)
              Sum += Tx.load(&Accounts[((From + K) % NumAccounts) * 8]);
            (void)Sum;
          });
        } else {
          S.Rt.run(T, [&](TxnContext &Tx) {
            uint64_t F = Tx.load(&Accounts[From * 8]);
            uint64_t G = Tx.load(&Accounts[To * 8]);
            Tx.store(&Accounts[From * 8], F - 3);
            Tx.store(&Accounts[To * 8], G + 3);
          });
        }
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumAccounts; ++I)
    Total += Accounts[I * 8];
  EXPECT_EQ(Total, 1000u * NumAccounts);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.transactions(), (uint64_t)NumThreads * OpsPerThread);
  ASSERT_NE(S.Rt.raceCheck(), nullptr);
  EXPECT_EQ(S.Rt.raceCheck()->violationCount(), 0u)
      << S.Rt.raceCheck()->formatReports();
  // PersistCheck violations are asserted in ~TestSystem.
}

TEST(Crafty, NoValidateVariantUnderContention) {
  constexpr unsigned NumThreads = 4;
  CraftyConfig C = config(NumThreads);
  C.DisableValidate = true;
  TestSystem S(C);
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  constexpr int OpsPerThread = 400;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != OpsPerThread; ++I)
        S.Rt.run(T, [&](TxnContext &Tx) {
          Tx.store(Counter, Tx.load(Counter) + 1);
        });
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(*Counter, (uint64_t)NumThreads * OpsPerThread);
  EXPECT_EQ(S.Rt.txnStats().Validate, 0u);
}

TEST(Crafty, SpuriousAbortsForceSglAndStillCommit) {
  HtmConfig HC;
  HC.SpuriousAbortPerMillion = 1000000; // Every operation aborts.
  CraftyConfig C = config();
  C.SglAttemptThreshold = 3;
  TestSystem S(C, HC);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(&Data[0], 1);
    Tx.store(&Data[1], 2);
    Tx.store(&Data[2], 3);
  });
  EXPECT_EQ(Data[0], 1u);
  EXPECT_EQ(Data[1], 2u);
  EXPECT_EQ(Data[2], 3u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Sgl, 1u) << "must complete under the SGL with k = 1";
  EXPECT_GT(S.Rt.htmStats().AbortZero, 0u);
}

TEST(Crafty, CapacityOverflowFallsBackToChunking) {
  HtmConfig HC;
  HC.MaxWriteSetLines = 8; // Tiny hardware write capacity.
  CraftyConfig C = config();
  C.InitialChunkK = 4;
  TestSystem S(C, HC);
  constexpr unsigned N = 64;
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(N * CacheLineBytes));
  S.Rt.run(0, [&](TxnContext &Tx) {
    for (unsigned I = 0; I != N; ++I) // One line per write: overflows HTM.
      Tx.store(&Data[I * 8], I + 1);
  });
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Data[I * 8], I + 1);
  EXPECT_EQ(S.Rt.txnStats().Sgl, 1u);
}

TEST(CraftyDeath, OversizedTransactionDiesWithDiagnostic) {
  // A transaction writing more words than half the undo log cannot be
  // made failure atomic (its sequences would wrap over themselves); the
  // runtime reports a configuration error rather than corrupting state.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        CraftyConfig C = config();
        C.LogEntriesPerThread = 64; // Max sequence: 24 entries.
        TestSystem S(C);
        auto *Data = static_cast<uint64_t *>(S.Rt.carve(64 * 8));
        S.Rt.run(0, [&](TxnContext &Tx) {
          for (unsigned I = 0; I != 60; ++I)
            Tx.store(&Data[I], I + 1);
        });
      },
      "increase LogEntriesPerThread");
}

TEST(Crafty, ThreadUnsafeModeWithExternalLock) {
  constexpr unsigned NumThreads = 3;
  CraftyConfig C = config(NumThreads);
  C.Mode = CraftyMode::ThreadUnsafe;
  TestSystem S(C);
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  std::mutex Lock; // The program provides atomicity.
  constexpr int OpsPerThread = 300;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != OpsPerThread; ++I) {
        std::lock_guard<std::mutex> G(Lock);
        S.Rt.run(T, [&](TxnContext &Tx) {
          Tx.store(Counter, Tx.load(Counter) + 1);
        });
      }
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(*Counter, (uint64_t)NumThreads * OpsPerThread);
  EXPECT_EQ(S.Rt.txnStats().Sgl, (uint64_t)NumThreads * OpsPerThread);
}

TEST(Crafty, AllocationInsideTransaction) {
  CraftyConfig C = config();
  C.ArenaBytesPerThread = 64 << 10;
  TestSystem S(C);
  auto *ListHead = static_cast<uint64_t *>(S.Rt.carve(64));
  for (uint64_t I = 1; I <= 5; ++I) {
    S.Rt.run(0, [&](TxnContext &Tx) {
      auto *Node = static_cast<uint64_t *>(Tx.alloc(16));
      ASSERT_NE(Node, nullptr);
      Tx.store(&Node[0], I);               // Value.
      Tx.store(&Node[1], Tx.load(ListHead)); // Next pointer.
      Tx.store(ListHead, reinterpret_cast<uint64_t>(Node));
    });
  }
  // Walk the list: 5, 4, 3, 2, 1.
  uint64_t Expect = 5;
  for (auto *N = reinterpret_cast<uint64_t *>(*ListHead); N;
       N = reinterpret_cast<uint64_t *>(N[1]))
    EXPECT_EQ(N[0], Expect--);
  EXPECT_EQ(Expect, 0u);
}

TEST(Crafty, AllocationReplayInValidatePhase) {
  CraftyConfig C = config();
  C.ArenaBytesPerThread = 64 << 10;
  C.DisableRedo = true; // Every writing commit re-executes via Validate.
  TestSystem S(C);
  auto *Slot = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) {
    auto *Node = static_cast<uint64_t *>(Tx.alloc(32));
    ASSERT_NE(Node, nullptr);
    Tx.store(&Node[0], 123);
    Tx.store(Slot, reinterpret_cast<uint64_t>(Node));
  });
  auto *Node = reinterpret_cast<uint64_t *>(*Slot);
  ASSERT_NE(Node, nullptr);
  EXPECT_EQ(Node[0], 123u);
  EXPECT_EQ(S.Rt.txnStats().Validate, 1u);
}

TEST(Crafty, DeferredFreeSurvivesReexecution) {
  CraftyConfig C = config();
  C.ArenaBytesPerThread = 64 << 10;
  C.DisableRedo = true;
  TestSystem S(C);
  void *Victim = S.Rt.allocator()->alloc(0, 32);
  ASSERT_NE(Victim, nullptr);
  auto *Flag = static_cast<uint64_t *>(S.Rt.carve(64));
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.dealloc(Victim);
    Tx.store(Flag, 1);
  });
  // The block is reusable exactly once.
  void *Again = S.Rt.allocator()->alloc(0, 32);
  EXPECT_EQ(Again, Victim);
}

//===----------------------------------------------------------------------===//
// Crash consistency
//===----------------------------------------------------------------------===//

TEST(CraftyCrash, CleanRunRollsBackOnlyLastTransaction) {
  TestSystem S(config());
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  constexpr uint64_t N = 20;
  for (uint64_t I = 0; I != N; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  EXPECT_GE(Rep.SequencesRolledBack, 1u);
  // Crafty does not provide immediate persistence: the last transaction
  // is always rolled back (its writes were flushed but never drained).
  EXPECT_EQ(*Counter, N - 1);
}

TEST(CraftyCrash, PersistBarrierMakesEverythingDurable) {
  TestSystem S(config());
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  constexpr uint64_t N = 20;
  for (uint64_t I = 0; I != N; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
    });
  S.Rt.persistBarrier(0);
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  EXPECT_EQ(*Counter, N);
}

TEST(CraftyCrash, MultithreadedTransfersRecoverConsistently) {
  constexpr unsigned NumThreads = 4;
  constexpr unsigned NumAccounts = 32;
  constexpr int OpsPerThread = 500;
  PMemConfig PC = TestSystem::defaultPoolConfig();
  PC.EvictionPerMillion = 20000; // Spontaneous cache eviction chaos.
  TestSystem S(config(NumThreads), HtmConfig(), PC);
  auto *Accounts =
      static_cast<uint64_t *>(S.Rt.carve(NumAccounts * CacheLineBytes));
  for (unsigned I = 0; I != NumAccounts; ++I) {
    Accounts[I * 8] = 1000;
    S.Pool.persistDirect(&Accounts[I * 8], &Accounts[I * 8], 8);
  }
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng R(T + 91);
      for (int I = 0; I != OpsPerThread; ++I) {
        unsigned From = R.nextBounded(NumAccounts);
        unsigned To =
            (From + 1 + R.nextBounded(NumAccounts - 1)) % NumAccounts;
        S.Rt.run(T, [&](TxnContext &Tx) {
          Tx.store(&Accounts[From * 8], Tx.load(&Accounts[From * 8]) - 7);
          Tx.store(&Accounts[To * 8], Tx.load(&Accounts[To * 8]) + 7);
        });
      }
    });
  for (auto &Th : Threads)
    Th.join();
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  uint64_t Total = 0;
  for (unsigned I = 0; I != NumAccounts; ++I)
    Total += Accounts[I * 8];
  EXPECT_EQ(Total, 1000u * NumAccounts)
      << "recovered state must reflect whole transactions only";
}

TEST(CraftyCrash, LogWraparoundManyTimes) {
  CraftyConfig C = config();
  C.LogEntriesPerThread = 64; // Wraps every ~10 transactions.
  TestSystem S(C);
  auto *Counter = static_cast<uint64_t *>(S.Rt.carve(64));
  constexpr uint64_t N = 500;
  for (uint64_t I = 0; I != N; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(Counter, Tx.load(Counter) + 1);
      Tx.store(Counter + 1, I);
      Tx.store(Counter + 2, I * 2);
    });
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  EXPECT_EQ(*Counter, N - 1);
  EXPECT_EQ(Counter[1], N - 2);
  EXPECT_EQ(Counter[2], (N - 2) * 2);
}

TEST(CraftyCrash, SglSectionIsAllOrNothing) {
  HtmConfig HC;
  HC.MaxWriteSetLines = 8; // Force chunked SGL commits.
  CraftyConfig C = config();
  C.InitialChunkK = 4;
  TestSystem S(C, HC);
  constexpr unsigned N = 64;
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(N * CacheLineBytes));
  // First transaction: fill with a recognizable pattern, chunked.
  S.Rt.run(0, [&](TxnContext &Tx) {
    for (unsigned I = 0; I != N; ++I)
      Tx.store(&Data[I * 8], 100 + I);
  });
  ASSERT_EQ(S.Rt.txnStats().Sgl, 1u);
  // Second transaction, also chunked; it is the last one and must be
  // rolled back in full by recovery, leaving the first intact.
  S.Rt.run(0, [&](TxnContext &Tx) {
    for (unsigned I = 0; I != N; ++I)
      Tx.store(&Data[I * 8], 900 + I);
  });
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Data[I * 8], 100 + I) << "at account " << I;
}

TEST(CraftyCrash, MaxLagForcesIdleThreadsForward) {
  CraftyConfig C = config(2);
  C.MaxLag = 16; // Very tight: expensive checks fire constantly.
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(128));
  // Thread 1 commits once, then goes idle.
  S.Rt.run(1, [&](TxnContext &Tx) { Tx.store(&Data[8], 7); });
  // Thread 0 keeps committing; MAX_LAG forces empty commits into thread
  // 1's log so recovery's threshold keeps advancing.
  constexpr uint64_t N = 200;
  for (uint64_t I = 0; I != N; ++I)
    S.Rt.run(0, [&](TxnContext &Tx) {
      Tx.store(&Data[0], Tx.load(&Data[0]) + 1);
    });
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  // Without forced commits the threshold would be thread 1's single old
  // transaction and nearly all of thread 0's work would be rolled back.
  EXPECT_GE(Data[0], N - 20);
  EXPECT_EQ(Data[8], 7u) << "thread 1's committed transaction survives";
}

} // namespace

namespace {

// Deterministic Log->Redo window interleavings via the test hook.
struct HookState {
  TestSystem *S = nullptr;
  uint64_t *Word = nullptr;
  uint64_t Value = 0;
  bool Armed = false;
};

static void commitConflictingWrite(void *Ctx, unsigned ThreadId) {
  auto *H = static_cast<HookState *>(Ctx);
  if (!H->Armed || ThreadId != 0)
    return;
  H->Armed = false;
  // Thread 1 commits a write in thread 0's Log->Redo window.
  H->S->Rt.run(1, [&](TxnContext &Tx) { Tx.store(H->Word, H->Value); });
}

TEST(CraftyPhases, ValidateCommitsFreshlyComputedValues) {
  // T0 computes Y = f(X); a conflicting commit changes X between T0's Log
  // and Redo phases. The Redo check fails, and the Validate phase's
  // re-execution must commit the *fresh* value (undo entries still match
  // because T0 never wrote X).
  CraftyConfig C = config(2);
  HookState Hook;
  C.TestAfterLogCommit = commitConflictingWrite;
  C.TestHookCtx = &Hook;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(128));
  uint64_t *X = &Data[0], *Y = &Data[8];
  S.Pool.persistDirect(X, &(const uint64_t &)*X, 8);
  S.Rt.run(0, [&](TxnContext &Tx) { Tx.store(X, 1); });
  Hook = HookState{&S, X, 2, true};
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(Y, Tx.load(X) * 10);
  });
  EXPECT_EQ(*X, 2u);
  EXPECT_EQ(*Y, 20u) << "Validate must re-execute with the fresh X";
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Validate, 1u);
  EXPECT_GE(S.Rt.htmStats().AbortExplicit, 1u) << "failed Redo check";
}

TEST(CraftyPhases, ValidationFailureRestartsTransaction) {
  // The conflicting commit writes the same word T0 writes: the persisted
  // undo entry no longer matches, Validate fails, and the whole
  // transaction restarts from a fresh Log phase.
  CraftyConfig C = config(2);
  HookState Hook;
  C.TestAfterLogCommit = commitConflictingWrite;
  C.TestHookCtx = &Hook;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(128));
  uint64_t *X = &Data[0];
  Hook = HookState{&S, X, 77, true};
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(X, Tx.load(X) + 1);
  });
  EXPECT_EQ(*X, 78u) << "restart must apply the increment on top of 77";
  PtmStats St = S.Rt.txnStats();
  // Thread 0's transaction committed on the retry (via Redo), plus the
  // hook's own transaction on thread 1.
  EXPECT_EQ(St.transactions(), 2u);
}

TEST(CraftyPhases, PersistBarrierUnderConcurrency) {
  constexpr unsigned NumThreads = 3;
  TestSystem S(config(NumThreads));
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(256));
  std::atomic<bool> Stop{false};
  // Two mutator threads keep committing while a third issues barriers.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 2; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != 300; ++I)
        S.Rt.run(T, [&](TxnContext &Tx) {
          Tx.store(&Data[T * 8], Tx.load(&Data[T * 8]) + 1);
        });
    });
  Threads.emplace_back([&] {
    while (!Stop.load(std::memory_order_acquire))
      S.Rt.persistBarrier(2);
  });
  Threads[0].join();
  Threads[1].join();
  Stop.store(true, std::memory_order_release);
  Threads[2].join();
  // A final barrier guarantees everything is durable.
  S.Rt.persistBarrier(2);
  S.Pool.crash();
  RecoveryObserver::recoverPool(S.Pool);
  EXPECT_EQ(Data[0], 300u);
  EXPECT_EQ(Data[8], 300u);
}

static void barrierFromHelperThread(void *Ctx, unsigned ThreadId) {
  auto *H = static_cast<HookState *>(Ctx);
  if (!H->Armed || ThreadId != 1)
    return;
  H->Armed = false;
  // A barrier in thread 1's Log->Redo window forces thread 1 before its
  // Redo commit. It runs on its own OS thread: PersistCheck keeps one
  // scope per OS thread, and thread 1's transaction scope is open here.
  std::thread([H] { H->S->Rt.persistBarrier(2); }).join();
}

TEST(CraftyCrash, BarrierCoversCommitAfterEarlierBarrierForcedIt) {
  // Thread 1 commits after a barrier forced its log. The next barrier
  // must force every thread again: the horizon the earlier barrier left
  // is below thread 1's commit, even though no log head has moved since.
  CraftyConfig C = config(3);
  HookState Hook;
  C.TestAfterLogCommit = barrierFromHelperThread;
  C.TestHookCtx = &Hook;
  TestSystem S(C);
  auto *X = static_cast<uint64_t *>(S.Rt.carve(64));
  Hook = HookState{&S, nullptr, 0, true};
  S.Rt.run(1, [&](TxnContext &Tx) { Tx.store(X, 42); });
  ASSERT_FALSE(Hook.Armed) << "the hook must have run its barrier";
  S.Rt.persistBarrier(2);
  S.Pool.crash();
  RecoveryObserver::recoverPool(S.Pool);
  EXPECT_EQ(*X, 42u);
}

TEST(CraftyCrash, BarrierForcesEveryThreadThroughSpuriousAborts) {
  // At these rates a force commits about once in 2,000-10,000 tries. The
  // barrier must keep forcing thread 1 until it lands; skipping it would
  // leave thread 1's transaction above the recovery horizon.
  for (uint32_t Rate : {800000u, 850000u, 900000u}) {
    HtmConfig HC;
    HC.SpuriousAbortPerMillion = Rate;
    TestSystem S(config(2), HC);
    auto *X = static_cast<uint64_t *>(S.Rt.carve(64));
    S.Rt.run(1, [&](TxnContext &Tx) { Tx.store(X, 42); });
    S.Rt.persistBarrier(0);
    S.Pool.crash();
    RecoveryObserver::recoverPool(S.Pool);
    EXPECT_EQ(*X, 42u) << "spurious abort rate " << Rate << " per million";
  }
}

} // namespace

namespace {

// The paper's Figure 5, literally: Thread 1 (*p = *q; *r = 1) and
// Thread 2 (*q = 2; *s = 3) both run their Log phases; Thread 1's Redo
// commits first, so Thread 2's Redo check fails and its Validate phase
// re-executes and commits. Final state and phase statistics must match
// the figure.
struct Fig5State {
  TestSystem *S = nullptr;
  uint64_t *P, *Q, *R, *Rs;
  bool Armed = false;
};

static void fig5RunThread1(void *Ctx, unsigned ThreadId) {
  auto *F = static_cast<Fig5State *>(Ctx);
  if (!F->Armed || ThreadId != 0)
    return;
  F->Armed = false;
  // Thread 1's whole transaction lands between Thread 2's Log and Redo.
  F->S->Rt.run(1, [&](TxnContext &Tx) {
    Tx.store(F->P, Tx.load(F->Q));
    Tx.store(F->R, 1);
  });
}

TEST(CraftyPhases, PaperFigure5Interleaving) {
  CraftyConfig C = config(2);
  Fig5State Fig;
  C.TestAfterLogCommit = fig5RunThread1;
  C.TestHookCtx = &Fig;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(4 * CacheLineBytes));
  Fig = Fig5State{&S, &Data[0], &Data[8], &Data[16], &Data[24], true};
  // Thread 2's transaction (thread id 0 here drives the hook window).
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(Fig.Q, 2);
    Tx.store(Fig.Rs, 3);
  });
  // Figure 5's outcome: *p = 0 (read before Thread 2's write), *r = 1,
  // *q = 2, *s = 3.
  EXPECT_EQ(*Fig.P, 0u);
  EXPECT_EQ(*Fig.R, 1u);
  EXPECT_EQ(*Fig.Q, 2u);
  EXPECT_EQ(*Fig.Rs, 3u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Redo, 1u) << "Thread 1 commits via Redo";
  EXPECT_EQ(St.Validate, 1u) << "Thread 2 commits via Validate";
}

} // namespace

namespace {

// Log-phase undo coalescing: repeated stores to one word must produce a
// single undo entry carrying the word's first (pre-transaction) old value,
// with the redo value updated in place.

TEST(CraftyCoalesce, RepeatedStoresProduceOneUndoEntryPerWord) {
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(2 * CacheLineBytes));
  uint64_t *A = &Data[0], *B = &Data[8];
  uint64_t InitA = 100, InitB = 200;
  S.Pool.persistDirect(A, &InitA, 8);
  S.Pool.persistDirect(B, &InitB, 8);
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(A, 1);
    Tx.store(A, 2);
    Tx.store(B, 3);
    Tx.store(A, 4);
    Tx.store(B, 5);
  });
  EXPECT_EQ(*A, 4u);
  EXPECT_EQ(*B, 5u);
  // Two data entries (first old values, first-store order), then the tag.
  UndoLogRegion Log =
      logRegionFor(S.Pool.base(), *S.Rt.poolHeader(), /*ThreadId=*/0);
  DecodedEntry E0 = decodeEntry(*Log.addrWordAt(0), *Log.valWordAt(0));
  ASSERT_EQ(E0.K, DecodedEntry::Kind::Data);
  EXPECT_EQ(E0.Addr, reinterpret_cast<uint64_t>(A));
  EXPECT_EQ(E0.Value, InitA);
  DecodedEntry E1 = decodeEntry(*Log.addrWordAt(1), *Log.valWordAt(1));
  ASSERT_EQ(E1.K, DecodedEntry::Kind::Data);
  EXPECT_EQ(E1.Addr, reinterpret_cast<uint64_t>(B));
  EXPECT_EQ(E1.Value, InitB);
  DecodedEntry E2 = decodeEntry(*Log.addrWordAt(2), *Log.valWordAt(2));
  EXPECT_TRUE(E2.isTag()) << "coalescing must not emit extra data entries";
  // Table 1 semantics: writes are counted as executed, not as coalesced.
  EXPECT_EQ(S.Rt.txnStats().Writes, 5u);
}

TEST(CraftyCoalesce, FlushesFewerLinesThanClwbCalls) {
  // A transaction writing several distinct words per cache line must
  // schedule fewer line write-backs than it issues flush requests: the
  // undo entries flush as a contiguous slot range and the data flushes
  // coalesce by line in the pool's pending-line filter.
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(2 * CacheLineBytes));
  S.Rt.run(0, [&](TxnContext &Tx) {
    for (size_t I = 0; I != 12; ++I) // Six distinct words per line.
      Tx.store(&Data[I % 2 ? 8 + I / 2 : I / 2], I + 1);
  });
  PMemStats PS = S.Pool.stats();
  EXPECT_LT(PS.LinesScheduled, PS.ClwbCalls)
      << "multi-write-per-line transaction must coalesce";
  EXPECT_GT(PS.LinesScheduled, 0u);
  EXPECT_EQ(S.Rt.txnStats().Writes, 12u);
}

TEST(CraftyCoalesce, ValidatePassesOnReExecutionWithRepeats) {
  // A non-conflicting commit in the Log->Redo window forces the Validate
  // phase; the deterministic re-execution repeats the same stores and must
  // match the coalesced undo entries.
  CraftyConfig C = config(2);
  HookState Hook;
  C.TestAfterLogCommit = commitConflictingWrite;
  C.TestHookCtx = &Hook;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(2 * CacheLineBytes));
  uint64_t *X = &Data[0], *Unrelated = &Data[8];
  Hook = HookState{&S, Unrelated, 9, true};
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(X, 1);
    Tx.store(X, Tx.load(X) + 1);
    Tx.store(X, Tx.load(X) + 1);
  });
  EXPECT_EQ(*X, 3u);
  EXPECT_EQ(*Unrelated, 9u);
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.Validate, 1u) << "Redo check must fail, Validate must pass";
}

TEST(CraftyCoalesce, ValidateFailsOnConflictingCommitWithRepeats) {
  // The conflicting commit rewrites the repeatedly-stored word itself: the
  // single coalesced undo entry no longer matches the memory value, the
  // Validate phase fails, and the transaction restarts on the new value.
  CraftyConfig C = config(2);
  HookState Hook;
  C.TestAfterLogCommit = commitConflictingWrite;
  C.TestHookCtx = &Hook;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(CacheLineBytes));
  uint64_t *X = &Data[0];
  Hook = HookState{&S, X, 77, true};
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(X, Tx.load(X) + 1);
    Tx.store(X, Tx.load(X) + 1);
  });
  EXPECT_EQ(*X, 79u) << "restart must re-apply both increments on top of 77";
  PtmStats St = S.Rt.txnStats();
  EXPECT_EQ(St.transactions(), 2u);
  EXPECT_GE(S.Rt.htmStats().AbortExplicit, 2u)
      << "failed Redo check plus failed Validate";
}

TEST(CraftyCoalesce, ChunkedOpenChunkCoalesces) {
  // Thread-unsafe mode uses the chunked flow; repeats within one open
  // chunk share an undo entry while the chunk boundary still splits them.
  CraftyConfig C = config();
  C.Mode = CraftyMode::ThreadUnsafe;
  C.InitialChunkK = 4;
  TestSystem S(C);
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(2 * CacheLineBytes));
  uint64_t *A = &Data[0], *B = &Data[8];
  uint64_t InitA = 50;
  S.Pool.persistDirect(A, &InitA, 8);
  S.Rt.run(0, [&](TxnContext &Tx) {
    Tx.store(A, 1);
    Tx.store(A, 2); // Coalesced into the first entry.
    Tx.store(B, 3);
  });
  EXPECT_EQ(*A, 2u);
  EXPECT_EQ(*B, 3u);
  UndoLogRegion Log =
      logRegionFor(S.Pool.base(), *S.Rt.poolHeader(), /*ThreadId=*/0);
  DecodedEntry E0 = decodeEntry(*Log.addrWordAt(0), *Log.valWordAt(0));
  ASSERT_EQ(E0.K, DecodedEntry::Kind::Data);
  EXPECT_EQ(E0.Addr, reinterpret_cast<uint64_t>(A));
  EXPECT_EQ(E0.Value, InitA);
  DecodedEntry E1 = decodeEntry(*Log.addrWordAt(1), *Log.valWordAt(1));
  ASSERT_EQ(E1.K, DecodedEntry::Kind::Data);
  EXPECT_EQ(E1.Addr, reinterpret_cast<uint64_t>(B));
  EXPECT_EQ(E1.Value, 0u);
  EXPECT_EQ(S.Rt.txnStats().Writes, 3u);
}

TEST(CraftyCoalesce, CrashDuringRepeatedStoreBodyRecoversCleanly) {
  // Commit transactions with heavy repetition, crash, recover: undo replay
  // needs exactly one pre-transaction value per word.
  TestSystem S(config());
  auto *Data = static_cast<uint64_t *>(S.Rt.carve(4 * CacheLineBytes));
  for (int Round = 0; Round != 50; ++Round) {
    S.Rt.run(0, [&](TxnContext &Tx) {
      for (int K = 0; K != 4; ++K)
        for (int W = 0; W != 4; ++W)
          Tx.store(&Data[W * 8], Tx.load(&Data[W * 8]) + 1);
    });
  }
  S.Pool.crash();
  RecoveryReport Rep = RecoveryObserver::recoverPool(S.Pool);
  ASSERT_TRUE(Rep.HeaderValid);
  // Each surviving round added exactly 4 to every word; recovery must not
  // leave a word mid-round.
  EXPECT_EQ(Data[0] % 4, 0u);
  for (int W = 1; W != 4; ++W)
    EXPECT_EQ(Data[W * 8], Data[0]) << "words must recover to one round";
}

} // namespace
