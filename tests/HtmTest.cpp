//===- tests/HtmTest.cpp - HTM emulation unit tests -----------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Validates the four HTM properties the Crafty algorithms rely on:
// atomicity/isolation, write buffering until commit, abort discarding all
// writes, and the abort taxonomy (conflict / capacity / explicit / zero).
//
//===----------------------------------------------------------------------===//

#include "htm/Htm.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace crafty;

namespace {

class HtmTest : public ::testing::Test {
protected:
  HtmConfig Cfg;
  std::unique_ptr<HtmRuntime> Rt;

  void makeRuntime() { Rt = std::make_unique<HtmRuntime>(Cfg); }
};

TEST_F(HtmTest, CommitPublishesWrites) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 1, Y = 2;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.store(&X, 10);
    T.store(&Y, T.load(&X) + 10); // Read-own-write.
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(X, 10u);
  EXPECT_EQ(Y, 20u);
  EXPECT_GT(R.CommitVersion, 0u);
  EXPECT_EQ(Tx.stats().Commits, 1u);
}

TEST_F(HtmTest, WritesInvisibleBeforeCommit) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 7;
  runHtmTx(Tx, [&](HtmTx &T) {
    T.store(&X, 99);
    // Memory must still hold the old value while the transaction runs.
    EXPECT_EQ(__atomic_load_n(&X, __ATOMIC_RELAXED), 7u);
  });
  EXPECT_EQ(X, 99u);
}

TEST_F(HtmTest, ExplicitAbortDiscardsWrites) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 7;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.store(&X, 99);
    T.abortExplicit(42);
  });
  ASSERT_FALSE(R.Committed);
  EXPECT_EQ(R.Code, AbortCode::Explicit);
  EXPECT_EQ(R.UserCode, 42u);
  EXPECT_EQ(X, 7u);
  EXPECT_EQ(Tx.stats().AbortExplicit, 1u);
}

TEST_F(HtmTest, RollbackInsideTransactionCommitsOriginalValues) {
  // The nondestructive-undo-logging pattern: write, then undo in reverse,
  // then commit. Memory must be unchanged afterwards.
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 5, Y = 6;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.store(&X, 50);
    T.store(&Y, 60);
    EXPECT_EQ(T.load(&X), 50u);
    T.store(&Y, 6); // Roll back in reverse order.
    T.store(&X, 5);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(X, 5u);
  EXPECT_EQ(Y, 6u);
}

TEST_F(HtmTest, ConflictingCommitAbortsReader) {
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) uint64_t X = 0, Out = 0;
  // A reads X, then B commits a write to X, then A tries to commit a
  // dependent write: A must abort (its snapshot is stale).
  TxResult RA = runHtmTx(TxA, [&](HtmTx &T) {
    uint64_t V = T.load(&X);
    TxResult RB = runHtmTx(TxB, [&](HtmTx &T2) { T2.store(&X, 1); });
    ASSERT_TRUE(RB.Committed);
    T.store(&Out, V + 1);
  });
  EXPECT_FALSE(RA.Committed);
  EXPECT_EQ(RA.Code, AbortCode::Conflict);
  EXPECT_EQ(Out, 0u);
}

TEST_F(HtmTest, StaleReadRecoveredBySnapshotExtension) {
  // A reads a harmless word, then B commits a write to X, then A loads X:
  // the prior read set (Dummy) is still valid at the current clock, so the
  // snapshot advances past B's commit and the load returns B's value.
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) uint64_t X = 0;
  TxResult RA = runHtmTx(TxA, [&](HtmTx &T) {
    alignas(64) static uint64_t Dummy = 0;
    T.load(&Dummy);
    TxResult RB = runHtmTx(TxB, [&](HtmTx &T2) { T2.store(&X, 1); });
    ASSERT_TRUE(RB.Committed);
    EXPECT_EQ(T.load(&X), 1u); // Extended snapshot sees the new value.
  });
  EXPECT_TRUE(RA.Committed);
  EXPECT_EQ(TxA.stats().SnapshotExtensions, 1u);
}

TEST_F(HtmTest, SnapshotExtensionFailsWhenReadSetChanged) {
  // If a word already read changes, extension must not succeed: the stale
  // read aborts.
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) uint64_t X = 0, Y = 0;
  TxResult RA = runHtmTx(TxA, [&](HtmTx &T) {
    EXPECT_EQ(T.load(&Y), 0u); // Y joins the read set.
    TxResult RB = runHtmTx(TxB, [&](HtmTx &T2) {
      T2.store(&X, 1);
      T2.store(&Y, 1); // Invalidates A's read of Y.
    });
    ASSERT_TRUE(RB.Committed);
    T.load(&X); // Extension revalidates Y, fails, aborts.
    FAIL() << "extension over a changed read set must abort";
  });
  EXPECT_FALSE(RA.Committed);
  EXPECT_EQ(RA.Code, AbortCode::Conflict);
}

TEST_F(HtmTest, WriteBufferReadsOwnWritesAfterOverwrite) {
  // Read-your-write through the hashed write buffer, including an
  // overwrite of the first slot after the later ones were inserted.
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  constexpr size_t N = 16;
  alignas(64) uint64_t Words[N] = {};
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (size_t I = 0; I != N; ++I)
      T.store(&Words[I], I + 1);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(T.load(&Words[I]), I + 1);
    T.store(&Words[0], 100);
    EXPECT_EQ(T.load(&Words[0]), 100u);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Words[0], 100u);
  for (size_t I = 1; I != N; ++I)
    EXPECT_EQ(Words[I], I + 1);
}

TEST_F(HtmTest, DescendingReadThenWriteCommitValidatesOwnedStripes) {
  // One word per cache line, so the commit locks 24 stripes; inserted in
  // descending address order, each read-then-written. An unrelated commit
  // advances the clock so validation runs, and it must find every
  // self-owned stripe's pre-lock version in the sorted lock array.
  makeRuntime();
  HtmTx Tx(*Rt, 0), Other(*Rt, 1);
  constexpr size_t N = 24;
  constexpr size_t Stride = CacheLineBytes / 8;
  alignas(64) uint64_t Words[N * Stride] = {};
  alignas(64) uint64_t Unrelated = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (size_t I = N; I-- > 0;) {
      T.load(&Words[I * Stride]);
      T.store(&Words[I * Stride], I + 1);
    }
    TxResult RO = runHtmTx(Other, [&](HtmTx &T2) { T2.store(&Unrelated, 1); });
    ASSERT_TRUE(RO.Committed);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Tx.stats().ValidatedReadSlots, N);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Words[I * Stride], I + 1);
}

TEST_F(HtmTest, NonTxStoreBatchPublishesAllWordsOneBump) {
  makeRuntime();
  constexpr size_t N = 9;
  alignas(64) uint64_t Words[N] = {};
  uint64_t *Addrs[N];
  uint64_t Vals[N];
  for (size_t I = 0; I != N; ++I) {
    Addrs[I] = &Words[I];
    Vals[I] = I + 1;
  }
  // Repeat a word: the last submitted store must win.
  Addrs[N - 1] = &Words[0];
  Vals[N - 1] = 42;
  uint64_t BumpsBefore = Rt->nonTxClockBumps();
  Rt->nonTxStoreBatch(Addrs, Vals, N);
  EXPECT_EQ(Rt->nonTxClockBumps(), BumpsBefore + 1);
  EXPECT_EQ(Words[0], 42u);
  for (size_t I = 1; I != N - 1; ++I)
    EXPECT_EQ(Words[I], I + 1);
}

TEST_F(HtmTest, NonTxStoreAbortsConflictingReader) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t Sgl = 0, Data = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    EXPECT_EQ(T.load(&Sgl), 0u); // Subscribe to the SGL word.
    Rt->nonTxStore(&Sgl, 1);     // Lock acquired by another thread.
    T.store(&Data, 1);
  });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(Data, 0u);
  EXPECT_EQ(Rt->nonTxLoad(&Sgl), 1u);
}

TEST_F(HtmTest, NonTxCasSemantics) {
  makeRuntime();
  alignas(64) uint64_t W = 0;
  EXPECT_TRUE(Rt->nonTxCas(&W, 0, 1));
  EXPECT_FALSE(Rt->nonTxCas(&W, 0, 2));
  EXPECT_EQ(Rt->nonTxLoad(&W), 1u);
  EXPECT_TRUE(Rt->nonTxCas(&W, 1, 0));
  EXPECT_EQ(Rt->nonTxLoad(&W), 0u);
}

TEST_F(HtmTest, WriteCapacityAbort) {
  Cfg.MaxWriteSetLines = 4;
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  std::vector<uint64_t> Data(64 * 8, 0); // Plenty of cache lines.
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (size_t I = 0; I < Data.size(); I += 8) // One word per line.
      T.store(&Data[I], I);
  });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(R.Code, AbortCode::Capacity);
  for (uint64_t V : Data)
    EXPECT_EQ(V, 0u);
}

TEST_F(HtmTest, ReadCapacityAbort) {
  Cfg.MaxReadSetLines = 4;
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  std::vector<uint64_t> Data(64 * 8, 0);
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    uint64_t Sum = 0;
    for (size_t I = 0; I < Data.size(); I += 8)
      Sum += T.load(&Data[I]);
    (void)Sum;
  });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(R.Code, AbortCode::Capacity);
}

TEST_F(HtmTest, SpuriousAbortInjection) {
  Cfg.SpuriousAbortPerMillion = 1000000; // Always.
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) { T.store(&X, 1); });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(R.Code, AbortCode::Zero);
}

TEST_F(HtmTest, StoreCommitVersionWritesSerializationTimestamp) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t Ts = 0, Shifted = 0, X = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.store(&X, 1);
    T.storeCommitVersion(&Ts);
    T.storeCommitVersion(&Shifted, 1, 1);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Ts, R.CommitVersion);
  EXPECT_EQ(Shifted, (R.CommitVersion << 1) | 1);
  // Commit versions strictly increase across writing transactions.
  TxResult R2 = runHtmTx(Tx, [&](HtmTx &T) { T.store(&X, 2); });
  ASSERT_TRUE(R2.Committed);
  EXPECT_GT(R2.CommitVersion, R.CommitVersion);
}

TEST_F(HtmTest, ReadOnlyCommitNeedsNoClockTick) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) uint64_t X = 3;
  uint64_t Before = Rt->globalClock();
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) { EXPECT_EQ(T.load(&X), 3u); });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Rt->globalClock(), Before);
}

TEST_F(HtmTest, StripesAreLineIndexed) {
  makeRuntime();
  constexpr size_t TableLines = size_t(1) << HtmRuntime::StripeTableBits;
  constexpr size_t LineWords = CacheLineBytes / 8;
  // One window is a stripe table's worth of lines: 64 MiB of address
  // space. A is the 16th line before a window boundary; Mem covers it and
  // the whole window after it, of which only the few lines used are ever
  // touched.
  constexpr size_t Window = TableLines * CacheLineBytes;
  std::unique_ptr<uint8_t[]> Mem(new uint8_t[2 * Window + 16 * CacheLineBytes]);
  auto *NextWindow = reinterpret_cast<uint64_t *>(
      (reinterpret_cast<uintptr_t>(Mem.get()) + 16 * CacheLineBytes +
       Window - 1) &
      ~(uintptr_t)(Window - 1));
  uint64_t *A = NextWindow - 16 * LineWords;

  // Adjacent lines of a window: distinct, consecutive stripes (modulo the
  // table).
  size_t First = Rt->stripeIndex(A);
  for (size_t L = 1; L != 16; ++L)
    EXPECT_EQ(Rt->stripeIndex(A + L * LineWords), (First + L) % TableLines)
        << "line " << L;
  // Words of one line share its stripe.
  EXPECT_EQ(Rt->stripeIndex(A + 7), First);
  // Lines exactly one window apart -- same-offset lines of two equal
  // 64 MiB arenas -- do not share a stripe: windows are rotated apart.
  EXPECT_NE(Rt->stripeIndex(A + TableLines * LineWords), First);
  // Each window still covers every stripe once: A's alias in the next
  // window is the line at A's stripe minus that window's first stripe.
  size_t AliasLine = (First - Rt->stripeIndex(NextWindow)) & (TableLines - 1);
  uint64_t *B = NextWindow + AliasLine * LineWords;
  ASSERT_EQ(Rt->stripeIndex(B), First);

  // Reading A and writing B locks the stripe the read set recorded. The
  // clock bump inside the body forces commit-time validation, which must
  // judge the owned stripe by its pre-lock version, not abort on it.
  *A = 5;
  *B = 0;
  HtmTx Tx(*Rt, 0);
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    uint64_t V = T.load(A);
    Rt->advanceClock();
    T.store(B, V + 1);
  });
  ASSERT_TRUE(R.Committed) << abortCodeName(R.Code);
  EXPECT_EQ(*B, 6u);
  EXPECT_EQ(Tx.stats().AbortConflict, 0u);
  EXPECT_GT(Tx.stats().ValidatedReadSlots, 0u) << "validation did not run";
}

TEST_F(HtmTest, CommitFenceHookRunsBeforeWriteback) {
  makeRuntime();
  struct HookState {
    uint64_t *Target = nullptr;
    uint64_t SeenAtFence = ~0ull;
    int Fences = 0;
    int Stores = 0;
  } State;
  alignas(64) uint64_t X = 0;
  State.Target = &X;
  MemoryHooks Hooks;
  Hooks.Ctx = &State;
  Hooks.OnCommitFence = [](void *Ctx, uint32_t) {
    auto *S = static_cast<HookState *>(Ctx);
    ++S->Fences;
    S->SeenAtFence = __atomic_load_n(S->Target, __ATOMIC_RELAXED);
  };
  Hooks.OnStoreRun = [](void *Ctx, const StoredWord *Words, size_t N) {
    auto *S = static_cast<HookState *>(Ctx);
    S->Stores += (int)N;
    EXPECT_EQ(Words[0].OldVal, 0u);
    EXPECT_EQ(Words[0].NewVal, 5u);
  };
  Rt->setMemoryHooks(Hooks);
  HtmTx Tx(*Rt, 0);
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) { T.store(&X, 5); });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(State.Fences, 1);
  EXPECT_EQ(State.Stores, 1);
  EXPECT_EQ(State.SeenAtFence, 0u) << "fence must precede write-back";
}

TEST_F(HtmTest, MultithreadedCounterIsExact) {
  makeRuntime();
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t PerThread = 2000;
  alignas(64) static uint64_t Counter;
  Counter = 0;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([this, T] {
      HtmTx Tx(*Rt, T);
      for (uint64_t I = 0; I != PerThread; ++I) {
        for (;;) {
          TxResult R = runHtmTx(Tx, [&](HtmTx &Txn) {
            Txn.store(&Counter, Txn.load(&Counter) + 1);
          });
          if (R.Committed)
            break;
        }
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Counter, NumThreads * PerThread);
}

TEST_F(HtmTest, MultithreadedTransfersConserveTotal) {
  makeRuntime();
  constexpr unsigned NumThreads = 4;
  constexpr unsigned NumAccounts = 32;
  constexpr uint64_t PerThread = 1500;
  struct alignas(64) Account {
    uint64_t Balance;
  };
  static Account Accounts[NumAccounts];
  for (auto &A : Accounts)
    A.Balance = 100;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([this, T] {
      HtmTx Tx(*Rt, T);
      Rng R(T + 17);
      for (uint64_t I = 0; I != PerThread; ++I) {
        unsigned From = R.nextBounded(NumAccounts);
        unsigned To = (From + 1 + R.nextBounded(NumAccounts - 1)) %
                      NumAccounts; // Distinct from From.
        for (;;) {
          TxResult Res = runHtmTx(Tx, [&](HtmTx &Txn) {
            uint64_t F = Txn.load(&Accounts[From].Balance);
            uint64_t G = Txn.load(&Accounts[To].Balance);
            Txn.store(&Accounts[From].Balance, F - 1);
            Txn.store(&Accounts[To].Balance, G + 1);
          });
          if (Res.Committed)
            break;
        }
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  uint64_t Total = 0;
  for (auto &A : Accounts)
    Total += A.Balance;
  EXPECT_EQ(Total, 100u * NumAccounts);
}

// Conflict granularity: with word-granular detection, writes to different
// words of one cache line do not conflict; with line granularity they do.
TEST_F(HtmTest, GranularityAblation) {
  Cfg.ConflictGranularityShift = 3; // Word granularity.
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) uint64_t Line[8] = {};
  TxResult RA = runHtmTx(TxA, [&](HtmTx &T) {
    T.load(&Line[0]);
    TxResult RB = runHtmTx(TxB, [&](HtmTx &T2) { T2.store(&Line[7], 1); });
    ASSERT_TRUE(RB.Committed);
    T.store(&Line[1], 2);
  });
  EXPECT_TRUE(RA.Committed) << "word granularity: no false sharing";
}

} // namespace

namespace {

TEST_F(HtmTest, StreamingStoresCommitAtomically) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) static uint64_t Log[8];
  for (auto &W : Log)
    W = 0;
  alignas(64) uint64_t Data = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.storeStream(&Log[0], 11);
    T.storeStream(&Log[1], 22);
    T.store(&Data, 33);
    EXPECT_EQ(__atomic_load_n(&Log[0], __ATOMIC_RELAXED), 0u)
        << "streaming stores stay buffered until commit";
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Log[0], 11u);
  EXPECT_EQ(Log[1], 22u);
  EXPECT_EQ(Data, 33u);
}

TEST_F(HtmTest, StreamingStoresDiscardedOnAbort) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) static uint64_t Log[2];
  Log[0] = Log[1] = 7;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    T.storeStream(&Log[0], 99);
    T.abortExplicit(5);
  });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(Log[0], 7u);
}

TEST_F(HtmTest, StreamingStoresConflictLikeNormalStores) {
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) static uint64_t Slot;
  Slot = 0;
  // A streams a write to Slot; before A commits, B reads Slot and
  // commits a dependent write: exactly one order survives. Here B
  // commits first, so A's commit must still succeed (write-write only);
  // then flip it: A commits first while B holds a stale read -> B aborts.
  TxResult RB = runHtmTx(TxB, [&](HtmTx &T) {
    T.load(&Slot);
    TxResult RA = runHtmTx(TxA, [&](HtmTx &T2) {
      T2.storeStream(&Slot, 1);
    });
    ASSERT_TRUE(RA.Committed);
    T.store(&Slot, 2); // Stale snapshot: must fail validation.
  });
  EXPECT_FALSE(RB.Committed);
  EXPECT_EQ(RB.Code, AbortCode::Conflict);
  EXPECT_EQ(Slot, 1u);
}

TEST_F(HtmTest, StreamingStoresCountTowardCapacity) {
  Cfg.MaxWriteSetLines = 2;
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  static uint64_t Lines[8 * 8];
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (unsigned I = 0; I != 8; ++I)
      T.storeStream(&Lines[I * 8], I); // One cache line each.
  });
  EXPECT_FALSE(R.Committed);
  EXPECT_EQ(R.Code, AbortCode::Capacity);
}

TEST_F(HtmTest, NonTxLoadNeverObservesMidCommit) {
  // A committer that writes two words of an invariant (sum constant)
  // with its write-back raced by non-transactional readers: every read
  // pair must satisfy the invariant thanks to stripe-consistent loads.
  makeRuntime();
  struct alignas(64) Pair {
    uint64_t A;
  };
  // Start high enough that 4000 decrements cannot wrap below zero: a
  // wrapped value is a legitimately committed one and would break the
  // monotonicity bounds below.
  static Pair P[2];
  P[0].A = 4500;
  P[1].A = 4500;
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    HtmTx Tx(*Rt, 0);
    for (int I = 0; I != 4000; ++I) {
      runHtmTx(Tx, [&](HtmTx &T) {
        uint64_t X = T.load(&P[0].A);
        uint64_t Y = T.load(&P[1].A);
        T.store(&P[0].A, X - 1);
        T.store(&P[1].A, Y + 1);
      });
    }
    Stop.store(true);
  });
  uint64_t Violations = 0;
  while (!Stop.load()) {
    // Single-word loads are individually consistent; the sum check needs
    // both, so read them in one consistent snapshot loop.
    uint64_t X = Rt->nonTxLoad(&P[0].A);
    uint64_t Y = Rt->nonTxLoad(&P[1].A);
    // X and Y are from different instants; only check bounds here.
    if (X > 4500 || Y < 4500)
      ++Violations; // Mid-write-back values would break monotonicity.
  }
  Writer.join();
  EXPECT_EQ(Violations, 0u);
  EXPECT_EQ(P[0].A + P[1].A, 9000u);
}

TEST_F(HtmTest, AbortDuringCommitRestoresStripeVersions) {
  // Force a validation failure at commit and check that a subsequent
  // transaction can still use the involved stripes normally.
  makeRuntime();
  HtmTx TxA(*Rt, 0), TxB(*Rt, 1);
  alignas(64) static uint64_t X, Y;
  X = Y = 0;
  TxResult RA = runHtmTx(TxA, [&](HtmTx &T) {
    T.load(&X);
    TxResult RB = runHtmTx(TxB, [&](HtmTx &T2) { T2.store(&X, 1); });
    ASSERT_TRUE(RB.Committed);
    T.store(&Y, 1); // Commit-time validation of X must fail.
  });
  EXPECT_FALSE(RA.Committed);
  TxResult R2 = runHtmTx(TxA, [&](HtmTx &T) {
    T.store(&Y, T.load(&X) + 5);
  });
  EXPECT_TRUE(R2.Committed);
  EXPECT_EQ(Y, 6u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Hot-path regression tests: dense read-set validation and the write-filter
// fast path (see DESIGN.md "hot-path engineering").
//===----------------------------------------------------------------------===//

namespace {

TEST_F(HtmTest, CommitValidationScalesWithReadsPerformed) {
  // The dense occupied-slot index makes commit-time validation O(reads
  // performed): a transaction that read N distinct lines walks exactly N
  // read-set slots, never the full MaxReadSetLines-slot table.
  makeRuntime();
  HtmTx Reader(*Rt, 0), Writer(*Rt, 1);
  constexpr size_t N = 64;
  std::vector<uint64_t> Arena((N + 8) * 8, 0); // 64-byte-strided words.
  uint64_t Sink = 0;
  // A same-stripe collision between the bumper word and a read line would
  // abort the reader; cycle through candidate bumper words until committed
  // (with 2^20 stripes the first candidate virtually always works).
  TxResult R{};
  for (size_t Cand = 0; Cand != 4 && !R.Committed; ++Cand) {
    Reader.resetStats();
    R = runHtmTx(Reader, [&](HtmTx &T) {
      for (size_t I = 0; I != N; ++I)
        Sink += T.load(&Arena[I * 8]);
      // An unrelated commit bumps the global clock so the reader's commit
      // cannot take the nothing-happened shortcut and must validate.
      TxResult W = runHtmTx(
          Writer, [&](HtmTx &T2) { T2.store(&Arena[(N + 1 + Cand) * 8], 1); });
      ASSERT_TRUE(W.Committed);
      T.store(&Arena[N * 8], Sink);
    });
  }
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Reader.stats().ValidatedReadSlots, N);
  EXPECT_LT(N, Cfg.MaxReadSetLines) << "test must not fill the table";
}

TEST_F(HtmTest, WriteFilterHasNoFalseNegatives) {
  // The 64-bit write-set filter may only skip the write-buffer probe when
  // the word is definitely absent. Saturate it with 200 distinct words
  // (guaranteeing every filter bit collides many times over), then read
  // every word back: each load must return its buffered value.
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  constexpr size_t N = 200;
  std::vector<uint64_t> Arena(N * 8, 0);
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (size_t I = 0; I != N; ++I)
      T.store(&Arena[I * 8], I + 1000);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(T.load(&Arena[I * 8]), I + 1000) << "lost buffered write " << I;
  });
  ASSERT_TRUE(R.Committed);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Arena[I * 8], I + 1000);
}

TEST_F(HtmTest, WrittenWordTagRoundTrip) {
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  alignas(64) static uint64_t A, B, C;
  A = 40;
  B = C = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    EXPECT_EQ(T.writtenWordTag(&A), nullptr); // Never written.
    // First store: the caller's tag comes back, with the committed value.
    uint64_t Old = 0;
    EXPECT_EQ(T.storeTracked(&A, 5, 7, Old), 7u);
    EXPECT_EQ(Old, 40u);
    EXPECT_EQ(T.load(&A), 5u);
    ASSERT_NE(T.writtenWordTag(&A), nullptr);
    EXPECT_EQ(*T.writtenWordTag(&A), 7u);
    // Repeat: the first store's tag comes back and Old is left alone.
    Old = 99;
    EXPECT_EQ(T.storeTracked(&A, 6, 8, Old), 7u);
    EXPECT_EQ(Old, 99u);
    EXPECT_EQ(T.load(&A), 6u);
    T.store(&A, 7); // An untagged overwrite preserves the tag.
    EXPECT_EQ(*T.writtenWordTag(&A), 7u);
    T.store(&B, 1); // Untagged stores are found, with no meaningful tag.
    ASSERT_NE(T.writtenWordTag(&B), nullptr);
    EXPECT_EQ(T.storeTracked(&B, 2, 9, Old), ~0u);
    T.storeStream(&C, 9); // Stream writes are not read-your-write.
    EXPECT_EQ(T.writtenWordTag(&C), nullptr);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(A, 7u);
  EXPECT_EQ(B, 2u);
  EXPECT_EQ(C, 9u);
}

TEST_F(HtmTest, StoreTrackedDrawsLikeLoadThenStore) {
  // Spurious aborts must replay identically when undo logging switches
  // from load + store to storeTracked: a first store draws twice (its
  // load and its store), a repeat once. Two contexts with the same seed
  // run the same word sequence both ways and must abort at the same step.
  Cfg.SpuriousAbortPerMillion = 100000;
  makeRuntime();
  alignas(64) static uint64_t W[8];
  unsigned Aborted = 0;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    HtmTx Plain(*Rt, 0, Seed), Tracked(*Rt, 0, Seed);
    size_t PlainSteps = 0, TrackedSteps = 0;
    TxResult RP = runHtmTx(Plain, [&](HtmTx &T) {
      for (size_t I = 0; I != 8; ++I) {
        T.store(&W[I], T.load(&W[I]) + 1);
        ++PlainSteps;
        T.store(&W[I], I);
        ++PlainSteps;
      }
    });
    TxResult RT = runHtmTx(Tracked, [&](HtmTx &T) {
      uint64_t Old = 0;
      for (size_t I = 0; I != 8; ++I) {
        T.storeTracked(&W[I], 1, (uint32_t)I, Old);
        ++TrackedSteps;
        T.storeTracked(&W[I], I, 99, Old);
        ++TrackedSteps;
      }
    });
    EXPECT_EQ(PlainSteps, TrackedSteps) << "seed " << Seed;
    EXPECT_EQ(RP.Committed, RT.Committed) << "seed " << Seed;
    EXPECT_EQ(RP.Code, RT.Code) << "seed " << Seed;
    Aborted += !RT.Committed;
  }
  EXPECT_GT(Aborted, 0u) << "no spurious abort drawn; the test checks nothing";
}

TEST_F(HtmTest, WriteIndexGrowsThroughEveryDoubling) {
  // The write index starts small and doubles as the transaction grows.
  // Fill the whole word capacity with tagged first stores and, right
  // after every power-of-two count (each growth point lies just past
  // one), read every buffered word and its tag back.
  makeRuntime();
  HtmTx Tx(*Rt, 0);
  constexpr size_t Words = 4096;
  ASSERT_EQ(Cfg.MaxWriteSetLines * (CacheLineBytes / 8), Words);
  alignas(64) static uint64_t Arena[Words];
  std::fill(std::begin(Arena), std::end(Arena), 0);
  size_t Checks = 0, Mismatches = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    for (size_t N = 1; N <= Words; ++N) {
      uint64_t Old = 1;
      T.storeTracked(&Arena[N - 1], N, (uint32_t)(N - 1), Old);
      Mismatches += Old != 0;
      if (N < 2 || ((N - 1) & (N - 2)) != 0)
        continue;
      ++Checks;
      for (size_t I = 0; I != N; ++I) {
        uint32_t *Tag = T.writtenWordTag(&Arena[I]);
        Mismatches += T.load(&Arena[I]) != I + 1 || !Tag || *Tag != I;
      }
    }
    EXPECT_EQ(T.writeSetWords(), Words);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Checks, 12u); // N = 2, 3, 5, ..., 2049.
  EXPECT_EQ(Mismatches, 0u);
  for (size_t I = 0; I != Words; ++I)
    ASSERT_EQ(Arena[I], I + 1) << "word " << I;
  EXPECT_EQ(Tx.stats().MaxWriteWordsPerTxn, Words);
}

TEST_F(HtmTest, ReadSetGrowsToCapacityAndValidatesEveryRead) {
  // Read distinct lines until the read set overflows: the loads before
  // the overflow cover exactly MaxReadSetLines distinct stripes (lines
  // may share a stripe). A fresh context reading those lines twice over
  // then grows its read index from the start up to capacity -- the second
  // pass must find every stripe each growth re-inserted -- and a forced
  // validation must walk exactly one entry per stripe read.
  makeRuntime();
  HtmTx Prober(*Rt, 0), Writer(*Rt, 1);
  constexpr size_t Lines = 10000; // Comfortably more distinct stripes.
  std::vector<uint64_t> Arena((Lines + 8) * 8, 0);
  size_t Loaded = 0;
  TxResult Over = runHtmTx(Prober, [&](HtmTx &T) {
    for (size_t I = 0; I != Lines; ++I) {
      T.load(&Arena[I * 8]);
      ++Loaded;
    }
  });
  ASSERT_FALSE(Over.Committed);
  ASSERT_EQ(Over.Code, AbortCode::Capacity);
  ASSERT_GE(Loaded, Cfg.MaxReadSetLines);

  // A same-stripe collision between the bumper word and a read line
  // aborts the reader; retry with another bumper word, on a fresh context
  // so every attempt grows its index from the start.
  bool Committed = false;
  uint64_t Validated = 0;
  for (size_t Cand = 0; Cand != 4 && !Committed; ++Cand) {
    HtmTx Reader(*Rt, 0);
    TxResult R = runHtmTx(Reader, [&](HtmTx &T) {
      uint64_t Sink = 0;
      for (size_t Pass = 0; Pass != 2; ++Pass)
        for (size_t I = 0; I != Loaded; ++I)
          Sink += T.load(&Arena[I * 8]);
      // An unrelated commit bumps the clock so the commit must validate.
      TxResult W = runHtmTx(Writer, [&](HtmTx &T2) {
        T2.store(&Arena[(Lines + 1 + Cand) * 8], 1);
      });
      ASSERT_TRUE(W.Committed);
      T.store(&Arena[Lines * 8], Sink);
    });
    EXPECT_NE(R.Code, AbortCode::Capacity) << "a re-read was not found";
    Committed = R.Committed;
    Validated = Reader.stats().ValidatedReadSlots;
  }
  ASSERT_TRUE(Committed);
  EXPECT_EQ(Validated, Cfg.MaxReadSetLines);
}

TEST_F(HtmTest, CapacityAbortAtGrowthPointLeavesMemoryAndNextTxEmpty) {
  // The default capacities are powers of two, so the insert that
  // overflows the write set is the one that would double its index
  // again. The abort must win: memory keeps its committed values, and
  // the next transaction on the context starts with empty sets even
  // though its indexes kept their grown size.
  makeRuntime();
  HtmTx Tx(*Rt, 0), Writer(*Rt, 1);
  constexpr size_t Words = 4096;
  ASSERT_EQ(Cfg.MaxWriteSetLines * (CacheLineBytes / 8), Words);
  alignas(64) static uint64_t Arena[Words + 8];
  for (size_t I = 0; I != Words + 8; ++I)
    Arena[I] = 1000 + I;
  size_t Stored = 0;
  TxResult Over = runHtmTx(Tx, [&](HtmTx &T) {
    uint64_t Old = 0;
    for (size_t I = 0; I != Words + 1; ++I) {
      T.storeTracked(&Arena[I], I, (uint32_t)I, Old);
      ++Stored;
    }
  });
  ASSERT_FALSE(Over.Committed);
  EXPECT_EQ(Over.Code, AbortCode::Capacity);
  EXPECT_EQ(Stored, Words);
  for (size_t I = 0; I != Words + 8; ++I)
    ASSERT_EQ(Arena[I], 1000 + I) << "word " << I;

  Tx.resetStats();
  size_t Stale = 0;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    EXPECT_EQ(T.writeSetWords(), 0u);
    for (size_t I = 0; I != Words; ++I)
      Stale += T.writtenWordTag(&Arena[I]) != nullptr;
    for (size_t I = 0; I != 64; ++I) // The first eight lines.
      Stale += T.load(&Arena[I]) != 1000 + I;
    uint64_t Old = 0;
    EXPECT_EQ(T.storeTracked(&Arena[5], 1, 3, Old), 3u);
    EXPECT_EQ(Old, 1005u);
    // Force validation: it must walk only this transaction's reads.
    TxResult W = runHtmTx(Writer, [&](HtmTx &T2) {
      T2.store(&Arena[Words + 7], 0);
    });
    ASSERT_TRUE(W.Committed);
  });
  ASSERT_TRUE(R.Committed);
  EXPECT_EQ(Stale, 0u);
  EXPECT_EQ(Arena[5], 1u);
  EXPECT_EQ(Tx.stats().MaxWriteWordsPerTxn, 1u);
  EXPECT_EQ(Tx.stats().ValidatedReadSlots, 8u);
}

} // namespace
