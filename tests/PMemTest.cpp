//===- tests/PMemTest.cpp - Persistent-memory simulator tests -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmem/PMemAllocator.h"
#include "pmem/PMemPool.h"
#include "support/Clock.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <cstring>
#include <vector>

using namespace crafty;

namespace {

PMemConfig trackedConfig(size_t Bytes = 1 << 20) {
  PMemConfig C;
  C.PoolBytes = Bytes;
  C.Mode = PMemMode::Tracked;
  C.DrainLatencyNs = 0;
  return C;
}

uint64_t imageWordAt(PMemPool &Pool, const uint64_t *Addr) {
  std::vector<uint8_t> Img = Pool.imageSnapshot();
  size_t Off = reinterpret_cast<const uint8_t *>(Addr) - Pool.base();
  uint64_t V;
  std::memcpy(&V, Img.data() + Off, sizeof(V));
  return V;
}

TEST(PMemPool, CarveIsAlignedAndDisjoint) {
  PMemPool Pool(trackedConfig());
  void *A = Pool.carve(100);
  void *B = Pool.carve(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % CacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(B) % CacheLineBytes, 0u);
  EXPECT_GE(reinterpret_cast<uint8_t *>(B),
            reinterpret_cast<uint8_t *>(A) + 100);
  EXPECT_TRUE(Pool.contains(A));
  EXPECT_TRUE(Pool.contains(B));
}

TEST(PMemPool, StoreDoesNotPersistWithoutFlush) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 42;
  Pool.onCommittedStore(W);
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  EXPECT_TRUE(Pool.isLineDirty(W));
}

TEST(PMemPool, ClwbAlonePersistsNothingUntilDrain) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 42;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 42u);
  EXPECT_FALSE(Pool.isLineDirty(W));
}

TEST(PMemPool, DrainIsPerThread) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 7;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  Pool.drain(1); // A different thread's drain does not complete ours.
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 7u);
}

TEST(PMemPool, CrashDiscardsUnpersistedStores) {
  PMemPool Pool(trackedConfig());
  auto *A = static_cast<uint64_t *>(Pool.carve(8));
  auto *B = static_cast<uint64_t *>(Pool.carve(8));
  *A = 1;
  Pool.onCommittedStore(A);
  Pool.persist(0, A, 8);
  *B = 2;
  Pool.onCommittedStore(B);
  Pool.crash();
  EXPECT_EQ(*A, 1u) << "persisted store survives";
  EXPECT_EQ(*B, 0u) << "unpersisted store is lost";
}

TEST(PMemPool, EvictionCanPersistDirtyLinesSpontaneously) {
  PMemConfig C = trackedConfig(/*Bytes=*/64 << 10);
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 9;
  Pool.onCommittedStore(W);
  // Random probing: iterate until the dirty line is chosen.
  for (int I = 0; I != 1000 && imageWordAt(Pool, W) != 9u; ++I)
    Pool.evictRandomLines(64);
  EXPECT_EQ(imageWordAt(Pool, W), 9u);
  EXPECT_GT(Pool.stats().EvictedLines, 0u);
}

TEST(PMemPool, PersistDirectBypassesCache) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  uint64_t V = 1234;
  Pool.persistDirect(W, &V, sizeof(V));
  EXPECT_EQ(*W, 1234u);
  EXPECT_EQ(imageWordAt(Pool, W), 1234u);
}

TEST(PMemPool, FlushEverythingPersistsAllDirtyLines) {
  PMemPool Pool(trackedConfig());
  auto *A = static_cast<uint64_t *>(Pool.carve(8));
  auto *B = static_cast<uint64_t *>(Pool.carve(8));
  *A = 5;
  *B = 6;
  Pool.onCommittedStore(A);
  Pool.onCommittedStore(B);
  Pool.flushEverything();
  EXPECT_EQ(imageWordAt(Pool, A), 5u);
  EXPECT_EQ(imageWordAt(Pool, B), 6u);
}

TEST(PMemPool, StatsCountOperations) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(128));
  Pool.clwbRange(0, W, 128); // Two cache lines.
  Pool.drain(0);
  Pool.drain(0); // No pending work: an empty drain.
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 2u);
  EXPECT_EQ(S.LinesScheduled, 2u);
  EXPECT_EQ(S.Drains, 2u);
  EXPECT_EQ(S.EmptyDrains, 1u);
  EXPECT_EQ(S.drainsWithWork(), 1u);
}

TEST(PMemPool, RepeatedClwbsOfOneLineCoalesce) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(CacheLineBytes));
  *W = 1;
  Pool.onCommittedStore(W);
  for (int I = 0; I != 100; ++I)
    Pool.clwb(0, W);
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 100u);
  EXPECT_EQ(S.LinesScheduled, 1u) << "repeats within one epoch coalesce";
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 1u);
  Pool.clwb(0, W); // New epoch: re-arms even with no intervening store.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
}

TEST(PMemPool, LinesScheduledBoundedByDistinctDirtyLines) {
  // PendingLines used to accumulate one entry per clwb call; with the
  // filter, repeats of an unchanged line never schedule new write-backs.
  PMemPool Pool(trackedConfig());
  auto *Base = static_cast<uint64_t *>(Pool.carve(3 * CacheLineBytes));
  const size_t WordsPerLine = CacheLineBytes / sizeof(uint64_t);
  std::vector<uint64_t *> Words;
  for (size_t L = 0; L != 3; ++L)
    for (size_t I = 0; I != 4; ++I) {
      uint64_t *W = Base + L * WordsPerLine + I;
      *W = L * 10 + I + 1;
      Pool.onCommittedStore(W);
      Words.push_back(W);
    }
  for (int Round = 0; Round != 50; ++Round)
    for (uint64_t *W : Words)
      Pool.clwb(0, W);
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 50u * Words.size());
  EXPECT_EQ(S.LinesScheduled, 3u) << "<= distinct dirty lines";
  Pool.drain(0);
  for (uint64_t *W : Words)
    EXPECT_EQ(imageWordAt(Pool, W), *W);
}

TEST(PMemPool, RedirtiedLineRearmsWithinEpoch) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  EXPECT_EQ(Pool.stats().LinesScheduled, 1u);
  *W = 2;
  Pool.onCommittedStore(W); // Bumps the line's store generation.
  Pool.clwb(0, W);          // Same epoch, but the line changed: re-arm.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
  Pool.clwb(0, W); // Unchanged again: coalesced.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 2u);
}

TEST(PMemPool, EagerWritebackExposesRedirtyAfterClwbHazard) {
  // Hardware may write a line back at any instant between the CLWB and
  // the fence. EagerWriteback models the earliest instant: a store after
  // the clwb is then NOT covered by the next drain, so a crash must be
  // allowed to expose it as unpersisted.
  PMemConfig C = trackedConfig();
  C.EagerWriteback = true;
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W); // Written back now.
  *W = 2;
  Pool.onCommittedStore(W); // Re-dirtied after the clwb.
  Pool.drain(0);            // Covers nothing new.
  Pool.crash();
  EXPECT_EQ(*W, 1u) << "second store lost: no covering re-flush";
}

TEST(PMemPool, EagerWritebackHonorsCoveringReflush) {
  // The dual of the hazard test: a fresh clwb after the re-dirtying
  // store must never be coalesced away (same line, same epoch -- only
  // the store generation distinguishes it).
  PMemConfig C = trackedConfig();
  C.EagerWriteback = true;
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  *W = 2;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W); // Covering re-flush.
  Pool.drain(0);
  Pool.crash();
  EXPECT_EQ(*W, 2u) << "re-flush re-armed despite the coalescing filter";
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
}

TEST(PMemPool, LatencyModeChargesDrain) {
  PMemConfig C;
  C.PoolBytes = 1 << 16;
  C.Mode = PMemMode::LatencyOnly;
  C.DrainLatencyNs = 200000; // 0.2 ms, measurable.
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  // The write-back's deadline starts at the CLWB (drain waits only for
  // the remainder), so time the clwb+drain pair as a whole.
  uint64_t T0 = monotonicNanos();
  Pool.clwb(0, W);
  Pool.drain(0);
  uint64_t Elapsed = monotonicNanos() - T0;
  EXPECT_GE(Elapsed, 200000u);
  // Drain with no pending flush is free.
  T0 = monotonicNanos();
  Pool.drain(0);
  EXPECT_LT(monotonicNanos() - T0, 200000u);
}

TEST(PMemAllocator, AllocFreeReuse) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 2, 64 << 10);
  void *A = Alloc.alloc(0, 24);
  void *B = Alloc.alloc(0, 24);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(A, B);
  EXPECT_TRUE(Pool.contains(A));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % 8, 0u);
  Alloc.dealloc(0, A);
  void *C = Alloc.alloc(0, 20); // Same size class: reuses A.
  EXPECT_EQ(C, A);
  EXPECT_GT(Alloc.bytesInUse(), 0u);
}

TEST(PMemAllocator, PerThreadArenasAreDisjoint) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 2, 4 << 10);
  void *A = Alloc.alloc(0, 64);
  void *B = Alloc.alloc(1, 64);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_GE(std::abs(reinterpret_cast<intptr_t>(A) -
                     reinterpret_cast<intptr_t>(B)),
            (intptr_t)(4 << 10) - 128);
}

TEST(PMemAllocator, ExhaustionReturnsNull) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 1, 1 << 10);
  void *Last = nullptr;
  int Count = 0;
  while (void *P = Alloc.alloc(0, 128)) {
    Last = P;
    ++Count;
  }
  EXPECT_GT(Count, 0);
  EXPECT_NE(Last, nullptr);
}

//===----------------------------------------------------------------------===//
// Committed-store tracking through the HTM write-back (MemoryHooks runs)
//===----------------------------------------------------------------------===//

/// Records every onStore and counts evictions; ignores the rest.
class StoreRecorder : public PMemObserver {
public:
  std::vector<StoredWord> Stores;
  size_t Evictions = 0;

  void onStore(void *Addr, uint64_t OldVal, uint64_t NewVal,
               bool ValuesKnown) override {
    EXPECT_TRUE(ValuesKnown);
    Stores.push_back(StoredWord{static_cast<uint64_t *>(Addr), OldVal, NewVal});
  }
  void onClwb(uint32_t, const void *) override {}
  void onDrain(uint32_t, bool) override {}
  void onEvict(const void *) override { ++Evictions; }
  void onPersistDirect(const void *, size_t) override {}
  void onPersistImageWord(uint32_t, const void *, uint64_t) override {}
  void onFlushEverything() override {}
  void onCrash() override {}
  void onReset() override {}
};

/// A tracked pool behind an HTM runtime whose store hook also records the
/// size of every run it forwards to the pool.
class WriteBackHarness {
public:
  explicit WriteBackHarness(uint32_t EvictionPerMillion = 0)
      : Pool(config(EvictionPerMillion)) {
    MemoryHooks Hooks = Pool.htmHooks();
    Hooks.Ctx = this;
    Hooks.OnStoreRun = [](void *Ctx, const StoredWord *Words, size_t N) {
      auto *H = static_cast<WriteBackHarness *>(Ctx);
      H->Runs.push_back(N);
      H->Pool.onCommittedRun(Words, N);
    };
    Hooks.OnCommitFence = [](void *Ctx, uint32_t ThreadId) {
      static_cast<WriteBackHarness *>(Ctx)->Pool.drain(ThreadId);
    };
    Htm.setMemoryHooks(Hooks);
  }

  /// A fresh line whose words hold (volatile and persisted) 1, 2, ... 8.
  uint64_t *cleanLine() {
    auto *L = static_cast<uint64_t *>(Pool.carve(CacheLineBytes));
    uint64_t Init[CacheLineBytes / 8];
    for (size_t I = 0; I != CacheLineBytes / 8; ++I)
      Init[I] = I + 1;
    Pool.persistDirect(L, Init, sizeof(Init));
    return L;
  }

  /// Commits one transaction running \p Body.
  template <typename Fn> void commit(Fn &&Body) {
    HtmTx Tx(Htm, 0);
    ASSERT_TRUE(runHtmTx(Tx, Body).Committed);
  }

  PMemPool Pool;
  HtmRuntime Htm;
  std::vector<size_t> Runs;

private:
  static PMemConfig config(uint32_t EvictionPerMillion) {
    PMemConfig C = trackedConfig();
    C.EvictionPerMillion = EvictionPerMillion;
    return C;
  }
};

TEST(WriteBackTracking, UnchangedCommitLeavesCleanLineClean) {
  WriteBackHarness H;
  uint64_t *L = H.cleanLine();
  ASSERT_FALSE(H.Pool.isLineDirty(L));
  H.commit([&](HtmTx &T) {
    for (size_t I = 0; I != 8; ++I)
      T.store(&L[I], I + 1); // The value already there.
  });
  EXPECT_EQ(H.Runs, std::vector<size_t>{8});
  EXPECT_FALSE(H.Pool.isLineDirty(L));
}

TEST(WriteBackTracking, ObserverSeesEveryWordOfARun) {
  WriteBackHarness H;
  StoreRecorder Rec;
  H.Pool.setObserver(&Rec);
  uint64_t *L = H.cleanLine();
  H.commit([&](HtmTx &T) {
    for (size_t I = 0; I != 8; ++I)
      T.store(&L[I], I == 3 ? 4 : 100 + I); // Word 3 keeps its value.
  });
  H.Pool.setObserver(nullptr);
  EXPECT_EQ(H.Runs, std::vector<size_t>{8});
  ASSERT_EQ(Rec.Stores.size(), 8u);
  for (size_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Rec.Stores[I].Addr, &L[I]) << I;
    EXPECT_EQ(Rec.Stores[I].OldVal, I + 1) << I;
    EXPECT_EQ(Rec.Stores[I].NewVal, I == 3 ? 4 : 100 + I) << I;
  }
}

TEST(WriteBackTracking, OneChangedWordDirtiesTheLine) {
  WriteBackHarness H;
  uint64_t *L = H.cleanLine();
  H.commit([&](HtmTx &T) {
    for (size_t I = 0; I != 8; ++I)
      T.store(&L[I], I == 5 ? 60 : I + 1);
  });
  EXPECT_EQ(H.Runs, std::vector<size_t>{8});
  EXPECT_TRUE(H.Pool.isLineDirty(L));
  EXPECT_EQ(L[5], 60u);
  EXPECT_EQ(imageWordAt(H.Pool, &L[5]), 6u) << "persisted without a flush";
}

TEST(WriteBackTracking, LastRunOfTheWriteSetIsReported) {
  WriteBackHarness H;
  uint64_t *A = H.cleanLine(), *B = H.cleanLine(), *C = H.cleanLine();
  H.commit([&](HtmTx &T) {
    T.store(&A[0], 10);
    T.store(&B[0], 20);
    T.store(&B[1], 21);
    T.store(&C[7], 30); // Alone in the last run.
  });
  EXPECT_EQ(H.Runs, (std::vector<size_t>{1, 2, 1}));
  EXPECT_TRUE(H.Pool.isLineDirty(A));
  EXPECT_TRUE(H.Pool.isLineDirty(B));
  EXPECT_TRUE(H.Pool.isLineDirty(C));
}

TEST(WriteBackTracking, BatchReportsOneWordRuns) {
  WriteBackHarness H;
  StoreRecorder Rec;
  H.Pool.setObserver(&Rec);
  uint64_t *L = H.cleanLine();
  // Ten stores to one line: two words are stored twice.
  uint64_t *Addrs[10];
  uint64_t Vals[10];
  for (size_t I = 0; I != 10; ++I) {
    Addrs[I] = &L[I % 8];
    Vals[I] = 200 + I;
  }
  H.Htm.nonTxStoreBatch(Addrs, Vals, 10);
  H.Pool.setObserver(nullptr);
  EXPECT_EQ(H.Runs, std::vector<size_t>(10, 1));
  ASSERT_EQ(Rec.Stores.size(), 10u);
  EXPECT_EQ(Rec.Stores[8].OldVal, 200u);
  EXPECT_EQ(Rec.Stores[8].NewVal, 208u);
  EXPECT_EQ(L[0], 208u);
  EXPECT_EQ(L[2], 202u);
}

TEST(WriteBackTracking, EvictionCanPersistAPrefixOfABatch) {
  WriteBackHarness H(/*EvictionPerMillion=*/1000000);
  /// Records the line's persisted image at every eviction.
  class ImageAtEviction : public StoreRecorder {
  public:
    ImageAtEviction(PMemPool &Pool, uint64_t *Line) : Pool(Pool), Line(Line) {}
    void onEvict(const void *) override {
      std::vector<uint64_t> Image;
      for (size_t I = 0; I != 8; ++I)
        Image.push_back(imageWordAt(Pool, &Line[I]));
      Images.push_back(Image);
    }
    PMemPool &Pool;
    uint64_t *Line;
    std::vector<std::vector<uint64_t>> Images;
  };
  uint64_t *L = H.cleanLine();
  ImageAtEviction Rec(H.Pool, L);
  H.Pool.setObserver(&Rec);
  uint64_t *Addrs[8];
  uint64_t Vals[8];
  for (size_t I = 0; I != 8; ++I) {
    Addrs[I] = &L[I];
    Vals[I] = 100 + I;
  }
  H.Htm.nonTxStoreBatch(Addrs, Vals, 8);
  H.Pool.setObserver(nullptr);
  // Every store is followed by its own eviction, so the image passes
  // through each prefix of the batch: words [0, K] new, the rest old.
  ASSERT_EQ(Rec.Images.size(), 8u);
  for (size_t K = 0; K != 8; ++K)
    for (size_t I = 0; I != 8; ++I)
      EXPECT_EQ(Rec.Images[K][I], I <= K ? 100 + I : I + 1) << K << " " << I;
}

TEST(WriteBackTracking, EvictionWritesBackTheLineAsTheRunLeftIt) {
  WriteBackHarness H(/*EvictionPerMillion=*/1000000);
  uint64_t *L = H.cleanLine();
  H.commit([&](HtmTx &T) {
    for (size_t I = 0; I != 8; ++I)
      T.store(&L[I], 100 + I);
  });
  // Every word's draw hits, yet the run is written back once, whole.
  EXPECT_EQ(H.Pool.stats().EvictedLines, 1u);
  EXPECT_FALSE(H.Pool.isLineDirty(L));
  for (size_t I = 0; I != 8; ++I)
    EXPECT_EQ(imageWordAt(H.Pool, &L[I]), 100 + I) << I;
}

} // namespace
