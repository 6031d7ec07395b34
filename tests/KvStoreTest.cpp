//===- tests/KvStoreTest.cpp - KV service tests ---------------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Tests the sharded durable KV service (src/kv/): engine semantics,
// recoverable full/too-big conditions, the wire protocol's incremental
// parser, a crash-property sweep (crash at every operation boundary on a
// multi-shard store with cache-eviction chaos and both dynamic checkers
// attached), file-backed reopen across store instances, and an in-process
// server/client smoke over loopback TCP.
//
//===----------------------------------------------------------------------===//

#include "check/PersistCheck.h"
#include "check/TxRaceCheck.h"
#include "core/Crafty.h"
#include "kv/KvClient.h"
#include "kv/KvServer.h"
#include "kv/KvShard.h"
#include "kv/KvStore.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <signal.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace crafty;
using namespace crafty::kv;

namespace {

KvConfig smallConfig(unsigned Shards = 2) {
  KvConfig KC;
  KC.NumShards = Shards;
  KC.SlotsPerShard = 256;
  KC.MaxValueBytes = 120;
  KC.ThreadsPerShard = 2;
  KC.LogEntriesPerThread = 1 << 12;
  KC.Mode = PMemMode::Tracked;
  KC.DrainLatencyNs = 0;
  return KC;
}

std::string valueFor(uint64_t Key, uint64_t Seq) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "value-%llu-%llu-",
                (unsigned long long)Key, (unsigned long long)Seq);
  std::string V = Buf;
  V.append(32 + Key % 29, (char)('a' + Seq % 26));
  return V;
}

/// smallConfig plus a durable page heap: values above MaxValueBytes (120)
/// route through the heap up to its 64 KiB extent cap.
KvConfig heapConfig(unsigned Shards = 2) {
  KvConfig KC = smallConfig(Shards);
  KC.HeapPages = 256;
  // WAL slots bound how many extents can be staged at once; a batched
  // cycle pre-stages up to BatchTxnLimit values per chunk, so keep the
  // default headroom.
  KC.HeapWalSlots = 64;
  return KC;
}

/// valueFor stretched to exactly \p Len bytes (prefix identifies
/// key/seq; tail is a deterministic pad), for heap-sized payloads.
std::string bigValueFor(uint64_t Key, uint64_t Seq, size_t Len) {
  std::string V = valueFor(Key, Seq);
  if (V.size() > Len)
    V.resize(Len);
  while (V.size() < Len)
    V.push_back((char)('A' + (V.size() * 31 + Key + Seq) % 26));
  return V;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

TEST(KvStore, BasicOps) {
  KvStore Store(smallConfig());
  std::string Out;

  EXPECT_EQ(Store.get(0, 7, Out), KvStatus::NotFound);
  EXPECT_EQ(Store.set(0, 7, "hello"), KvStatus::Ok);
  EXPECT_EQ(Store.get(0, 7, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "hello");

  // Overwrite, including size changes in both directions.
  EXPECT_EQ(Store.set(0, 7, "a much longer value than before"),
            KvStatus::Ok);
  EXPECT_EQ(Store.get(0, 7, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "a much longer value than before");
  EXPECT_EQ(Store.set(0, 7, ""), KvStatus::Ok);
  EXPECT_EQ(Store.get(0, 7, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "");

  EXPECT_EQ(Store.del(0, 7), KvStatus::Ok);
  EXPECT_EQ(Store.del(0, 7), KvStatus::NotFound);
  EXPECT_EQ(Store.get(0, 7, Out), KvStatus::NotFound);

  // CAS.
  EXPECT_EQ(Store.cas(0, 9, "x", "y"), KvStatus::NotFound);
  EXPECT_EQ(Store.set(0, 9, "x"), KvStatus::Ok);
  EXPECT_EQ(Store.cas(0, 9, "wrong", "y"), KvStatus::Mismatch);
  EXPECT_EQ(Store.cas(0, 9, "x", "y"), KvStatus::Ok);
  EXPECT_EQ(Store.get(0, 9, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "y");

  // Values over MaxValueBytes are rejected recoverably.
  std::string Huge(200, 'z');
  EXPECT_EQ(Store.set(0, 9, Huge), KvStatus::TooBig);
  EXPECT_EQ(Store.get(0, 9, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "y"); // Unchanged.
}

TEST(KvStore, MgetAndBatchedMset) {
  KvStore Store(smallConfig());
  std::vector<KvBatchItem> Items;
  std::vector<std::string> Vals;
  for (uint64_t K = 0; K != 100; ++K)
    Vals.push_back(valueFor(K, 1));
  for (uint64_t K = 0; K != 100; ++K)
    Items.push_back(KvBatchItem{K, Vals[K], KvStatus::Err});
  Store.msetBatch(0, Items);
  for (const KvBatchItem &Item : Items)
    EXPECT_EQ(Item.Status, KvStatus::Ok);

  std::vector<uint64_t> Keys;
  for (uint64_t K = 0; K != 110; ++K)
    Keys.push_back(K);
  std::vector<KvResult> Results = Store.mget(0, Keys);
  ASSERT_EQ(Results.size(), Keys.size());
  for (uint64_t K = 0; K != 100; ++K) {
    EXPECT_EQ(Results[K].Status, KvStatus::Ok);
    EXPECT_EQ(Results[K].Value, Vals[K]);
  }
  for (uint64_t K = 100; K != 110; ++K)
    EXPECT_EQ(Results[K].Status, KvStatus::NotFound);

  KvOpStats Stats = Store.opStats();
  EXPECT_EQ(Stats.Sets, 100u);
}

TEST(KvStore, FullShardIsRecoverable) {
  KvConfig KC = smallConfig(1);
  KC.SlotsPerShard = 16; // Rounds to 16 cells/slots.
  KvStore Store(KC);
  // Fill beyond capacity: the first failures must be ERR full, and the
  // store must stay fully usable afterwards.
  unsigned Stored = 0, Full = 0;
  for (uint64_t K = 0; K != 32; ++K) {
    KvStatus St = Store.set(0, K, "v");
    if (St == KvStatus::Ok)
      ++Stored;
    else if (St == KvStatus::Full)
      ++Full;
  }
  EXPECT_EQ(Stored, 16u);
  EXPECT_EQ(Full, 16u);
  // Deleting frees capacity again; the freed cell is reused.
  EXPECT_EQ(Store.del(0, 0), KvStatus::Ok);
  EXPECT_EQ(Store.set(0, 100, "w"), KvStatus::Ok);
  std::string Out;
  EXPECT_EQ(Store.get(0, 100, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "w");
}

TEST(KvStore, ShardRoutingCoversAllShards) {
  KvStore Store(smallConfig(4));
  std::vector<unsigned> Hits(4, 0);
  for (uint64_t K = 0; K != 1000; ++K)
    ++Hits[Store.shardOf(K)];
  for (unsigned S = 0; S != 4; ++S)
    EXPECT_GT(Hits[S], 100u) << "shard " << S << " starved";
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(KvProtocol, ParsesIncrementally) {
  std::string Wire;
  appendSet(Wire, 42, "hello\nworld"); // Embedded newline in the value.
  appendGet(Wire, 42);

  // Every split point of the byte stream must frame identically.
  for (size_t Split = 0; Split != Wire.size(); ++Split) {
    std::string Buf = Wire.substr(0, Split);
    KvRequest Req;
    ParseResult R = parseRequest(Buf, Req);
    if (R.St == ParseResult::Ok) {
      ASSERT_EQ(Req.Op, KvOp::Set);
      EXPECT_EQ(Req.Key, 42u);
      EXPECT_EQ(Req.Val, "hello\nworld");
    } else {
      EXPECT_EQ(R.St, ParseResult::NeedMore);
    }
  }
  KvRequest Req;
  ParseResult R = parseRequest(Wire, Req);
  ASSERT_EQ(R.St, ParseResult::Ok);
  EXPECT_EQ(Req.Op, KvOp::Set);
  ParseResult R2 =
      parseRequest(std::string_view(Wire).substr(R.Consumed), Req);
  ASSERT_EQ(R2.St, ParseResult::Ok);
  EXPECT_EQ(Req.Op, KvOp::Get);
  EXPECT_EQ(R.Consumed + R2.Consumed, Wire.size());
}

TEST(KvProtocol, ParsesMultiKeyRequests) {
  std::string Wire;
  appendMset(Wire, {{1, "a"}, {2, "bb"}, {3, std::string(100, 'c')}});
  appendMget(Wire, {1, 2, 3});
  KvRequest Req;
  ParseResult R = parseRequest(Wire, Req);
  ASSERT_EQ(R.St, ParseResult::Ok);
  ASSERT_EQ(Req.Op, KvOp::Mset);
  ASSERT_EQ(Req.Pairs.size(), 3u);
  EXPECT_EQ(Req.Pairs[2].second, std::string(100, 'c'));
  ParseResult R2 =
      parseRequest(std::string_view(Wire).substr(R.Consumed), Req);
  ASSERT_EQ(R2.St, ParseResult::Ok);
  ASSERT_EQ(Req.Op, KvOp::Mget);
  EXPECT_EQ(Req.Keys, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(KvProtocol, RejectsMalformedRequests) {
  KvRequest Req;
  for (const char *Bad :
       {"BOGUS 1\n", "GET\n", "GET notakey\n", "SET 1\n", "SET 1 5\nab\n",
        "MGET 2 7\n", "CAS 1 2\n"}) {
    ParseResult R = parseRequest(Bad, Req);
    EXPECT_NE(R.St, ParseResult::Ok) << Bad;
  }
  // A SET whose payload terminator is wrong is malformed, not NeedMore.
  EXPECT_EQ(parseRequest("SET 1 2\nabX", Req).St, ParseResult::Malformed);
}

//===----------------------------------------------------------------------===//
// Crash-property sweep
//===----------------------------------------------------------------------===//

/// One scripted operation of the crash sweep.
struct SweepOp {
  uint64_t Key;
  bool IsDelete;
  std::string Val;
};

std::vector<SweepOp> sweepScript(size_t N) {
  std::vector<SweepOp> Ops;
  for (size_t I = 0; I != N; ++I) {
    SweepOp Op;
    Op.Key = (I * 7) % 48;
    Op.IsDelete = I % 5 == 4;
    if (!Op.IsDelete)
      Op.Val = valueFor(Op.Key, I);
    Ops.push_back(std::move(Op));
  }
  return Ops;
}

/// Runs the script's first \p RunOps operations, with a persist barrier
/// after every \p AckEvery-th op. Returns the index one past the last
/// op covered by a barrier (everything before it is durable).
size_t runScript(KvStore &Store, const std::vector<SweepOp> &Ops,
                 size_t RunOps, size_t AckEvery) {
  size_t Durable = 0;
  for (size_t I = 0; I != RunOps; ++I) {
    const SweepOp &Op = Ops[I];
    if (Op.IsDelete)
      Store.del(0, Op.Key);
    else
      EXPECT_EQ(Store.set(0, Op.Key, Op.Val), KvStatus::Ok);
    if (I % AckEvery == AckEvery - 1) {
      Store.persistAck(0);
      Durable = I + 1;
    }
  }
  return Durable;
}

/// Audits a recovered store: each key must hold the state left by some
/// script prefix that includes every durable op (acked writes survive;
/// the undurable tail may roll back atomically per key, but values are
/// never torn or fabricated).
void auditRecovered(KvStore &Store, const std::vector<SweepOp> &Ops,
                    size_t RunOps, size_t Durable) {
  // Per-key state timeline: state after each of the key's ops.
  std::map<uint64_t, std::vector<std::pair<size_t, std::optional<std::string>>>>
      Timeline;
  for (size_t I = 0; I != RunOps; ++I) {
    const SweepOp &Op = Ops[I];
    Timeline[Op.Key].emplace_back(
        I, Op.IsDelete ? std::nullopt
                       : std::optional<std::string>(Op.Val));
  }
  for (const auto &[Key, States] : Timeline) {
    std::string Got;
    bool Present = Store.shard(Store.shardOf(Key)).peek(Key, Got);
    std::optional<std::string> Actual =
        Present ? std::optional<std::string>(Got) : std::nullopt;
    // Acceptable states: initial absence if no op is durable for this
    // key, or the state after any op at index >= the key's last durable
    // op (per-key rollback can only drop an undurable suffix).
    size_t FirstAcceptable = 0;
    bool InitialOk = true;
    for (size_t J = 0; J != States.size(); ++J)
      if (States[J].first < Durable) {
        FirstAcceptable = J;
        InitialOk = false;
      }
    bool Ok = InitialOk && !Actual.has_value();
    for (size_t J = FirstAcceptable; J != States.size() && !Ok; ++J)
      Ok = States[J].second == Actual;
    EXPECT_TRUE(Ok) << "key " << Key << " holds "
                    << (Actual ? *Actual : std::string("<absent>"))
                    << " which matches no acceptable state (durable up to "
                    << Durable << ")";
  }
}

TEST(KvCrash, SweepCrashAtEveryOpBoundary) {
  const std::vector<SweepOp> Ops = sweepScript(60);
  for (size_t CrashAt = 1; CrashAt <= Ops.size(); ++CrashAt) {
    KvConfig KC = smallConfig(2);
    KC.EnablePersistCheck = true;
    KC.EnableTxRaceCheck = true;
    KC.EvictionPerMillion = 20000; // Cache-eviction chaos.
    KC.EvictionSeed = 77 + CrashAt;
    KvStore Store(KC);
    size_t Durable = runScript(Store, Ops, CrashAt, /*AckEvery=*/8);

    Store.simulateCrash();
    Store.recover();
    auditRecovered(Store, Ops, CrashAt, Durable);
    EXPECT_EQ(Store.checkerViolations(), 0u) << "crash at " << CrashAt;

    // Recovery must be idempotent: a second crash with no new work
    // recovers to the identical state.
    std::map<uint64_t, std::optional<std::string>> Before;
    for (uint64_t Key = 0; Key != 48; ++Key) {
      std::string V;
      Before[Key] = Store.shard(Store.shardOf(Key)).peek(Key, V)
                        ? std::optional<std::string>(V)
                        : std::nullopt;
    }
    Store.simulateCrash();
    Store.recover();
    for (uint64_t Key = 0; Key != 48; ++Key) {
      std::string V;
      std::optional<std::string> Now =
          Store.shard(Store.shardOf(Key)).peek(Key, V)
              ? std::optional<std::string>(V)
              : std::nullopt;
      EXPECT_EQ(Now, Before[Key]) << "fixpoint broken at key " << Key;
    }

    // The recovered store must remain fully operational.
    EXPECT_EQ(Store.set(0, 1000, "post-recovery"), KvStatus::Ok);
    std::string Out;
    EXPECT_EQ(Store.get(0, 1000, Out), KvStatus::Ok);
    EXPECT_EQ(Out, "post-recovery");
    EXPECT_EQ(Store.checkerViolations(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// File-backed reopen
//===----------------------------------------------------------------------===//

TEST(KvCrash, FileBackedStoreSurvivesReopen) {
  char Tmpl[] = "/tmp/kv_store_test.XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;

  KvConfig KC = smallConfig(2);
  KC.DataDir = Dir;
  {
    KvStore Store(KC);
    EXPECT_FALSE(Store.recoveredOnOpen());
    for (uint64_t K = 0; K != 40; ++K)
      EXPECT_EQ(Store.set(0, K, valueFor(K, 1)), KvStatus::Ok);
    Store.persistAck(0);
  }
  {
    // Second generation: attaches to the images, replays, serves, and
    // layers more writes on top.
    KvStore Store(KC);
    EXPECT_TRUE(Store.recoveredOnOpen());
    std::string Out;
    for (uint64_t K = 0; K != 40; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok) << "lost key " << K;
      EXPECT_EQ(Out, valueFor(K, 1));
    }
    for (uint64_t K = 40; K != 60; ++K)
      EXPECT_EQ(Store.set(0, K, valueFor(K, 2)), KvStatus::Ok);
    Store.persistAck(0);
  }
  {
    KvStore Store(KC);
    EXPECT_TRUE(Store.recoveredOnOpen());
    std::string Out;
    for (uint64_t K = 0; K != 40; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok);
      EXPECT_EQ(Out, valueFor(K, 1));
    }
    for (uint64_t K = 40; K != 60; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok);
      EXPECT_EQ(Out, valueFor(K, 2));
    }
  }
  for (unsigned S = 0; S != KC.NumShards; ++S)
    std::remove((Dir + "/shard" + std::to_string(S) + ".img").c_str());
  std::remove(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Durable page heap (large values)
//===----------------------------------------------------------------------===//

/// Values from 1 byte to the 64 KiB extent cap round-trip through the
/// store, crossing the inline/heap boundary in both directions, with the
/// heap audit (bitmap population == live heap cells, no staged WAL
/// records) holding at every rest point.
TEST(KvHeap, LargeValuesRoundTripThroughHeap) {
  KvConfig KC = heapConfig(2);
  KC.EnablePersistCheck = true;
  KC.EnableTxRaceCheck = true;
  KvStore Store(KC);
  EXPECT_EQ(KC.activeValueLimit(), heap::DurableHeap::MaxObjectBytes);

  std::string Out;
  const std::vector<size_t> Sizes = {1,    120,  121,   4096,
                                     4097, 60000, 65536};
  for (size_t I = 0; I != Sizes.size(); ++I) {
    std::string V = bigValueFor(I, 1, Sizes[I]);
    ASSERT_EQ(Store.set(0, I, V), KvStatus::Ok) << Sizes[I];
    ASSERT_EQ(Store.get(0, I, Out), KvStatus::Ok) << Sizes[I];
    EXPECT_EQ(Out, V) << Sizes[I];
  }
  KvHeapAudit A = Store.auditHeap();
  EXPECT_TRUE(A.Enabled);
  EXPECT_TRUE(A.consistent()) << A.BitmapPages << " bitmap vs "
                              << A.LivePages << " live";
  EXPECT_GT(A.LivePages, 0u);

  // Beyond the extent cap: typed rejection, value untouched.
  EXPECT_EQ(Store.set(0, 6, std::string(65537, 'z')), KvStatus::TooBig);
  ASSERT_EQ(Store.get(0, 6, Out), KvStatus::Ok);
  EXPECT_EQ(Out, bigValueFor(6, 1, 65536));

  // CAS against a heap value, replacing it with another heap value.
  std::string New = bigValueFor(6, 2, 30000);
  EXPECT_EQ(Store.cas(0, 6, "wrong", New), KvStatus::Mismatch);
  EXPECT_EQ(Store.cas(0, 6, bigValueFor(6, 1, 65536), New), KvStatus::Ok);
  ASSERT_EQ(Store.get(0, 6, Out), KvStatus::Ok);
  EXPECT_EQ(Out, New);

  // Overwrite transitions: heap -> inline frees the extent, inline ->
  // heap allocates one; DEL frees.
  ASSERT_EQ(Store.set(0, 5, "tiny"), KvStatus::Ok); // 60000 -> inline.
  ASSERT_EQ(Store.get(0, 5, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "tiny");
  ASSERT_EQ(Store.set(0, 0, bigValueFor(0, 3, 8000)), KvStatus::Ok);
  for (size_t I = 0; I != Sizes.size(); ++I)
    EXPECT_EQ(Store.del(0, I), KvStatus::Ok);
  A = Store.auditHeap();
  EXPECT_TRUE(A.consistent());
  EXPECT_EQ(A.LivePages, 0u);
  EXPECT_EQ(Store.checkerViolations(), 0u);
}

/// The batched MSET pipeline routes heap-sized values through per-chunk
/// pre-staging (allocAndStage before the transaction, publish inside it,
/// abandon on failure) without leaking.
TEST(KvHeap, BatchedMsetWithHeapValues) {
  KvConfig KC = heapConfig(2);
  KC.EnablePersistCheck = true;
  KC.EnableTxRaceCheck = true;
  KvStore Store(KC);
  // KvBatchItem::Val is a view; the strings must outlive the batch call.
  std::vector<std::string> Vals;
  for (uint64_t K = 0; K != 40; ++K) {
    size_t Len = K % 3 == 0 ? 80 : (K % 3 == 1 ? 5000 : 20000);
    Vals.push_back(bigValueFor(K, 1, Len));
  }
  std::vector<KvBatchItem> Items;
  for (uint64_t K = 0; K != 40; ++K)
    Items.push_back(KvBatchItem{K, Vals[K], KvStatus::Err});
  Store.msetBatch(0, Items);
  for (const KvBatchItem &Item : Items)
    EXPECT_EQ(Item.Status, KvStatus::Ok);
  std::string Out;
  for (uint64_t K = 0; K != 40; ++K) {
    size_t Len = K % 3 == 0 ? 80 : (K % 3 == 1 ? 5000 : 20000);
    ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok) << K;
    EXPECT_EQ(Out, bigValueFor(K, 1, Len)) << K;
  }
  KvHeapAudit A = Store.auditHeap();
  EXPECT_TRUE(A.consistent());
  EXPECT_EQ(Store.checkerViolations(), 0u);
}

/// The heap-enabled twin of SweepCrashAtEveryOpBoundary: a script mixing
/// inline and heap-sized values (so the stage -> publish -> free pipeline
/// is live at most boundaries) crashes at every op boundary; after
/// recovery the ledger audit must pass, the heap audit must balance
/// (zero leaked pages, zero staged WAL records), and both checkers must
/// stay silent.
TEST(KvHeapCrash, SweepCrashAtEveryOpBoundaryWithHeapValues) {
  std::vector<SweepOp> Ops;
  for (size_t I = 0; I != 36; ++I) {
    SweepOp Op;
    Op.Key = (I * 5) % 12;
    Op.IsDelete = I % 6 == 5;
    if (!Op.IsDelete) {
      size_t Len = I % 3 == 0 ? 80 : (I % 3 == 1 ? 5000 : 20000);
      Op.Val = bigValueFor(Op.Key, I, Len);
    }
    Ops.push_back(std::move(Op));
  }
  for (size_t CrashAt = 1; CrashAt <= Ops.size(); ++CrashAt) {
    KvConfig KC = heapConfig(2);
    KC.EnablePersistCheck = true;
    KC.EnableTxRaceCheck = true;
    KC.EvictionPerMillion = 20000;
    KC.EvictionSeed = 31 + CrashAt;
    KvStore Store(KC);
    size_t Durable = runScript(Store, Ops, CrashAt, /*AckEvery=*/8);

    Store.simulateCrash();
    Store.recover();
    auditRecovered(Store, Ops, CrashAt, Durable);
    KvHeapAudit A = Store.auditHeap();
    EXPECT_TRUE(A.consistent())
        << "crash at " << CrashAt << ": " << A.BitmapPages
        << " bitmap pages vs " << A.LivePages << " live, " << A.StagedWal
        << " staged WAL records";
    EXPECT_EQ(Store.checkerViolations(), 0u) << "crash at " << CrashAt;

    // The recovered store still serves heap-sized values.
    std::string Big = bigValueFor(1000, CrashAt, 30000), Out;
    EXPECT_EQ(Store.set(0, 1000, Big), KvStatus::Ok);
    ASSERT_EQ(Store.get(0, 1000, Out), KvStatus::Ok);
    EXPECT_EQ(Out, Big);
    EXPECT_EQ(Store.checkerViolations(), 0u);
  }
}

/// Heap values persist across process-style reopens of the same images:
/// three store generations layer writes, overwrites and deletes of
/// 64 KiB-class values, each generation auditing zero leaked pages.
TEST(KvHeapCrash, FileBackedHeapValuesSurviveReopen) {
  char Tmpl[] = "/tmp/kv_heap_test.XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;

  KvConfig KC = heapConfig(2);
  KC.DataDir = Dir;
  {
    KvStore Store(KC);
    EXPECT_FALSE(Store.recoveredOnOpen());
    for (uint64_t K = 0; K != 16; ++K)
      ASSERT_EQ(Store.set(0, K, bigValueFor(K, 1, 1000 * (K + 1))),
                KvStatus::Ok);
    ASSERT_EQ(Store.set(0, 99, bigValueFor(99, 1, 65536)), KvStatus::Ok);
    Store.persistAck(0);
  }
  {
    KvStore Store(KC);
    EXPECT_TRUE(Store.recoveredOnOpen());
    KvHeapAudit A = Store.auditHeap();
    EXPECT_TRUE(A.consistent()) << A.BitmapPages << " vs " << A.LivePages;
    std::string Out;
    for (uint64_t K = 0; K != 16; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok) << "lost key " << K;
      EXPECT_EQ(Out, bigValueFor(K, 1, 1000 * (K + 1)));
    }
    ASSERT_EQ(Store.get(0, 99, Out), KvStatus::Ok);
    EXPECT_EQ(Out, bigValueFor(99, 1, 65536));
    // Layer: overwrite half, delete a quarter.
    for (uint64_t K = 0; K != 8; ++K)
      ASSERT_EQ(Store.set(0, K, bigValueFor(K, 2, 7777)), KvStatus::Ok);
    for (uint64_t K = 12; K != 16; ++K)
      ASSERT_EQ(Store.del(0, K), KvStatus::Ok);
    Store.persistAck(0);
  }
  {
    KvStore Store(KC);
    EXPECT_TRUE(Store.recoveredOnOpen());
    KvHeapAudit A = Store.auditHeap();
    EXPECT_TRUE(A.consistent());
    EXPECT_EQ(A.StagedWal, 0u);
    std::string Out;
    for (uint64_t K = 0; K != 8; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok);
      EXPECT_EQ(Out, bigValueFor(K, 2, 7777));
    }
    for (uint64_t K = 8; K != 12; ++K) {
      ASSERT_EQ(Store.get(0, K, Out), KvStatus::Ok);
      EXPECT_EQ(Out, bigValueFor(K, 1, 1000 * (K + 1)));
    }
    for (uint64_t K = 12; K != 16; ++K)
      EXPECT_EQ(Store.get(0, K, Out), KvStatus::NotFound);
  }
  for (unsigned S = 0; S != KC.NumShards; ++S)
    std::remove((Dir + "/shard" + std::to_string(S) + ".img").c_str());
  std::remove(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Server / client smoke
//===----------------------------------------------------------------------===//

TEST(KvServerSmoke, EndToEndOverLoopback) {
  KvStore Store(smallConfig(2));
  KvServer Server(Store, KvServerConfig{});
  Server.start();
  ASSERT_NE(Server.port(), 0);

  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));
  EXPECT_TRUE(Client.ping());

  std::string Out;
  EXPECT_EQ(Client.get(5, Out), KvStatus::NotFound);
  EXPECT_EQ(Client.set(5, "net-value\nwith newline"), KvStatus::Ok);
  EXPECT_EQ(Client.get(5, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "net-value\nwith newline");
  EXPECT_EQ(Client.cas(5, "wrong", "x"), KvStatus::Mismatch);
  EXPECT_EQ(Client.cas(5, "net-value\nwith newline", "swapped"),
            KvStatus::Ok);
  EXPECT_EQ(Client.get(5, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "swapped");

  std::vector<std::pair<uint64_t, std::string>> Pairs;
  for (uint64_t K = 10; K != 42; ++K)
    Pairs.emplace_back(K, valueFor(K, 3));
  std::vector<KvStatus> Statuses;
  ASSERT_TRUE(Client.mset(Pairs, Statuses));
  ASSERT_EQ(Statuses.size(), Pairs.size());
  for (KvStatus St : Statuses)
    EXPECT_EQ(St, KvStatus::Ok);

  std::vector<uint64_t> Keys{10, 11, 999};
  std::vector<std::pair<KvStatus, std::string>> Results;
  ASSERT_TRUE(Client.mget(Keys, Results));
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].first, KvStatus::Ok);
  EXPECT_EQ(Results[0].second, valueFor(10, 3));
  EXPECT_EQ(Results[2].first, KvStatus::NotFound);

  EXPECT_EQ(Client.del(5), KvStatus::Ok);
  EXPECT_EQ(Client.get(5, Out), KvStatus::NotFound);

  // A second concurrent connection sees the same data.
  KvClient Client2;
  ASSERT_TRUE(Client2.connect(Server.port()));
  EXPECT_EQ(Client2.get(11, Out), KvStatus::Ok);
  EXPECT_EQ(Out, valueFor(11, 3));
  Client2.quit();

  Client.quit();
  EXPECT_GT(Server.requestsServed(), 5u);
  Server.stop();
  EXPECT_EQ(Store.checkerViolations(), 0u);
}

/// Integer values of every `"Key":<digits>` in \p J[From, To); a match
/// not followed by digits is a test failure.
std::vector<uint64_t> intFields(const std::string &J, size_t From, size_t To,
                                const std::string &Key) {
  std::vector<uint64_t> Vals;
  std::string Pat = "\"" + Key + "\":";
  for (size_t P = J.find(Pat, From); P < To; P = J.find(Pat, P + 1)) {
    size_t V = P + Pat.size();
    EXPECT_TRUE(V < J.size() && std::isdigit((unsigned char)J[V]))
        << Key << " is not followed by an integer in " << J;
    Vals.push_back(std::strtoull(J.c_str() + V, nullptr, 10));
  }
  return Vals;
}

/// Pins the STATS document over the wire: its readers
/// (perfbench/src/KvBench.cpp and kv_loadgen) find counters by searching
/// for `"key":` and split workers from shards at `"shards":`.
TEST(KvServerSmoke, StatsDocumentKeepsItsKeys) {
  constexpr unsigned Shards = 2, Workers = 2;
  KvStore Store(smallConfig(Shards));
  KvServerConfig SC;
  SC.Workers = Workers;
  KvServer Server(Store, SC);
  Server.start();
  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));
  std::string Out;
  for (uint64_t K = 1; K != 5; ++K)
    ASSERT_EQ(Client.set(K, valueFor(K, 1)), KvStatus::Ok);
  for (uint64_t K = 1; K != 5; ++K)
    ASSERT_EQ(Client.get(K, Out), KvStatus::Ok);
  std::string J;
  ASSERT_TRUE(Client.stats(J));
  Client.quit();
  Server.stop();

  EXPECT_EQ(J.rfind("{\"version\":\"crafty-kv-stats-v1\",", 0), 0u) << J;
  size_t Split = J.find("\"shards\":");
  ASSERT_NE(Split, std::string::npos) << J;
  EXPECT_EQ(J.find("\"shards\":", Split + 1), std::string::npos) << J;
  ASSERT_LT(J.find("\"workers\":"), Split) << J;
  for (const char *Key : {"requests", "queue_wait_ns", "execute_ns",
                          "commit_wait_ns", "barriers", "barrier_ns"}) {
    EXPECT_EQ(intFields(J, 0, Split, Key).size(), Workers) << Key << J;
    EXPECT_TRUE(intFields(J, Split, J.size(), Key).empty()) << Key << J;
  }
  for (const char *Key : {"ops", "htm_commits", "htm_aborts", "clwb_calls",
                          "lines_scheduled", "drains", "empty_drains"}) {
    EXPECT_EQ(intFields(J, Split, J.size(), Key).size(), Shards) << Key << J;
    EXPECT_TRUE(intFields(J, 0, Split, Key).empty()) << Key << J;
  }
  uint64_t Ops = 0;
  for (uint64_t V : intFields(J, Split, J.size(), "ops"))
    Ops += V;
  EXPECT_EQ(Ops, 8u) << J;
}

/// Every `"Key":[...]` integer array in \p J, in document order.
std::vector<std::vector<uint64_t>> intArrays(const std::string &J,
                                             const std::string &Key) {
  std::vector<std::vector<uint64_t>> Arrays;
  std::string Pat = "\"" + Key + "\":[";
  for (size_t P = J.find(Pat); P != std::string::npos;
       P = J.find(Pat, P + 1)) {
    Arrays.emplace_back();
    for (const char *C = J.c_str() + P + Pat.size(); *C != ']';) {
      char *End;
      Arrays.back().push_back(std::strtoull(C, &End, 10));
      EXPECT_NE(End, C) << Key << " holds a non-integer in " << J;
      if (End == C)
        break;
      C = *End == ',' ? End + 1 : End;
    }
  }
  return Arrays;
}

/// A cross-shard MGET/MSET executes on the worker that owns its
/// connection, on every shard it touches: with four workers and one
/// connection, only that connection's worker counts shard operations.
TEST(KvServerSmoke, CrossShardRequestsRunOnTheConnectionsWorker) {
  constexpr unsigned Shards = 4, Workers = 4;
  KvConfig KC = smallConfig(Shards);
  KC.ThreadsPerShard = Workers;
  KvStore Store(KC);
  KvServerConfig SC;
  SC.Workers = Workers;
  KvServer Server(Store, SC);
  Server.start();
  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));

  std::vector<uint64_t> Expected(Shards, 0);
  for (uint64_t Round = 0; Round != 4; ++Round) {
    std::vector<std::pair<uint64_t, std::string>> Pairs;
    std::vector<uint64_t> Keys;
    std::vector<uint8_t> Hit(Shards, 0);
    for (uint64_t K = 8 * Round; K != 8 * Round + 8; ++K) {
      Pairs.emplace_back(K, valueFor(K, Round));
      Keys.push_back(K);
      Expected[Store.shardOf(K)] += 2; // One SET and one GET.
      Hit[Store.shardOf(K)] = 1;
    }
    ASSERT_GT(std::count(Hit.begin(), Hit.end(), 1), 1)
        << "round " << Round << " must span shards";
    std::vector<KvStatus> Statuses;
    ASSERT_TRUE(Client.mset(Pairs, Statuses));
    for (KvStatus St : Statuses)
      EXPECT_EQ(St, KvStatus::Ok);
    std::vector<std::pair<KvStatus, std::string>> Results;
    ASSERT_TRUE(Client.mget(Keys, Results));
    ASSERT_EQ(Results.size(), Keys.size());
    for (size_t I = 0; I != Keys.size(); ++I)
      EXPECT_EQ(Results[I].second, valueFor(Keys[I], Round));
  }
  std::string J;
  ASSERT_TRUE(Client.stats(J));
  Client.quit();
  Server.stop();

  std::vector<std::vector<uint64_t>> PerWorker =
      intArrays(J, "ops_per_shard");
  ASSERT_EQ(PerWorker.size(), Workers) << J;
  unsigned Busy = 0;
  for (const std::vector<uint64_t> &Ops : PerWorker) {
    ASSERT_EQ(Ops.size(), Shards) << J;
    if (std::all_of(Ops.begin(), Ops.end(),
                    [](uint64_t V) { return V == 0; }))
      continue;
    ++Busy;
    EXPECT_EQ(Ops, Expected) << J;
  }
  EXPECT_EQ(Busy, 1u) << J;
}

//===----------------------------------------------------------------------===//
// Static/dynamic capacity consistency
//===----------------------------------------------------------------------===//

// crafty-lint's tx-capacity rule computes interprocedural static
// write-set bounds for the shard's transaction bodies, cross-checked
// in-source against the CRAFTY_TX_CAPACITY declarations in KvShard.h:
//   KvShard::writeCellTx  33 words (len word + MaxValueBytes / 8)
//   KvShard::setInTx      53 words (writeCellTx + map-slot publishes
//                                   + displaced-heap-extent free)
// This test pins the dynamic side of that contract: the largest write
// set any committed SET transaction actually produced (HtmStats, same
// 8-byte-word unit) must stay within the static bound, and a full-size
// value must come close enough to show the bound is not vacuous. The
// Non-durable backend runs transactions bare -- no undo-log stream
// inflating the write set -- so its figure is writeCellTx/setInTx alone.
TEST(KvStore, TxCapacityStaticBoundCoversDynamicWrites) {
  constexpr uint64_t StaticBoundSetInTx = 53;   // = CRAFTY_TX_CAPACITY
  constexpr uint64_t MinFullValueWords = 32;    // 1 len + 248 / 8 value.

  KvConfig KC;
  KC.NumShards = 1;
  KC.SlotsPerShard = 256;
  KC.MaxValueBytes = 248;
  KC.ThreadsPerShard = 1;
  KC.Backend = SystemKind::NonDurable;
  KC.DrainLatencyNs = 0;
  KvStore Store(KC);

  const std::string Full(KC.MaxValueBytes, 'x');
  for (uint64_t Key = 1; Key <= 64; ++Key)
    ASSERT_EQ(Store.set(0, Key, Full), KvStatus::Ok);

  HtmStats Hw = Store.shard(0).backend().htmStats();
  ASSERT_GT(Hw.Commits, 0u);
  EXPECT_GE(Hw.MaxWriteWordsPerTxn, MinFullValueWords)
      << "a full-size SET must write at least the value cell";
  EXPECT_LE(Hw.MaxWriteWordsPerTxn, StaticBoundSetInTx)
      << "dynamic write set exceeds the static tx-capacity bound that "
         "crafty-lint certifies for KvShard::setInTx";
  EXPECT_GE(Hw.WriteWordsTotal, 64 * MinFullValueWords);
}

TEST(KvServerSmoke, MalformedRequestClosesConnection) {
  KvStore Store(smallConfig(1));
  KvServer Server(Store, KvServerConfig{});
  Server.start();
  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));
  // Raw garbage through the pipeline path.
  Client.sendGet(1); // Valid...
  ASSERT_TRUE(Client.flush());
  std::string Out;
  EXPECT_EQ(Client.recvValue(Out), KvStatus::NotFound);
  // ...then garbage: the server answers ERR and closes.
  Client.sendRaw("NONSENSE COMMAND\n");
  ASSERT_TRUE(Client.flush());
  EXPECT_EQ(Client.recvStatus(), KvStatus::Err);
  Server.stop();
}

/// The oversize-value protocol contract: a 64 KiB value is served through
/// the heap; a value above the active limit but within the parser's skim
/// cap gets a *clean* `ERR toobig` -- the request frames, the connection
/// survives; only beyond the skim cap does the server treat the client
/// as abusive (ERR proto + close).
TEST(KvServerSmoke, OversizeValueAnswersToobigAndKeepsConnection) {
  KvStore Store(heapConfig(1));
  KvServer Server(Store, KvServerConfig{});
  Server.start();
  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));

  // Inside the heap's envelope: full 64 KiB round trip over the wire.
  std::string Big(65536, 'q');
  EXPECT_EQ(Client.set(7, Big), KvStatus::Ok);
  std::string Out;
  ASSERT_EQ(Client.get(7, Out), KvStatus::Ok);
  EXPECT_EQ(Out, Big);

  // Above the active limit, below the wire cap: shard-level rejection,
  // decided before any transaction starts, so it costs no HTM attempt.
  auto HtmAttempts = [&Client] {
    std::string J;
    EXPECT_TRUE(Client.stats(J));
    uint64_t N = 0;
    for (const char *Key : {"htm_commits", "htm_aborts"})
      for (uint64_t V : intFields(J, 0, J.size(), Key))
        N += V;
    return N;
  };
  uint64_t AttemptsBefore = HtmAttempts();
  EXPECT_EQ(Client.set(8, std::string(100000, 'x')), KvStatus::TooBig);
  EXPECT_EQ(HtmAttempts(), AttemptsBefore)
      << "a SET rejected before its transaction must not start one";

  // Above the 1 MiB wire cap, below the 2 MiB skim cap: the parser skims
  // the payload, the server answers toobig, and the connection lives.
  EXPECT_EQ(Client.set(9, std::string((1 << 20) + 5000, 'y')),
            KvStatus::TooBig);
  EXPECT_TRUE(Client.ping()) << "connection must survive a skimmed value";

  // CAS with an oversize desired value short-circuits to toobig before
  // any shard sees it (no Mismatch even though the expect is wrong).
  EXPECT_EQ(Client.cas(7, "wrong", std::string((1 << 20) + 1, 'c')),
            KvStatus::TooBig);
  EXPECT_TRUE(Client.ping());
  ASSERT_EQ(Client.get(7, Out), KvStatus::Ok);
  EXPECT_EQ(Out, Big) << "skimmed CAS must not touch the value";

  // MSET: per-pair verdicts; the oversize pair is skimmed, its neighbors
  // commit.
  std::vector<std::pair<uint64_t, std::string>> Pairs;
  Pairs.emplace_back(20, std::string(2000, 'a'));
  Pairs.emplace_back(21, std::string((1 << 20) + 9, 'b'));
  Pairs.emplace_back(22, std::string(30, 'c'));
  std::vector<KvStatus> Statuses;
  ASSERT_TRUE(Client.mset(Pairs, Statuses));
  ASSERT_EQ(Statuses.size(), 3u);
  EXPECT_EQ(Statuses[0], KvStatus::Ok);
  EXPECT_EQ(Statuses[1], KvStatus::TooBig);
  EXPECT_EQ(Statuses[2], KvStatus::Ok);
  ASSERT_EQ(Client.get(20, Out), KvStatus::Ok);
  EXPECT_EQ(Out, std::string(2000, 'a'));
  EXPECT_EQ(Client.get(21, Out), KvStatus::NotFound);
  ASSERT_EQ(Client.get(22, Out), KvStatus::Ok);
  EXPECT_EQ(Out, std::string(30, 'c'));

  // Beyond the skim cap: malformed, ERR proto, close.
  Client.sendRaw("SET 30 3000000\n");
  ASSERT_TRUE(Client.flush());
  EXPECT_EQ(Client.recvStatus(), KvStatus::Err);

  KvHeapAudit A = Store.auditHeap();
  EXPECT_TRUE(A.consistent());
  Server.stop();
  EXPECT_EQ(Store.checkerViolations(), 0u);
}

//===----------------------------------------------------------------------===//
// Share-nothing server under concurrent load
//===----------------------------------------------------------------------===//

/// Four connections drive mixed operations against a 4-shard server with
/// four forced workers and both dynamic checkers attached. Each
/// connection owns a disjoint key partition (keys == T mod 4), so every
/// response is exactly predictable against a local model, while the
/// group-commit cycles interleave requests from all connections across
/// all shards.
TEST(KvServerConcurrent, FourShardMixedLoadWithCheckers) {
  KvConfig KC = smallConfig(4);
  KC.ThreadsPerShard = 4;
  KC.EnablePersistCheck = true;
  KC.EnableTxRaceCheck = true;
  KvStore Store(KC);
  KvServerConfig SC;
  SC.Workers = 4;
  KvServer Server(Store, SC);
  Server.start();
  ASSERT_NE(Server.port(), 0);

  constexpr unsigned NumConns = 4;
  constexpr uint64_t OpsPerConn = 400;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumConns; ++T) {
    Threads.emplace_back([&, T] {
      KvClient Client;
      if (!Client.connect(Server.port())) {
        ++Failures;
        return;
      }
      std::map<uint64_t, std::string> Model;
      auto Check = [&](bool Ok, const char *What) {
        if (!Ok) {
          ++Failures;
          ADD_FAILURE() << "conn " << T << ": " << What;
        }
      };
      std::string Out;
      for (uint64_t I = 0; I != OpsPerConn; ++I) {
        uint64_t Key = T + 4 * ((I * 13) % 48); // T's partition only.
        switch (I % 10) {
        case 3: { // Delete (present or not -- the model knows which).
          KvStatus Want =
              Model.count(Key) ? KvStatus::Ok : KvStatus::NotFound;
          Check(Client.del(Key) == Want, "DEL status");
          Model.erase(Key);
          break;
        }
        case 6: { // CAS from the model's value.
          auto It = Model.find(Key);
          if (It == Model.end()) {
            Check(Client.cas(Key, "x", "y") == KvStatus::NotFound,
                  "CAS on absent key");
          } else {
            std::string Next = valueFor(Key, I);
            Check(Client.cas(Key, It->second, Next) == KvStatus::Ok,
                  "CAS status");
            It->second = Next;
          }
          break;
        }
        case 9: { // Cross-shard MSET + MGET round trip.
          std::vector<std::pair<uint64_t, std::string>> Pairs;
          std::vector<uint64_t> Keys;
          for (uint64_t J = 0; J != 8; ++J) {
            uint64_t K = T + 4 * ((I + J * 7) % 48);
            Pairs.emplace_back(K, valueFor(K, I + J));
            Keys.push_back(K);
          }
          std::vector<KvStatus> Statuses;
          Check(Client.mset(Pairs, Statuses) &&
                    Statuses.size() == Pairs.size(),
                "MSET transport");
          for (const auto &P : Pairs)
            Model[P.first] = P.second;
          // Later pairs win duplicate keys; the model map replays that.
          for (auto &P : Pairs)
            P.second = Model[P.first];
          std::vector<std::pair<KvStatus, std::string>> Results;
          Check(Client.mget(Keys, Results) && Results.size() == Keys.size(),
                "MGET transport");
          for (size_t J = 0; J != Results.size(); ++J)
            Check(Results[J].first == KvStatus::Ok &&
                      Results[J].second == Model[Keys[J]],
                  "MGET value");
          break;
        }
        default: {
          if (I % 2) {
            std::string Val = valueFor(Key, I);
            Check(Client.set(Key, Val) == KvStatus::Ok, "SET status");
            Model[Key] = Val;
          } else {
            KvStatus St = Client.get(Key, Out);
            auto It = Model.find(Key);
            if (It == Model.end())
              Check(St == KvStatus::NotFound, "GET absent");
            else
              Check(St == KvStatus::Ok && Out == It->second, "GET value");
          }
          break;
        }
        }
      }
      Client.quit();
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(Server.requestsServed(), NumConns * OpsPerConn / 2);
  Server.stop();
  // On failure, name every violation (kind, address, thread, phase) per
  // shard rather than only the total.
  std::string Details;
  for (unsigned I = 0; I != Store.numShards(); ++I) {
    CraftyRuntime *Rt = Store.shard(I).crafty();
    if (!Rt)
      continue;
    if (PersistCheck *PC = Rt->persistCheck(); PC && PC->violationCount())
      Details += "shard " + std::to_string(I) + " PersistCheck:\n" +
                 PC->formatViolations();
    if (TxRaceCheck *RC = Rt->raceCheck(); RC && RC->violationCount())
      Details += "shard " + std::to_string(I) + " TxRaceCheck:\n" +
                 RC->formatReports();
  }
  EXPECT_EQ(Store.checkerViolations(), 0u) << Details;
}

/// Cross-shard MGET/MSET correctness, including the per-connection
/// ordering guarantee for pipelined requests: a GET queued after a
/// cross-shard MSET on the same connection must observe the MSET, and a
/// cross-shard MSET must observe (i.e. overwrite) a single-key SET queued
/// just before it. Run with two and with four workers.
void crossShardPipelinedOrdering(unsigned Workers) {
  KvConfig KC = smallConfig(4);
  KC.ThreadsPerShard = 4;
  KvStore Store(KC);
  KvServerConfig SC;
  SC.Workers = Workers;
  KvServer Server(Store, SC);
  Server.start();
  ASSERT_NE(Server.port(), 0);

  // One key per shard, so the MSETs below span all four shards.
  std::vector<uint64_t> KeyOnShard(4, ~0ull);
  for (uint64_t K = 0; K != 1000 && (KeyOnShard[0] == ~0ull ||
                                     KeyOnShard[1] == ~0ull ||
                                     KeyOnShard[2] == ~0ull ||
                                     KeyOnShard[3] == ~0ull);
       ++K)
    if (KeyOnShard[Store.shardOf(K)] == ~0ull)
      KeyOnShard[Store.shardOf(K)] = K;

  KvClient Client;
  ASSERT_TRUE(Client.connect(Server.port()));

  // SET then cross-shard MSET of the same key, then GET, all in one
  // flush: the staged SET must execute before the MSET, and the GET
  // after it.
  uint64_t Hot = KeyOnShard[0];
  Client.sendSet(Hot, "pre-sg");
  std::vector<std::pair<uint64_t, std::string>> Pairs;
  for (unsigned S = 0; S != 4; ++S)
    Pairs.emplace_back(KeyOnShard[S], "sg-" + std::to_string(S));
  Client.sendMset(Pairs);
  Client.sendGet(Hot);
  Client.sendSet(Hot, "post-sg");
  Client.sendGet(Hot);
  ASSERT_TRUE(Client.flush());
  EXPECT_EQ(Client.recvStatus(), KvStatus::Ok); // SET pre-sg.
  std::vector<KvStatus> Statuses;
  ASSERT_TRUE(Client.recvStatuses(Pairs.size(), Statuses));
  for (KvStatus St : Statuses)
    EXPECT_EQ(St, KvStatus::Ok);
  std::string Out;
  EXPECT_EQ(Client.recvValue(Out), KvStatus::Ok);
  EXPECT_EQ(Out, "sg-0"); // The MSET overwrote the pipelined SET.
  EXPECT_EQ(Client.recvStatus(), KvStatus::Ok);
  EXPECT_EQ(Client.recvValue(Out), KvStatus::Ok);
  EXPECT_EQ(Out, "post-sg"); // The later SET ran after the MSET.

  // Cross-shard MGET sees every key of the cross-shard MSET, in
  // request order, with misses interleaved.
  std::vector<uint64_t> Keys{KeyOnShard[3], 999983, KeyOnShard[1],
                             KeyOnShard[0], KeyOnShard[2]};
  std::vector<std::pair<KvStatus, std::string>> Results;
  ASSERT_TRUE(Client.mget(Keys, Results));
  ASSERT_EQ(Results.size(), Keys.size());
  EXPECT_EQ(Results[0].second, "sg-3");
  EXPECT_EQ(Results[1].first, KvStatus::NotFound);
  EXPECT_EQ(Results[2].second, "sg-1");
  EXPECT_EQ(Results[3].second, "post-sg");
  EXPECT_EQ(Results[4].second, "sg-2");

  // Two back-to-back cross-shard MSETs of the same keys, then an MGET:
  // the second MSET's values must win on every shard.
  for (auto &P : Pairs)
    P.second += "-v2";
  Client.sendMset(Pairs);
  for (auto &P : Pairs)
    P.second = P.second.substr(0, P.second.size() - 3) + "-v3";
  Client.sendMset(Pairs);
  ASSERT_TRUE(Client.flush());
  ASSERT_TRUE(Client.recvStatuses(Pairs.size(), Statuses));
  ASSERT_TRUE(Client.recvStatuses(Pairs.size(), Statuses));
  for (unsigned S = 0; S != 4; ++S) {
    ASSERT_EQ(Client.get(KeyOnShard[S], Out), KvStatus::Ok);
    EXPECT_EQ(Out, "sg-" + std::to_string(S) + "-v3");
  }

  Client.quit();
  Server.stop();
  EXPECT_EQ(Store.checkerViolations(), 0u);
}

TEST(KvServerConcurrent, CrossShardPipelinedOrdering) {
  for (unsigned Workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    crossShardPipelinedOrdering(Workers);
  }
}

//===----------------------------------------------------------------------===//
// SIGKILL under load
//===----------------------------------------------------------------------===//

/// Real process death: fork a file-backed 4-shard server, drive
/// write-heavy load from two connections, SIGKILL the child mid-flight,
/// then reopen the images in-process and audit acked-durability (every
/// acknowledged write survives; the unacked tail is absent or complete,
/// never torn).
TEST(KvCrash, SigkillUnderFourShardLoadRecoversAcked) {
  char Tmpl[] = "/tmp/kv_sigkill_test.XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  KvConfig KC = smallConfig(4);
  KC.ThreadsPerShard = 4;
  KC.DataDir = Tmpl;

  int PortPipe[2];
  ASSERT_EQ(pipe(PortPipe), 0);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    close(PortPipe[0]);
    {
      KvStore Store(KC);
      KvServerConfig SC;
      SC.Workers = 4;
      KvServer Server(Store, SC);
      Server.start();
      char Msg[16];
      int N = std::snprintf(Msg, sizeof(Msg), "%u\n", Server.port());
      if (write(PortPipe[1], Msg, (size_t)N) != N)
        _exit(1);
      close(PortPipe[1]);
      // Serve until SIGKILLed -- that is the whole point.
      for (;;)
        pause();
    }
    _exit(0);
  }
  close(PortPipe[1]);
  std::string PortStr;
  char C;
  while (read(PortPipe[0], &C, 1) == 1 && C != '\n')
    PortStr += C;
  close(PortPipe[0]);
  uint16_t Port = (uint16_t)std::atoi(PortStr.c_str());
  ASSERT_NE(Port, 0);

  // Write-heavy load; connection T owns keys with Key % 2 == T, so each
  // key's write order is one connection's FIFO.
  struct Ledger {
    uint64_t Key;
    std::string Val;
    bool Acked;
  };
  constexpr unsigned NumConns = 2;
  std::atomic<uint64_t> Acked{0};
  std::atomic<bool> Killed{false};
  std::vector<std::vector<Ledger>> Ledgers(NumConns);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumConns; ++T) {
    Threads.emplace_back([&, T] {
      KvClient Client;
      if (!Client.connect(Port))
        return;
      uint64_t Seq = 0;
      while (!Killed.load(std::memory_order_relaxed)) {
        uint64_t Key = T + 2 * ((Seq * 11) % 40);
        Ledgers[T].push_back(Ledger{Key, valueFor(Key, Seq++), false});
        Ledger &E = Ledgers[T].back();
        if (Client.set(Key, E.Val) != KvStatus::Ok)
          break; // Transport death: unacknowledged.
        E.Acked = true;
        Acked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (Acked.load(std::memory_order_relaxed) < 300)
    std::this_thread::yield();
  kill(Pid, SIGKILL);
  int St = 0;
  waitpid(Pid, &St, 0);
  ASSERT_TRUE(WIFSIGNALED(St));
  Killed.store(true);
  for (auto &Th : Threads)
    Th.join();

  // Reopen the images in-process: attach + undo-log replay, then audit
  // against the ledgers with quiesced peeks.
  KvStore Store(KC);
  EXPECT_TRUE(Store.recoveredOnOpen());
  for (unsigned T = 0; T != NumConns; ++T) {
    std::map<uint64_t, std::vector<const Ledger *>> PerKey;
    for (const Ledger &E : Ledgers[T])
      PerKey[E.Key].push_back(&E);
    for (const auto &[Key, Writes] : PerKey) {
      size_t LastAcked = Writes.size();
      for (size_t I = Writes.size(); I-- > 0;)
        if (Writes[I]->Acked) {
          LastAcked = I;
          break;
        }
      std::string Got;
      bool Present = Store.shard(Store.shardOf(Key)).peek(Key, Got);
      bool Ok = false;
      if (LastAcked == Writes.size()) {
        Ok = !Present; // Nothing acked: absent or any complete value.
        for (const Ledger *W : Writes)
          Ok = Ok || (Present && W->Val == Got);
      } else {
        for (size_t I = LastAcked; I != Writes.size(); ++I)
          Ok = Ok || (Present && Writes[I]->Val == Got);
      }
      EXPECT_TRUE(Ok) << "key " << Key << " violates acked-durability ("
                      << (Present ? "present" : "absent") << ", last acked "
                      << (LastAcked == Writes.size() ? "none" : "exists")
                      << ")";
    }
  }
  // The recovered store still serves.
  EXPECT_EQ(Store.set(0, 5000, "post-recovery"), KvStatus::Ok);
  std::string Out;
  EXPECT_EQ(Store.get(0, 5000, Out), KvStatus::Ok);
  EXPECT_EQ(Out, "post-recovery");

  for (unsigned S = 0; S != KC.NumShards; ++S)
    std::remove((KC.DataDir + "/shard" + std::to_string(S) + ".img").c_str());
  std::remove(KC.DataDir.c_str());
}

} // namespace
