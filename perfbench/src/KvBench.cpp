//===- perfbench/src/KvBench.cpp - KV workloads over loopback TCP ---------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// kv-read and kv-write: an in-process KvServer (2 shards owned by one
// worker) driven over loopback TCP by one client thread holding 4
// connections in a pipelined closed loop with a fixed number of requests
// outstanding. Each completed request is replaced at once by the next
// one the seeded generator yields.
//
// Correctness: every key lives on the connection key % 4, and the server
// executes one connection's requests in order, so a GET must return
// exactly the value of the last write to that key issued before it
// (acknowledged or still in flight). After the timed phase the server
// stops, the store suffers a simulated power failure and recovers, and
// every key must hold its last acknowledged value byte for byte with a
// consistent heap. A perturbed ledger entry must then fail that audit.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Trace.h"

#include "core/Crafty.h"
#include "kv/KvClient.h"
#include "kv/KvServer.h"
#include "kv/KvStore.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <sched.h>
#include <thread>

using namespace crafty;
using namespace crafty::kv;
using namespace perfbench;

namespace {

constexpr unsigned NumConns = 4;
constexpr unsigned NumShards = 2;
constexpr unsigned MaxKeysPerReq = 8;

struct KvSpec {
  unsigned KeyBits;   ///< 2^KeyBits keys, all preloaded.
  double ZipfTheta;   ///< 0 = uniform keys.
  unsigned Outstanding;
  unsigned GetPct;
  unsigned MsetPctOfWrites;
  unsigned MsetWidth;
  unsigned MinLen, MaxLen; ///< Inline value lengths (uniform).
  unsigned LargeOneIn;     ///< Single SETs carrying a LargeLen value.
  unsigned LargeLen;
  size_t MaxValueBytes; ///< Inline cell capacity.
  size_t HeapPages;     ///< Per shard; 0 = no heap.
};

const KvSpec KvRead = {.KeyBits = 18,
                       .ZipfTheta = 0.99,
                       .Outstanding = 32,
                       .GetPct = 95,
                       .MsetPctOfWrites = 0,
                       .MsetWidth = 1,
                       .MinLen = 64,
                       .MaxLen = 64,
                       .LargeOneIn = 0,
                       .LargeLen = 0,
                       .MaxValueBytes = 64,
                       .HeapPages = 0};
const KvSpec KvWrite = {.KeyBits = 16,
                        .ZipfTheta = 0,
                        .Outstanding = 16,
                        .GetPct = 20,
                        .MsetPctOfWrites = 50,
                        .MsetWidth = 8,
                        .MinLen = 64,
                        .MaxLen = 240,
                        .LargeOneIn = 8,
                        .LargeLen = 4096,
                        .MaxValueBytes = 248,
                        .HeapPages = 4096};

KvConfig storeConfig(const KvSpec &S) {
  KvConfig C;
  C.NumShards = NumShards;
  C.ThreadsPerShard = 1;
  // Each shard holds about half the keys: the table stays half full.
  C.SlotsPerShard = (size_t)1 << S.KeyBits;
  C.MaxValueBytes = S.MaxValueBytes;
  C.HeapPages = S.HeapPages;
  C.Mode = PMemMode::Tracked;
  C.DrainLatencyNs = 300;
  C.EvictionPerMillion = 0;
  return C;
}

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The bytes of write \p Seq (0 = preload) of \p Key: a pure function of
/// its arguments, so the ledger keeps only (Seq, Len) per key.
void makeValue(uint64_t Key, uint32_t Seq, uint32_t Len, std::string &Out) {
  Out.resize(Len);
  uint64_t Base = mix64(Key) ^ ((uint64_t)Seq << 32 | Len);
  for (size_t I = 0; I < Len; I += 8) {
    uint64_t W = mix64(Base + I);
    std::memcpy(&Out[I], &W, std::min<size_t>(8, Len - I));
  }
}

bool valueIs(const std::string &Got, uint64_t Key, uint32_t Seq, uint32_t Len,
             std::string &Scratch) {
  makeValue(Key, Seq, Len, Scratch);
  return Got == Scratch;
}

/// Keys in [0, 2^Bits): uniform, or scrambled Zipf (Gray et al.'s
/// generator, as YCSB uses) with the hot ranks spread over the keyspace
/// by a seeded bijection.
class KeyGen {
public:
  KeyGen(unsigned Bits, double Theta, uint64_t Seed)
      : N((uint64_t)1 << Bits), Mask(N - 1), Salt(mix64(Seed) & Mask),
        Theta(Theta) {
    if (Theta <= 0)
      return;
    for (uint64_t I = 1; I <= N; ++I)
      ZetaN += 1.0 / std::pow((double)I, Theta);
    double Zeta2 = 1.0 + 1.0 / std::pow(2.0, Theta);
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / (double)N, 1.0 - Theta)) /
          (1.0 - Zeta2 / ZetaN);
    HalfPowTheta = std::pow(0.5, Theta);
  }

  uint64_t next(Rng &R) const {
    if (Theta <= 0)
      return R.nextBounded(N);
    double U = R.nextDouble(), Uz = U * ZetaN;
    uint64_t Rank;
    if (Uz < 1.0)
      Rank = 0;
    else if (Uz < 1.0 + HalfPowTheta)
      Rank = 1;
    else
      Rank = std::min<uint64_t>(
          N - 1,
          (uint64_t)((double)N * std::pow(Eta * U - Eta + 1.0, Alpha)));
    return ((Rank * 0x9e3779b97f4a7c15ull) ^ Salt) & Mask;
  }

  uint64_t size() const { return N; }

private:
  uint64_t N, Mask, Salt;
  double Theta, ZetaN = 0, Alpha = 0, Eta = 0, HalfPowTheta = 0;
};

/// Per-key write history as the client knows it.
struct Ledger {
  explicit Ledger(size_t N)
      : SentSeq(N), SentLen(N), AckSeq(N), AckLen(N), Uncertain(N) {}
  std::vector<uint32_t> SentSeq, SentLen; ///< Last write issued.
  std::vector<uint32_t> AckSeq, AckLen;   ///< Last write acknowledged.
  /// A write to the key was refused or lost to a transport error, so its
  /// stored value is unknown; the key is excluded from value checks.
  std::vector<uint8_t> Uncertain;
};

uint32_t preloadLen(const KvSpec &S, uint64_t Key) {
  return S.MinLen + (uint32_t)(mix64(Key ^ 0x5bd1e995) %
                               (S.MaxLen - S.MinLen + 1));
}

/// Builds a store and preloads every key through KvStore::msetBatch.
std::unique_ptr<KvStore> setUpStore(const KvSpec &S, Ledger &L,
                                    TraceBuffer *TB, Result &R) {
  std::unique_ptr<KvStore> Store;
  {
    ScopedSpan Sp(TB, SpanSetupStore);
    Store = std::make_unique<KvStore>(storeConfig(S));
  }
  ScopedSpan Sp(TB, SpanSetupPreload);
  constexpr size_t Chunk = 256;
  std::vector<std::string> Vals(Chunk);
  std::vector<KvBatchItem> Items;
  uint64_t N = (uint64_t)1 << S.KeyBits;
  for (uint64_t K0 = 0; K0 < N; K0 += Chunk) {
    Items.clear();
    for (uint64_t K = K0; K != std::min(N, K0 + Chunk); ++K) {
      uint32_t Len = preloadLen(S, K);
      makeValue(K, 0, Len, Vals[K - K0]);
      Items.push_back({K, Vals[K - K0], KvStatus::Err});
      L.SentSeq[K] = L.AckSeq[K] = 0;
      L.SentLen[K] = L.AckLen[K] = Len;
      L.Uncertain[K] = 0;
    }
    Store->msetBatch(0, Items);
    for (const KvBatchItem &It : Items)
      if (It.Status != KvStatus::Ok) {
        R.fail("preload of key " + std::to_string(It.Key) + " returned " +
               kvStatusName(It.Status));
        return Store;
      }
  }
  return Store;
}

/// What a stretch of closed-loop load measured.
struct PhaseStats {
  PhaseStats(unsigned NumWindows, uint64_t StartNs, uint64_t WidthNs)
      : W(NumWindows, StartNs, WidthNs) {}

  /// Folds \p O's counts in and copies its windows to this phase's
  /// windows from \p First on (none past the last window).
  void absorb(const PhaseStats &O, unsigned First) {
    Requests += O.Requests;
    Completed += O.Completed;
    KeysDone += O.KeysDone;
    KeyWrites += O.KeyWrites;
    Failed += O.Failed;
    Mismatches += O.Mismatches;
    LatencySumNs += O.LatencySumNs;
    for (size_t I = 0; I != O.W.Ops.size() && First + I < W.Ops.size(); ++I) {
      W.Ops[First + I] = O.W.Ops[I];
      W.Reads[First + I] = O.W.Reads[I];
      W.Writes[First + I] = O.W.Writes[I];
    }
  }

  uint64_t Requests = 0;   ///< Issued.
  uint64_t Completed = 0;  ///< Responses received, drain included.
  uint64_t KeysDone = 0;   ///< Keys of every completed request.
  uint64_t KeyWrites = 0;  ///< Keys written by completed requests.
  uint64_t Failed = 0;     ///< Requests refused or lost.
  uint64_t Mismatches = 0; ///< GETs returning a value the ledger rules out.
  uint64_t LatencySumNs = 0;
  /// Keys and latencies of requests completed inside the timed windows.
  Windows W;
};

struct Req {
  enum Kind : uint8_t { Get, Set, Mset } K = Get;
  uint8_t Conn = 0;
  uint8_t N = 0;
  uint64_t Keys[MaxKeysPerReq];
  uint32_t Seq[MaxKeysPerReq]; ///< GET: expected; writes: written.
  uint32_t Len[MaxKeysPerReq];
  uint64_t ConnSeq = 0; ///< Position in its connection's send order.
  uint64_t IssueNs = 0;
  uint64_t Id = 0;
  uint64_t SpanId = 0;
};

/// The single client thread: 4 connections, a fixed number of requests
/// issued and unanswered, responses consumed oldest first. Requests are
/// queued in the KvClients and sent in batches: a flush goes out when a
/// quarter of the outstanding requests are queued, or when the response
/// awaited next belongs to a request not yet sent.
class LoadClient {
public:
  LoadClient(const KvSpec &S, Ledger &L, uint64_t Seed)
      : S(S), L(L), Gen(S.KeyBits, S.ZipfTheta, Seed), Rand(Seed),
        Ring(S.Outstanding) {}

  bool connect(uint16_t Port) {
    Broken = false;
    for (KvClient &C : Clients)
      if (!C.connect(Port))
        return false;
    return true;
  }
  void quit() {
    for (KvClient &C : Clients)
      C.quit();
  }
  void setTrace(TraceBuffer *B) { TB = B; }

  /// Runs the closed loop for \p NumWindows windows of \p WidthNs, then
  /// drains every request still outstanding.
  PhaseStats run(unsigned NumWindows, uint64_t WidthNs) {
    uint64_t Start = nowNs();
    uint64_t End = Start + NumWindows * WidthNs;
    PhaseStats P(NumWindows, Start, WidthNs);
    bool Stop = false;
    for (;;) {
      if (!Stop && (nowNs() >= End || Broken))
        Stop = true;
      while (!Stop && Count < Ring.size())
        issue(P);
      if (!Count)
        break;
      Req &Q = Ring[Head];
      if (Unsent >= Ring.size() / 4 || Q.ConnSeq > Sent[Q.Conn])
        flushAll();
      Head = (Head + 1) % Ring.size();
      --Count;
      complete(Q, P);
    }
    return P;
  }

private:
  void bindWrite(Req &Q, unsigned I, uint64_t Key, uint32_t Len) {
    Q.Keys[I] = Key;
    Q.Seq[I] = ++L.SentSeq[Key];
    Q.Len[I] = L.SentLen[Key] = Len;
  }
  uint32_t inlineLen() {
    return S.MinLen + (uint32_t)Rand.nextBounded(S.MaxLen - S.MinLen + 1);
  }

  /// Draws the next request and hands it to its connection's KvClient.
  /// Keys and values are generated first, so the client.issue span and
  /// the request's latency cover only the KvClient call and what follows.
  void issue(PhaseStats &P) {
    Req &Q = Ring[(Head + Count) % Ring.size()];
    ++Count;
    ++P.Requests;
    Q.Id = ++NextReqId;
    bool IsGet = Rand.nextBounded(100) < S.GetPct;
    uint64_t Key = Gen.next(Rand);
    Q.Conn = (uint8_t)(Key % NumConns);
    Q.ConnSeq = ++Issued[Q.Conn];
    ++Unsent;
    if (IsGet) {
      Q.K = Req::Get;
      Q.N = 1;
      Q.Keys[0] = Key;
      Q.Seq[0] = L.SentSeq[Key];
      Q.Len[0] = L.SentLen[Key];
    } else if (Rand.nextBounded(100) < S.MsetPctOfWrites) {
      // Distinct keys, all on this connection's residue class.
      Q.K = Req::Mset;
      Q.N = (uint8_t)S.MsetWidth;
      Pairs.resize(Q.N);
      for (unsigned I = 0; I != Q.N; ++I) {
        uint64_t K = Key;
        for (bool Dup = I != 0; Dup;) {
          K = Rand.nextBounded(Gen.size() / NumConns) * NumConns + Q.Conn;
          Dup = false;
          for (unsigned J = 0; J != I; ++J)
            Dup |= Q.Keys[J] == K;
        }
        bindWrite(Q, I, K, inlineLen());
        Pairs[I].first = K;
        makeValue(K, Q.Seq[I], Q.Len[I], Pairs[I].second);
      }
    } else {
      Q.K = Req::Set;
      Q.N = 1;
      bool Large = S.LargeOneIn && Rand.nextBounded(S.LargeOneIn) == 0;
      bindWrite(Q, 0, Key, Large ? S.LargeLen : inlineLen());
      makeValue(Key, Q.Seq[0], Q.Len[0], Val);
    }

    KvClient &C = Clients[Q.Conn];
    uint64_t T0 = nowNs();
    Q.IssueNs = T0;
    switch (Q.K) {
    case Req::Get:
      C.sendGet(Key);
      break;
    case Req::Mset:
      C.sendMset(Pairs);
      break;
    case Req::Set:
      C.sendSet(Key, Val);
      break;
    }
    if (TB) {
      Q.SpanId = TB->newId();
      TB->record(SpanClientIssue, TB->newId(), Q.SpanId, SpanKvRequest, Q.Id,
                 T0, nowNs());
    }
  }

  void flushAll() {
    Unsent = 0;
    for (unsigned I = 0; I != NumConns; ++I) {
      if (Sent[I] == Issued[I])
        continue;
      Sent[I] = Issued[I];
      uint64_t T0 = TB ? nowNs() : 0;
      if (!Clients[I].flush())
        Broken = true;
      if (TB)
        TB->record(SpanClientFlush, TB->newId(), 0, 0, 0, T0, nowNs());
    }
  }

  void ack(const Req &Q, unsigned I, KvStatus St, PhaseStats &P) {
    uint64_t K = Q.Keys[I];
    if (St == KvStatus::Ok) {
      L.AckSeq[K] = Q.Seq[I];
      L.AckLen[K] = Q.Len[I];
      ++P.KeyWrites;
    } else {
      L.Uncertain[K] = 1;
    }
  }

  /// Receives \p Q's response, then checks it and accounts for it. Only
  /// the KvClient receive lies inside the client.recv span.
  void complete(const Req &Q, PhaseStats &P) {
    KvClient &C = Clients[Q.Conn];
    KvStatus GetSt = KvStatus::Ok;
    bool StatusesOk = true;
    uint64_t T0 = nowNs();
    switch (Q.K) {
    case Req::Get:
      GetSt = C.recvValue(Val);
      break;
    case Req::Set:
      Statuses.assign(1, C.recvStatus());
      break;
    case Req::Mset:
      StatusesOk = C.recvStatuses(Q.N, Statuses);
      break;
    }
    uint64_t T1 = nowNs();
    if (!C.connected())
      Broken = true;

    bool Ok = true;
    if (Q.K == Req::Get) {
      uint64_t K = Q.Keys[0];
      Ok = GetSt == KvStatus::Ok;
      // Every key is preloaded and none is deleted, so on a live
      // connection anything but the expected bytes is a wrong answer.
      bool Wrong = !L.Uncertain[K] && C.connected() &&
                   (!Ok || !valueIs(Val, K, Q.Seq[0], Q.Len[0], Scratch));
      if (Wrong && P.Mismatches++ < 5) {
        if (Ok)
          std::fprintf(stderr,
                       "perfbench: GET %llu returned %zu bytes, not write "
                       "#%u (%u bytes)\n",
                       (unsigned long long)K, Val.size(), Q.Seq[0], Q.Len[0]);
        else
          std::fprintf(stderr, "perfbench: GET %llu returned %s\n",
                       (unsigned long long)K, kvStatusName(GetSt));
      }
    } else {
      if (!StatusesOk)
        Statuses.assign(Q.N, KvStatus::Err);
      for (unsigned I = 0; I != Q.N; ++I) {
        Ok &= Statuses[I] == KvStatus::Ok;
        ack(Q, I, Statuses[I], P);
      }
    }
    if (!Ok)
      ++P.Failed;
    ++P.Completed;
    P.KeysDone += Q.N;
    uint64_t Lat = T1 - Q.IssueNs;
    P.LatencySumNs += Lat;
    int Win = P.W.index(T1);
    if (Win >= 0) {
      P.W.Ops[Win] += Q.N;
      (Q.K == Req::Get ? P.W.Reads : P.W.Writes)[Win].add(Lat);
    }
    if (TB) {
      TB->record(SpanClientRecv, TB->newId(), Q.SpanId, SpanKvRequest, Q.Id,
                 T0, T1);
      TB->record(SpanKvRequest, Q.SpanId, 0, 0, Q.Id, Q.IssueNs, T1);
    }
  }

  const KvSpec &S;
  Ledger &L;
  KeyGen Gen;
  Rng Rand;
  KvClient Clients[NumConns];
  uint64_t Issued[NumConns] = {}, Sent[NumConns] = {};
  size_t Unsent = 0;
  bool Broken = false;
  std::vector<Req> Ring;
  size_t Head = 0, Count = 0;
  uint64_t NextReqId = 0;
  TraceBuffer *TB = nullptr;
  std::vector<std::pair<uint64_t, std::string>> Pairs;
  std::vector<KvStatus> Statuses;
  std::string Val, Scratch;
};

/// Counters the store's modules expose, summed over shards. Read only
/// while no request is in flight.
struct StoreCounters {
  RuntimeCounters Rt;
  KvOpStats Ops;
  uint64_t HeapEpochs = 0;
  uint64_t HeapLivePages = 0;
};

StoreCounters readCounters(KvStore &Store) {
  StoreCounters C;
  for (unsigned I = 0; I != Store.numShards(); ++I) {
    KvShard &Sh = Store.shard(I);
    RuntimeCounters R;
    R.Ptm = Sh.backend().txnStats();
    R.Htm = Sh.backend().htmStats();
    if (CraftyRuntime *Rt = Sh.crafty())
      R.NonTxClockBumps = Rt->htm().nonTxClockBumps();
    R.Pm = Sh.pool().stats();
    C.Rt += R;
    if (heap::DurableHeap *H = Sh.heap()) {
      C.HeapEpochs += H->currentEpoch();
      C.HeapLivePages += H->allocatedPages();
    }
  }
  C.Ops = Store.opStats();
  return C;
}

/// The server's own request-stage accounting (STATS), summed over
/// workers.
struct ServerTimes {
  uint64_t Requests = 0, QueueWaitNs = 0, ExecuteNs = 0, CommitWaitNs = 0,
           Barriers = 0, BarrierNs = 0;
};

uint64_t sumJsonField(const std::string &J, const char *Key) {
  std::string Pat = std::string("\"") + Key + "\":";
  uint64_t Sum = 0;
  for (size_t P = J.find(Pat); P != std::string::npos;
       P = J.find(Pat, P + 1))
    Sum += std::strtoull(J.c_str() + P + Pat.size(), nullptr, 10);
  return Sum;
}

bool fetchServerTimes(KvClient &Ctl, ServerTimes &T, TraceBuffer *TB) {
  ScopedSpan Sp(TB, SpanClientStats);
  std::string J;
  if (!Ctl.stats(J))
    return false;
  T.Requests = sumJsonField(J, "requests");
  T.QueueWaitNs = sumJsonField(J, "queue_wait_ns");
  T.ExecuteNs = sumJsonField(J, "execute_ns");
  T.CommitWaitNs = sumJsonField(J, "commit_wait_ns");
  T.Barriers = sumJsonField(J, "barriers");
  T.BarrierNs = sumJsonField(J, "barrier_ns");
  return true;
}

/// Keys whose recovered value differs from the ledger's last
/// acknowledged write.
uint64_t auditStore(KvStore &Store, const Ledger &L, bool Report) {
  uint64_t Bad = 0;
  std::string Got, Scratch;
  for (uint64_t K = 0; K != L.AckSeq.size(); ++K) {
    if (L.Uncertain[K])
      continue;
    bool Present = Store.shard(Store.shardOf(K)).peek(K, Got);
    if (Present && valueIs(Got, K, L.AckSeq[K], L.AckLen[K], Scratch))
      continue;
    if (Report && Bad < 5)
      std::fprintf(stderr,
                   "perfbench: after recovery key %llu %s, expected "
                   "write #%u (%u bytes)\n",
                   (unsigned long long)K,
                   Present ? "holds other bytes" : "is missing", L.AckSeq[K],
                   L.AckLen[K]);
    ++Bad;
  }
  return Bad;
}

/// Crash, recover, audit every key and the heap, then prove the audit
/// can fail by perturbing one ledger entry.
RecoveryOutcome crashAndAudit(KvStore &Store, Ledger &L, uint64_t Seed,
                              TraceBuffer *TB, Result &R) {
  RecoveryOutcome Out;
  {
    ScopedSpan Sp(TB, SpanCrash);
    Store.simulateCrash();
  }
  {
    ScopedSpan Sp(TB, SpanRecover);
    uint64_t T0 = nowNs();
    Out.RolledBack = Store.recover();
    Out.ReplayMs = (nowNs() - T0) * 1e-6;
  }
  ScopedSpan Sp(TB, SpanAudit);
  if (uint64_t Bad = auditStore(Store, L, /*Report=*/true))
    R.fail(std::to_string(Bad) +
           " acknowledged writes lost or corrupted by crash + recovery");
  KvHeapAudit H = Store.auditHeap();
  if (!H.consistent())
    R.fail("heap audit: " + std::to_string(H.BitmapPages) +
           " bitmap pages vs " + std::to_string(H.LivePages) +
           " live, " + std::to_string(H.StagedWal) + " staged WAL records");
  size_t N = L.AckSeq.size(), Victim = mix64(Seed) % N;
  for (size_t Tries = 0; L.Uncertain[Victim] && Tries != N; ++Tries)
    Victim = (Victim + 1) % N;
  L.AckSeq[Victim]++;
  if (L.Uncertain[Victim] || auditStore(Store, L, /*Report=*/false) != 1)
    R.fail("audit self-check: a perturbed ledger entry went unnoticed");
  L.AckSeq[Victim]--;
  return Out;
}

/// Half-second windows: a host stall touches a smaller share of them, and
/// each still holds over 1000 samples of every request kind.
constexpr uint64_t WindowNs = 500000000ull;
constexpr unsigned WindowsPerSegment = 2;

/// The CPUs this process may run on, in order.
std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// \p Seg-th of \p Cpus in turn. A segment's client and server worker then
/// share one vCPU: each hand-off is a context switch inside the guest
/// rather than the wake-up of a halted vCPU, whose latency on a contended
/// host swings throughput and tail latency by tens of percent from run to
/// run. Moving on every segment spreads a run over all the vCPUs: each
/// shares its physical core with another guest's hyperthread, whose load
/// differs from core to core for tens of seconds at a time.
void pinForSegment(const std::vector<int> &Cpus, unsigned Seg) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Seg % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Per-layer counter deltas summed over the traced segments.
struct LayerDeltas {
  ServerTimes Server;
  RuntimeCounters Rt;
  uint64_t Hits = 0, Misses = 0, HeapEpochs = 0, HeapLivePages = 0;
  bool StatsOk = true;
};

/// Runs segment \p Seg of \p Phase: a fresh server (so a fresh worker
/// thread) and a fresh client thread warm up for 0.25 s, counted in
/// \p Warm, then measure WindowsPerSegment windows. With \p LD set, the
/// measured windows are traced into \p TB and bracketed by counter
/// snapshots taken while nothing is in flight, so \p Phase's counts and
/// the counter deltas cover the same requests.
void runSegment(KvStore &Store, LoadClient &D, PhaseStats &Phase,
                PhaseStats &Warm, unsigned Seg, TraceBuffer *TB,
                LayerDeltas *LD, Result &R) {
  KvServerConfig SC;
  SC.Workers = 1;
  KvServer Server(Store, SC);
  KvClient Ctl;
  {
    ScopedSpan Sp(LD ? TB : nullptr, SpanServerStart);
    Server.start();
    if (!D.connect(Server.port()) || (LD && !Ctl.connect(Server.port()))) {
      R.fail("cannot connect to the server");
      return;
    }
  }
  std::thread Client([&] {
    Warm.absorb(D.run(1, SegmentWarmupNs), 0);
    ServerTimes SBefore, SAfter;
    StoreCounters CBefore;
    if (LD) {
      LD->StatsOk &= fetchServerTimes(Ctl, SBefore, TB);
      CBefore = readCounters(Store);
      D.setTrace(TB);
    }
    Phase.absorb(D.run(WindowsPerSegment, WindowNs), Seg * WindowsPerSegment);
    if (!LD)
      return;
    D.setTrace(nullptr);
    StoreCounters CAfter = readCounters(Store);
    LD->StatsOk &= fetchServerTimes(Ctl, SAfter, TB);
    ServerTimes &T = LD->Server;
    T.Requests += SAfter.Requests - SBefore.Requests;
    T.QueueWaitNs += SAfter.QueueWaitNs - SBefore.QueueWaitNs;
    T.ExecuteNs += SAfter.ExecuteNs - SBefore.ExecuteNs;
    T.CommitWaitNs += SAfter.CommitWaitNs - SBefore.CommitWaitNs;
    T.Barriers += SAfter.Barriers - SBefore.Barriers;
    T.BarrierNs += SAfter.BarrierNs - SBefore.BarrierNs;
    LD->Rt += CAfter.Rt.since(CBefore.Rt);
    LD->Hits += CAfter.Ops.Hits - CBefore.Ops.Hits;
    LD->Misses += CAfter.Ops.Misses - CBefore.Ops.Misses;
    LD->HeapEpochs += CAfter.HeapEpochs - CBefore.HeapEpochs;
    LD->HeapLivePages = CAfter.HeapLivePages;
  });
  Client.join();
  ScopedSpan Sp(LD ? TB : nullptr, SpanServerStop);
  Ctl.quit();
  D.quit();
  Server.stop();
}

} // namespace

void perfbench::runKv(const Options &O, Result &R) {
  const KvSpec &S = O.Workload == "kv-read" ? KvRead : KvWrite;
  R.param("flush_policy", "PMemMode::Tracked, DrainLatencyNs=300, eviction "
                          "off, ack after persist barrier");
  R.param("shards", NumShards);
  R.param("server_workers", 1);
  R.param("threads_per_shard", 1);
  R.param("connections", NumConns);
  R.param("client_threads", 1);
  R.param("cpus", "client and server worker pinned to one vCPU, the "
                 "next one each segment");
  R.param("outstanding", S.Outstanding);
  R.param("keys", (uint64_t)1 << S.KeyBits);
  R.param("key_dist", S.ZipfTheta > 0 ? "zipf theta=0.99 scrambled"
                                      : "uniform");
  R.param("get_pct", S.GetPct);
  R.param("mset_pct_of_writes", S.MsetPctOfWrites);
  R.param("mset_width", S.MsetWidth);
  R.param("inline_value_bytes",
          std::to_string(S.MinLen) + "-" + std::to_string(S.MaxLen));
  R.param("large_set_one_in", S.LargeOneIn);
  R.param("large_value_bytes", S.LargeLen);
  R.param("max_inline_value_bytes", S.MaxValueBytes);
  R.param("heap_pages_per_shard", S.HeapPages);
  R.param("segments", segments(O));
  R.param("segment_warmup_s", "0.25");
  R.param("window_s", "0.5");

  HostMonitor Host;
  Tracer Tr(O.Trace);
  TraceBuffer *TB = Tr.buffer(0);
  Ledger L((size_t)1 << S.KeyBits);

  // Set-up: store construction plus preload, repeated and reported as
  // the median (the last store is the one measured).
  unsigned SetupRuns = O.Trace ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<KvStore> Store;
  for (unsigned I = 0; I != SetupRuns; ++I) {
    Store.reset();
    uint64_t T0 = nowNs();
    Store = setUpStore(S, L, TB, R);
    SetupS.push_back(seconds(nowNs() - T0));
    if (!R.Correct)
      return;
  }

  // A traced run splits its time between untraced and traced segments.
  std::vector<int> Cpus = allowedCpus();
  LoadClient D(S, L, O.Seed);
  unsigned Segments = segments(O);
  PhaseStats Main(Segments * WindowsPerSegment, 0, WindowNs);
  PhaseStats Traced(O.Trace ? Segments * WindowsPerSegment : 0, 0, WindowNs);
  PhaseStats Warm(0, 0, WindowNs); // Warm-ups of every segment.
  LayerDeltas LD;
  for (unsigned Seg = 0; Seg != Segments && R.Correct; ++Seg) {
    pinForSegment(Cpus, Seg);
    Host.beforeSegment();
    runSegment(*Store, D, Main, Warm, Seg, TB, nullptr, R);
  }
  for (unsigned Seg = 0; O.Trace && Seg != Segments && R.Correct; ++Seg) {
    pinForSegment(Cpus, Seg);
    runSegment(*Store, D, Traced, Warm, Seg, TB, &LD, R);
  }
  Host.stamp(R);
  if (!LD.StatsOk)
    R.fail("STATS request failed");

  for (const PhaseStats *P : {&Main, &Traced, &Warm}) {
    R.Attempted += P->Requests;
    R.Failed += P->Failed;
    if (P->Mismatches)
      R.fail(std::to_string(P->Mismatches) +
             " GETs returned a status or value other than the last write issued");
  }
  RecoveryOutcome Rec = crashAndAudit(*Store, L, O.Seed, TB, R);

  if (!O.Trace) {
    addWindowedMetrics(R, Main.W);
    R.add("setup_s", median(SetupS), "s");
    R.add("rss_mb", peakRssMb(), "MB");
    return;
  }

  LayerValues V;
  double Reqs = (double)Traced.Completed;
  const ServerTimes &ST = LD.Server;
  double SReqs = (double)ST.Requests;
  double Barriers = (double)ST.Barriers;
  auto PerReqUs = [&](uint64_t Ns) { return ratio(Ns * 1e-3, SReqs); };
  V["kv.client.send_us_per_req"] =
      ratio((Tr.total(SpanClientIssue).TotalNs +
             Tr.total(SpanClientFlush).TotalNs) *
                1e-3,
            Reqs);
  V["kv.client.recv_us_per_req"] =
      ratio(Tr.total(SpanClientRecv).TotalNs * 1e-3, Reqs);
  double Qw = PerReqUs(ST.QueueWaitNs);
  double Ex = PerReqUs(ST.ExecuteNs);
  double Cw = PerReqUs(ST.CommitWaitNs);
  V["kv.server.queue_wait_us_per_req"] = Qw;
  V["kv.server.execute_us_per_req"] = Ex;
  V["kv.server.commit_wait_us_per_req"] = Cw;
  V["kv.server.barriers_per_req"] = ratio(Barriers, SReqs);
  V["kv.server.barrier_us_per_call"] =
      ratio(ST.BarrierNs * 1e-3, Barriers);
  V["kv.server.unattributed_us_per_req"] =
      ratio(Traced.LatencySumNs * 1e-3, Reqs) - (Qw + Ex + Cw);

  V["kv.shard.txns_per_req"] = ratio(LD.Rt.Htm.Commits, Reqs);
  V["kv.store.hit_rate"] = ratio(LD.Hits, (double)(LD.Hits + LD.Misses));
  V["heap.allocs_per_write"] = ratio(LD.HeapEpochs, Traced.KeyWrites);
  V["heap.live_pages"] = (double)LD.HeapLivePages;
  addRuntimeLayers(V, LD.Rt, (double)Traced.KeysDone, Barriers);
  V["recovery.replay_ms"] = Rec.ReplayMs;
  V["recovery.sequences_rolled_back"] = (double)Rec.RolledBack;
  V["trace.overhead_frac"] = 1.0 - Traced.W.rate() / Main.W.rate();
  emitPerLayer(R, V);

  std::printf("# traced phase: %.0f requests, %.0f ops/s traced vs %.0f "
              "untraced\n",
              Reqs, Traced.W.rate(), Main.W.rate());
  Tr.printSummary();
  if (!O.TraceOut.empty() && !Tr.write(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
}
