//===- kv/KvStore.cpp - Sharded durable key-value store -------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "kv/KvStore.h"

#include "check/PersistCheck.h"
#include "check/TxRaceCheck.h"
#include "core/Crafty.h"

using namespace crafty;
using namespace crafty::kv;

namespace {

/// splitmix64 finalizer: routes keys to shards independently of the
/// DurableHashMap's in-shard slot hash, so the two never correlate.
uint64_t mixKey(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

KvStore::KvStore(const KvConfig &Cfg) : Cfg(Cfg) {
  unsigned N = Cfg.NumShards ? Cfg.NumShards : 1;
  Shards.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<KvShard>(Cfg, I));
}

KvStore::~KvStore() = default;

unsigned KvStore::shardOf(uint64_t Key) const {
  return (unsigned)(mixKey(Key) % Shards.size());
}

bool KvStore::recoveredOnOpen() const {
  for (const auto &S : Shards)
    if (S->recoveredOnOpen())
      return true;
  return false;
}

size_t KvStore::sequencesRolledBack() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->lastRecovery().SequencesRolledBack;
  return N;
}

KvStatus KvStore::get(unsigned Tid, uint64_t Key, std::string &Out) {
  KvResult R;
  KvCycleOp Op;
  Op.K = KvCycleOp::Get;
  Op.Key = Key;
  Op.Result = &R;
  Shards[shardOf(Key)]->runCycle(Tid, &Op, 1);
  Out = std::move(R.Value);
  return R.Status;
}

KvStatus KvStore::runOne(unsigned Tid, KvCycleOp &Op) {
  KvStatus St = KvStatus::Err;
  Op.Status = &St;
  Shards[shardOf(Op.Key)]->runCycle(Tid, &Op, 1);
  return St;
}

KvStatus KvStore::set(unsigned Tid, uint64_t Key, std::string_view Val) {
  KvCycleOp Op;
  Op.K = KvCycleOp::Set;
  Op.Key = Key;
  Op.Val = Val;
  return runOne(Tid, Op);
}

KvStatus KvStore::del(unsigned Tid, uint64_t Key) {
  KvCycleOp Op;
  Op.K = KvCycleOp::Del;
  Op.Key = Key;
  return runOne(Tid, Op);
}

KvStatus KvStore::cas(unsigned Tid, uint64_t Key, std::string_view Expect,
                      std::string_view Desired) {
  KvCycleOp Op;
  Op.K = KvCycleOp::Cas;
  Op.Key = Key;
  Op.Val = Desired;
  Op.Expect = Expect;
  return runOne(Tid, Op);
}

std::vector<KvResult> KvStore::mget(unsigned Tid,
                                    const std::vector<uint64_t> &Keys) {
  std::vector<KvResult> Out(Keys.size());
  std::vector<std::vector<KvCycleOp>> ByShard(Shards.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    KvCycleOp &Op = ByShard[shardOf(Keys[I])].emplace_back();
    Op.K = KvCycleOp::Get;
    Op.Key = Keys[I];
    Op.Result = &Out[I];
  }
  for (size_t S = 0; S != Shards.size(); ++S)
    if (!ByShard[S].empty())
      Shards[S]->runCycle(Tid, ByShard[S].data(), ByShard[S].size());
  return Out;
}

void KvStore::msetBatch(unsigned Tid, std::vector<KvBatchItem> &Items) {
  std::vector<std::vector<KvCycleOp>> ByShard(Shards.size());
  for (KvBatchItem &It : Items) {
    KvCycleOp &Op = ByShard[shardOf(It.Key)].emplace_back();
    Op.K = KvCycleOp::Set;
    Op.Key = It.Key;
    Op.Val = It.Val;
    Op.Status = &It.Status;
  }
  for (size_t S = 0; S != Shards.size(); ++S) {
    if (ByShard[S].empty())
      continue;
    Shards[S]->runCycle(Tid, ByShard[S].data(), ByShard[S].size());
    Shards[S]->persistAck(Tid);
  }
}

void KvStore::persistAck(unsigned Tid) {
  for (auto &S : Shards)
    S->persistAck(Tid);
}

void KvStore::simulateCrash() {
  for (auto &S : Shards)
    S->simulateCrash();
}

size_t KvStore::recover() {
  size_t N = 0;
  for (auto &S : Shards) {
    S->recoverInPlace();
    N += S->lastRecovery().SequencesRolledBack;
  }
  return N;
}

uint64_t KvStore::checkerViolations() {
  uint64_t N = 0;
  for (auto &S : Shards) {
    CraftyRuntime *Rt = S->crafty();
    if (!Rt)
      continue;
    if (PersistCheck *PC = Rt->persistCheck())
      N += PC->violationCount();
    if (TxRaceCheck *RC = Rt->raceCheck())
      N += RC->violationCount();
  }
  return N;
}

KvHeapAudit KvStore::auditHeap() const {
  KvHeapAudit A;
  for (const auto &Shard : Shards)
    A += Shard->auditHeap();
  return A;
}

KvOpStats KvStore::opStats() const {
  KvOpStats S;
  for (const auto &Shard : Shards)
    S += Shard->opStats();
  return S;
}
