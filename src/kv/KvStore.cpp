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
  return Shards[shardOf(Key)]->get(Tid, Key, Out);
}

KvStatus KvStore::set(unsigned Tid, uint64_t Key, std::string_view Val) {
  return Shards[shardOf(Key)]->set(Tid, Key, Val);
}

KvStatus KvStore::del(unsigned Tid, uint64_t Key) {
  return Shards[shardOf(Key)]->del(Tid, Key);
}

KvStatus KvStore::cas(unsigned Tid, uint64_t Key, std::string_view Expect,
                      std::string_view Desired) {
  return Shards[shardOf(Key)]->cas(Tid, Key, Expect, Desired);
}

std::vector<KvResult> KvStore::mget(unsigned Tid,
                                    const std::vector<uint64_t> &Keys) {
  // Group by shard and run each group through the batched GET pipeline
  // (few transactions per shard instead of one per key), then scatter
  // the results back to the caller's order.
  std::vector<KvResult> Out(Keys.size());
  std::vector<std::vector<size_t>> ByShard(Shards.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    ByShard[shardOf(Keys[I])].push_back(I);
  std::vector<uint64_t> GroupKeys;
  std::vector<KvResult> Group;
  for (size_t S = 0; S != Shards.size(); ++S) {
    if (ByShard[S].empty())
      continue;
    GroupKeys.clear();
    for (size_t I : ByShard[S])
      GroupKeys.push_back(Keys[I]);
    Group.assign(GroupKeys.size(), KvResult());
    Shards[S]->getBatch(Tid, GroupKeys.data(), GroupKeys.size(),
                        Group.data());
    for (size_t G = 0; G != Group.size(); ++G)
      Out[ByShard[S][G]] = std::move(Group[G]);
  }
  return Out;
}

void KvStore::msetBatch(unsigned Tid, std::vector<KvBatchItem> &Items,
                        bool Durable) {
  // Group by shard, run each shard's group as one batched pipeline, then
  // scatter the statuses back to the caller's order.
  std::vector<std::vector<size_t>> ByShard(Shards.size());
  for (size_t I = 0; I != Items.size(); ++I)
    ByShard[shardOf(Items[I].Key)].push_back(I);
  std::vector<KvBatchItem> Group;
  for (size_t S = 0; S != Shards.size(); ++S) {
    if (ByShard[S].empty())
      continue;
    Group.clear();
    for (size_t I : ByShard[S])
      Group.push_back(Items[I]);
    Shards[S]->setBatch(Tid, Group.data(), Group.size());
    if (Durable)
      Shards[S]->persistAck(Tid);
    for (size_t G = 0; G != Group.size(); ++G)
      Items[ByShard[S][G]].Status = Group[G].Status;
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
