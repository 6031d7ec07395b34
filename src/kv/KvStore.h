//===- kv/KvStore.h - Sharded durable key-value store ----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded store: KvConfig::NumShards KvShards, with keys hash-routed
/// by a splitmix64 of the key (so shard load stays balanced even for
/// sequential keyspaces). Each shard is an independent persistence domain
/// -- its own pool, undo logs and backend -- so shards never conflict and
/// scale is embarrassing by construction; cross-shard multi-key requests
/// (MGET, batched MSET) decompose into per-shard pieces with no
/// cross-shard atomicity (documented service semantics, as in production
/// sharded caches).
///
/// With KvConfig::DataDir set, each shard is file-backed and
/// KvStore::recover() / the constructor replay every shard's undo log on
/// startup, so the store as a whole survives process death.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_KV_KVSTORE_H
#define CRAFTY_KV_KVSTORE_H

#include "kv/KvShard.h"

#include <memory>
#include <vector>

namespace crafty {
namespace kv {

class KvStore {
public:
  /// Opens (and, for existing file-backed shard images, recovers) all
  /// shards.
  explicit KvStore(const KvConfig &Cfg);
  ~KvStore();
  KvStore(const KvStore &) = delete;
  KvStore &operator=(const KvStore &) = delete;

  const KvConfig &config() const { return Cfg; }
  unsigned numShards() const { return (unsigned)Shards.size(); }
  KvShard &shard(unsigned I) { return *Shards[I]; }
  /// The shard a key routes to.
  unsigned shardOf(uint64_t Key) const;

  /// True when any shard attached to an existing image and replayed its
  /// log during construction (the startup recovery path).
  bool recoveredOnOpen() const;
  /// Sum of undo-log sequences rolled back across all shards' last
  /// recoveries.
  size_t sequencesRolledBack() const;

  // Single-key operations, each one KvShard::runCycle of one op on the
  // key's shard. \p Tid indexes every shard's worker contexts, so a caller
  // owning Tid T may touch any shard with it. Writes are not yet durable:
  // call persistAck before relying on them surviving a crash.
  KvStatus get(unsigned Tid, uint64_t Key, std::string &Out);
  KvStatus set(unsigned Tid, uint64_t Key, std::string_view Val);
  KvStatus del(unsigned Tid, uint64_t Key);
  KvStatus cas(unsigned Tid, uint64_t Key, std::string_view Expect,
               std::string_view Desired);

  /// MGET: groups \p Keys by shard and runs each group as one
  /// KvShard::runCycle (transactions of up to BatchTxnLimit keys) that
  /// writes each key's outcome straight into the returned vector, in
  /// \p Keys order.
  std::vector<KvResult> mget(unsigned Tid,
                             const std::vector<uint64_t> &Keys);

  /// Batched multi-SET: groups \p Items by shard and runs each group as
  /// one KvShard::runCycle (transactions of up to BatchTxnLimit SETs)
  /// followed by one persistAck, so every item is durable on return. Each
  /// runCycle writes its statuses straight into \p Items.
  void msetBatch(unsigned Tid, std::vector<KvBatchItem> &Items);

  /// Persist barrier on every shard, issued as worker \p Tid. Each
  /// shard's barrier covers every transaction committed on it so far,
  /// by any worker.
  void persistAck(unsigned Tid);

  /// Simulated power failure on every shard (quiesce first).
  void simulateCrash();
  /// In-place recovery of every shard after simulateCrash(); returns the
  /// total sequences rolled back.
  size_t recover();

  /// Total dynamic-checker violations across all shards (0 when the
  /// checkers are disabled or clean).
  uint64_t checkerViolations();

  /// Quiesced heap leak audit summed over all shards: allocated bitmap
  /// pages must equal pages owned by live heap-routed values, with no
  /// in-flight staging WAL records (see KvHeapAudit::consistent).
  KvHeapAudit auditHeap() const;

  KvOpStats opStats() const;

private:
  /// Runs \p Op alone as one runCycle on its key's shard; returns the
  /// status it wrote.
  KvStatus runOne(unsigned Tid, KvCycleOp &Op);

  KvConfig Cfg;
  std::vector<std::unique_ptr<KvShard>> Shards;
};

} // namespace kv
} // namespace crafty

#endif // CRAFTY_KV_KVSTORE_H
