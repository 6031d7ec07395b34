//===- kv/KvTypes.h - KV service common types ------------------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the sharded durable key-value service (src/kv/): the
/// store configuration, operation status codes, and small helpers used by
/// the engine, the network front end and the load generator.
///
/// The service stores ⟨uint64_t key → byte-string value⟩ pairs. Keys are
/// 64-bit integers (the reserved DurableHashMap encodings exclude the two
/// largest values); values are opaque byte strings up to
/// KvConfig::activeValueLimit() -- MaxValueBytes inline, or the durable
/// heap's extent cap (64 KiB) when KvConfig::HeapPages enables the
/// large-object path. Every mutation is one persistent transaction
/// on the owning shard's backend, so a value is never torn across a
/// crash, and acknowledgements are withheld until the write is durable
/// (see KvShard::persistAck).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_KV_KVTYPES_H
#define CRAFTY_KV_KVTYPES_H

#include "baselines/Factory.h"
#include "heap/DurableHeap.h"
#include "pmem/PMemPool.h"

#include <cstdint>
#include <string>

namespace crafty {
namespace kv {

/// Outcome of one KV operation. Full / TooBig are recoverable conditions
/// reported to the client (`ERR full`, `ERR toobig`), never aborts.
enum class KvStatus : uint8_t {
  Ok,
  NotFound,
  Mismatch, // CAS expectation failed.
  Full,     // Shard table, value-cell freelist, or heap pages exhausted.
  TooBig,   // Value exceeds KvConfig::activeValueLimit().
  Err,      // Malformed request / internal error.
};

inline const char *kvStatusName(KvStatus S) {
  switch (S) {
  case KvStatus::Ok:
    return "OK";
  case KvStatus::NotFound:
    return "NOTFOUND";
  case KvStatus::Mismatch:
    return "MISMATCH";
  case KvStatus::Full:
    return "ERR full";
  case KvStatus::TooBig:
    return "ERR toobig";
  case KvStatus::Err:
    return "ERR internal";
  }
  return "ERR internal";
}

/// Configuration of a KvStore and its shards. One KvShard owns one
/// PMemPool + HtmRuntime + PtmBackend; the store hash-routes keys across
/// NumShards shards.
struct KvConfig {
  unsigned NumShards = 1;
  /// Hash-table slots per shard (rounded up to a power of two). The
  /// value-cell arena holds the same number of cells, so a shard can hold
  /// up to its slot count of live keys (probe lengths degrade near full).
  size_t SlotsPerShard = 1 << 14;
  /// Maximum value size in bytes; each cell is 8 (length word) +
  /// MaxValueBytes rounded up to a cache-line multiple.
  size_t MaxValueBytes = 248;
  /// Persistent-transaction system backing every shard. Crash recovery
  /// (attach to an existing pool image / recover()) is supported for the
  /// Crafty variants, whose undo logs the recovery observer replays.
  SystemKind Backend = SystemKind::Crafty;
  /// Worker transaction contexts per shard (the KvServer uses one worker
  /// thread per shard; tests may drive more).
  unsigned ThreadsPerShard = 1;
  size_t LogEntriesPerThread = 1 << 14;
  /// Cap on SETs folded into one batched transaction; larger MSETs split
  /// into several transactions (still one durability drain). Keeps batch
  /// write sets inside HTM capacity so batching does not force SGL mode.
  size_t BatchTxnLimit = 32;

  // Persistent-memory modeling (see pmem/PMemPool.h).
  PMemMode Mode = PMemMode::Tracked;
  uint64_t DrainLatencyNs = 300;
  uint32_t EvictionPerMillion = 0;
  uint64_t EvictionSeed = 42;
  /// When set, each shard's persistent image is backed by
  /// `<DataDir>/shard<i>.img`, so shard state survives process death and
  /// a restarted store attaches + recovers (KvStore's startup replay).
  std::string DataDir;

  /// Attach the dynamic checkers to each shard's runtime (Crafty only).
  bool EnablePersistCheck = false;
  bool EnableTxRaceCheck = false;

  /// Pages of the per-shard durable large-object heap
  /// (heap/DurableHeap.h); 0 disables the heap, confining values to the
  /// inline cell arena (the pre-heap behavior).
  size_t HeapPages = 0;
  /// WAL records for in-flight heap extents. Bounds concurrently staged
  /// but unpublished extents; keep >= BatchTxnLimit so one batch chunk
  /// can pre-stage entirely.
  size_t HeapWalSlots = 64;

  /// Bytes of one value cell: length word + padded value bytes.
  size_t cellBytes() const {
    return (8 + MaxValueBytes + CacheLineBytes - 1) &
           ~(size_t)(CacheLineBytes - 1);
  }

  /// Largest value the store accepts under this configuration: the heap
  /// extent cap when the heap is enabled, MaxValueBytes otherwise.
  size_t activeValueLimit() const {
    return HeapPages ? heap::DurableHeap::MaxObjectBytes : MaxValueBytes;
  }
};

/// Result of a quiesced heap leak audit (KvShard::auditHeap /
/// KvStore::auditHeap): the allocator's bitmap page count must equal the
/// pages owned by live heap-routed values, with no in-flight WAL records.
struct KvHeapAudit {
  bool Enabled = false;    ///< Any shard has a heap configured.
  uint64_t BitmapPages = 0; ///< Pages marked allocated in the bitmaps.
  uint64_t LivePages = 0;  ///< Pages owned by live heap-tagged cells.
  uint64_t StagedWal = 0;  ///< WAL records still in the Staged state.

  bool consistent() const {
    return !Enabled || (BitmapPages == LivePages && StagedWal == 0);
  }
  KvHeapAudit &operator+=(const KvHeapAudit &O) {
    Enabled |= O.Enabled;
    BitmapPages += O.BitmapPages;
    LivePages += O.LivePages;
    StagedWal += O.StagedWal;
    return *this;
  }
};

/// Result of one element of a multi-key operation.
struct KvResult {
  KvStatus Status = KvStatus::Err;
  std::string Value; // GET/MGET payload when Status == Ok.
};

/// Cumulative per-store operation counters (volatile; reporting only).
struct KvOpStats {
  uint64_t Gets = 0;
  uint64_t Sets = 0;
  uint64_t Dels = 0;
  uint64_t Cas = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  KvOpStats &operator+=(const KvOpStats &O) {
    Gets += O.Gets;
    Sets += O.Sets;
    Dels += O.Dels;
    Cas += O.Cas;
    Hits += O.Hits;
    Misses += O.Misses;
    return *this;
  }
};

} // namespace kv
} // namespace crafty

#endif // CRAFTY_KV_KVTYPES_H
