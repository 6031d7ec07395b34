//===- kv/KvShard.h - One durable key-value shard --------------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard of the durable KV service: a PMemPool (optionally file-backed
/// so it survives process death), an HtmRuntime, a persistent-transaction
/// backend created through baselines::Factory (so Crafty and the baseline
/// systems are comparable end-to-end), a pds::DurableHashMap from keys to
/// value-cell indices, and a persistent value-cell arena with a
/// transactional freelist.
///
/// Operations run through one engine, runCycle, and every chunk of up to
/// KvConfig::BatchTxnLimit operations is one persistent transaction: the
/// map updates, the cell bytes and the freelist manipulation commit or
/// vanish together, so a crash never exposes a torn value or a leaked
/// cell. Overwrites reuse the existing cell in place (transactional
/// atomicity makes that safe); inserts pop a cell from the freelist and
/// deletes push it back, all inside the same transaction as the map
/// update -- which is what makes recovery free: rolling back the undo
/// log restores map, cells and freelist to one consistent snapshot, with
/// no allocator rebuild.
///
/// With KvConfig::HeapPages set, values above KvConfig::MaxValueBytes
/// route through the shard's heap::DurableHeap: the bytes are staged to
/// fresh pages *before* the mutation's transaction (allocAndStage), and
/// the transaction itself only swings the cell to a heap-tagged ref
/// ([0] = HeapLenTag, [1] = packed extent ref), frees the extent the
/// cell previously owned, and closes the staging WAL record. That keeps
/// every transaction's write set small regardless of value size, lifting
/// the MaxValueBytes ceiling to the heap extent cap (64 KiB).
///
/// Durability of acknowledgements is explicit: commit alone does not make
/// a Crafty transaction durable (recovery may roll back a tail of
/// committed transactions, bounded by MAX_LAG). persistAck() runs the
/// on-demand persist barrier; the server calls it once per drained batch
/// of requests before acknowledging any of them (group commit).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_KV_KVSHARD_H
#define CRAFTY_KV_KVSHARD_H

#include "kv/KvTypes.h"
#include "pds/DurableHashMap.h"
#include "support/Annotations.h"
#include "recovery/Recovery.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace crafty {

class CraftyRuntime;
class HtmRuntime;

namespace kv {

/// One SET of a KvStore::msetBatch call; Status is filled in by the
/// shard's runCycle.
struct KvBatchItem {
  uint64_t Key = 0;
  std::string_view Val;
  KvStatus Status = KvStatus::Err;
};

/// One operation of a batch executed in arrival order by
/// KvShard::runCycle: a server event-loop cycle or a KvStore call. The
/// value views and the Result/Status destinations must stay valid until
/// runCycle returns (the server parks them in the request's response
/// slot; KvStore points them into the caller's output).
struct KvCycleOp {
  enum Kind : uint8_t { Get, Set, Del, Cas } K = Get;
  uint64_t Key = 0;
  std::string_view Val;       ///< Set: value; Cas: desired value.
  std::string_view Expect;    ///< Cas: expected current value.
  KvResult *Result = nullptr; ///< Get destination.
  KvStatus *Status = nullptr; ///< Set/Del/Cas destination.
};

class KvShard {
public:
  /// Opens shard \p ShardIdx under \p Cfg. With a DataDir configured and
  /// an existing image file, the shard *attaches*: the undo logs in the
  /// image are replayed (recovery observer), the runtime re-attaches to
  /// the recovered pool, and the map adopts the surviving layout. A fresh
  /// shard is formatted and its freelist initialized.
  KvShard(const KvConfig &Cfg, unsigned ShardIdx);
  ~KvShard();
  KvShard(const KvShard &) = delete;
  KvShard &operator=(const KvShard &) = delete;

  unsigned shardIndex() const { return ShardIdx; }

  /// True when the shard was opened over an existing image and went
  /// through recovery; lastRecovery() then describes the replay.
  bool recoveredOnOpen() const { return RecoveredOnOpen; }
  const RecoveryReport &lastRecovery() const { return LastRecovery; }

  /// The shard's execution engine: runs \p Ops against this shard -- any
  /// mix of GET/SET/DEL/CAS, in array order -- in transactions of up to
  /// KvConfig::BatchTxnLimit operations each, one undo-log sequence and
  /// one flush per chunk instead of one per operation. Arrival order is
  /// preserved exactly (a pipelined GET after a SET of the same key sees
  /// the SET). A chunk whose every op failed value routing (TooBig /
  /// Full) starts no transaction. Returns true if any operation mutated
  /// the shard (the caller then owes a persistAck before acknowledging).
  /// \p Tid selects a backend worker context (< ThreadsPerShard); use
  /// each Tid from one thread at a time.
  CRAFTY_TX_BODY bool runCycle(unsigned Tid, KvCycleOp *Ops, size_t N);

  /// Makes every transaction committed so far durable (Crafty: the
  /// Section 5.2 on-demand persist barrier). Acknowledgements must not be
  /// sent before this returns. No-op for the non-Crafty backends, whose
  /// commit already persists their redo log (their ack-durability story),
  /// and for Non-durable, which makes no durability promise at all.
  void persistAck(unsigned Tid);

  /// Simulated power failure (Tracked pools; quiesce all workers first).
  void simulateCrash();
  /// In-place recovery after simulateCrash(): replays the undo logs,
  /// re-creates the HTM runtime and re-attaches the backend. The map and
  /// cell regions keep their (recovered) content.
  void recoverInPlace();

  /// Quiesced, non-transactional audit read (post-recovery ledgers).
  bool peek(uint64_t Key, std::string &Out) const;
  /// Quiesced raw live-key count; ~0ull if map metadata is corrupt.
  uint64_t auditCount() const { return Map->auditCount(); }
  /// Quiesced heap leak audit: bitmap pages vs pages owned by live
  /// heap-tagged cells, plus in-flight WAL records. Enabled=false (and
  /// trivially consistent) when the heap is off.
  KvHeapAudit auditHeap() const;
  /// The shard's large-object heap, or null when HeapPages is 0.
  heap::DurableHeap *heap() { return Heap.get(); }
  /// Extents the last open-from-image recovery reclaimed from the heap
  /// WAL (staged but never published before the crash).
  size_t heapExtentsReclaimed() const { return HeapReclaimed; }

  PMemPool &pool() { return *Pool; }
  PtmBackend &backend() { return *Backend; }
  /// The backend as a CraftyRuntime, or null for non-Crafty backends.
  CraftyRuntime *crafty();
  KvOpStats opStats() const;
  /// Counters of \p Tid's context alone: owned by the thread driving that
  /// Tid, so it may read them while other workers run transactions.
  const KvOpStats &opStats(unsigned Tid) const { return Stats[Tid]; }
  /// See PtmBackend::htmStatsFor (same single-context safety contract).
  HtmStats htmStatsFor(unsigned Tid) const {
    return Backend->htmStatsFor(Tid);
  }

private:
  void openFresh();
  void openAttached();
  void carveKvRegions(bool Attach);
  void attachBackend();

  uint64_t *cellAt(uint64_t CellIdx) {
    return reinterpret_cast<uint64_t *>(CellsBase + CellIdx * CellBytes);
  }
  const uint64_t *cellAt(uint64_t CellIdx) const {
    return reinterpret_cast<const uint64_t *>(CellsBase +
                                              CellIdx * CellBytes);
  }
  /// Cell[0] value marking a heap-routed cell: Cell[1] then holds the
  /// packed extent ref. Never a valid inline length (inline lengths are
  /// <= MaxValueBytes).
  static constexpr uint64_t HeapLenTag = ~0ull;

  /// Pre-transaction arm of the large-value pipeline: routes \p Val
  /// (inline vs heap) and, for heap-bound values, reserves and stages an
  /// extent. Returns false with \p St set (TooBig / Full) when the value
  /// cannot be stored; the caller must not enter its transaction. On a
  /// non-Ok transaction outcome the caller abandons \p S.
  CRAFTY_DRAIN_DEFERRED bool prepareValue(unsigned Tid, std::string_view Val,
                                          heap::HeapStaged &S, KvStatus &St);
  /// Writes len + value bytes into a cell inside an open transaction.
  /// Worst case: the length word plus MaxValueBytes / 8 value words.
  CRAFTY_TX_CAPACITY(33)
  CRAFTY_TX_BODY void writeCellTx(TxnContext &Tx, uint64_t CellIdx,
                                  std::string_view Val);
  /// Publishes a staged heap extent into a cell: tag + packed ref.
  CRAFTY_TX_CAPACITY(2)
  CRAFTY_TX_BODY void writeHeapCellTx(TxnContext &Tx, uint64_t CellIdx,
                                      uint64_t Ref);
  /// Frees the heap extent a cell currently owns, if any (the
  /// overwrite/delete half of the publish transaction).
  CRAFTY_TX_CAPACITY(2)
  CRAFTY_TX_BODY void freeCellExtentTx(TxnContext &Tx, uint64_t CellIdx);
  /// Reads a cell's value inside an open transaction; false on corrupt
  /// length metadata. Heap-tagged cells are followed through the heap
  /// (raw extent copy; safe because the tag/ref loads above went through
  /// \p Tx -- see heap::DurableHeap::readExtent).
  CRAFTY_TX_BODY bool readCellTx(TxnContext &Tx, uint64_t CellIdx,
                                 std::string &Out);
  /// runCycle's SET arm; runs inside an open txn.
  /// writeCellTx's budget plus the map-slot words (key publish + chains)
  /// plus freeing a displaced heap extent.
  CRAFTY_TX_CAPACITY(53)
  CRAFTY_TX_BODY KvStatus setInTx(TxnContext &Tx, uint64_t Key,
                                  std::string_view Val,
                                  const heap::HeapStaged &S);
  /// runCycle's DEL arm: map tombstone + meta plus the two freelist words
  /// plus freeing the cell's heap extent.
  CRAFTY_TX_CAPACITY(10)
  CRAFTY_TX_BODY KvStatus delInTx(TxnContext &Tx, uint64_t Key);
  /// runCycle's CAS arm; \p Scratch receives the current value.
  /// writeCellTx's budget (the cell is reused) plus freeing a displaced
  /// heap extent.
  CRAFTY_TX_CAPACITY(35)
  CRAFTY_TX_BODY KvStatus casInTx(TxnContext &Tx, uint64_t Key,
                                  std::string_view Expect,
                                  std::string_view Desired,
                                  std::string &Scratch,
                                  const heap::HeapStaged &S);

  KvConfig Cfg;
  unsigned ShardIdx;
  size_t CellBytes;
  size_t NumCells;

  std::unique_ptr<PMemPool> Pool;
  std::unique_ptr<HtmRuntime> Htm;
  std::unique_ptr<PtmBackend> Backend;
  std::unique_ptr<DurableHashMap> Map;
  /// Large-object heap (carved after the freelist head); null when
  /// KvConfig::HeapPages is 0.
  std::unique_ptr<heap::DurableHeap> Heap;
  CRAFTY_PMEM uint8_t *CellsBase = nullptr;
  CRAFTY_PMEM uint64_t *NextFree = nullptr; // NumCells words; idx+1, 0 = end.
  CRAFTY_PMEM uint64_t *FreeHead = nullptr; // One word; idx+1, 0 = empty.

  bool RecoveredOnOpen = false;
  RecoveryReport LastRecovery;
  size_t HeapReclaimed = 0;

  /// Per-worker op counters (each Tid is single-threaded by contract).
  std::vector<KvOpStats> Stats;
  /// Per-worker runCycle scratch, reused so a cycle does not allocate.
  struct CycleScratch {
    std::vector<heap::HeapStaged> Staged; ///< One per op of a txn chunk.
    std::vector<uint8_t> Skip;            ///< Routing failed pre-txn.
    std::string Value;                    ///< casInTx's current value.
  };
  std::vector<CycleScratch> Cycle;
};

} // namespace kv
} // namespace crafty

#endif // CRAFTY_KV_KVSHARD_H
