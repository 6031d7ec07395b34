//===- heap/DurableHeap.h - Page-managed durable heap ----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-consistent page-managed heap carved from a PMemPool, built for
/// objects too large to write inside one hardware transaction. Where the
/// volatile PMemAllocator (pmem/PMemAllocator.h) is paper-faithful -- its
/// metadata is rebuilt by the application after a crash -- this heap keeps
/// its metadata durable, following libgavran's progression: fixed 4 KiB
/// pages, a persistent free-space bitmap, a small write-ahead record for
/// in-flight extents, and a recovery pass that replays that WAL.
///
/// Reuse is *barrier-deferred*: pages and WAL slots freed by a committed
/// transaction stay unallocatable until the next persist barrier
/// (barrierReached). Recovery may roll back any sequence that has not
/// been covered by a barrier; if staging were allowed to clobber such
/// pages, rollback would resurrect an owning pointer to overwritten
/// data. Deferral keeps every roll-backable extent physically intact, so
/// any rollback suffix lands on a consistent heap.
///
/// The large-object pipeline decouples bulk data movement from the HTM
/// window, the publish-after-persist discipline of PMDK-style
/// transactional allocators:
///
///   1. alloc   -- a *small* Crafty transaction verifies-and-sets bitmap
///                 bits for a fresh extent, stamps per-page allocation
///                 epochs, and records a Staged WAL intent. The undo log
///                 covers all of it: if the transaction is rolled back at
///                 recovery, bitmap and WAL revert together.
///   2. stage   -- the value bytes are memcpy'd into the fresh pages and
///                 their cache lines are scheduled for writeback
///                 (persistImageWords) entirely outside HTM. The drain is
///                 deferred: the publishing transaction's HTM commit fence
///                 completes the writebacks (flush-without-drain, the same
///                 trick Crafty's Redo phase uses).
///   3. publish -- a tiny caller-owned Crafty transaction swings the
///                 owning pointer to the new extent, frees the old extent
///                 (freeExtentInTx) and closes the WAL record
///                 (closeWalInTx). One undo-logged transaction: the swing
///                 is atomic, and object size is independent of HTM write
///                 capacity.
///
/// A crash between (1) and (3) leaks nothing: recoverReclaim() scans the
/// WAL after log replay and returns any still-Staged extent to the bitmap.
/// Published extents are immutable until freed, and every free rewrites
/// the owning pointer transactionally, so readers that loaded the pointer
/// through their own transaction are aborted-and-re-executed rather than
/// shown a torn extent (see readExtent).
///
/// Each page carries the allocation epoch at which it was last handed
/// out -- the seam for online snapshot/backup: a backup at epoch E can
/// copy exactly the pages whose epoch moved past E.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_HEAP_DURABLEHEAP_H
#define CRAFTY_HEAP_DURABLEHEAP_H

#include "core/Ptm.h"
#include "pmem/PMemPool.h"
#include "support/Annotations.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace crafty {
namespace heap {

/// An extent the allocator has reserved and staged but not yet published.
/// Returned by DurableHeap::allocAndStage; consumed by a publish
/// transaction (store Ref into the owning pointer, then closeWalInTx) or
/// by abandon() when the operation is not going to publish.
struct HeapStaged {
  /// Packed HeapObjectRef (page+1 in the high word, byte length in the
  /// low word); 0 means the allocation failed.
  uint64_t Ref = 0;
  /// WAL slot holding the Staged intent for this extent.
  uint64_t WalSlot = 0;

  explicit operator bool() const { return Ref != 0; }
};

/// Crash-consistent page allocator + large-object store over a PMemPool
/// region. One instance per pool (the KV store creates one per shard);
/// transactional entry points follow the pool's usual rule that a given
/// ThreadId is driven by one thread at a time.
class DurableHeap {
public:
  /// Fixed page size, as in libgavran.
  static constexpr size_t PageBytes = 4096;
  /// Largest extent handed out, in pages. Bounds both the WAL record and
  /// the number of bitmap/epoch words one alloc transaction touches, so
  /// the metadata transaction stays far inside HTM write capacity.
  static constexpr size_t MaxExtentPages = 16;
  /// Largest object the heap stores (the KV layer's active value limit
  /// when the heap is enabled).
  static constexpr size_t MaxObjectBytes = PageBytes * MaxExtentPages;

  /// Packs page index + byte length into one word ((Page+1) << 32 | Len,
  /// so 0 is never a valid ref and a single transactional store swings an
  /// owning pointer).
  static uint64_t packRef(uint64_t Page, uint64_t Len) {
    return ((Page + 1) << 32) | Len;
  }
  static uint64_t refPage(uint64_t Ref) { return (Ref >> 32) - 1; }
  static uint64_t refLen(uint64_t Ref) { return Ref & 0xffffffffu; }
  /// Pages needed for \p Bytes (at least one: zero-length objects still
  /// occupy an extent so their ref stays non-zero).
  static size_t pagesFor(size_t Bytes) {
    return Bytes == 0 ? 1 : (Bytes + PageBytes - 1) / PageBytes;
  }

  /// Pool bytes a heap with \p NumPages pages and \p WalSlots WAL records
  /// carves (metadata + pages), for pool sizing.
  static size_t bytesFor(size_t NumPages, size_t WalSlots);

  /// Carves the heap's regions from \p Pool. With \p Attach false the
  /// metadata is formatted fresh (empty bitmap, free WAL, epoch 1); with
  /// Attach true the carve only recomputes pointers over an existing
  /// image, as KvShard does for every durable region on recovery.
  DurableHeap(PMemPool &Pool, size_t NumPages, size_t WalSlots, bool Attach);
  DurableHeap(const DurableHeap &) = delete;
  DurableHeap &operator=(const DurableHeap &) = delete;

  size_t numPages() const { return NumPages; }
  size_t walSlots() const { return WalSlots; }

  /// Steps 1+2 of the pipeline: reserves a fresh extent for \p Bytes in a
  /// small metadata transaction (bitmap verify-and-set + epoch stamp +
  /// Staged WAL record, all undo-logged), then copies the bytes into the
  /// extent and schedules their writeback *without* draining -- the
  /// caller's publish transaction commit fence is the drain. Callers that
  /// will not immediately publish under a fence-issuing backend should
  /// call stageDrain() themselves. Returns Ref==0 when \p Bytes exceeds
  /// MaxObjectBytes or no extent/WAL slot is free.
  CRAFTY_DRAIN_DEFERRED HeapStaged allocAndStage(PtmBackend &Backend,
                                                 unsigned Tid,
                                                 std::string_view Bytes);

  /// Completes any deferred staging writebacks immediately (used when the
  /// publishing backend's commit provides no fence, or before a clean
  /// shutdown).
  CRAFTY_DRAIN_API void stageDrain(unsigned Tid);

  /// Publish-transaction helper: frees the extent \p Ref (clears its
  /// bitmap bits). Call from the transaction that overwrites or deletes
  /// the owning pointer, so pointer and bitmap move atomically.
  CRAFTY_TX_BODY CRAFTY_TX_CAPACITY(2) void freeExtentInTx(TxnContext &Tx,
                                                           uint64_t Ref);

  /// Publish-transaction helper: closes the Staged WAL record once the
  /// owning pointer stores the new ref. After this commits, recovery will
  /// keep the extent.
  CRAFTY_TX_BODY CRAFTY_TX_CAPACITY(1) void closeWalInTx(TxnContext &Tx,
                                                         uint64_t WalSlot);

  /// Returns a staged-but-unpublished extent (one small transaction:
  /// bitmap bits cleared, WAL record freed). The pipeline's "abort" arm.
  void abandon(PtmBackend &Backend, unsigned Tid, const HeapStaged &S);

  /// Tells the heap a persist barrier has completed: every free committed
  /// before the barrier is now durable (recovery can no longer roll it
  /// back), so its pages and WAL slot become allocatable again. KvShard
  /// calls this from persistAck. Clearing is conservative
  /// in the racy direction -- a free whose transaction straddles the
  /// barrier merely stays deferred until the next one.
  void barrierReached();

  /// Copies the extent's bytes into \p Out. The copy itself is raw
  /// (extents are immutable once published and far larger than HTM read
  /// capacity); when called from a transaction body the caller must have
  /// loaded \p Ref through TxnContext so a concurrent free/republish of
  /// the owning pointer aborts and re-executes the body instead of
  /// exposing a torn extent. Returns false for an out-of-range ref.
  bool readExtent(uint64_t Ref, std::string &Out) const;

  /// Post-recovery, quiesced: scans the WAL and returns every Staged
  /// (allocated-but-unpublished) extent to the bitmap via persistDirect.
  /// Call after log replay (KvShard::recoverInPlace does). Returns the
  /// number of extents reclaimed.
  size_t recoverReclaim();

  /// Pages currently marked allocated in the bitmap (popcount); the
  /// leak-audit ground truth.
  uint64_t allocatedPages() const;
  /// WAL records currently in the Staged state (0 after recovery and
  /// after every quiesced pipeline).
  uint64_t stagedWalRecords() const;
  /// Allocation epoch stamped on \p Page (0 = never allocated).
  uint64_t pageEpoch(size_t Page) const;
  /// Next epoch the allocator will stamp.
  uint64_t currentEpoch() const;

private:
  /// WAL record layout: [State, PageStart, PageCount, pad].
  static constexpr size_t WalRecordWords = 4;
  static constexpr uint64_t WalFree = 0;
  static constexpr uint64_t WalStaged = 1;

  /// The metadata transaction of allocAndStage. Verifies the candidate
  /// extent's bitmap bits are still clear and the WAL slot still free
  /// (raw pre-scans race with other threads; the in-transaction loads
  /// make the claim atomic), sets the bits, stamps epochs, and fills the
  /// WAL record. Writes at most 2 bitmap words + 1 epoch counter +
  /// MaxExtentPages epoch stamps + 3 WAL words = 22.
  CRAFTY_TX_BODY CRAFTY_TX_CAPACITY(22) void
  allocInTx(TxnContext &Tx, uint64_t PageStart, uint64_t Pages,
            uint64_t WalSlot, bool &Ok);

  /// Raw next-fit scan for a run of \p Pages clear bits. Returns false
  /// when no run is found.
  bool findRun(uint64_t Pages, uint64_t &PageStart);
  /// Raw scan for a WAL slot in the Free state.
  bool findWalSlot(uint64_t &Slot);

  uint64_t *walRecord(uint64_t Slot) const {
    return Wal + Slot * WalRecordWords;
  }
  uint8_t *pageData(uint64_t Page) const { return Pages + Page * PageBytes; }

  PMemPool &Pool;
  size_t NumPages;
  size_t WalSlots;
  size_t BitmapWords;

  /// Free-space bitmap: bit set = page allocated. Durable; mutated only
  /// inside transactions (or persistDirect during format/recovery).
  CRAFTY_PMEM uint64_t *Bitmap = nullptr;
  /// Per-page allocation epoch (snapshot/backup seam). Durable.
  CRAFTY_PMEM uint64_t *PageEpochs = nullptr;
  /// Monotonic allocation epoch counter. Durable.
  CRAFTY_PMEM uint64_t *EpochCounter = nullptr;
  /// WAL records for in-flight (Staged) extents. Durable.
  CRAFTY_PMEM uint64_t *Wal = nullptr;
  /// The page payload region. Durable; written raw during staging.
  CRAFTY_PMEM uint8_t *Pages = nullptr;

  /// Volatile next-fit cursor (page index); purely a scan heuristic, so
  /// relaxed atomics suffice and it resets to 0 on restart.
  std::atomic<uint64_t> NextFitCursor{0};

  /// Barrier-deferred reuse masks (volatile; see the file comment). A set
  /// bit / nonzero slot was freed after the last persist barrier and must
  /// not be reallocated yet. fetch_or keeps transaction-body re-execution
  /// idempotent; barrierReached() zeroes them. Sized in the constructor.
  std::unique_ptr<std::atomic<uint64_t>[]> DeferredPages;
  std::unique_ptr<std::atomic<uint8_t>[]> DeferredWal;
};

} // namespace heap
} // namespace crafty

#endif // CRAFTY_HEAP_DURABLEHEAP_H
