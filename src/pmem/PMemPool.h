//===- pmem/PMemPool.h - Persistent-memory simulator -----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A byte-addressable persistent-memory simulator. The reproduction host
/// has no NVDIMM, so the pool provides two modes:
///
///  - LatencyOnly reproduces the paper's evaluation methodology (Section
///    6): NVM lives in DRAM and each drain that follows at least one CLWB
///    busy-waits for the configured write-back latency (300 ns by default;
///    100 ns for the appendix sensitivity study).
///
///  - Tracked additionally maintains a *persistent image*: a shadow copy
///    holding exactly the bytes that would survive a power failure.
///    Program stores update only the volatile view. clwb() schedules a
///    cache line; drain() copies scheduled lines into the image. A seeded
///    evictor may copy any dirty line at any time, modeling write-back
///    caches persisting lines spontaneously -- the behavior that makes
///    undo logging necessary in the first place. crash() freezes the
///    image so the recovery observer (recovery/Recovery.h) can be tested
///    against every state a real crash could expose.
///
/// The pool integrates with the HTM emulation through MemoryHooks: a
/// committed transactional store that changes its line marks it dirty
/// (reported once per same-line run of stores), and a commit fence
/// (RTM's SFENCE semantics) completes the committing thread's pending
/// CLWBs before the transaction's stores become visible. That ordering is
/// what lets Crafty flush undo-log entries without draining: the next
/// hardware transaction's commit is the drain.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PMEM_PMEMPOOL_H
#define CRAFTY_PMEM_PMEMPOOL_H

#include "htm/Htm.h"
#include "support/Annotations.h"
#include "support/CacheLine.h"
#include "support/Mutex.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace crafty {

/// Operating mode of the simulator; see the file comment.
enum class PMemMode : uint8_t { LatencyOnly, Tracked };

/// Configuration of a PMemPool.
struct PMemConfig {
  /// Pool size in bytes (rounded up to a cache-line multiple).
  size_t PoolBytes = 16 << 20;
  PMemMode Mode = PMemMode::LatencyOnly;
  /// NVM write-back completion latency: a CLWB issued at time t completes
  /// at t + DrainLatencyNs, and a drain (SFENCE) waits only for CLWBs
  /// still in flight -- so flushes overlapped with enough computation
  /// drain for free, the property Crafty's flush-without-drain design
  /// exploits and the paper's 300 ns busy-wait methodology measures
  /// (Section 6; 100 ns in Appendix A).
  uint64_t DrainLatencyNs = 300;
  /// In Tracked mode, probability (per million committed stores) that the
  /// stored line is written back to the persistent image, modeling
  /// spontaneous cache eviction. 0 disables. Still a per-word probability
  /// when stores arrive in same-line runs (PMemPool::onCommittedRun): each
  /// word of a run draws once, at the end of the run, and any hit writes
  /// the line back as the run left it. Only an HTM commit, whose stores
  /// become visible together, reports runs longer than one word; a
  /// non-transactional batch can be evicted after any of its stores.
  uint32_t EvictionPerMillion = 0;
  uint64_t EvictionSeed = 42;
  /// Maximum threads that may issue CLWBs (per-thread pending queues).
  unsigned MaxThreads = 64;
  /// Tracked mode: copy a line to the persistent image at CLWB issue time
  /// instead of at the drain. Hardware may perform the write-back at any
  /// instant between the CLWB and the fence; the default (drain-time)
  /// models the latest legal instant, this option the earliest. Under it
  /// a store to a line *after* its CLWB is not covered by the next drain
  /// unless a fresh CLWB follows the store -- the re-dirty-after-clwb
  /// hazard correct flush disciplines must already tolerate.
  bool EagerWriteback = false;
  /// Tracked mode: back the persistent image with a MAP_SHARED file
  /// mapping at this path instead of anonymous heap memory, so the image
  /// survives the *process* dying (the KV service's SIGKILL crash tests).
  /// If the file already exists with the right size the pool attaches to
  /// it: the volatile view starts as a copy of the image (the state a
  /// machine restart would see) and PMemPool::attachedFromImage() returns
  /// true so the owner knows to run recovery instead of formatting.
  /// Page-cache writes survive SIGKILL, so no msync discipline is needed;
  /// only whole-machine failure is outside the model.
  std::string BackingPath;
};

/// Cumulative persistence-operation statistics.
struct PMemStats {
  /// Line-flush requests software issued (clwb, and one per line of
  /// clwbRange / clwbLines / persistImageWords batches), including
  /// requests the pending-line filter coalesced away.
  uint64_t ClwbCalls = 0;
  /// Line write-backs actually armed after coalescing: repeated flushes
  /// of a line within one flush epoch (the span between two drains of the
  /// issuing thread) with no intervening store to it are O(1) no-ops and
  /// count only as ClwbCalls.
  uint64_t LinesScheduled = 0;
  /// Own-thread drains, including empty ones (remote drains not counted).
  uint64_t Drains = 0;
  /// Drains that found no pending write-backs (free on hardware too).
  uint64_t EmptyDrains = 0;
  uint64_t EvictedLines = 0;

  uint64_t drainsWithWork() const { return Drains - EmptyDrains; }
};

/// One word-granular image persist for persistImageWords batches.
struct PMemWordWrite {
  uint64_t *Addr;
  uint64_t Val;
};

/// Observer of every persistence-relevant event a PMemPool sees: committed
/// stores (via the HTM hooks or direct onCommittedStore calls), CLWB
/// scheduling, drains, spontaneous evictions, direct persists and crashes.
/// Installed with PMemPool::setObserver; PersistCheck (src/check/) builds
/// its persist-state machine on top of this interface. Callbacks may run
/// concurrently from any thread and may be invoked while pool-internal
/// locks are held, so implementations must be self-synchronizing and must
/// never call back into the pool or the HTM runtime.
class PMemObserver {
public:
  virtual ~PMemObserver();

  /// A committed (post-HTM or non-transactional) store of the word at
  /// \p Addr. \p ValuesKnown is true when \p OldVal / \p NewVal carry the
  /// word's content before/after the store; legacy onCommittedStore(Addr)
  /// callers report ValuesKnown = false.
  virtual void onStore(void *Addr, uint64_t OldVal, uint64_t NewVal,
                       bool ValuesKnown) = 0;
  /// CLWB of the line containing \p Addr scheduled by \p ThreadId.
  virtual void onClwb(uint32_t ThreadId, const void *Addr) = 0;
  /// \p ThreadId's pending CLWBs completed. \p Remote is false for the
  /// thread's own SFENCE (explicit drain or an HTM commit fence) and true
  /// for another thread's drainRemote, which asserts completion by the
  /// passage of time and makes no claim about \p ThreadId's own
  /// store/flush ordering.
  virtual void onDrain(uint32_t ThreadId, bool Remote) = 0;
  /// Tracked mode: the line containing \p LineAddr was spontaneously
  /// written back (seeded evictor or evictRandomLines).
  virtual void onEvict(const void *LineAddr) = 0;
  /// [Addr, Addr + Len) was written straight to the persistent image and
  /// the volatile view (persistDirect).
  virtual void onPersistDirect(const void *Addr, size_t Len) = 0;
  /// \p ThreadId queued \p Val for the persistent image word at \p Addr
  /// (persistImageWord; the checkpointer path -- volatile view untouched).
  virtual void onPersistImageWord(uint32_t ThreadId, const void *Addr,
                                  uint64_t Val) = 0;
  /// Every dirty line was persisted (flushEverything).
  virtual void onFlushEverything() = 0;
  /// Simulated power failure: volatile state reverted to the image and
  /// all pending CLWBs discarded.
  virtual void onCrash() = 0;
  /// The pool was reset to its pristine zeroed state.
  virtual void onReset() = 0;
};

/// The persistent-memory pool. See the file comment for the model.
class PMemPool {
public:
  explicit PMemPool(PMemConfig Config = PMemConfig());
  ~PMemPool();
  PMemPool(const PMemPool &) = delete;
  PMemPool &operator=(const PMemPool &) = delete;

  const PMemConfig &config() const { return Config; }
  uint8_t *base() { return Base; }
  size_t size() const { return Bytes; }

  /// True when the pool was constructed over an existing backing file
  /// (PMemConfig::BackingPath): the volatile view already holds the last
  /// persisted image and the owner should recover rather than format.
  bool attachedFromImage() const { return AttachedFromImage; }

  /// True if \p Addr lies inside the pool.
  bool contains(const void *Addr) const {
    auto P = reinterpret_cast<const uint8_t *>(Addr);
    return P >= Base && P < Base + Bytes;
  }

  /// Carves \p CarveBytes from the pool (setup-time bump allocation used
  /// to lay out logs, heaps and workload data). Fatal if exhausted.
  void *carve(size_t CarveBytes, size_t Align = CacheLineBytes);

  /// Bytes still available to carve.
  size_t remaining() const { return Bytes - CarveOffset; }

  /// Schedules a write-back (CLWB) of the cache line containing \p Addr,
  /// issued by \p ThreadId. Completion requires a drain by the same
  /// thread (explicitly or via an HTM commit fence). A repeat CLWB of a
  /// line already scheduled in the current flush epoch (since the
  /// thread's last drain) with no intervening store to it is coalesced
  /// into the in-flight write-back: an O(1) no-op that counts in
  /// PMemStats::ClwbCalls but not LinesScheduled. A line re-dirtied after
  /// its CLWB always re-arms (tracked per-line store generations; see
  /// DESIGN.md section 7.2 for the epoch rules).
  CRAFTY_FLUSH_API void clwb(uint32_t ThreadId, const void *Addr);

  /// Schedules write-backs for every line of [Addr, Addr + Len) under one
  /// queue-lock acquisition and one shared issue timestamp (the batched
  /// fast path; same coalescing rules as clwb).
  CRAFTY_FLUSH_API void clwbRange(uint32_t ThreadId, const void *Addr,
                                  size_t Len);

  /// Schedules write-backs for the lines containing each of \p Addrs[0 ..
  /// \p N) as one batch (one lock acquisition, one issue timestamp).
  /// Addresses may repeat and may alias lines freely; the pending-line
  /// filter coalesces duplicates.
  CRAFTY_FLUSH_API void clwbLines(uint32_t ThreadId,
                                  const void *const *Addrs, size_t N);

  /// Completes \p ThreadId's scheduled write-backs (SFENCE after CLWBs).
  /// Charges DrainLatencyNs if any work was pending.
  CRAFTY_DRAIN_API void drain(uint32_t ThreadId);

  /// Completes another thread's scheduled write-backs without latency.
  /// Models the hardware fact that CLWBs issued long ago have finished on
  /// their own: Section 5.2's forced commits rely on a delinquent
  /// thread's old flushes having reached NVM. Safe concurrently with the
  /// owner (scheduled lines may always persist early).
  void drainRemote(uint32_t ThreadId);

  /// clwbRange followed by drain: a full persist operation.
  CRAFTY_DRAIN_API void persist(uint32_t ThreadId, const void *Addr,
                                size_t Len) {
    clwbRange(ThreadId, Addr, Len);
    drain(ThreadId);
  }

  /// Returns MemoryHooks wiring this pool into an HtmRuntime.
  MemoryHooks htmHooks();

  /// Installs (or, with nullptr, removes) the persistence-event observer.
  /// Not thread-safe: install before transactions run, remove after they
  /// quiesce. Near-zero cost when no observer is installed (one branch
  /// per operation). Installing an observer enables per-line store
  /// generations (as Tracked mode always does) so coalescing never
  /// suppresses the onClwb of a line re-dirtied since its last flush.
  void setObserver(PMemObserver *Obs);
  PMemObserver *observer() const { return Observer; }

  /// Marks the line of a committed store dirty and possibly evicts it
  /// (Tracked mode). Call it for any direct store to pool memory made
  /// outside transactions. The three-argument form is onCommittedRun of
  /// one word; the one-argument form reports unknown values and always
  /// dirties the line.
  void onCommittedStore(void *Addr);
  void onCommittedStore(void *Addr, uint64_t OldVal, uint64_t NewVal);

  /// A run of committed stores to one cache line, \p Words[0 .. \p N) in
  /// store order (the HTM write-back hook, MemoryHooks::OnStoreRun). The
  /// observer sees every word; the line's generation bump, dirty mark and
  /// summary bit happen once per run, and only if some word changed value
  /// (or an observer is installed). Eviction draws once per word of the
  /// run, after the run is stored (see PMemConfig::EvictionPerMillion).
  void onCommittedRun(const StoredWord *Words, size_t N);

  /// Writes \p Len bytes at \p Addr directly to the persistent image and
  /// the volatile view, bypassing the cache model. Used by recovery and
  /// setup. Not transactional.
  void persistDirect(void *Addr, const void *Src, size_t Len);

  /// Queues a logged word for the persistent image only, leaving the
  /// volatile view untouched: how the NV-HTM / DudeTM checkpointers write
  /// the NVM heap (a *separate* physical copy from the DRAM snapshot the
  /// program runs on) with values taken from the redo log. Costs like a
  /// CLWB; completion requires \p ThreadId's drain.
  CRAFTY_FLUSH_API void persistImageWord(uint32_t ThreadId, uint64_t *Addr,
                                         uint64_t Val);

  /// Batched persistImageWord: applies \p Writes[0 .. \p N) under one
  /// lock acquisition and one issue timestamp. Word order is preserved
  /// (a word written twice keeps last-write-wins), every word still
  /// reaches the observer, and ClwbCalls counts one request per word
  /// while LinesScheduled counts the batch's line-deduplicated flush
  /// traffic -- the same accounting the coalesced CLWB paths use.
  CRAFTY_FLUSH_API void persistImageWords(uint32_t ThreadId,
                                          const PMemWordWrite *Writes,
                                          size_t N);

  /// Tracked mode: copies up to \p MaxLines random dirty lines to the
  /// image. Test hook for adversarial persist orderings.
  void evictRandomLines(size_t MaxLines);

  /// Persists every dirty line (models writing back the entire cache).
  /// Used by on-demand immediate persistence. In LatencyOnly mode this
  /// just charges one drain latency.
  CRAFTY_DRAIN_API void flushEverything();

  /// flushEverything without the inline latency wait: the write-back
  /// delay is charged to \p ThreadId's pending-drain deadline instead,
  /// so the caller's next drain() pays whatever remains of it. A caller
  /// persisting several pools back to back can flush them all first and
  /// then drain them all -- the fixed latencies overlap instead of
  /// serializing, exactly like issuing all the CLWBs before one SFENCE.
  CRAFTY_DRAIN_DEFERRED void flushEverythingDeferred(uint32_t ThreadId);

  /// Tracked mode: simulates a power failure: the volatile view is
  /// replaced with the persistent image (every non-persisted store is
  /// lost) and all pending CLWBs and dirty state are discarded. The
  /// process keeps running; recovery code can then inspect and repair the
  /// pool as a real restart would.
  void crash();

  /// Tracked mode: returns a copy of the current persistent image.
  std::vector<uint8_t> imageSnapshot() const;

  /// Tracked mode: true if the line containing \p Addr has unpersisted
  /// data (dirty or pending).
  bool isLineDirty(const void *Addr) const;

  /// Statistics (reads are racy-but-monotonic; fine for reporting).
  PMemStats stats() const;

  /// Resets carve state, image, dirty state and statistics; the pool
  /// content is zeroed. Not thread-safe.
  void reset();

private:
  size_t lineIndex(const void *Addr) const {
    return (reinterpret_cast<const uint8_t *>(Addr) - Base) >>
           CacheLineShift;
  }
  void copyLineToImage(size_t Line);
  /// The per-line half of onCommittedRun: \p Words stored words, of which
  /// some changed the line's content if \p Changed.
  void lineStored(size_t Line, size_t Words, bool Changed);

  /// Pending-line filter entries per thread slot. Direct-mapped: a
  /// collision only forgets that a line is pending (re-arming it, which
  /// is always safe), never invents a pending line.
  static constexpr size_t FlushFilterSize = 1024; // Power of two.

  PMemConfig Config;
  size_t Bytes;
  size_t NumLines;
  PMemObserver *Observer = nullptr;
  uint8_t *Base = nullptr;
  /// Persistent image (Tracked mode only): either HeapImage or a
  /// MAP_SHARED file mapping (Config.BackingPath).
  uint8_t *Image = nullptr;
  std::unique_ptr<uint8_t[]> HeapImage;
  int BackingFd = -1;
  bool AttachedFromImage = false;
  std::unique_ptr<std::atomic<uint8_t>[]> Dirty;
  /// Coarse may-be-dirty bitmap over Dirty, one bit per line grouped 64
  /// lines per word, so flushEverything scans NumLines/64 words instead
  /// of every line. A set bit whose line is clean is self-cleaning (the
  /// scan drops it); a dirty line always has its bit set.
  std::unique_ptr<std::atomic<uint64_t>[]> DirtySummary;
  size_t DirtySummaryWords = 0;
  std::atomic<size_t> CarveOffset{0};

  /// One pending-line filter entry: line \p Line is armed in epoch
  /// \p Epoch, issued when the line's store generation was \p Gen.
  struct FilterEntry {
    uint64_t Epoch = 0; // 0 never matches (epochs start at 1).
    uint32_t Line = 0;
    uint32_t Gen = 0;
  };

  struct alignas(CacheLineBytes) ThreadSlot {
    /// Guards PendingLines/HasPending/PendingDeadline/EvictRng and the
    /// flush filter: the owner issues clwb/drain, but drainRemote, crash
    /// and reset may touch the queue from other threads.
    SpinLock Lock;
    std::vector<uint32_t> PendingLines CRAFTY_GUARDED_BY(Lock); // Tracked.
    bool HasPending CRAFTY_GUARDED_BY(Lock) = false;
    /// Completion time of the latest pending CLWB (monotonic ns).
    uint64_t PendingDeadline CRAFTY_GUARDED_BY(Lock) = 0;
    /// Current flush epoch; bumping it invalidates every filter entry in
    /// O(1). Starts at 1 so default-constructed entries never match.
    uint64_t Epoch CRAFTY_GUARDED_BY(Lock) = 1;
    /// Direct-mapped pending-line filter (see FilterEntry).
    std::unique_ptr<FilterEntry[]> Filter CRAFTY_GUARDED_BY(Lock);
    Rng EvictRng CRAFTY_GUARDED_BY(Lock);

    void lock() CRAFTY_ACQUIRE(Lock) { Lock.lock(); }
    void unlock() CRAFTY_RELEASE(Lock) { Lock.unlock(); }
  };

  /// Arms a write-back of the line containing \p Addr in \p Slot's queue,
  /// or coalesces it into an in-flight one (see clwb). Returns true when
  /// the line was armed (the caller then refreshes the issue deadline).
  /// The shared flushEverything body: writes back every dirty line but
  /// does not wait out the latency (callers either spin or defer it).
  void flushEverythingNoWait();

  bool armLineLocked(ThreadSlot &Slot, uint32_t ThreadId, const void *Addr)
      CRAFTY_REQUIRES(Slot.Lock);

  std::unique_ptr<ThreadSlot[]> Threads; // Config.MaxThreads slots.

  /// Per-line committed-store generations, maintained in Tracked mode and
  /// whenever an observer is installed; null otherwise (LatencyOnly with
  /// no observer, where nothing can observe a suppressed re-flush). The
  /// filter compares the generation captured at arm time so a re-dirtied
  /// line is never coalesced away.
  std::unique_ptr<std::atomic<uint32_t>[]> LineGen;

  std::atomic<uint64_t> ClwbCount{0};
  std::atomic<uint64_t> LineSchedCount{0};
  std::atomic<uint64_t> DrainCount{0};
  std::atomic<uint64_t> EmptyDrainCount{0};
  std::atomic<uint64_t> EvictCount{0};
};

} // namespace crafty

#endif // CRAFTY_PMEM_PMEMPOOL_H
