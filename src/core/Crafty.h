//===- core/Crafty.h - Crafty persistent transactions ----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crafty: persistent transactions built on commodity HTM through
/// nondestructive undo logging (Genç, Bond, Xu; PLDI 2020).
///
/// A persistent transaction executes as up to three hardware transactions:
///
///  - The Log phase (Section 4.1) runs the body, recording each written
///    word's old value in the thread's persistent circular undo log, then
///    rolls every write back in reverse order -- building a volatile redo
///    log from the (still visible) new values -- and commits. The
///    committed hardware transaction has published only undo-log entries;
///    program state is untouched. The entries are then flushed with no
///    drain: the next hardware transaction's commit fence is the drain.
///
///  - The Redo phase (Section 4.2) checks gLastRedoTS < the Log phase's
///    LOGGED timestamp -- i.e. no transaction committed writes since the
///    Log phase -- and, if so, applies the redo log, advances gLastRedoTS,
///    and overwrites the merged LOGGED/COMMITTED entry's timestamp.
///
///  - If the Redo check fails, the Validate phase (Section 4.3)
///    re-executes the body, checking each write against the persisted
///    undo entries; a mismatch means a conflicting commit intervened and
///    the whole transaction restarts.
///
/// Repeated aborts fall back to a single global lock and the chunked
/// thread-unsafe flow of Figure 4: hardware transactions of up to k writes
/// (k halving after each abort; k = 1 uses no HTM at all), each chunk
/// persisting its undo entries before its writes reach memory.
///
/// The runtime also implements the Section 5.2 log machinery: wraparound
/// bits, the merged LOGGED/COMMITTED entry, tsLowerBound / MAX_LAG
/// maintenance with forced empty commits of delinquent threads, and
/// on-demand immediate persistence (an extension the paper describes but
/// its prototype omits). Recovery lives in recovery/Recovery.h.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_CORE_CRAFTY_H
#define CRAFTY_CORE_CRAFTY_H

#include "core/CraftyConfig.h"
#include "core/Ptm.h"
#include "htm/Htm.h"
#include "log/PoolLayout.h"
#include "log/RedoLog.h"
#include "pmem/PMemAllocator.h"
#include "pmem/PMemPool.h"
#include "support/Annotations.h"
#include "support/Compiler.h"
#include "support/Spin.h"

#include <memory>
#include <vector>

namespace crafty {

class CraftyRuntime;
class PersistCheck;
class TxRaceCheck;

/// Thread-safety-analysis token for the single global lock (an annotation
/// anchor only; the lock word itself lives in CraftyRuntime::SglWord and
/// is manipulated with nonTxCas/nonTxStore).
class CRAFTY_CAPABILITY("mutex") SglCapability {};

/// Per-thread Crafty execution context. Obtain via
/// CraftyRuntime::thread(); use from one thread at a time.
class CraftyThread {
public:
  CraftyThread(CraftyRuntime &Rt, unsigned ThreadId);
  CraftyThread(const CraftyThread &) = delete;
  CraftyThread &operator=(const CraftyThread &) = delete;

  unsigned threadId() const { return ThreadId; }

  /// Executes \p Body as one persistent transaction; returns when it has
  /// committed. See core/Ptm.h for body requirements.
  void run(TxnBody Body);

  const PtmStats &txnStats() const { return Stats; }
  const HtmStats &htmStats() const { return Tx.stats(); }

private:
  friend class CraftyRuntime;

  enum class LogOutcome { Committed, ReadOnly, Aborted, SglHeld };
  enum class PhaseOutcome { Committed, CheckFailed, Aborted, SglHeld };
  enum class Phase { Idle, Log, Validate, SglChunk };

  /// TxnContext implementation dispatching on the current phase.
  class Context final : public TxnContext {
  public:
    explicit Context(CraftyThread &T) : T(T) {}
    uint64_t load(const uint64_t *Addr) override;
    void store(uint64_t *Addr, uint64_t Val) override;
    void *alloc(size_t Bytes) override;
    void dealloc(void *Ptr) override;

  private:
    CraftyThread &T;
  };

  struct MirrorEntry {
    uint64_t *Addr;
    uint64_t Old;
    uint64_t New;
  };

  // Thread-safe mode phases. tryThreadSafe returns false when the
  // transaction should fall back to the SGL.
  bool tryThreadSafe(TxnBody Body);
  /// The Log phase flushes its undo entries with *no* drain: the Redo or
  /// Validate phase commits inside a hardware transaction whose commit
  /// fence is the drain (the paper's flush-without-drain optimization).
  CRAFTY_TX_BODY CRAFTY_DRAIN_DEFERRED LogOutcome logPhase(TxnBody Body);
  CRAFTY_TX_BODY PhaseOutcome redoPhase();
  CRAFTY_TX_BODY PhaseOutcome validatePhase(TxnBody Body);
  /// Flushes the program writes and COMMITTED timestamp with no drain;
  /// the next transaction's commit fence (or recovery) covers the rest
  /// (Section 4.2).
  CRAFTY_DRAIN_DEFERRED void finishCommit(bool ViaRedo);

  // Chunked flow (SGL fallback and thread-unsafe mode).
  void runChunkedSection(TxnBody Body, bool AcquireSgl);
  void chunkedSectionBody(TxnBody Body);
  void acquireSgl() CRAFTY_ACQUIRE(Rt.SglCap);
  void releaseSgl() CRAFTY_RELEASE(Rt.SglCap);
  bool chunkedAttempt(TxnBody Body);
  /// k = 1 path: the data word's CLWB is deferred to the next tag write's
  /// drain or the next chunk's commit fence.
  CRAFTY_TX_BODY CRAFTY_DRAIN_DEFERRED void chunkedStore(uint64_t *Addr,
                                                         uint64_t Val);
  /// Applies the chunk's writes after its commit and flushes them as one
  /// batch without drain (thread-unsafe Redo, Algorithm 2).
  CRAFTY_TX_BODY CRAFTY_DRAIN_DEFERRED void closeChunk();
  /// Writes and flushes one undo entry; the caller drains (writeTagDirect
  /// or the next commit fence).
  CRAFTY_FLUSH_API void writeEntryDirect(uint64_t AbsPos, uint64_t *Addr,
                                         uint64_t Old);
  CRAFTY_DRAIN_API void writeTagDirect(uint64_t Tag, uint64_t Ts);

  /// Section 5.2 cheap checks, run between hardware transactions before
  /// appending up to \p EntriesNeeded log entries; escalates to
  /// CraftyRuntime::forceHorizon when a bound is (possibly) violated.
  void maybeMaintainLog(uint64_t EntriesNeeded);
  size_t maxSeqEntries() const { return Log.NumEntries / 2 - 8; }

  // Phase access hooks (called by Context).
  uint64_t ctxLoad(const uint64_t *Addr);
  void ctxStore(uint64_t *Addr, uint64_t Val);
  void *ctxAlloc(size_t Bytes);
  void ctxDealloc(void *Ptr);

  // Undo-log staging helpers.
  void stageUndoEntry(uint64_t AbsPos, uint64_t *Addr, uint64_t Old);
  CRAFTY_FLUSH_API void flushStagedEntries(uint64_t FromAbs, uint64_t ToAbs);
  /// Flushes the data lines of \p Entries (plus \p ExtraWord's line when
  /// non-null) as one line-sorted clwbLines batch; no drain.
  CRAFTY_FLUSH_API void flushDataLines(const std::vector<MirrorEntry> &Entries,
                      void *ExtraWord);
  void noteTagWritten(uint64_t TagAbs, uint64_t Ts);
  uint64_t sharedHead() const;

  // Transaction-local state management.
  void resetAttemptState();
  void performDeferredFrees();
  void waitSglFree();

  /// Applies \p Entries' Old (or New) values as one nonTxStoreBatch --
  /// one clock bump and one stripe pass for the whole mirror instead of
  /// per word. \p Reverse submits the entries last-to-first so a word
  /// written in several chunks ends at its earliest Old value (stepwise
  /// rollback order).
  void applyMirrorBatch(const std::vector<MirrorEntry> &Entries, bool UseNew,
                        bool Reverse);

  CraftyRuntime &Rt;
  unsigned ThreadId;
  /// Non-null when Config.EnablePersistCheck: the runtime's checker, to
  /// which run() reports transaction scopes and phase transitions.
  PersistCheck *Check;
  /// Non-null when Config.EnableTxRaceCheck: the runtime's race checker,
  /// fed the same scope/phase stream plus SGL and Validate-divergence
  /// events (its access stream arrives via the HtmRuntime hooks).
  TxRaceCheck *Race;
  HtmTx Tx;
  /// Separate context for Section 5.2 forced-commit transactions: they
  /// may run while Tx's abort environment is armed across a chunked-mode
  /// body (chunkedAttempt), so they must not reuse Tx's jump buffer.
  HtmTx ForceTx;
  UndoLogRegion Log;

  /// Shared words, accessed transactionally by this thread and by other
  /// threads' forced-commit transactions (Section 5.2).
  alignas(CacheLineBytes) uint64_t HeadShared = 0;
  uint64_t LastCommittedTs = 0;

  // Current-transaction volatile state.
  Context Ctx{*this};
  Phase CurPhase = Phase::Idle;
  /// Undo/redo mirror in program order: the undo entries' old values and
  /// the redo values in one volatile record. During rollback, the current
  /// memory value at each reverse step always equals that entry's New, so
  /// no transactional re-loads are needed (and the Redo phase applies New
  /// in program order).
  std::vector<MirrorEntry> Mirror;
  /// Dynamic program stores of the current attempt (repeats included):
  /// coalescing shrinks Mirror, but Table 1 counts writes as executed.
  uint64_t DynWrites = 0;
  /// Scratch for batched data-line flushes (flushDataLines): reused so
  /// the commit path never allocates.
  std::vector<const void *> FlushLineScratch;
  /// Scratch for applyMirrorBatch (chunked write-back/rollback).
  std::vector<uint64_t *> BatchAddrScratch;
  std::vector<uint64_t> BatchValScratch;
  /// Bounded exponential backoff with jitter between aborted attempts;
  /// reset per transaction, escalated per abort.
  ExpBackoff RetryBackoff;
  size_t ValidateCursor = 0;
  std::vector<void *> AllocLog;
  size_t AllocCursor = 0;
  std::vector<void *> FreeLog;
  uint64_t HeadAtStart = 0;
  uint64_t TagAbs = 0;
  uint64_t LastTs = 0;
  unsigned TagPass = 0;

  // Chunked-mode state.
  unsigned ChunkK = 0;
  uint64_t SectionTs = 0;
  uint64_t SectionStartAbs = 0;
  std::vector<MirrorEntry> SectionMirror; // Applied chunks, program order.
  std::vector<MirrorEntry> ChunkMirror;   // Open chunk, program order.
  uint64_t ChunkStartAbs = 0;

  // Half-log bookkeeping: timestamp of the first tag written into each
  // log half, keyed by the absolute half index that wrote it.
  uint64_t FirstTsInHalf[2] = {0, 0};
  uint64_t FirstTsHalfIdx[2] = {~0ull, ~0ull};

  PtmStats Stats;
};

/// The Crafty runtime: shared state, the thread registry, and the
/// PtmBackend adapter used by the evaluation harness.
class CraftyRuntime final : public PtmBackend {
public:
  /// Formats \p Pool (header, per-thread undo logs, optional allocator
  /// arenas) and creates Config.NumThreads execution contexts. \p Pool
  /// and \p Htm must outlive the runtime; the runtime installs the pool's
  /// memory hooks into \p Htm.
  CraftyRuntime(PMemPool &Pool, HtmRuntime &Htm, CraftyConfig Config);
  ~CraftyRuntime() override;

  /// Attaches to an already-formatted pool after a crash: run recovery
  /// (recovery/Recovery.h) first, then attach instead of constructing.
  /// The pool header's geometry must match \p Config (thread count, log
  /// size); allocator arenas are not re-established on attach (recovered
  /// applications rebuild allocation state from their own persistent
  /// structures). Fatal on mismatch.
  static std::unique_ptr<CraftyRuntime> attach(PMemPool &Pool,
                                               HtmRuntime &Htm,
                                               CraftyConfig Config);

  const CraftyConfig &config() const { return Config; }
  PMemPool &pool() { return Pool; }
  HtmRuntime &htm() { return Htm; }
  PMemAllocator *allocator() { return Alloc.get(); }
  PoolHeader *poolHeader() { return Header; }
  /// The attached persist-ordering checker, or null when
  /// Config.EnablePersistCheck is false.
  PersistCheck *persistCheck() { return Checker.get(); }
  /// The attached race/isolation checker, or null when
  /// Config.EnableTxRaceCheck is false.
  TxRaceCheck *raceCheck() { return RaceChecker.get(); }

  CraftyThread &thread(unsigned ThreadId) { return *Threads[ThreadId]; }

  /// Allocates persistent memory outside any transaction (setup).
  void *carve(size_t Bytes, size_t Align = CacheLineBytes) {
    return Pool.carve(Bytes, Align);
  }

  /// On-demand immediate persistence (Section 5.2 extension): after this
  /// returns, every transaction that committed before the call survives
  /// recovery. Call before externally visible, irrevocable actions.
  /// Call it outside any transaction body: it opens its own PersistCheck
  /// scope on the calling OS thread.
  CRAFTY_DRAIN_API void persistBarrier(unsigned CallerThreadId);

  // PtmBackend interface.
  const char *name() const override;
  unsigned maxThreads() const override { return Config.NumThreads; }
  void run(unsigned ThreadId, TxnBody Body) override {
    Threads[ThreadId]->run(Body);
  }
  PtmStats txnStats() const override;
  HtmStats htmStats() const override;
  HtmStats htmStatsFor(unsigned ThreadId) const override;

private:
  friend class CraftyThread;

  CraftyRuntime(PMemPool &Pool, HtmRuntime &Htm, CraftyConfig Config,
                bool Attach);

  /// The one Section 5.2 force protocol: brings every thread's last
  /// committed transaction to ts >= \p TargetTs by forcing empty commits
  /// into the logs of threads below it, retrying each force until it
  /// commits, then refreshes tsLowerBound. Log upkeep calls it when the
  /// MAX_LAG or half-log overwrite bound is violated; persistBarrier
  /// calls it with UINT64_MAX, which forces every thread.
  void forceHorizon(CraftyThread &Forcer, uint64_t TargetTs);

  /// Appends an empty committed transaction to \p Victim's log from
  /// \p Forcer's hardware-transaction context. Returns true on success.
  /// The forced tag's CLWB drains at the forcer's next commit fence.
  CRAFTY_TX_BODY CRAFTY_DRAIN_DEFERRED bool
  forceEmptyCommit(CraftyThread &Forcer, CraftyThread &Victim);

  PMemPool &Pool;
  HtmRuntime &Htm;
  CraftyConfig Config;
  PoolHeader *Header = nullptr;
  std::unique_ptr<PMemAllocator> Alloc;
  std::unique_ptr<PersistCheck> Checker;
  std::unique_ptr<TxRaceCheck> RaceChecker;
  std::vector<std::unique_ptr<CraftyThread>> Threads;

  /// Timestamp of the last committed writes by any thread (Section 4.2).
  alignas(CacheLineBytes) uint64_t GLastRedoTs = 0;
  /// The single global lock (Section 4.4): 0 free, 1 held.
  alignas(CacheLineBytes) uint64_t SglWord = 0;
  /// Annotation anchor for SglWord (see SglCapability).
  SglCapability SglCap;
  /// Lower bound on the earliest timestamp recovery may roll back to.
  alignas(CacheLineBytes) std::atomic<uint64_t> TsLowerBound{0};
};

} // namespace crafty

#endif // CRAFTY_CORE_CRAFTY_H
