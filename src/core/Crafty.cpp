//===- core/Crafty.cpp - Crafty persistent transactions -------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Crafty.h"

#include "check/PersistCheck.h"
#include "check/TxRaceCheck.h"
#include "support/Clock.h"
#include "support/Spin.h"

#include <algorithm>

using namespace crafty;

namespace {
/// Failed forces of one thread's empty commit before forceHorizon starts
/// yielding between tries.
constexpr unsigned ForceRetryLimit = 64;

/// Accumulates wall-clock time into a stats counter when enabled.
class PhaseTimer {
public:
  PhaseTimer(bool Enabled, uint64_t &Sink)
      : Sink(Enabled ? &Sink : nullptr),
        Start(Enabled ? monotonicNanos() : 0) {}
  ~PhaseTimer() {
    if (Sink)
      *Sink += monotonicNanos() - Start;
  }

private:
  uint64_t *Sink;
  uint64_t Start;
};
} // namespace

PtmBackend::~PtmBackend() = default;

//===----------------------------------------------------------------------===//
// CraftyRuntime
//===----------------------------------------------------------------------===//

CraftyRuntime::CraftyRuntime(PMemPool &Pool, HtmRuntime &Htm,
                             CraftyConfig Config)
    : CraftyRuntime(Pool, Htm, Config, /*Attach=*/false) {}

CraftyRuntime::CraftyRuntime(PMemPool &Pool, HtmRuntime &Htm,
                             CraftyConfig Config, bool Attach)
    : Pool(Pool), Htm(Htm), Config(Config) {
  if (Config.NumThreads == 0 ||
      Config.NumThreads > Pool.config().MaxThreads)
    fatalError("CraftyRuntime: bad thread count for the pool");
  if (Config.LogEntriesPerThread < 64 ||
      (Config.LogEntriesPerThread & (Config.LogEntriesPerThread - 1)) != 0)
    fatalError("CraftyRuntime: log size must be a power of two >= 64");
  Htm.setMemoryHooks(Pool.htmHooks());
  if (Attach) {
    Header = reinterpret_cast<PoolHeader *>(Pool.base());
    if (Header->Magic != PoolMagic ||
        Header->NumThreads != Config.NumThreads ||
        Header->LogEntriesPerThread != Config.LogEntriesPerThread)
      fatalError("CraftyRuntime::attach: pool header does not match the "
                 "configuration");
    // Recovery zeroed the logs and the header still maps this process's
    // addresses; the thread contexts below start at log position zero.
    if (Config.ArenaBytesPerThread)
      fatalError("CraftyRuntime::attach: allocator arenas cannot be "
                 "re-established on attach");
  } else {
    Header = formatPool(Pool, Config.NumThreads,
                        Config.LogEntriesPerThread, /*HeapBytes=*/0);
    if (Config.ArenaBytesPerThread)
      Alloc = std::make_unique<PMemAllocator>(Pool, Config.NumThreads,
                                              Config.ArenaBytesPerThread);
  }
  if (Config.EnablePersistCheck) {
    Checker = std::make_unique<PersistCheck>(Pool);
    for (unsigned I = 0; I != Config.NumThreads; ++I) {
      UndoLogRegion Region = logRegionFor(Pool.base(), *Header, I);
      Checker->registerLogRegion(I, Region.Slots, Region.NumEntries);
    }
    Checker->attach();
  }
  if (Config.EnableTxRaceCheck) {
    RaceChecker = std::make_unique<TxRaceCheck>(Pool);
    // The per-thread undo logs are written by design from many threads'
    // forced commits (Section 5.2), always transactionally; exempt them
    // so only program data is race-checked.
    for (unsigned I = 0; I != Config.NumThreads; ++I) {
      UndoLogRegion Region = logRegionFor(Pool.base(), *Header, I);
      RaceChecker->registerExemptRegion(Region.Slots, Region.regionBytes());
    }
    RaceChecker->installHtmHooks(Htm);
  }
  Threads.reserve(Config.NumThreads);
  for (unsigned I = 0; I != Config.NumThreads; ++I)
    Threads.push_back(std::make_unique<CraftyThread>(*this, I));
}

std::unique_ptr<CraftyRuntime>
CraftyRuntime::attach(PMemPool &Pool, HtmRuntime &Htm, CraftyConfig Config) {
  return std::unique_ptr<CraftyRuntime>(
      new CraftyRuntime(Pool, Htm, Config, /*Attach=*/true));
}

CraftyRuntime::~CraftyRuntime() {
  if (RaceChecker)
    RaceChecker->removeHtmHooks(Htm);
  if (Checker)
    Checker->detach();
}

const char *CraftyRuntime::name() const {
  if (Config.Mode == CraftyMode::ThreadUnsafe)
    return "Crafty-Unsafe";
  if (Config.DisableRedo)
    return "Crafty-NoRedo";
  if (Config.DisableValidate)
    return "Crafty-NoValidate";
  return "Crafty";
}

PtmStats CraftyRuntime::txnStats() const {
  PtmStats S;
  for (const auto &T : Threads)
    S += T->txnStats();
  return S;
}

HtmStats CraftyRuntime::htmStats() const {
  HtmStats S;
  for (const auto &T : Threads) {
    S += T->htmStats();
    S += T->ForceTx.stats();
  }
  return S;
}

HtmStats CraftyRuntime::htmStatsFor(unsigned ThreadId) const {
  HtmStats S = Threads[ThreadId]->htmStats();
  S += Threads[ThreadId]->ForceTx.stats();
  return S;
}

bool CraftyRuntime::forceEmptyCommit(CraftyThread &Forcer,
                                     CraftyThread &Victim) {
  size_t TagSlot = 0;
  TxResult R = runHtmTx(Forcer.ForceTx, [&](HtmTx &T) {
    uint64_t Abs = T.load(&Victim.HeadShared);
    TagSlot = Victim.Log.slotFor(Abs);
    unsigned Pass = Victim.Log.passFor(Abs);
    T.store(Victim.Log.addrWordAt(TagSlot), TagLogged | Pass);
    T.storeCommitVersion(Victim.Log.valWordAt(TagSlot),
                         TagTsCommitVersionShift, Pass);
    T.store(&Victim.HeadShared, Abs + 1);
    T.storeCommitVersion(&Victim.LastCommittedTs);
  });
  if (!R.Committed)
    return false;
  // Flushed by the forcer; drained at the forcer's next commit fence,
  // i.e. before any entry the forcer may then overwrite can persist.
  Pool.clwb(Forcer.ThreadId, Victim.Log.addrWordAt(TagSlot));
  // The victim is delinquent: its last flushes were issued long ago and
  // have completed on real hardware. Moving its rollback horizon forward
  // (the forced tag) is only sound once those writes are persistent.
  Pool.drainRemote(Victim.ThreadId);
  return true;
}

void CraftyRuntime::forceHorizon(CraftyThread &Forcer, uint64_t TargetTs) {
  // Bring every thread's last committed transaction to ts >= TargetTs,
  // forcing empty commits into delinquent threads' logs (Section 5.2).
  // A forced commit's ts is a fresh commit version, which exceeds any
  // already-written timestamp and in particular TargetTs whenever
  // TargetTs <= the clock at the force (true for log upkeep). The
  // barrier's UINT64_MAX is never reached, so every thread is forced.
  for (auto &VictimPtr : Threads) {
    CraftyThread &Victim = *VictimPtr;
    for (unsigned Try = 0;; ++Try) {
      if (Htm.nonTxLoad(&Victim.LastCommittedTs) >= TargetTs)
        break;
      if (forceEmptyCommit(Forcer, Victim))
        break;
      if (Try >= ForceRetryLimit) {
        // The victim keeps aborting our force transaction, so it is
        // actively committing; wait for its own timestamp to pass the
        // target rather than racing it.
        std::this_thread::yield();
      }
      if (Try > ForceRetryLimit * 1024)
        fatalError("cannot force a delinquent thread's empty commit "
                   "(hardware transactions never commit?)");
    }
  }
  uint64_t Min = ~0ull;
  for (auto &T : Threads)
    Min = std::min(Min, Htm.nonTxLoad(&T->LastCommittedTs));
  // Monotonically raise the published lower bound.
  uint64_t Cur = TsLowerBound.load(std::memory_order_relaxed);
  while (Cur < Min &&
         !TsLowerBound.compare_exchange_weak(Cur, Min,
                                             std::memory_order_relaxed)) {
  }
}

void CraftyRuntime::persistBarrier(unsigned CallerThreadId) {
  // A barrier runs outside any transaction scope. A scope of its own
  // attributes the forced tags to the forcer, so a victim draining its
  // own earlier CLWB of a tag line is not blamed for a broken chain.
  if (Checker)
    Checker->beginTxn(CallerThreadId);
  // Persist every committed write (models a full cache write-back), then
  // force every thread's last sequence past all prior transactions so
  // recovery's rollback threshold lands after them. One drain persists
  // the write-back and the forced tags together.
  Pool.flushEverythingDeferred(CallerThreadId);
  forceHorizon(*Threads[CallerThreadId], UINT64_MAX);
  Pool.drain(CallerThreadId);
  if (Checker)
    Checker->endTxn();
}

//===----------------------------------------------------------------------===//
// CraftyThread: context plumbing
//===----------------------------------------------------------------------===//

CraftyThread::CraftyThread(CraftyRuntime &Rt, unsigned ThreadId)
    : Rt(Rt), ThreadId(ThreadId), Check(Rt.Checker.get()),
      Race(Rt.RaceChecker.get()),
      Tx(Rt.Htm, ThreadId, /*RngSeed=*/ThreadId + 1),
      ForceTx(Rt.Htm, ThreadId, /*RngSeed=*/ThreadId + 1000003),
      Log(logRegionFor(Rt.Pool.base(), *Rt.Header, ThreadId)),
      RetryBackoff(/*Seed=*/ThreadId + 7) {
  Mirror.reserve(1024);
  SectionMirror.reserve(1024);
  ChunkMirror.reserve(Rt.Config.InitialChunkK + 1);
}

uint64_t CraftyThread::sharedHead() const {
  return Rt.Htm.nonTxLoad(&HeadShared);
}

uint64_t CraftyThread::Context::load(const uint64_t *Addr) {
  return T.ctxLoad(Addr);
}
void CraftyThread::Context::store(uint64_t *Addr, uint64_t Val) {
  T.ctxStore(Addr, Val);
}
void *CraftyThread::Context::alloc(size_t Bytes) { return T.ctxAlloc(Bytes); }
void CraftyThread::Context::dealloc(void *Ptr) { T.ctxDealloc(Ptr); }

uint64_t CraftyThread::ctxLoad(const uint64_t *Addr) {
  switch (CurPhase) {
  case Phase::Log:
  case Phase::Validate:
    return Tx.load(Addr);
  case Phase::SglChunk:
    return Tx.inTransaction() ? Tx.load(Addr) : Rt.Htm.nonTxLoad(Addr);
  case Phase::Idle:
    break;
  }
  CRAFTY_UNREACHABLE("transactional load with no transaction running");
}

void CraftyThread::ctxStore(uint64_t *Addr, uint64_t Val) {
  assert(isWordAligned(Addr) && "persistent writes must be 8-byte aligned");
  assert(Rt.Pool.contains(Addr) &&
         "transactional writes must target persistent memory");
  switch (CurPhase) {
  case Phase::Log: {
    ++DynWrites;
    // Coalesce repeated stores to one word into a single undo entry (the
    // first old value is all recovery's undo replay needs): update the
    // redo value in place and skip the two streaming stores a fresh
    // entry would cost. The body's stores are exactly the transaction's
    // buffered writes at this point, so the HTM write buffer doubles as
    // the word -> Mirror-index map: storeTracked's one lookup either
    // returns a repeat's entry or loads a first store's old value.
    if (CRAFTY_UNLIKELY(Mirror.size() >= maxSeqEntries()) &&
        !Tx.writtenWordTag(Addr))
      Tx.abortExplicit(AbortUserSeqOverflow);
    uint32_t Fresh = (uint32_t)Mirror.size();
    uint64_t Old = 0;
    uint32_t Idx = Tx.storeTracked(Addr, Val, Fresh, Old);
    if (Idx != Fresh) {
      Mirror[Idx].New = Val;
      return;
    }
    stageUndoEntry(HeadAtStart + Fresh, Addr, Old);
    Mirror.push_back(MirrorEntry{Addr, Old, Val});
    return;
  }
  case Phase::Validate: {
    // A repeat store to an already-written word was coalesced by the Log
    // phase: the deterministic re-execution reproduces it, and only the
    // word's first store has an undo entry to match.
    if (Tx.writtenWordTag(Addr)) {
      Tx.store(Addr, Val);
      return;
    }
    // Algorithm 3: the next undo entry must match this write's address
    // and the current memory value; otherwise another thread committed
    // conflicting writes since the Log phase.
    if (ValidateCursor >= Mirror.size()) {
      if (CRAFTY_UNLIKELY(Race != nullptr))
        Race->noteValidateDivergence(ThreadId, Addr, nullptr);
      Tx.abortExplicit(AbortUserValidateFail);
    }
    const MirrorEntry &E = Mirror[ValidateCursor];
    if (E.Addr != Addr || Tx.load(Addr) != E.Old) {
      if (CRAFTY_UNLIKELY(Race != nullptr))
        Race->noteValidateDivergence(ThreadId, Addr, E.Addr);
      Tx.abortExplicit(AbortUserValidateFail);
    }
    ++ValidateCursor;
    Tx.store(Addr, Val);
    return;
  }
  case Phase::SglChunk:
    chunkedStore(Addr, Val);
    return;
  case Phase::Idle:
    break;
  }
  CRAFTY_UNREACHABLE("transactional store with no transaction running");
}

void *CraftyThread::ctxAlloc(size_t Bytes) {
  PMemAllocator *A = Rt.Alloc.get();
  if (!A)
    fatalError("TxnContext::alloc without a configured allocator arena");
  if (CurPhase == Phase::Validate) {
    // Reuse the memory allocated by the Log phase (paper Section 6).
    if (AllocCursor >= AllocLog.size()) {
      if (CRAFTY_UNLIKELY(Race != nullptr))
        Race->noteValidateDivergence(ThreadId, nullptr, nullptr);
      Tx.abortExplicit(AbortUserValidateFail);
    }
    return AllocLog[AllocCursor++];
  }
  void *P = A->alloc(ThreadId, Bytes);
  if (P)
    AllocLog.push_back(P);
  return P;
}

void CraftyThread::ctxDealloc(void *Ptr) {
  // Deferred until commit so re-execution and aborts never double-free.
  if (Ptr)
    FreeLog.push_back(Ptr);
}

void CraftyThread::resetAttemptState() {
  if (PMemAllocator *A = Rt.Alloc.get())
    for (void *P : AllocLog)
      A->dealloc(ThreadId, P);
  AllocLog.clear();
  AllocCursor = 0;
  FreeLog.clear();
  Mirror.clear();
  DynWrites = 0;
  ValidateCursor = 0;
}

void CraftyThread::performDeferredFrees() {
  if (PMemAllocator *A = Rt.Alloc.get())
    for (void *P : FreeLog)
      A->dealloc(ThreadId, P);
  FreeLog.clear();
  AllocLog.clear(); // Committed: the allocations are now owned by the app.
  AllocCursor = 0;
}

void CraftyThread::waitSglFree() {
  ++Stats.SglWaits;
  // Capped spin: past the bound, yield on every iteration. The SGL
  // holder may be descheduled (a loaded or oversubscribed box), and an
  // unbounded pause-heavy spin would burn this thread's quantum without
  // letting the holder run.
  unsigned Spins = 0;
  while (HtmRuntime::plainLoad(&Rt.SglWord) != 0) {
    if (++Spins > SpinWaitPauseBound)
      std::this_thread::yield();
    else
      cpuPause();
  }
}

//===----------------------------------------------------------------------===//
// CraftyThread: undo-log staging
//===----------------------------------------------------------------------===//

void CraftyThread::stageUndoEntry(uint64_t AbsPos, uint64_t *Addr,
                                  uint64_t Old) {
  size_t Slot = Log.slotFor(AbsPos);
  unsigned Pass = Log.passFor(AbsPos);
  EncodedEntry E =
      encodeDataEntry(reinterpret_cast<uint64_t>(Addr), Old, Pass);
  // Streaming stores: log slots are write-once and never loaded back
  // within the transaction (on real HTM these are plain stores).
  Tx.storeStream(Log.addrWordAt(Slot), E.AddrWord);
  Tx.storeStream(Log.valWordAt(Slot), E.ValWord);
}

void CraftyThread::flushStagedEntries(uint64_t FromAbs, uint64_t ToAbs) {
  // Also flush the predecessor slot: it may hold a tag another thread
  // forced into our log (Section 5.2) whose CLWB sits in that thread's
  // queue. Recovery's backward sequence walk needs the predecessor
  // boundary persisted no later than our entries.
  if (FromAbs > 0)
    --FromAbs;
  // The staged slots are contiguous in the circular log (each entry's
  // addr and val words share one 16-byte-aligned slot), so the whole
  // flush is one line-stepped range -- two when the sequence wraps the
  // log end. A sequence never exceeds half the log (maxSeqEntries), so
  // the two pieces cannot overlap.
  size_t First = Log.slotFor(FromAbs);
  uint64_t Count = ToAbs - FromAbs + 1;
  uint64_t Tail = std::min<uint64_t>(Count, Log.NumEntries - First);
  Rt.Pool.clwbRange(ThreadId, Log.addrWordAt(First),
                    Tail * UndoLogRegion::EntryBytes);
  if (Count > Tail)
    Rt.Pool.clwbRange(ThreadId, Log.addrWordAt(0),
                      (Count - Tail) * UndoLogRegion::EntryBytes);
}

void CraftyThread::flushDataLines(const std::vector<MirrorEntry> &Entries,
                                  void *ExtraWord) {
  // Consecutive entries often share a line (the words of one value or
  // object), so pass one address per run of same-line entries; the sort
  // then makes the remaining same-line addresses adjacent, and the pool's
  // pending-line filter coalesces each line's repeats into one scheduled
  // write-back regardless of filter collisions.
  FlushLineScratch.clear();
  uintptr_t PrevLine = ~(uintptr_t)0;
  auto Add = [&](const void *Addr) {
    uintptr_t Line = lineOf(Addr);
    if (Line != PrevLine)
      FlushLineScratch.push_back(Addr);
    PrevLine = Line;
  };
  for (const MirrorEntry &E : Entries)
    Add(E.Addr);
  if (ExtraWord)
    Add(ExtraWord);
  std::sort(FlushLineScratch.begin(), FlushLineScratch.end(),
            [](const void *A, const void *B) { return lineOf(A) < lineOf(B); });
  Rt.Pool.clwbLines(ThreadId, FlushLineScratch.data(),
                    FlushLineScratch.size());
}

void CraftyThread::noteTagWritten(uint64_t TagAbsPos, uint64_t Ts) {
  size_t Half = Log.NumEntries / 2;
  uint64_t HalfIdx = TagAbsPos / Half;
  unsigned Region = HalfIdx & 1;
  if (FirstTsHalfIdx[Region] != HalfIdx) {
    FirstTsHalfIdx[Region] = HalfIdx;
    FirstTsInHalf[Region] = Ts;
  }
}

void CraftyThread::maybeMaintainLog(uint64_t EntriesNeeded) {
  uint64_t TsLb = Rt.TsLowerBound.load(std::memory_order_relaxed);
  uint64_t Gvc = Rt.Htm.globalClock();
  // MAX_LAG bound (Section 5.2): recovery must never need to roll back
  // more than MaxLag commits; force delinquent threads forward.
  uint64_t Target = 0;
  if (Gvc >= TsLb + Rt.Config.MaxLag)
    Target = Gvc + 1 - Rt.Config.MaxLag;

  size_t Half = Log.NumEntries / 2;
  uint64_t HeadNow = sharedHead();
  uint64_t CurHalfIdx = HeadNow / Half;
  uint64_t EndHalfIdx = (HeadNow + EntriesNeeded) / Half;
  if (EndHalfIdx != CurHalfIdx && EndHalfIdx >= 2) {
    // About to overwrite the log half written two halves ago. Recovery
    // rolls back every sequence with ts >= the minimum over threads of
    // their last sequence's ts, so overwriting is safe only once every
    // thread's last committed ts exceeds the *newest* entry discarded.
    // That newest entry predates the oldest entry of the half written
    // one pass later, whose first tag ts we track; when unknown, bound
    // by the current clock (every logged entry predates it).
    unsigned NewerRegion = (EndHalfIdx - 1) & 1;
    uint64_t OverwriteBound =
        FirstTsHalfIdx[NewerRegion] == EndHalfIdx - 1
            ? FirstTsInHalf[NewerRegion]
            : Gvc + 1;
    if (TsLb < OverwriteBound)
      Target = std::max(Target, OverwriteBound);
  }
  if (Target)
    Rt.forceHorizon(*this, Target);
  // The forced tags are flushed by the forcer and the victims' earlier
  // flushes completed (drainRemote), so proceeding is safe: recovery's
  // rollback threshold can no longer reach the entries we overwrite.
}

//===----------------------------------------------------------------------===//
// CraftyThread: thread-safe mode (Figure 3)
//===----------------------------------------------------------------------===//

void CraftyThread::run(TxnBody Body) {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->beginTxn(ThreadId);
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->beginTxn(ThreadId);
  if (Rt.Config.Mode == CraftyMode::ThreadUnsafe) {
    resetAttemptState();
    runChunkedSection(Body, /*AcquireSgl=*/false);
  } else if (!tryThreadSafe(Body)) {
    runChunkedSection(Body, /*AcquireSgl=*/true);
  }
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->endTxn(ThreadId);
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->endTxn();
}

bool CraftyThread::tryThreadSafe(TxnBody Body) {
  unsigned Attempts = 0;
  RetryBackoff.reset();
  for (;;) {
    resetAttemptState();
    LogOutcome LO = logPhase(Body);
    if (LO == LogOutcome::SglHeld) {
      waitSglFree();
      continue;
    }
    if (LO == LogOutcome::Aborted) {
      // Abort-cause-aware policy: a Capacity abort is deterministic for
      // this body (the footprint will not fit next time either), so go
      // straight to the chunked fallback instead of burning the retry
      // budget; Conflict and Zero aborts back off -- bounded exponential
      // with jitter, yielding past the cap -- before retrying, giving the
      // conflicting committer (often descheduled mid-commit on a loaded
      // box) time to finish instead of re-aborting instantly.
      if (Tx.abortUserCode() == AbortUserSeqOverflow)
        return false; // Too large for one sequence; the chunked mode
                      // splits it (Figure 4).
      if (Tx.abortCode() == AbortCode::Capacity)
        return false;
      if (++Attempts >= Rt.Config.SglAttemptThreshold)
        return false;
      RetryBackoff.backoff();
      continue;
    }
    if (LO == LogOutcome::ReadOnly) {
      ++Stats.ReadOnly;
      performDeferredFrees();
      return true;
    }
    if (Rt.Config.TestAfterLogCommit)
      Rt.Config.TestAfterLogCommit(Rt.Config.TestHookCtx, ThreadId);

    // Redo phase (skipped by Crafty-NoRedo).
    bool TryValidate = Rt.Config.DisableRedo;
    if (!Rt.Config.DisableRedo) {
      constexpr unsigned RedoRetries = 3; // Before trying Validate.
      unsigned RedoTries = 0;
      for (;;) {
        PhaseOutcome PO = redoPhase();
        if (PO == PhaseOutcome::Committed) {
          finishCommit(/*ViaRedo=*/true);
          return true;
        }
        if (PO == PhaseOutcome::CheckFailed) {
          TryValidate = true;
          break;
        }
        if (PO == PhaseOutcome::SglHeld) {
          waitSglFree();
          continue;
        }
        if (++Attempts >= Rt.Config.SglAttemptThreshold)
          return false;
        if (++RedoTries >= RedoRetries) {
          TryValidate = true;
          break;
        }
        RetryBackoff.backoff(); // Conflict abort: let the committer finish.
      }
    }

    // Validate phase (skipped by Crafty-NoValidate).
    if (TryValidate && !Rt.Config.DisableValidate) {
      bool Restart = false;
      for (;;) {
        PhaseOutcome PO = validatePhase(Body);
        if (PO == PhaseOutcome::Committed) {
          finishCommit(/*ViaRedo=*/false);
          return true;
        }
        if (PO == PhaseOutcome::CheckFailed) {
          Restart = true; // Conflicting commit: start over (Figure 3).
          break;
        }
        if (PO == PhaseOutcome::SglHeld) {
          waitSglFree();
          continue;
        }
        if (++Attempts >= Rt.Config.SglAttemptThreshold)
          return false;
        RetryBackoff.backoff(); // Conflict abort: let the committer finish.
      }
      (void)Restart;
    }

    // Either validation failed or this is Crafty-NoValidate after a
    // failed Redo check: re-execute from the Log phase. The abandoned
    // LOGGED sequence is harmless to recovery (rolling it back applies
    // values that are current at its place in the rollback order).
    if (++Attempts >= Rt.Config.SglAttemptThreshold)
      return false;
  }
}

CraftyThread::LogOutcome CraftyThread::logPhase(TxnBody Body) {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->setPhase("log");
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->setPhase(ThreadId, "log");
  maybeMaintainLog(maxSeqEntries() + 1);
  PhaseTimer Timer(Rt.Config.CollectPhaseTimings, Stats.LogPhaseNs);
  CurPhase = Phase::Log;
  bool ReadOnly = false;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    if (T.load(&Rt.SglWord) != 0)
      T.abortExplicit(AbortUserSglHeld);
    HeadAtStart = T.load(&HeadShared);
    Mirror.clear();
    Body(Ctx);
    if (Mirror.empty()) {
      ReadOnly = true; // Read-only fast path: no log, no Redo/Validate.
      return;
    }
    // Nondestructive undo logging: roll the writes back in reverse order.
    // At each reverse step the location's current value equals that
    // mirror entry's New, so the redo values are already in hand.
    for (size_t I = Mirror.size(); I-- > 0;) {
      // Bounded by the HTM capacity abort itself: the body's stores and
      // this rollback together fit or the transaction never commits.
      CRAFTY_TX_BOUND(Mirror.size());
      T.store(Mirror[I].Addr, Mirror[I].Old);
    }
    TagAbs = HeadAtStart + Mirror.size();
    size_t Slot = Log.slotFor(TagAbs);
    TagPass = Log.passFor(TagAbs);
    T.store(Log.addrWordAt(Slot), TagLogged | TagPass);
    T.storeCommitVersion(Log.valWordAt(Slot), TagTsCommitVersionShift,
                         TagPass);
    T.store(&HeadShared, TagAbs + 1);
  });
  CurPhase = Phase::Idle;
  if (R.Committed) {
    if (ReadOnly)
      return LogOutcome::ReadOnly;
    LastTs = R.CommitVersion;
    noteTagWritten(TagAbs, LastTs);
    // Flush the undo entries with no drain: the Redo or Validate phase
    // commits inside a hardware transaction, whose commit fence drains.
    flushStagedEntries(HeadAtStart, TagAbs);
    return LogOutcome::Committed;
  }
  if (R.Code == AbortCode::Explicit && R.UserCode == AbortUserSglHeld)
    return LogOutcome::SglHeld;
  return LogOutcome::Aborted;
}

CraftyThread::PhaseOutcome CraftyThread::redoPhase() {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->setPhase("redo");
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->setPhase(ThreadId, "redo");
  PhaseTimer Timer(Rt.Config.CollectPhaseTimings, Stats.RedoPhaseNs);
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    if (T.load(&Rt.SglWord) != 0)
      T.abortExplicit(AbortUserSglHeld);
    // Algorithm 2: the Redo phase may apply the redo log only if no
    // transaction committed writes since our Log phase.
    if (T.load(&Rt.GLastRedoTs) >= LastTs)
      T.abortExplicit(AbortUserRedoCheck);
    for (const MirrorEntry &E : Mirror) { // Program order.
      // Bounded by construction: this exact write set already fit in
      // one hardware transaction during the Log phase.
      CRAFTY_TX_BOUND(Mirror.size());
      T.store(E.Addr, E.New);
    }
    T.storeCommitVersion(&Rt.GLastRedoTs);
    // Merged LOGGED/COMMITTED entry: overwrite the timestamp (Section 6).
    T.storeCommitVersion(Log.valWordAt(Log.slotFor(TagAbs)),
                         TagTsCommitVersionShift, TagPass);
    T.storeCommitVersion(&LastCommittedTs);
  });
  if (R.Committed) {
    noteTagWritten(TagAbs, R.CommitVersion);
    return PhaseOutcome::Committed;
  }
  if (R.Code == AbortCode::Explicit) {
    if (R.UserCode == AbortUserSglHeld)
      return PhaseOutcome::SglHeld;
    if (R.UserCode == AbortUserRedoCheck)
      return PhaseOutcome::CheckFailed;
  }
  return PhaseOutcome::Aborted;
}

CraftyThread::PhaseOutcome CraftyThread::validatePhase(TxnBody Body) {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->setPhase("validate");
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->setPhase(ThreadId, "validate");
  PhaseTimer Timer(Rt.Config.CollectPhaseTimings, Stats.ValidatePhaseNs);
  CurPhase = Phase::Validate;
  TxResult R = runHtmTx(Tx, [&](HtmTx &T) {
    if (T.load(&Rt.SglWord) != 0)
      T.abortExplicit(AbortUserSglHeld);
    ValidateCursor = 0;
    AllocCursor = 0;
    FreeLog.clear(); // Re-recorded by this execution.
    Body(Ctx);
    // Algorithm 3 line 8: all log entries must have been consumed.
    if (ValidateCursor != Mirror.size()) {
      if (CRAFTY_UNLIKELY(Race != nullptr))
        Race->noteValidateDivergence(ThreadId, nullptr,
                                     Mirror[ValidateCursor].Addr);
      T.abortExplicit(AbortUserValidateFail);
    }
    T.storeCommitVersion(&Rt.GLastRedoTs);
    T.storeCommitVersion(Log.valWordAt(Log.slotFor(TagAbs)),
                         TagTsCommitVersionShift, TagPass);
    T.storeCommitVersion(&LastCommittedTs);
  });
  CurPhase = Phase::Idle;
  if (R.Committed) {
    noteTagWritten(TagAbs, R.CommitVersion);
    return PhaseOutcome::Committed;
  }
  if (R.Code == AbortCode::Explicit) {
    if (R.UserCode == AbortUserSglHeld)
      return PhaseOutcome::SglHeld;
    if (R.UserCode == AbortUserValidateFail)
      return PhaseOutcome::CheckFailed;
  }
  return PhaseOutcome::Aborted;
}

void CraftyThread::finishCommit(bool ViaRedo) {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->setPhase("commit");
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->setPhase(ThreadId, "commit");
  // Flush the program writes and the updated COMMITTED timestamp with no
  // drain; the next transaction's commit fence (or recovery's rollback of
  // the thread's last sequence) covers the rest (Section 4.2).
  flushDataLines(Mirror, Log.valWordAt(Log.slotFor(TagAbs)));
  if (ViaRedo)
    ++Stats.Redo;
  else
    ++Stats.Validate;
  Stats.Writes += DynWrites;
  performDeferredFrees();
}

//===----------------------------------------------------------------------===//
// CraftyThread: chunked mode (Figure 4: SGL fallback and thread-unsafe)
//===----------------------------------------------------------------------===//

void CraftyThread::runChunkedSection(TxnBody Body, bool AcquireSgl) {
  if (CRAFTY_UNLIKELY(Check != nullptr))
    Check->setPhase("chunked");
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->setPhase(ThreadId, "chunked");
  PhaseTimer Timer(Rt.Config.CollectPhaseTimings, Stats.SglNs);
  if (AcquireSgl) {
    acquireSgl();
    chunkedSectionBody(Body);
    releaseSgl();
  } else {
    chunkedSectionBody(Body);
  }
}

void CraftyThread::acquireSgl() {
  ExpBackoff Backoff(/*Seed=*/ThreadId + 0x51);
  while (!Rt.Htm.nonTxCas(&Rt.SglWord, 0, 1))
    Backoff.backoff();
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->sglAcquired(ThreadId);
}

void CraftyThread::releaseSgl() {
  if (CRAFTY_UNLIKELY(Race != nullptr))
    Race->sglReleased(ThreadId);
  Rt.Htm.nonTxStore(&Rt.SglWord, 0);
}

void CraftyThread::applyMirrorBatch(const std::vector<MirrorEntry> &Entries,
                                    bool UseNew, bool Reverse) {
  BatchAddrScratch.clear();
  BatchValScratch.clear();
  BatchAddrScratch.reserve(Entries.size());
  BatchValScratch.reserve(Entries.size());
  for (size_t I = 0; I != Entries.size(); ++I) {
    CRAFTY_TX_BOUND(Entries.size()); // Mirror of one chunk/section.
    const MirrorEntry &E = Entries[Reverse ? Entries.size() - 1 - I : I];
    BatchAddrScratch.push_back(E.Addr);
    BatchValScratch.push_back(UseNew ? E.New : E.Old);
  }
  Rt.Htm.nonTxStoreBatch(BatchAddrScratch.data(), BatchValScratch.data(),
                         BatchAddrScratch.size());
}

void CraftyThread::chunkedSectionBody(TxnBody Body) {
  // One timestamp for the whole section: recovery rolls back all or none
  // of its sequences (Section 4.4).
  SectionTs = Rt.Htm.advanceClock();
  SectionStartAbs = sharedHead();
  SectionMirror.clear();
  DynWrites = 0;
  ChunkK = Rt.Config.InitialChunkK;
  for (;;) {
    if (chunkedAttempt(Body))
      break;
    // A chunk aborted. The open chunk's writes were buffered in the
    // hardware transaction and are gone; undo the applied chunks, rewind
    // the log, halve k, and re-execute the body (Figure 4). The rollback
    // stores are flushed and drained before the head rewind: the retry
    // overwrites the aborted attempt's log entries, so the old values
    // must be back in place durably before the entries that could
    // restore them are gone.
    // Batched: one clock bump for the whole rollback instead of one per
    // word; last-submitted store wins, so reverse order leaves each word
    // at its earliest Old value.
    applyMirrorBatch(SectionMirror, /*UseNew=*/false, /*Reverse=*/true);
    flushDataLines(SectionMirror, nullptr);
    Rt.Pool.drain(ThreadId);
    Rt.Htm.nonTxStore(&HeadShared, SectionStartAbs);
    SectionMirror.clear();
    resetAttemptState();
    ChunkK = std::max(1u, ChunkK / 2);
  }
  if (!SectionMirror.empty())
    writeTagDirect(TagCommitted, SectionTs);
  Rt.Htm.nonTxStore(&LastCommittedTs, SectionTs);
  // Make later Redo-phase checks of pre-section Log phases fail: the
  // section's writes committed after them.
  Rt.Htm.nonTxStore(&Rt.GLastRedoTs, Rt.Htm.advanceClock());
  Stats.Writes += DynWrites;
  ++Stats.Sgl;
  performDeferredFrees();
}

bool CraftyThread::chunkedAttempt(TxnBody Body) {
  CurPhase = Phase::SglChunk;
  if (setjmp(Tx.jmpEnv()) != 0) {
    // A chunk hardware transaction aborted somewhere inside Body.
    CurPhase = Phase::Idle;
    return false;
  }
  Body(Ctx);
  if (Tx.inTransaction())
    closeChunk(); // Final partial chunk.
  CurPhase = Phase::Idle;
  return true;
}

void CraftyThread::chunkedStore(uint64_t *Addr, uint64_t Val) {
  ++DynWrites;
  // A section's sequences all carry one timestamp and are rolled back all
  // or none; they must therefore never wrap over their own entries.
  if (sharedHead() - SectionStartAbs + ChunkMirror.size() + 2 >=
      maxSeqEntries())
    fatalError("persistent transaction writes more words than half the "
               "configured undo log can hold; increase LogEntriesPerThread");
  if (ChunkK <= 1) {
    // k = 1 (Figure 4): plain undo logging with no hardware transaction;
    // persist the undo entry and its tag before performing the write.
    maybeMaintainLog(2);
    uint64_t Old = Rt.Htm.nonTxLoad(Addr);
    uint64_t Abs = sharedHead();
    writeEntryDirect(Abs, Addr, Old);
    Rt.Htm.nonTxStore(&HeadShared, Abs + 1);
    writeTagDirect(TagLogged, SectionTs); // Persists entry + tag (drain).
    Rt.Htm.nonTxStore(Addr, Val);
    Rt.Pool.clwb(ThreadId, Addr);
    SectionMirror.push_back(MirrorEntry{Addr, Old, Val});
    return;
  }
  if (!Tx.inTransaction()) {
    // Figure 4: the hardware transaction starts at the first persistent
    // write of the chunk.
    maybeMaintainLog(ChunkK + 2);
    Tx.begin();
    ChunkStartAbs = Tx.load(&HeadShared);
    ChunkMirror.clear();
  }
  // Coalesce repeats within the open chunk only: earlier chunks' entries
  // are already persisted and their writes applied, so a word revisited
  // across chunks needs a fresh entry (whose old value is the prior
  // chunk's result -- exactly what stepwise rollback must restore).
  uint32_t Fresh = (uint32_t)ChunkMirror.size();
  uint64_t Old = 0;
  uint32_t Idx = Tx.storeTracked(Addr, Val, Fresh, Old);
  if (Idx != Fresh) {
    ChunkMirror[Idx].New = Val;
    return;
  }
  stageUndoEntry(ChunkStartAbs + Fresh, Addr, Old);
  ChunkMirror.push_back(MirrorEntry{Addr, Old, Val});
  if (ChunkMirror.size() >= ChunkK)
    closeChunk();
}

void CraftyThread::closeChunk() {
  // Still inside the chunk's hardware transaction: roll back, tag, commit.
  for (size_t I = ChunkMirror.size(); I-- > 0;) {
    CRAFTY_TX_BOUND(ChunkMirror.size()); // <= ChunkK by construction.
    Tx.store(ChunkMirror[I].Addr, ChunkMirror[I].Old);
  }
  uint64_t TagA = ChunkStartAbs + ChunkMirror.size();
  size_t Slot = Log.slotFor(TagA);
  EncodedEntry E = encodeTagEntry(TagLogged, SectionTs, Log.passFor(TagA));
  Tx.store(Log.addrWordAt(Slot), E.AddrWord);
  Tx.store(Log.valWordAt(Slot), E.ValWord);
  Tx.store(&HeadShared, TagA + 1);
  Tx.commit(); // Aborts longjmp to chunkedAttempt's setjmp.
  noteTagWritten(TagA, SectionTs);
  // Persist the chunk's undo entries before its writes reach memory
  // (flushStagedEntries covers the predecessor boundary slot too).
  flushStagedEntries(ChunkStartAbs, TagA);
  Rt.Pool.drain(ThreadId);
  // Thread-unsafe Redo (Algorithm 2): perform the writes directly, then
  // flush their lines as one batch without drain.
  // Program order; batched so the whole chunk costs one clock bump.
  applyMirrorBatch(ChunkMirror, /*UseNew=*/true, /*Reverse=*/false);
  flushDataLines(ChunkMirror, nullptr);
  for (const MirrorEntry &M : ChunkMirror)
    SectionMirror.push_back(M);
  ChunkMirror.clear();
}

void CraftyThread::writeEntryDirect(uint64_t AbsPos, uint64_t *Addr,
                                    uint64_t Old) {
  size_t Slot = Log.slotFor(AbsPos);
  EncodedEntry E = encodeDataEntry(reinterpret_cast<uint64_t>(Addr), Old,
                                   Log.passFor(AbsPos));
  Rt.Htm.nonTxStore(Log.addrWordAt(Slot), E.AddrWord);
  Rt.Htm.nonTxStore(Log.valWordAt(Slot), E.ValWord);
  if (AbsPos > 0) { // Predecessor boundary; see flushStagedEntries.
    uint64_t *Prev = Log.addrWordAt(Log.slotFor(AbsPos - 1));
    if (lineOf(Prev) != lineOf(Log.addrWordAt(Slot)))
      Rt.Pool.clwb(ThreadId, Prev);
  }
  Rt.Pool.clwb(ThreadId, Log.addrWordAt(Slot));
}

void CraftyThread::writeTagDirect(uint64_t Tag, uint64_t Ts) {
  uint64_t Abs = sharedHead();
  size_t Slot = Log.slotFor(Abs);
  EncodedEntry E = encodeTagEntry(Tag, Ts, Log.passFor(Abs));
  Rt.Htm.nonTxStore(Log.addrWordAt(Slot), E.AddrWord);
  Rt.Htm.nonTxStore(Log.valWordAt(Slot), E.ValWord);
  Rt.Htm.nonTxStore(&HeadShared, Abs + 1);
  Rt.Pool.clwb(ThreadId, Log.addrWordAt(Slot));
  Rt.Pool.drain(ThreadId);
  noteTagWritten(Abs, Ts);
}
