//===- pmem/PMemPool.cpp - Persistent-memory simulator --------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmem/PMemPool.h"

#include "support/Clock.h"
#include "support/Compiler.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace crafty;

static size_t roundUp(size_t N, size_t Align) {
  return (N + Align - 1) & ~(Align - 1);
}

PMemPool::PMemPool(PMemConfig Config) : Config(Config) {
  Bytes = roundUp(Config.PoolBytes, CacheLineBytes);
  NumLines = Bytes / CacheLineBytes;
  void *Mem = nullptr;
  if (posix_memalign(&Mem, CacheLineBytes, Bytes) != 0)
    fatalError("PMemPool: out of memory");
  Base = static_cast<uint8_t *>(Mem);
  std::memset(Base, 0, Bytes);
  if (Config.Mode == PMemMode::Tracked) {
    if (!Config.BackingPath.empty()) {
      // File-backed image: attach when the file already exists with the
      // right geometry, create-and-zero otherwise.
      BackingFd = ::open(Config.BackingPath.c_str(), O_RDWR | O_CREAT |
                         O_CLOEXEC, 0644);
      if (BackingFd < 0)
        fatalError("PMemPool: cannot open the image backing file");
      struct stat St;
      if (fstat(BackingFd, &St) != 0)
        fatalError("PMemPool: cannot stat the image backing file");
      if (St.st_size == 0) {
        if (ftruncate(BackingFd, (off_t)Bytes) != 0)
          fatalError("PMemPool: cannot size the image backing file");
      } else if ((size_t)St.st_size == Bytes) {
        AttachedFromImage = true;
      } else {
        fatalError("PMemPool: image backing file size does not match the "
                   "pool geometry");
      }
      void *Map = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                       BackingFd, 0);
      if (Map == MAP_FAILED)
        fatalError("PMemPool: cannot map the image backing file");
      Image = static_cast<uint8_t *>(Map);
      if (AttachedFromImage) {
        // The volatile view a restarted machine sees is exactly the
        // persisted image: every unflushed line died with the old cache.
        std::memcpy(Base, Image, Bytes);
      }
    } else {
      HeapImage = std::make_unique<uint8_t[]>(Bytes);
      Image = HeapImage.get();
      std::memset(Image, 0, Bytes);
    }
    Dirty = std::make_unique<std::atomic<uint8_t>[]>(NumLines);
    for (size_t I = 0; I != NumLines; ++I)
      Dirty[I].store(0, std::memory_order_relaxed);
    DirtySummaryWords = (NumLines + 63) / 64;
    DirtySummary = std::make_unique<std::atomic<uint64_t>[]>(DirtySummaryWords);
    for (size_t I = 0; I != DirtySummaryWords; ++I)
      DirtySummary[I].store(0, std::memory_order_relaxed);
  } else if (!Config.BackingPath.empty()) {
    fatalError("PMemPool: BackingPath requires Tracked mode");
  }
  if (Config.Mode == PMemMode::Tracked)
    LineGen = std::make_unique<std::atomic<uint32_t>[]>(NumLines);
  Threads = std::make_unique<ThreadSlot[]>(Config.MaxThreads);
  for (unsigned I = 0; I != Config.MaxThreads; ++I) {
    ThreadSlot &Slot = Threads[I];
    Slot.lock(); // No concurrency yet; taken for the analysis' benefit.
    Slot.EvictRng.reseed(Config.EvictionSeed * 1315423911u + I);
    Slot.PendingLines.reserve(256);
    Slot.Filter = std::make_unique<FilterEntry[]>(FlushFilterSize);
    Slot.unlock();
  }
}

void PMemPool::setObserver(PMemObserver *Obs) {
  if (Obs && !LineGen)
    LineGen = std::make_unique<std::atomic<uint32_t>[]>(NumLines);
  Observer = Obs;
}

PMemObserver::~PMemObserver() = default;

PMemPool::~PMemPool() {
  if (Image && !HeapImage)
    munmap(Image, Bytes);
  if (BackingFd >= 0)
    ::close(BackingFd);
  std::free(Base);
}

void *PMemPool::carve(size_t CarveBytes, size_t Align) {
  assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
  size_t Cur = CarveOffset.load(std::memory_order_relaxed);
  for (;;) {
    size_t Aligned = roundUp(Cur, Align);
    size_t Next = Aligned + CarveBytes;
    if (Next > Bytes)
      fatalError("PMemPool: carve exhausted the pool");
    if (CarveOffset.compare_exchange_weak(Cur, Next,
                                          std::memory_order_relaxed))
      return Base + Aligned;
  }
}

bool PMemPool::armLineLocked(ThreadSlot &Slot, uint32_t ThreadId,
                             const void *Addr) {
  uint32_t Line = (uint32_t)lineIndex(Addr);
  uint32_t Gen =
      LineGen ? LineGen[Line].load(std::memory_order_relaxed) : 0;
  FilterEntry &E = Slot.Filter[Line & (FlushFilterSize - 1)];
  // Coalesce: the line is already in flight this epoch and nothing stored
  // to it since (generation unchanged), so the pending write-back already
  // covers its content.
  if (E.Epoch == Slot.Epoch && E.Line == Line && E.Gen == Gen)
    return false;
  E.Epoch = Slot.Epoch;
  E.Line = Line;
  E.Gen = Gen;
  LineSchedCount.fetch_add(1, std::memory_order_relaxed);
  if (Config.Mode == PMemMode::Tracked) {
    if (Config.EagerWriteback)
      copyLineToImage(Line);
    else
      Slot.PendingLines.push_back(Line);
  }
  Slot.HasPending = true;
  // Notified under the slot lock so the observer sees clwb/drain events
  // for one thread slot in their true order. Coalesced repeats are not
  // reported: with an observer installed the generation check guarantees
  // a suppressed CLWB is indistinguishable from the armed one it joins.
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onClwb(ThreadId, Addr);
  return true;
}

void PMemPool::clwb(uint32_t ThreadId, const void *Addr) {
  assert(contains(Addr) && "clwb outside the pool");
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  ClwbCount.fetch_add(1, std::memory_order_relaxed);
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  // The write-back completes asynchronously after the NVM round trip.
  if (armLineLocked(Slot, ThreadId, Addr) && Config.DrainLatencyNs)
    Slot.PendingDeadline = monotonicNanos() + Config.DrainLatencyNs;
  Slot.unlock();
}

void PMemPool::clwbRange(uint32_t ThreadId, const void *Addr, size_t Len) {
  if (Len == 0)
    return;
  assert(contains(Addr) && "clwbRange outside the pool");
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  uintptr_t First = lineOf(Addr);
  uintptr_t Last =
      lineOf(reinterpret_cast<const uint8_t *>(Addr) + Len - 1);
  assert(contains(reinterpret_cast<const void *>(Last)) &&
         "clwbRange end outside the pool");
  ClwbCount.fetch_add((Last - First) / CacheLineBytes + 1,
                      std::memory_order_relaxed);
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  bool Armed = false;
  for (uintptr_t Line = First; Line <= Last; Line += CacheLineBytes)
    Armed |=
        armLineLocked(Slot, ThreadId, reinterpret_cast<const void *>(Line));
  // One issue timestamp for the whole batch: the lines are in flight
  // together, so the batch shares a single NVM round-trip deadline.
  if (Armed && Config.DrainLatencyNs)
    Slot.PendingDeadline = monotonicNanos() + Config.DrainLatencyNs;
  Slot.unlock();
}

void PMemPool::clwbLines(uint32_t ThreadId, const void *const *Addrs,
                         size_t N) {
  if (N == 0)
    return;
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  ClwbCount.fetch_add(N, std::memory_order_relaxed);
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  bool Armed = false;
  for (size_t I = 0; I != N; ++I) {
    assert(contains(Addrs[I]) && "clwbLines address outside the pool");
    Armed |= armLineLocked(Slot, ThreadId, Addrs[I]);
  }
  if (Armed && Config.DrainLatencyNs)
    Slot.PendingDeadline = monotonicNanos() + Config.DrainLatencyNs;
  Slot.unlock();
}

void PMemPool::drain(uint32_t ThreadId) {
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  DrainCount.fetch_add(1, std::memory_order_relaxed);
  if (!Slot.HasPending) {
    // Free on hardware too: SFENCE with no CLWBs in flight. No epoch bump
    // needed -- arming is what sets HasPending, so an empty queue implies
    // no live filter entries in the current epoch.
    EmptyDrainCount.fetch_add(1, std::memory_order_relaxed);
    Slot.unlock();
    return;
  }
  if (Config.Mode == PMemMode::Tracked) {
    // Under EagerWriteback the lines were copied at CLWB issue time and
    // PendingLines stayed empty; the drain then only pays the fence.
    for (uint32_t Line : Slot.PendingLines)
      copyLineToImage(Line);
    Slot.PendingLines.clear();
  }
  uint64_t Deadline = Slot.PendingDeadline;
  Slot.HasPending = false;
  // New flush epoch: every pending-line filter entry is invalidated in
  // O(1), so the next CLWB of any line re-arms a fresh write-back.
  ++Slot.Epoch;
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onDrain(ThreadId, /*Remote=*/false);
  Slot.unlock();
  // SFENCE semantics: wait only for write-backs still in flight; CLWBs
  // issued long enough ago have already completed.
  if (Config.DrainLatencyNs) {
    uint64_t Now = monotonicNanos();
    if (Now < Deadline)
      spinForNanos(Deadline - Now);
  }
}

void PMemPool::drainRemote(uint32_t ThreadId) {
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  if (Config.Mode == PMemMode::Tracked) {
    for (uint32_t Line : Slot.PendingLines)
      copyLineToImage(Line);
    Slot.PendingLines.clear();
  }
  Slot.HasPending = false;
  ++Slot.Epoch; // Invalidate the owner's coalescing filter.
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onDrain(ThreadId, /*Remote=*/true);
  Slot.unlock();
}

void PMemPool::copyLineToImage(size_t Line) {
  // Clear the dirty flag before copying: a racing store re-marks the line.
  Dirty[Line].store(0, std::memory_order_relaxed);
  auto *Src = reinterpret_cast<const uint64_t *>(Base + Line * CacheLineBytes);
  auto *Dst = reinterpret_cast<uint64_t *>(Image + Line * CacheLineBytes);
  // Word-granular copies: NVM guarantees persistence at word granularity
  // (paper Section 5.2), so a line may land torn at word boundaries --
  // exactly the states recovery must tolerate.
  for (size_t W = 0; W != CacheLineBytes / 8; ++W) {
    uint64_t V = __atomic_load_n(Src + W, __ATOMIC_RELAXED);
    __atomic_store_n(Dst + W, V, __ATOMIC_RELAXED);
  }
}

namespace {
/// Per-thread eviction RNG: deterministic given thread creation order.
thread_local Rng *EvictionRngPtr = nullptr;
thread_local Rng EvictionRngStorage;
} // namespace

static std::atomic<uint64_t> EvictionThreadCounter{0};

void PMemPool::onCommittedStore(void *Addr) {
  if (CRAFTY_LIKELY(Observer == nullptr) && Config.Mode != PMemMode::Tracked)
    return;
  if (!contains(Addr))
    return;
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onStore(Addr, 0, 0, /*ValuesKnown=*/false);
  lineStored(lineIndex(Addr), 1, /*Changed=*/true);
}

void PMemPool::onCommittedStore(void *Addr, uint64_t OldVal,
                                uint64_t NewVal) {
  StoredWord W{static_cast<uint64_t *>(Addr), OldVal, NewVal};
  onCommittedRun(&W, 1);
}

void PMemPool::onCommittedRun(const StoredWord *Words, size_t N) {
  if (CRAFTY_LIKELY(Observer == nullptr) && Config.Mode != PMemMode::Tracked)
    return;
  // The pool is line-aligned, so one word decides for the whole line.
  if (!contains(Words[0].Addr))
    return;
  // An observer judges no-op stores itself (PersistCheck records those to
  // log slots), so with one installed every run re-dirties its line: a
  // CLWB coalesced after a store it counted would otherwise vanish.
  bool Changed = Observer != nullptr;
  for (size_t I = 0; I != N; ++I) {
    const StoredWord &W = Words[I];
    if (CRAFTY_UNLIKELY(Observer != nullptr))
      Observer->onStore(W.Addr, W.OldVal, W.NewVal, /*ValuesKnown=*/true);
    Changed |= W.OldVal != W.NewVal;
  }
  lineStored(lineIndex(Words[0].Addr), N, Changed);
}

void PMemPool::lineStored(size_t Line, size_t Words, bool Changed) {
  if (Changed) {
    // Bump the line's store generation first: any CLWB already armed for
    // this line no longer covers its content, so the coalescing filter
    // must let the next flush of it through.
    if (LineGen)
      LineGen[Line].fetch_add(1, std::memory_order_relaxed);
    if (Config.Mode != PMemMode::Tracked)
      return;
    Dirty[Line].store(1, std::memory_order_relaxed);
    // Publish to the coarse summary only when the bit is not already set:
    // the common case (a hot line re-dirtied within one barrier window) is
    // then a single relaxed load with no write traffic.
    std::atomic<uint64_t> &Word = DirtySummary[Line >> 6];
    uint64_t Bit = 1ull << (Line & 63);
    if (!(Word.load(std::memory_order_relaxed) & Bit))
      Word.fetch_or(Bit, std::memory_order_relaxed);
  }
  if (Config.Mode != PMemMode::Tracked || Config.EvictionPerMillion == 0)
    return;
  if (!EvictionRngPtr) {
    EvictionRngStorage.reseed(
        Config.EvictionSeed +
        EvictionThreadCounter.fetch_add(1, std::memory_order_relaxed) * 7919);
    EvictionRngPtr = &EvictionRngStorage;
  }
  // One draw per stored word, changed or not, so EvictionPerMillion keeps
  // its per-word meaning; a hit writes the line back as the run left it.
  bool Evict = false;
  for (size_t I = 0; I != Words; ++I)
    Evict |= EvictionRngPtr->chance(Config.EvictionPerMillion, 1000000);
  if (Evict) {
    copyLineToImage(Line);
    EvictCount.fetch_add(1, std::memory_order_relaxed);
    if (CRAFTY_UNLIKELY(Observer != nullptr))
      Observer->onEvict(Base + Line * CacheLineBytes);
  }
}

void PMemPool::persistImageWord(uint32_t ThreadId, uint64_t *Addr,
                                uint64_t Val) {
  PMemWordWrite W{Addr, Val};
  persistImageWords(ThreadId, &W, 1);
}

void PMemPool::persistImageWords(uint32_t ThreadId,
                                 const PMemWordWrite *Writes, size_t N) {
  if (N == 0)
    return;
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  ClwbCount.fetch_add(N, std::memory_order_relaxed);
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  // Image-only word persists never touch the CLWB coalescing filter: a
  // suppressed entry there would drop a volatile->image copy outright.
  // Consecutive same-line words still count as one scheduled write-back
  // (the checkpointer applies its log in address-sorted runs).
  size_t PrevLine = SIZE_MAX;
  uint64_t Scheduled = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t *Addr = Writes[I].Addr;
    assert(contains(Addr) && "persistImageWord outside the pool");
    assert(isWordAligned(Addr) && "persistImageWord needs an aligned word");
    if (Config.Mode == PMemMode::Tracked) {
      size_t Off = reinterpret_cast<uint8_t *>(Addr) - Base;
      auto *Dst = reinterpret_cast<uint64_t *>(Image + Off);
      __atomic_store_n(Dst, Writes[I].Val, __ATOMIC_RELAXED);
    }
    size_t Line = lineIndex(Addr);
    if (Line != PrevLine) {
      ++Scheduled;
      PrevLine = Line;
    }
    if (CRAFTY_UNLIKELY(Observer != nullptr))
      Observer->onPersistImageWord(ThreadId, Addr, Writes[I].Val);
  }
  LineSchedCount.fetch_add(Scheduled, std::memory_order_relaxed);
  Slot.HasPending = true;
  if (Config.DrainLatencyNs)
    Slot.PendingDeadline = monotonicNanos() + Config.DrainLatencyNs;
  Slot.unlock();
}

void PMemPool::persistDirect(void *Addr, const void *Src, size_t Len) {
  assert(contains(Addr) && "persistDirect outside the pool");
  std::memcpy(Addr, Src, Len);
  if (Config.Mode == PMemMode::Tracked) {
    size_t Off = reinterpret_cast<uint8_t *>(Addr) - Base;
    std::memcpy(Image + Off, Src, Len);
  }
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onPersistDirect(Addr, Len);
}

void PMemPool::evictRandomLines(size_t MaxLines) {
  if (Config.Mode != PMemMode::Tracked)
    return;
  if (!EvictionRngPtr) {
    EvictionRngStorage.reseed(
        Config.EvictionSeed +
        EvictionThreadCounter.fetch_add(1, std::memory_order_relaxed) * 7919);
    EvictionRngPtr = &EvictionRngStorage;
  }
  for (size_t I = 0; I != MaxLines; ++I) {
    size_t Line = EvictionRngPtr->nextBounded(NumLines);
    if (Dirty[Line].load(std::memory_order_relaxed)) {
      copyLineToImage(Line);
      EvictCount.fetch_add(1, std::memory_order_relaxed);
      if (CRAFTY_UNLIKELY(Observer != nullptr))
        Observer->onEvict(Base + Line * CacheLineBytes);
    }
  }
}

void PMemPool::flushEverything() {
  flushEverythingNoWait();
  spinForNanos(Config.DrainLatencyNs);
}

void PMemPool::flushEverythingDeferred(uint32_t ThreadId) {
  assert(ThreadId < Config.MaxThreads && "thread id out of range");
  flushEverythingNoWait();
  if (!Config.DrainLatencyNs)
    return;
  // Arm the caller's drain deadline in place of the inline wait. Any
  // existing deadline was set earlier, so "now + latency" never shortens
  // the wait already owed.
  ThreadSlot &Slot = Threads[ThreadId];
  Slot.lock();
  Slot.HasPending = true;
  Slot.PendingDeadline = monotonicNanos() + Config.DrainLatencyNs;
  Slot.unlock();
}

void PMemPool::flushEverythingNoWait() {
  if (Config.Mode == PMemMode::Tracked) {
    // Scan the coarse summary, not every line: a persist barrier right
    // after another one (or over a lightly-written pool) touches only the
    // words that saw stores. A store racing with the exchange re-sets its
    // bit and is picked up by the next barrier -- same ordering contract
    // as the per-line scan (concurrent stores are unordered vs the
    // barrier either way).
    for (size_t W = 0; W != DirtySummaryWords; ++W) {
      if (!DirtySummary[W].load(std::memory_order_relaxed))
        continue;
      uint64_t Bits = DirtySummary[W].exchange(0, std::memory_order_relaxed);
      while (Bits) {
        size_t Line = W * 64 + (size_t)__builtin_ctzll(Bits);
        Bits &= Bits - 1;
        if (Dirty[Line].load(std::memory_order_relaxed)) {
          copyLineToImage(Line);
          EvictCount.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  DrainCount.fetch_add(1, std::memory_order_relaxed);
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onFlushEverything();
}

void PMemPool::crash() {
  if (Config.Mode != PMemMode::Tracked)
    fatalError("PMemPool::crash requires Tracked mode");
  // Callers must have quiesced all threads (a real crash stops the world).
  std::memcpy(Base, Image, Bytes);
  for (size_t I = 0; I != NumLines; ++I)
    Dirty[I].store(0, std::memory_order_relaxed);
  for (size_t I = 0; I != DirtySummaryWords; ++I)
    DirtySummary[I].store(0, std::memory_order_relaxed);
  for (unsigned I = 0; I != Config.MaxThreads; ++I) {
    ThreadSlot &Slot = Threads[I];
    Slot.lock();
    Slot.PendingLines.clear();
    Slot.HasPending = false;
    ++Slot.Epoch; // Discarded CLWBs must not coalesce post-crash repeats.
    Slot.unlock();
  }
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onCrash();
}

std::vector<uint8_t> PMemPool::imageSnapshot() const {
  if (Config.Mode != PMemMode::Tracked)
    fatalError("PMemPool::imageSnapshot requires Tracked mode");
  return std::vector<uint8_t>(Image, Image + Bytes);
}

bool PMemPool::isLineDirty(const void *Addr) const {
  if (Config.Mode != PMemMode::Tracked)
    return false;
  return Dirty[lineIndex(Addr)].load(std::memory_order_relaxed) != 0;
}

PMemStats PMemPool::stats() const {
  PMemStats S;
  S.ClwbCalls = ClwbCount.load(std::memory_order_relaxed);
  S.LinesScheduled = LineSchedCount.load(std::memory_order_relaxed);
  S.Drains = DrainCount.load(std::memory_order_relaxed);
  S.EmptyDrains = EmptyDrainCount.load(std::memory_order_relaxed);
  S.EvictedLines = EvictCount.load(std::memory_order_relaxed);
  return S;
}

void PMemPool::reset() {
  std::memset(Base, 0, Bytes);
  CarveOffset.store(0, std::memory_order_relaxed);
  if (Config.Mode == PMemMode::Tracked) {
    std::memset(Image, 0, Bytes);
    for (size_t I = 0; I != NumLines; ++I)
      Dirty[I].store(0, std::memory_order_relaxed);
    for (size_t I = 0; I != DirtySummaryWords; ++I)
      DirtySummary[I].store(0, std::memory_order_relaxed);
  }
  if (LineGen)
    for (size_t I = 0; I != NumLines; ++I)
      LineGen[I].store(0, std::memory_order_relaxed);
  for (unsigned I = 0; I != Config.MaxThreads; ++I) {
    ThreadSlot &Slot = Threads[I];
    Slot.lock();
    Slot.PendingLines.clear();
    Slot.HasPending = false;
    ++Slot.Epoch; // Invalidate filter entries from before the reset.
    Slot.unlock();
  }
  ClwbCount.store(0, std::memory_order_relaxed);
  LineSchedCount.store(0, std::memory_order_relaxed);
  DrainCount.store(0, std::memory_order_relaxed);
  EmptyDrainCount.store(0, std::memory_order_relaxed);
  EvictCount.store(0, std::memory_order_relaxed);
  if (CRAFTY_UNLIKELY(Observer != nullptr))
    Observer->onReset();
}

static void hookOnStoreRun(void *Ctx, const StoredWord *Words, size_t N) {
  static_cast<PMemPool *>(Ctx)->onCommittedRun(Words, N);
}

static void hookOnCommitFence(void *Ctx, uint32_t ThreadId) {
  static_cast<PMemPool *>(Ctx)->drain(ThreadId);
}

MemoryHooks PMemPool::htmHooks() {
  MemoryHooks Hooks;
  Hooks.Ctx = this;
  Hooks.OnStoreRun = hookOnStoreRun;
  Hooks.OnCommitFence = hookOnCommitFence;
  return Hooks;
}
