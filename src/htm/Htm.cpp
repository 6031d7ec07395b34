//===- htm/Htm.cpp - Software emulation of commodity HTM ------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "htm/Htm.h"

#include "support/Spin.h"

#include <algorithm>

using namespace crafty;

const char *crafty::abortCodeName(AbortCode Code) {
  switch (Code) {
  case AbortCode::None:
    return "none";
  case AbortCode::Conflict:
    return "conflict";
  case AbortCode::Capacity:
    return "capacity";
  case AbortCode::Explicit:
    return "explicit";
  case AbortCode::Zero:
    return "zero";
  }
  CRAFTY_UNREACHABLE("bad abort code");
}

static size_t nextPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

namespace {
/// Performs committed stores and reports them to MemoryHooks::OnStoreRun,
/// one call per run of consecutive same-line stores (split at
/// StoreRunMax). flush() must run before the stores' stripes are released;
/// the non-transactional paths flush after every store.
class StoreRunWriter {
public:
  explicit StoreRunWriter(const MemoryHooks &Hooks) : Hooks(Hooks) {}

  void write(uint64_t *Addr, uint64_t Val) {
    uint64_t Old = __atomic_load_n(Addr, __ATOMIC_RELAXED);
    __atomic_store_n(Addr, Val, __ATOMIC_RELEASE);
    if (!Hooks.OnStoreRun)
      return;
    if (Len == MemoryHooks::StoreRunMax ||
        (Len != 0 && lineOf(Addr) != lineOf(Run[0].Addr)))
      flush();
    Run[Len++] = StoredWord{Addr, Old, Val};
  }

  void flush() {
    if (Len == 0)
      return;
    Hooks.OnStoreRun(Hooks.Ctx, Run, Len);
    Len = 0;
  }

private:
  MemoryHooks Hooks; // A copy: the stores cannot alias it.
  StoredWord Run[MemoryHooks::StoreRunMax];
  size_t Len = 0;
};
} // namespace

//===----------------------------------------------------------------------===//
// HtmRuntime
//===----------------------------------------------------------------------===//

HtmRuntime::HtmRuntime(HtmConfig Config) : Config(Config) {
  size_t Entries = (size_t)1 << StripeTableBits;
  TableMask = Entries - 1;
  Table = std::make_unique<std::atomic<uint64_t>[]>(Entries);
  for (size_t I = 0; I != Entries; ++I)
    Table[I].store(0, std::memory_order_relaxed);
}

void HtmRuntime::nonTxStore(uint64_t *Addr, uint64_t Val) {
  std::atomic<uint64_t> &Stripe = stripeFor(Addr);
  uint64_t OwnedTag = reinterpret_cast<uintptr_t>(this) | 1;
  SpinBackoff Backoff;
  for (;;) {
    uint64_t Cur = Stripe.load(std::memory_order_acquire);
    if ((Cur & 1) == 0 &&
        Stripe.compare_exchange_weak(Cur, OwnedTag,
                                     std::memory_order_acq_rel))
      break;
    Backoff.pause();
  }
  NonTxClockBumps.fetch_add(1, std::memory_order_relaxed);
  uint64_t Version = Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  StoreRunWriter Run(Hooks);
  Run.write(Addr, Val);
  Run.flush();
  if (CRAFTY_UNLIKELY(AHooks.OnNonTxStore != nullptr))
    AHooks.OnNonTxStore(AHooks.Ctx, Addr, Version);
  Stripe.store(Version << 1, std::memory_order_release);
}

void HtmRuntime::nonTxStoreBatch(uint64_t *const *Addrs, const uint64_t *Vals,
                                 size_t Count) {
  if (Count == 0)
    return;
  if (Count == 1) {
    nonTxStore(Addrs[0], Vals[0]);
    return;
  }
  // Per-thread scratch: the runtime is shared, the batch path is not
  // reentrant within a thread.
  static thread_local std::vector<std::atomic<uint64_t> *> Stripes;
  Stripes.clear();
  Stripes.reserve(Count);
  for (size_t I = 0; I != Count; ++I)
    Stripes.push_back(&stripeFor(Addrs[I]));
  std::sort(Stripes.begin(), Stripes.end());
  Stripes.erase(std::unique(Stripes.begin(), Stripes.end()), Stripes.end());

  // Lock every distinct stripe (sorted order: deadlock-free against
  // committers and other batches). These stores must happen, so spin out
  // conflicts rather than failing.
  uint64_t OwnedTag = reinterpret_cast<uintptr_t>(this) | 1;
  for (std::atomic<uint64_t> *Stripe : Stripes) {
    SpinBackoff Backoff;
    for (;;) {
      uint64_t Cur = Stripe->load(std::memory_order_acquire);
      if ((Cur & 1) == 0 &&
          Stripe->compare_exchange_weak(Cur, OwnedTag,
                                        std::memory_order_acq_rel))
        break;
      Backoff.pause();
    }
  }

  NonTxClockBumps.fetch_add(1, std::memory_order_relaxed);
  uint64_t Version = Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  StoreRunWriter Run(Hooks);
  for (size_t I = 0; I != Count; ++I) {
    CRAFTY_TX_BOUND(Count); // Caller-sized batch; not inside an HTM tx.
    // One-word runs: unlike a commit's write-back, these are ordinary
    // stores, and a line may be evicted between any two of them.
    Run.write(Addrs[I], Vals[I]);
    Run.flush();
    if (CRAFTY_UNLIKELY(AHooks.OnNonTxStore != nullptr))
      AHooks.OnNonTxStore(AHooks.Ctx, Addrs[I], Version);
  }
  uint64_t NewStripeVersion = Version << 1;
  for (std::atomic<uint64_t> *Stripe : Stripes)
    Stripe->store(NewStripeVersion, std::memory_order_release);
}

bool HtmRuntime::nonTxCas(uint64_t *Addr, uint64_t Expected,
                          uint64_t Desired) {
  std::atomic<uint64_t> &Stripe = stripeFor(Addr);
  uint64_t OwnedTag = reinterpret_cast<uintptr_t>(this) | 1;
  SpinBackoff Backoff;
  uint64_t PreLock;
  for (;;) {
    uint64_t Cur = Stripe.load(std::memory_order_acquire);
    if ((Cur & 1) == 0) {
      PreLock = Cur;
      if (Stripe.compare_exchange_weak(Cur, OwnedTag,
                                       std::memory_order_acq_rel))
        break;
    }
    Backoff.pause();
  }
  uint64_t Cur = __atomic_load_n(Addr, __ATOMIC_ACQUIRE);
  if (Cur != Expected) {
    Stripe.store(PreLock, std::memory_order_release);
    if (CRAFTY_UNLIKELY(AHooks.OnNonTxLoad != nullptr))
      AHooks.OnNonTxLoad(AHooks.Ctx, Addr);
    return false;
  }
  NonTxClockBumps.fetch_add(1, std::memory_order_relaxed);
  uint64_t Version = Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  StoreRunWriter Run(Hooks);
  Run.write(Addr, Desired);
  Run.flush();
  if (CRAFTY_UNLIKELY(AHooks.OnNonTxStore != nullptr))
    AHooks.OnNonTxStore(AHooks.Ctx, Addr, Version);
  Stripe.store(Version << 1, std::memory_order_release);
  return true;
}

//===----------------------------------------------------------------------===//
// HtmTx
//===----------------------------------------------------------------------===//

HtmTx::HtmTx(HtmRuntime &Runtime, uint32_t ThreadId, uint64_t RngSeed)
    : Runtime(Runtime), ThreadId(ThreadId),
      SpuriousRng(RngSeed * 0x9e3779b97f4a7c15ull + ThreadId + 1) {
  size_t LineSlots =
      std::max<size_t>(64, nextPow2(Runtime.config().MaxWriteSetLines * 2));
  WriteLines.resize(LineSlots);
  WriteLinesMask = LineSlots - 1;
}

HtmTx::~HtmTx() = default;

void HtmTx::begin() {
  assert(!Active && "nested hardware transactions are not supported");
  Active = true;
  SnapshotVersion = Runtime.Clock.load(std::memory_order_acquire);
  Writes.clear();
  WriteIndex.reset();
  WriteFilter = 0;
  StreamWrites.clear();
  LastWrittenLine = ~(uintptr_t)0;
  ++LineEpoch;
  WriteLineCount = 0;
  ReadOrder.clear();
  ReadIndex.reset();
  LockedStripes.clear();
  PreLockVersions.clear();
  const AccessHooks &AHooks = Runtime.accessHooks();
  if (CRAFTY_UNLIKELY(AHooks.OnTxBegin != nullptr))
    AHooks.OnTxBegin(AHooks.Ctx, ThreadId, SnapshotVersion);
}

void HtmTx::abortExplicit(uint32_t UserCode) {
  abortTx(AbortCode::Explicit, UserCode);
}

void HtmTx::abortTx(AbortCode Code, uint32_t UserCode) {
  assert(Active && "abort outside a transaction");
  // Release any commit-time locks, restoring pre-lock versions (no
  // write-back has happened).
  for (size_t I = 0, E = LockedStripes.size(); I != E; ++I)
    LockedStripes[I]->store(PreLockVersions[I], std::memory_order_release);
  LockedStripes.clear();
  PreLockVersions.clear();
  Active = false;
  LastAbort = Code;
  LastUserCode = UserCode;
  switch (Code) {
  case AbortCode::Conflict:
    ++Stats.AbortConflict;
    break;
  case AbortCode::Capacity:
    ++Stats.AbortCapacity;
    break;
  case AbortCode::Explicit:
    ++Stats.AbortExplicit;
    break;
  case AbortCode::Zero:
    ++Stats.AbortZero;
    break;
  case AbortCode::None:
    CRAFTY_UNREACHABLE("abort with no cause");
  }
  const AccessHooks &AHooks = Runtime.accessHooks();
  if (CRAFTY_UNLIKELY(AHooks.OnTxAbort != nullptr))
    AHooks.OnTxAbort(AHooks.Ctx, ThreadId);
  longjmp(Env, 1);
}

bool HtmTx::tryExtendSnapshot() {
  // TinySTM-style timestamp extension: sample the clock first, then
  // verify every read stripe is exactly as first read (same version,
  // unlocked). The read set was then stable through the validation, so
  // the reads are consistent at the sample and the snapshot may advance
  // to it. Stamped stripe versions never exceed the clock, so a
  // successful extension always covers the version that triggered it.
  uint64_t NewSnap = Runtime.Clock.load(std::memory_order_acquire);
  if (NewSnap == SnapshotVersion)
    return false;
  Stats.ValidatedReadSlots += ReadOrder.size();
  for (const ReadEntry &R : ReadOrder)
    if (R.Stripe->load(std::memory_order_acquire) != R.Version)
      return false;
  SnapshotVersion = NewSnap;
  ++Stats.SnapshotExtensions;
  return true;
}

uint64_t HtmTx::loadStripeSlow(std::atomic<uint64_t> &Stripe) {
  for (;;) {
    uint64_t V = Stripe.load(std::memory_order_acquire);
    if (CRAFTY_LIKELY((V & 1) == 0 && (V >> 1) <= SnapshotVersion))
      return V;
    // A locked stripe is a committer mid-write-back: no consistent
    // version to extend to. Otherwise the stripe outran our snapshot;
    // try to catch the snapshot up instead of aborting. The loop
    // terminates: each pass either returns, aborts, or strictly raises
    // the snapshot.
    if ((V & 1) || !tryExtendSnapshot())
      abortTx(AbortCode::Conflict);
  }
}

uint64_t HtmTx::preLockVersionOf(std::atomic<uint64_t> *Stripe) {
  auto It =
      std::lower_bound(LockedStripes.begin(), LockedStripes.end(), Stripe);
  assert(It != LockedStripes.end() && *It == Stripe &&
         "owned tag without a lock record");
  return PreLockVersions[It - LockedStripes.begin()];
}

bool HtmTx::validateReadSet(uint64_t OwnedTag) {
  // The read set is a dense vector of the stripes actually read, so
  // validation costs one entry per distinct stripe, whatever the
  // MaxReadSetLines capacity.
  Stats.ValidatedReadSlots += ReadOrder.size();
  for (const ReadEntry &R : ReadOrder) {
    uint64_t Cur = R.Stripe->load(std::memory_order_acquire);
    if (Cur == OwnedTag) {
      // We hold this stripe's lock; judge by its pre-lock version.
      Cur = preLockVersionOf(R.Stripe);
    }
    if (Cur & 1)
      return false; // Locked by a concurrent committer.
    if ((Cur >> 1) > SnapshotVersion)
      return false; // Overwritten since our snapshot.
  }
  return true;
}

uint64_t HtmTx::commit() {
  assert(Active && "commit outside a transaction");
  maybeInjectSpuriousAbort();
  const MemoryHooks &Hooks = Runtime.memoryHooks();
  const AccessHooks &AHooks = Runtime.accessHooks();
  if (writeSetWords() == 0) {
    // Read-only: reads were validated at access time against the
    // snapshot (sample-and-validate); the global clock is not bumped.
    Active = false;
    ++Stats.Commits;
    if (Hooks.OnCommitFence)
      Hooks.OnCommitFence(Hooks.Ctx, ThreadId);
    if (CRAFTY_UNLIKELY(AHooks.OnTxCommit != nullptr))
      AHooks.OnTxCommit(AHooks.Ctx, ThreadId, SnapshotVersion,
                        /*HadWrites=*/false);
    return SnapshotVersion;
  }

  // Gather and lock the distinct write stripes. Consecutive writes
  // usually land on the same stripe (adjacent words of an undo-log
  // entry, fields of one object), so drop consecutive duplicates before
  // deduplicating fully.
  std::atomic<uint64_t> *PrevStripe = nullptr;
  for (const WriteEntry &W : Writes) {
    std::atomic<uint64_t> *Stripe = &Runtime.stripeFor(W.Addr);
    if (Stripe != PrevStripe)
      LockedStripes.push_back(Stripe);
    PrevStripe = Stripe;
  }
  for (const auto &[Addr, Val] : StreamWrites) {
    std::atomic<uint64_t> *Stripe = &Runtime.stripeFor(Addr);
    if (Stripe != PrevStripe)
      LockedStripes.push_back(Stripe);
    PrevStripe = Stripe;
  }
  // Address order: deadlock-free between committers (STO_SORT_WRITESET),
  // and the sorted array doubles as preLockVersionOf's search index.
  std::sort(LockedStripes.begin(), LockedStripes.end());
  LockedStripes.erase(std::unique(LockedStripes.begin(), LockedStripes.end()),
                      LockedStripes.end());

  uint64_t OwnedTag = reinterpret_cast<uintptr_t>(this) | 1;
  // Spins on a locked stripe before declaring a conflict.
  constexpr unsigned CommitLockSpinLimit = 64;
  size_t NumLocked = 0;
  for (std::atomic<uint64_t> *Stripe : LockedStripes) {
    unsigned Spins = 0;
    for (;;) {
      uint64_t Cur = Stripe->load(std::memory_order_acquire);
      if ((Cur & 1) == 0) {
        if (Stripe->compare_exchange_weak(Cur, OwnedTag,
                                          std::memory_order_acq_rel)) {
          PreLockVersions.push_back(Cur);
          break;
        }
        continue;
      }
      if (++Spins > CommitLockSpinLimit) {
        LockedStripes.resize(NumLocked);
        abortTx(AbortCode::Conflict);
      }
      std::this_thread::yield();
    }
    ++NumLocked;
  }

  uint64_t CommitVersion =
      Runtime.Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  ++Stats.ClockBumps;
  // CommitVersion == SnapshotVersion + 1 proves no writing commit
  // serialized since the snapshot (which access-time checks -- and any
  // timestamp extension -- already validated against), so the read-set
  // walk is skipped. Extension raises the snapshot toward the clock, so
  // under contention more commits hit this fast path, not fewer.
  if (CommitVersion != SnapshotVersion + 1 && !validateReadSet(OwnedTag))
    abortTx(AbortCode::Conflict);

  // SFENCE semantics of an RTM commit: the committing thread's pending
  // cache-line write-backs complete before its stores become visible.
  if (Hooks.OnCommitFence)
    Hooks.OnCommitFence(Hooks.Ctx, ThreadId);

  StoreRunWriter Run(Hooks);
  for (const WriteEntry &W : Writes)
    Run.write(W.Addr, W.IsCommitVersion ? (CommitVersion << W.Shift) | W.OrMask
                                        : W.Val);
  for (const auto &[Addr, Val] : StreamWrites)
    Run.write(Addr, Val);
  Run.flush();

  // Observer notification precedes the stripe release: any conflicting
  // access serializes after this commit only once the stripes are free, so
  // the observer sees hook events in serialization order (AccessHooks).
  if (CRAFTY_UNLIKELY(AHooks.OnTxCommit != nullptr))
    AHooks.OnTxCommit(AHooks.Ctx, ThreadId, CommitVersion,
                      /*HadWrites=*/true);

  uint64_t NewStripeVersion = CommitVersion << 1;
  for (std::atomic<uint64_t> *Stripe : LockedStripes)
    Stripe->store(NewStripeVersion, std::memory_order_release);
  LockedStripes.clear();
  PreLockVersions.clear();
  Active = false;
  ++Stats.Commits;
  uint64_t Words = writeSetWords();
  Stats.WriteWordsTotal += Words;
  Stats.MaxWriteWordsPerTxn = std::max(Stats.MaxWriteWordsPerTxn, Words);
  return CommitVersion;
}
