//===- htm/Htm.h - Software emulation of commodity HTM ---------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A software emulation of commodity hardware transactional memory (Intel
/// RTM), used as the substrate for every persistent-transaction system in
/// this repository (Crafty and the NV-HTM / DudeTM / Non-durable baselines).
///
/// The reproduction host has no TSX, so we provide the four HTM properties
/// the paper's algorithms rely on with a TL2-style engine:
///
///  1. Committed transactions are atomic and isolated (opacity: per-read
///     version checks plus commit-time read-set validation).
///  2. Transactional writes are buffered and invisible to memory and other
///     threads until commit -- the property nondestructive undo logging
///     exploits to keep rolled-back writes out of persistent memory.
///  3. An abort discards all buffered writes.
///  4. Transactions abort for the same causes commodity HTM aborts:
///     conflicts, read/write-set capacity overflow, explicit XABORT, and
///     spurious ("zero") events, which can be injected for testing.
///
/// Conflict detection is cache-line granular by default (configurable for
/// the granularity ablation). Commit timestamps come from the global
/// version clock and are totally ordered consistently with transaction
/// serialization; they replace the paper's RDTSC-based Lamport timestamps
/// (see DESIGN.md Section 2). A transaction may request that its commit
/// version be stored to chosen words atomically with its write-back
/// (storeCommitVersion), which implements the paper's "getTimestamp()
/// inside the transaction" idiom exactly.
///
/// Commit has drain (SFENCE) semantics like an RTM commit: a registered
/// commit-fence hook runs before the write-back, which the persistent
/// memory simulator uses to complete the committing thread's pending cache
/// line write-backs -- the ordering lever the paper's flush-without-drain
/// optimization depends on.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_HTM_HTM_H
#define CRAFTY_HTM_HTM_H

#include "support/Annotations.h"
#include "support/CacheLine.h"
#include "support/Compiler.h"
#include "support/Rng.h"
#include "support/Spin.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <csetjmp>
#include <cstdint>
#include <memory>
#include <vector>

namespace crafty {

/// Why a hardware transaction aborted; matches the categories the paper's
/// appendix reports (Commit / Conflict / Capacity / Explicit / Zero).
enum class AbortCode : uint8_t {
  None = 0,
  /// Another transaction or a non-transactional store touched an accessed
  /// cache line.
  Conflict,
  /// The transaction accessed more cache lines than the emulated hardware
  /// can track.
  Capacity,
  /// The program requested an abort (XABORT), e.g. a failed Redo/Validate
  /// check or an SGL observed held.
  Explicit,
  /// A spurious event (interrupt, page fault); injected probabilistically.
  Zero,
};

/// Returns a short human-readable name for \p Code.
const char *abortCodeName(AbortCode Code);

/// Configuration of the emulated hardware.
struct HtmConfig {
  /// Maximum distinct cache lines a transaction may write (Skylake L1 can
  /// hold 512 lines; exceeding this raises a Capacity abort).
  size_t MaxWriteSetLines = 512;
  /// Maximum distinct cache lines a transaction may read.
  size_t MaxReadSetLines = 8192;
  /// Conflict-detection granularity as a byte shift; 6 = 64-byte lines,
  /// 3 = word granularity (used by the granularity ablation).
  unsigned ConflictGranularityShift = CacheLineShift;
  /// Probability of a spurious ("zero") abort per transactional operation,
  /// expressed per million operations. 0 disables injection.
  uint32_t SpuriousAbortPerMillion = 0;
};

/// Per-transaction-context statistics (cumulative across transactions).
struct HtmStats {
  uint64_t Commits = 0;
  uint64_t AbortConflict = 0;
  uint64_t AbortCapacity = 0;
  uint64_t AbortExplicit = 0;
  uint64_t AbortZero = 0;
  /// Read-set entries examined by commit-time validation and snapshot
  /// extension (one per distinct stripe read, per validation): the read
  /// set is a dense vector, so this grows with reads performed, never
  /// with the MaxReadSetLines capacity.
  uint64_t ValidatedReadSlots = 0;
  /// Distinct words written by committed transactions, total and the
  /// single-transaction maximum -- the dynamic counterpart of crafty-lint's
  /// static tx-capacity bound (both count 8-byte words).
  uint64_t WriteWordsTotal = 0;
  uint64_t MaxWriteWordsPerTxn = 0;
  /// Successful snapshot extensions: reads that would have been
  /// stale-snapshot Conflict aborts but revalidated and continued.
  uint64_t SnapshotExtensions = 0;
  /// Global-version-clock advances performed by this context's commits.
  /// Read-only commits never bump (sample-and-validate); together with
  /// HtmRuntime::nonTxClockBumps this gives the clock-bumps-per-commit
  /// ratio the contention work tracks.
  uint64_t ClockBumps = 0;

  uint64_t aborts() const {
    return AbortConflict + AbortCapacity + AbortExplicit + AbortZero;
  }
  uint64_t started() const { return Commits + aborts(); }

  HtmStats &operator+=(const HtmStats &O) {
    Commits += O.Commits;
    AbortConflict += O.AbortConflict;
    AbortCapacity += O.AbortCapacity;
    AbortExplicit += O.AbortExplicit;
    AbortZero += O.AbortZero;
    ValidatedReadSlots += O.ValidatedReadSlots;
    WriteWordsTotal += O.WriteWordsTotal;
    MaxWriteWordsPerTxn = std::max(MaxWriteWordsPerTxn, O.MaxWriteWordsPerTxn);
    SnapshotExtensions += O.SnapshotExtensions;
    ClockBumps += O.ClockBumps;
    return *this;
  }
};

/// One committed store: the word's address, its content immediately
/// before the store and the value stored.
struct StoredWord {
  uint64_t *Addr;
  uint64_t OldVal;
  uint64_t NewVal;
};

/// Hooks that let the persistent-memory simulator observe committed stores
/// (to track dirty lines) and commit fences (SFENCE semantics of an RTM
/// commit, which complete the thread's pending CLWBs).
struct MemoryHooks {
  void *Ctx = nullptr;
  /// Called (with the stores' stripes still locked) once per run of
  /// consecutive stores to one cache line made by a committing
  /// transaction's write-back: \p Words[0 .. \p N) in store order,
  /// 1 <= N <= StoreRunMax. A longer same-line run arrives as several
  /// calls. A commit publishes its stores together, so the receiver may
  /// treat a run as one event. Non-transactional stores (nonTxStore,
  /// nonTxCas, each store of a nonTxStoreBatch) are ordinary stores that a
  /// line can be evicted between, so each arrives as a run of one. Every
  /// stored word appears, value-preserving ones included (the Log phase's
  /// rollback writes restore exactly the value already in memory), so the
  /// receiver can update per-line state once per run and still tell
  /// changing stores from no-op ones.
  void (*OnStoreRun)(void *Ctx, const StoredWord *Words, size_t N) = nullptr;
  /// Called once per successful commit, before the transaction's write-back
  /// becomes visible. \p ThreadId identifies the committing context.
  void (*OnCommitFence)(void *Ctx, uint32_t ThreadId) = nullptr;

  /// The words in a line. A commit's run of distinct words never exceeds
  /// it; the writer still splits a run that would.
  static constexpr size_t StoreRunMax = CacheLineBytes / 8;
};

/// Hooks that let a dynamic race/isolation checker (check/TxRaceCheck.h)
/// observe every memory access the runtime mediates: transactional loads
/// and stores, transaction begin/commit/abort with their clock versions,
/// and the strong-isolation non-transactional operations. All hooks are
/// optional; unset entries cost one predicted-not-taken branch per event.
///
/// Ordering guarantees the observer may rely on:
///  - OnTxLoad/OnTxStore fire at access time, while the transaction is
///    still speculative; an observer must treat them as provisional until
///    the matching OnTxCommit (OnTxAbort discards them). A load served
///    from the transaction's own write buffer fires no hook (it touches
///    no shared memory).
///  - OnTxCommit and OnNonTxStore fire *before* the involved stripes are
///    released, so for any two conflicting operations the hook order
///    matches the serialization order.
///  - A successful nonTxCas reports through OnNonTxStore; a failed one
///    through OnNonTxLoad (it observed the word and changed nothing).
struct AccessHooks {
  void *Ctx = nullptr;
  /// A transaction began with the given snapshot version.
  void (*OnTxBegin)(void *Ctx, uint32_t ThreadId, uint64_t Snapshot) = nullptr;
  /// Speculative transactional load of \p Addr from shared memory.
  void (*OnTxLoad)(void *Ctx, uint32_t ThreadId, const void *Addr) = nullptr;
  /// Speculative transactional store to \p Addr (buffered until commit).
  void (*OnTxStore)(void *Ctx, uint32_t ThreadId, void *Addr) = nullptr;
  /// The transaction committed at \p Version (the snapshot version for
  /// read-only commits, which publish nothing: HadWrites is false).
  void (*OnTxCommit)(void *Ctx, uint32_t ThreadId, uint64_t Version,
                     bool HadWrites) = nullptr;
  /// The transaction aborted; its speculative accesses never happened.
  void (*OnTxAbort)(void *Ctx, uint32_t ThreadId) = nullptr;
  /// Strong-isolation non-transactional load of \p Addr.
  void (*OnNonTxLoad)(void *Ctx, const void *Addr) = nullptr;
  /// Strong-isolation non-transactional store; \p Version is the global
  /// clock value the store's stripe was stamped with.
  void (*OnNonTxStore)(void *Ctx, void *Addr, uint64_t Version) = nullptr;
};

class HtmTx;

/// Shared state of the emulated HTM: the global version clock and the
/// striped versioned-lock table.
class HtmRuntime {
public:
  explicit HtmRuntime(HtmConfig Config = HtmConfig());
  HtmRuntime(const HtmRuntime &) = delete;
  HtmRuntime &operator=(const HtmRuntime &) = delete;

  const HtmConfig &config() const { return Config; }

  /// Installs the persistent-memory observation hooks. Must be called
  /// before any transaction runs.
  void setMemoryHooks(const MemoryHooks &Hooks) { this->Hooks = Hooks; }
  const MemoryHooks &memoryHooks() const { return Hooks; }

  /// Installs (or, with a default-constructed value, removes) the
  /// access-observer hooks. Not thread-safe: install before transactions
  /// run, remove after they quiesce.
  void setAccessHooks(const AccessHooks &Hooks) { AHooks = Hooks; }
  const AccessHooks &accessHooks() const { return AHooks; }

  /// Current value of the global version clock. Commit timestamps are
  /// values of this clock; a later-serialized writing transaction always
  /// has a larger timestamp.
  uint64_t globalClock() const {
    return Clock.load(std::memory_order_acquire);
  }

  /// Advances the global version clock and returns the new value: a fresh
  /// timestamp ordered after every committed transaction and before every
  /// later one. Used by the SGL path, which commits outside hardware
  /// transactions.
  uint64_t advanceClock() {
    NonTxClockBumps.fetch_add(1, std::memory_order_relaxed);
    return Clock.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Clock advances performed outside transactional commits (nonTxStore,
  /// nonTxCas, nonTxStoreBatch, advanceClock) since construction. The
  /// transactional-commit bumps are in each context's HtmStats::ClockBumps.
  uint64_t nonTxClockBumps() const {
    return NonTxClockBumps.load(std::memory_order_relaxed);
  }

  /// Stores \p Val to \p Addr outside any transaction while keeping
  /// concurrent transactions consistent: the word's stripe version is
  /// advanced so conflicting transactional readers abort or fail
  /// validation. This emulates HTM's strong isolation for the SGL path,
  /// recovery, and initialization done while transactions may run.
  CRAFTY_TX_SAFE void nonTxStore(uint64_t *Addr, uint64_t Val);

  /// Atomic compare-and-swap with the same strong-isolation guarantee as
  /// nonTxStore. Returns true if the swap happened.
  CRAFTY_TX_SAFE bool nonTxCas(uint64_t *Addr, uint64_t Expected,
                               uint64_t Desired);

  /// Stores \p Count (Addrs[i], Vals[i]) pairs with nonTxStore's strong
  /// isolation as one batch: every distinct stripe is locked (in sorted
  /// order, deadlock-free against committers), the clock advances *once*,
  /// all words are stored in array order (a repeated address keeps the
  /// last value), and the stripes are stamped with the single version.
  /// One clock bump and one lock pass per batch instead of per word --
  /// the contention fix for the chunked/SGL write-back, which previously
  /// hammered the shared clock line once per persistent word.
  CRAFTY_TX_SAFE void nonTxStoreBatch(uint64_t *const *Addrs,
                                      const uint64_t *Vals, size_t Count);

  /// Non-transactional load with strong-isolation semantics: waits out a
  /// concurrent committer's write-back of the word's stripe and re-checks
  /// the version, so the caller can never observe the middle of a commit.
  /// Real HTM commits are atomic at an instant; the emulation's commit
  /// has a validate/write-back window, and the SGL path reads directly,
  /// so its loads must serialize against in-flight write-backs (a plain
  /// load could read a pre-commit value whose transaction then finishes
  /// write-back, losing the SGL section's update).
  CRAFTY_TX_SAFE uint64_t nonTxLoad(const uint64_t *Addr) {
    std::atomic<uint64_t> &Stripe = stripeFor(Addr);
    uint64_t Val;
    SpinBackoff Backoff;
    for (;;) {
      uint64_t V1 = Stripe.load(std::memory_order_acquire);
      if (V1 & 1) {
        // A committer owns the stripe; wait out its write-back. Back off
        // (pause, then yield) rather than re-load hot: on an oversubscribed
        // host a bare spin burns the waiter's whole quantum while the
        // committer is descheduled.
        Backoff.pause();
        continue;
      }
      Val = __atomic_load_n(Addr, __ATOMIC_ACQUIRE);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (Stripe.load(std::memory_order_acquire) == V1)
        break;
      Backoff.pause();
    }
    if (CRAFTY_UNLIKELY(AHooks.OnNonTxLoad != nullptr))
      AHooks.OnNonTxLoad(AHooks.Ctx, Addr);
    return Val;
  }

  /// Plain atomic load with no consistency guarantee: only for spin-wait
  /// monitoring where a stale value merely retries the loop.
  CRAFTY_TX_SAFE static uint64_t plainLoad(const uint64_t *Addr) {
    return __atomic_load_n(Addr, __ATOMIC_ACQUIRE);
  }

  /// log2 of the stripe count.
  static constexpr unsigned StripeTableBits = 20;

  /// Index of the conflict-detection stripe covering \p Addr: the line
  /// number, rotated by a Fibonacci hash of its table-sized window.
  size_t stripeIndex(const void *Addr) const {
    uintptr_t Key =
        reinterpret_cast<uintptr_t>(Addr) >> Config.ConflictGranularityShift;
    uint64_t Rotation = ((uint64_t)(Key >> StripeTableBits) *
                         0x9e3779b97f4a7c15ull) >>
                        (64 - StripeTableBits);
    return (Key + Rotation) & TableMask;
  }

private:
  friend class HtmTx;

  /// A stripe is either a version (LSB 0; version = clock value << 1) or a
  /// lock owned by a committing transaction (LSB 1; owner = ptr | 1).
  /// Line-indexed, not hashed: consecutive lines of a window get
  /// consecutive stripes (eight to a table cache line, so a transaction's
  /// neighbouring lines share cache misses), and no two lines of one
  /// aligned 2^20-line window (64 MiB at line granularity) alias. Each
  /// window is rotated by its own offset, and any two windows less than
  /// 2^18 windows apart by different ones, so lines a whole number of
  /// windows apart -- same-offset objects of equal power-of-two arenas --
  /// never alias (DESIGN.md Section 7.4).
  std::atomic<uint64_t> &stripeFor(const void *Addr) {
    return Table[stripeIndex(Addr)];
  }

  HtmConfig Config;
  MemoryHooks Hooks;
  AccessHooks AHooks;
  size_t TableMask;
  std::unique_ptr<std::atomic<uint64_t>[]> Table;
  /// The two hottest shared words, each alone on its cache line (the
  /// trailing padding keeps whatever the allocator places next off the
  /// clock's line): every writing commit CASes the clock, and sharing its
  /// line with anything else turns unrelated writes into clock-line
  /// invalidations on every core.
  alignas(CacheLineBytes) std::atomic<uint64_t> Clock{0};
  alignas(CacheLineBytes) std::atomic<uint64_t> NonTxClockBumps{0};
  char ClockPad[CacheLineBytes - sizeof(std::atomic<uint64_t>)];
};

/// Outcome of runHtmTx.
struct TxResult {
  bool Committed = false;
  /// Commit version (the transaction's timestamp) for writing commits;
  /// the snapshot version for read-only commits.
  uint64_t CommitVersion = 0;
  AbortCode Code = AbortCode::None;
  /// User payload of an Explicit abort.
  uint32_t UserCode = 0;
};

/// A per-thread transaction context. Not thread-safe; each thread owns one.
///
/// Usage (or use the runHtmTx helper below):
/// \code
///   if (setjmp(Tx.jmpEnv()) != 0) { /* aborted: Tx.abortCode() */ }
///   else { Tx.begin(); ... Tx.load/store ...; uint64_t V = Tx.commit(); }
/// \endcode
class HtmTx {
public:
  HtmTx(HtmRuntime &Runtime, uint32_t ThreadId, uint64_t RngSeed = 1);
  ~HtmTx();
  HtmTx(const HtmTx &) = delete;
  HtmTx &operator=(const HtmTx &) = delete;

  HtmRuntime &runtime() { return Runtime; }
  uint32_t threadId() const { return ThreadId; }

  /// The jump environment an abort unwinds to. Callers must setjmp on it
  /// immediately before begin(). Aborts longjmp with value 1.
  jmp_buf &jmpEnv() { return Env; }

  /// Starts a transaction: captures the snapshot version and resets the
  /// read/write sets.
  CRAFTY_TX_SAFE void begin();

  /// True between begin() and commit()/abort.
  bool inTransaction() const { return Active; }

  /// Transactional load of an 8-byte word. Returns the transaction's own
  /// buffered value if the word was written. Aborts (longjmp) on conflict,
  /// capacity overflow, or injected spurious events.
  CRAFTY_TX_SAFE uint64_t load(const uint64_t *Addr);

  /// Transactional store of an 8-byte word; buffered until commit.
  CRAFTY_TX_SAFE CRAFTY_TX_STORE_API void store(uint64_t *Addr, uint64_t Val);

  /// Transactional store that tells a word's first store in this
  /// transaction from a repeat with one write-buffer lookup. A repeat
  /// updates the buffered value and returns the tag the word's first
  /// store gave it (\p Old is left alone). A first store sets \p Old to
  /// the word's committed value -- read exactly as load() reads it, with
  /// the same conflict checks, snapshot extension and hooks -- buffers
  /// \p Val tagged \p Tag and returns \p Tag; callers therefore pass a
  /// tag no buffered word carries. The tag stays retrievable through
  /// writtenWordTag() until commit or abort, and a later untagged store()
  /// to the word preserves it. Undo logging uses this to stage one entry
  /// per distinct word and to map a repeat back to that entry. Spurious
  /// aborts are drawn as for the store() (repeat) or the load() and
  /// store() (first store) it replaces.
  CRAFTY_TX_SAFE CRAFTY_TX_STORE_API uint32_t storeTracked(uint64_t *Addr,
                                                           uint64_t Val,
                                                           uint32_t Tag,
                                                           uint64_t &Old);

  /// If the current transaction has a buffered write of \p Addr (via
  /// store, storeTracked, or storeCommitVersion), returns a pointer to the
  /// word's caller tag (~0u for a word no storeTracked call tagged);
  /// otherwise null. The pointer is valid until the next store into the
  /// buffer. storeStream words are never found (they are not
  /// read-your-write).
  CRAFTY_TX_SAFE uint32_t *writtenWordTag(uint64_t *Addr) {
    uint64_t Hash = addrHash(Addr);
    if (CRAFTY_LIKELY((WriteFilter & filterBit(Hash)) == 0))
      return nullptr;
    WriteEntry *W = findWrite(Addr, Hash);
    return W ? &W->UserTag : nullptr;
  }

  /// Streaming transactional store for write-once words that the
  /// transaction never loads back (undo-log staging): buffered in an
  /// append-only list with no read-your-write support, which keeps the
  /// emulation's cost for these plain-on-real-HTM stores low. Conflict
  /// detection, capacity accounting, atomicity and abort semantics are
  /// identical to store(). Storing the same word again within the
  /// transaction (via either API) is unsupported.
  CRAFTY_TX_SAFE CRAFTY_TX_STORE_API void storeStream(uint64_t *Addr,
                                                      uint64_t Val);

  /// Like store, except the value written at commit is derived from the
  /// transaction's commit version V as (V << Shift) | OrMask. Reading the
  /// word back inside the same transaction returns 0 (the version is
  /// unknown until commit). This implements the paper's "write
  /// getTimestamp() inside the hardware transaction" uses (LOGGED /
  /// COMMITTED timestamps and gLastRedoTS) with timestamps that are
  /// exactly serialization-consistent; Shift/OrMask support the undo log's
  /// stolen-bit timestamp encoding.
  CRAFTY_TX_SAFE CRAFTY_TX_STORE_API void
  storeCommitVersion(uint64_t *Addr, unsigned Shift = 0, uint64_t OrMask = 0);

  /// Explicit abort (XABORT) carrying \p UserCode; does not return.
  CRAFTY_TX_SAFE [[noreturn]] void abortExplicit(uint32_t UserCode);

  /// Attempts to commit. On success returns the commit version (writing
  /// transactions) or the snapshot version (read-only transactions). On
  /// validation/lock failure, aborts via longjmp. Commit has SFENCE
  /// semantics (the registered commit-fence hook completes this thread's
  /// pending CLWBs), so it counts as a drain point.
  CRAFTY_TX_SAFE CRAFTY_DRAIN_API uint64_t commit();

  /// Abort cause of the most recent abort.
  AbortCode abortCode() const { return LastAbort; }
  uint32_t abortUserCode() const { return LastUserCode; }

  /// Cumulative statistics for this context.
  const HtmStats &stats() const { return Stats; }
  void resetStats() { Stats = HtmStats(); }

  /// Number of distinct words written by the current transaction.
  size_t writeSetWords() const {
    return Writes.size() + StreamWrites.size();
  }

private:
  /// A buffered write: a plain value, or (IsCommitVersion) the commit
  /// version encoded as (V << Shift) | OrMask at write-back.
  struct WriteEntry {
    uint64_t *Addr;
    uint64_t Val;
    uint64_t OrMask;
    uint32_t UserTag;
    uint8_t Shift;
    bool IsCommitVersion;
  };
  /// A read stripe and the version the transaction first observed.
  struct ReadEntry {
    std::atomic<uint64_t> *Stripe;
    uint64_t Version;
  };
  struct LineSlot {
    uintptr_t Line = 0;
    uint64_t Epoch = 0;
  };

  /// Open-addressed index over one of the dense entry vectors below. A
  /// slot is {epoch, entry number} and is live iff its epoch is current,
  /// so reset() empties the index in O(1); epochs are 64-bit and never
  /// wrap. The active mask doubles whenever the index passes half full
  /// and never shrinks, so the index is sized by the largest transaction
  /// the context has run, not by the capacity limit.
  class EntryIndex {
  public:
    struct Slot {
      uint64_t Epoch = 0;
      uint32_t Entry = 0;
    };

    EntryIndex() : Slots(InitialSlots), Mask(InitialSlots - 1) {}

    void reset() { ++Epoch; }
    bool live(const Slot &S) const { return S.Epoch == Epoch; }

    /// The live slot whose entry satisfies \p IsKey, or else the empty
    /// slot where that key belongs.
    template <typename IsKeyFn> Slot &probe(uint64_t Hash, IsKeyFn IsKey) {
      for (size_t Idx = Hash >> Shift;; Idx = (Idx + 1) & Mask) {
        Slot &S = Slots[Idx];
        if (S.Epoch != Epoch || IsKey(S.Entry))
          return S;
      }
    }

    /// Points the empty slot \p S (from probe) at entry \p Entry, the
    /// newest of Entry + 1 live entries. Past half full, doubles the mask
    /// and re-inserts every live entry (hashed by \p HashOf) under a
    /// fresh epoch.
    template <typename HashOfFn>
    void claim(Slot &S, uint32_t Entry, HashOfFn HashOf) {
      S.Epoch = Epoch;
      S.Entry = Entry;
      size_t Live = (size_t)Entry + 1;
      if (CRAFTY_UNLIKELY(Live * 2 > Mask + 1))
        grow(Live, HashOf);
    }

  private:
    static constexpr unsigned InitialBits = 6;
    static constexpr size_t InitialSlots = size_t(1) << InitialBits;

    template <typename HashOfFn>
    CRAFTY_NOINLINE void grow(size_t Live, HashOfFn HashOf) {
      Mask = Mask * 2 + 1;
      --Shift;
      if (Slots.size() <= Mask)
        Slots.resize(Mask + 1);
      ++Epoch;
      for (uint32_t I = 0; I != Live; ++I) {
        size_t Idx = HashOf(I) >> Shift;
        while (Slots[Idx].Epoch == Epoch)
          Idx = (Idx + 1) & Mask;
        Slots[Idx] = Slot{Epoch, I};
      }
    }

    std::vector<Slot> Slots;
    size_t Mask;
    /// A slot index is the hash's top bits: strided addresses (one word
    /// per line, say) spread evenly there, but cluster in middle bits.
    unsigned Shift = 64 - InitialBits;
    uint64_t Epoch = 1;
  };

  /// Fibonacci hash shared by the indexes and the write filter.
  static uint64_t addrHash(const void *Addr) {
    return (uint64_t)reinterpret_cast<uintptr_t>(Addr) *
           0x9e3779b97f4a7c15ull;
  }
  /// The write-filter bit for a hashed address (top 6 hash bits).
  static uint64_t filterBit(uint64_t Hash) { return 1ull << (Hash >> 58); }

  [[noreturn]] void abortTx(AbortCode Code, uint32_t UserCode = 0);
  void maybeInjectSpuriousAbort();
  EntryIndex::Slot &probeWrite(const uint64_t *Addr, uint64_t Hash) {
    return WriteIndex.probe(
        Hash, [&](uint32_t E) { return Writes[E].Addr == Addr; });
  }
  WriteEntry *findWrite(const uint64_t *Addr, uint64_t Hash) {
    EntryIndex::Slot &S = probeWrite(Addr, Hash);
    return WriteIndex.live(S) ? &Writes[S.Entry] : nullptr;
  }
  /// Buffers a new write of \p Addr in the empty slot \p S (from
  /// probeWrite); aborts on word-capacity overflow.
  WriteEntry &insertWrite(EntryIndex::Slot &S, uint64_t *Addr, uint64_t Hash,
                          uint32_t Tag);
  /// The buffered write of \p Addr, inserted untagged if absent.
  WriteEntry &writeFor(uint64_t *Addr) {
    uint64_t Hash = addrHash(Addr);
    EntryIndex::Slot &S = probeWrite(Addr, Hash);
    return WriteIndex.live(S) ? Writes[S.Entry]
                              : insertWrite(S, Addr, Hash, ~0u);
  }
  /// load() from shared memory: stripe check, read-set record, hook.
  uint64_t loadShared(const uint64_t *Addr);
  void noteWrittenLine(const void *Addr);
  void notifyStore(uint64_t *Addr);
  void recordRead(std::atomic<uint64_t> *Stripe, uint64_t Version);
  bool validateReadSet(uint64_t OwnedTag);
  /// Pre-lock version of a stripe this commit owns (binary search of the
  /// sorted LockedStripes).
  uint64_t preLockVersionOf(std::atomic<uint64_t> *Stripe);
  /// Cold path of load(): the stripe is locked or newer than the
  /// snapshot. Attempts timestamp extension; returns a consistent stripe
  /// version to proceed with or aborts.
  CRAFTY_TX_SAFE uint64_t loadStripeSlow(std::atomic<uint64_t> &Stripe);
  /// Re-samples the clock and revalidates the read set against the
  /// recorded per-stripe versions; on success the snapshot advances to
  /// the sample (TL2/TinySTM timestamp extension).
  CRAFTY_TX_SAFE bool tryExtendSnapshot();

  HtmRuntime &Runtime;
  uint32_t ThreadId;
  bool Active = false;
  uint64_t SnapshotVersion = 0;
  AbortCode LastAbort = AbortCode::None;
  uint32_t LastUserCode = 0;
  HtmStats Stats;
  Rng SpuriousRng;

  // The write and read sets are dense vectors in insertion order (what
  // commit, validation and extension walk), each behind an EntryIndex
  // (what lookups probe), so their cost follows the transaction's
  // footprint.
  //
  // Buffered writes (store, storeTracked, storeCommitVersion), written
  // back in insertion order.
  std::vector<WriteEntry> Writes;
  EntryIndex WriteIndex;
  // 64-bit summary of buffered-write addresses (bit filterBit(addrHash)).
  // Zero means no buffered writes; a clear bit proves the address was not
  // written by store/storeTracked/storeCommitVersion, so load skips the
  // write-index probe. No false negatives: every buffered write sets its
  // bit. storeStream words are deliberately absent -- reading them back
  // is unsupported, so loads need not find them.
  uint64_t WriteFilter = 0;
  // Append-only streaming writes (storeStream), written back after the
  // buffered writes.
  std::vector<std::pair<uint64_t *, uint64_t>> StreamWrites;
  // One-entry cache for written-line capacity accounting.
  uintptr_t LastWrittenLine = ~(uintptr_t)0;
  // Distinct written lines (capacity accounting): open-addressed,
  // epoch-validated, 2 x MaxWriteSetLines slots (16 KiB by default).
  std::vector<LineSlot> WriteLines;
  size_t WriteLinesMask;
  size_t WriteLineCount = 0;
  uint64_t LineEpoch = 0;
  // Read set: one entry per distinct stripe read.
  std::vector<ReadEntry> ReadOrder;
  EntryIndex ReadIndex;
  // Commit-time scratch: locked stripes and their pre-lock versions.
  std::vector<std::atomic<uint64_t> *> LockedStripes;
  std::vector<uint64_t> PreLockVersions;

  jmp_buf Env;
};

//===----------------------------------------------------------------------===//
// HtmTx per-access fast paths
//
// Every transactional system in the tree funnels each load and store
// through these, so they are defined inline. The cold control paths
// (begin, commit, abort) live in Htm.cpp.
//===----------------------------------------------------------------------===//

inline void HtmTx::maybeInjectSpuriousAbort() {
  uint32_t P = Runtime.config().SpuriousAbortPerMillion;
  if (CRAFTY_LIKELY(P == 0))
    return;
  if (SpuriousRng.chance(P, 1000000))
    abortTx(AbortCode::Zero);
}

inline HtmTx::WriteEntry &HtmTx::insertWrite(EntryIndex::Slot &S,
                                             uint64_t *Addr, uint64_t Hash,
                                             uint32_t Tag) {
  if (writeSetWords() >=
      Runtime.config().MaxWriteSetLines * (CacheLineBytes / 8))
    abortTx(AbortCode::Capacity);
  WriteFilter |= filterBit(Hash);
  Writes.push_back(WriteEntry{Addr, 0, 0, Tag, 0, false});
  WriteIndex.claim(S, (uint32_t)(Writes.size() - 1),
                   [this](uint32_t E) { return addrHash(Writes[E].Addr); });
  return Writes.back();
}

inline void HtmTx::noteWrittenLine(const void *Addr) {
  uintptr_t Line = lineOf(Addr);
  if (Line == LastWrittenLine)
    return;
  LastWrittenLine = Line;
  uint64_t H = (uint64_t)Line * 0x9e3779b97f4a7c15ull;
  size_t Idx = (H >> 32) & WriteLinesMask;
  for (;;) {
    LineSlot &Slot = WriteLines[Idx];
    if (Slot.Epoch == LineEpoch) {
      if (Slot.Line == Line)
        return;
      Idx = (Idx + 1) & WriteLinesMask;
      continue;
    }
    if (WriteLineCount >= Runtime.config().MaxWriteSetLines)
      abortTx(AbortCode::Capacity);
    Slot.Line = Line;
    Slot.Epoch = LineEpoch;
    ++WriteLineCount;
    return;
  }
}

inline void HtmTx::notifyStore(uint64_t *Addr) {
  const AccessHooks &AHooks = Runtime.accessHooks();
  if (CRAFTY_UNLIKELY(AHooks.OnTxStore != nullptr))
    AHooks.OnTxStore(AHooks.Ctx, ThreadId, Addr);
}

inline void HtmTx::recordRead(std::atomic<uint64_t> *Stripe,
                              uint64_t Version) {
  EntryIndex::Slot &S = ReadIndex.probe(addrHash(Stripe), [&](uint32_t E) {
    return ReadOrder[E].Stripe == Stripe;
  });
  if (ReadIndex.live(S))
    return; // Re-read of a known stripe; the first version suffices.
  if (ReadOrder.size() >= Runtime.config().MaxReadSetLines)
    abortTx(AbortCode::Capacity);
  ReadOrder.push_back(ReadEntry{Stripe, Version});
  ReadIndex.claim(S, (uint32_t)(ReadOrder.size() - 1),
                  [this](uint32_t E) { return addrHash(ReadOrder[E].Stripe); });
}

inline uint64_t HtmTx::loadShared(const uint64_t *Addr) {
  std::atomic<uint64_t> &Stripe = Runtime.stripeFor(Addr);
  uint64_t V1 = Stripe.load(std::memory_order_acquire);
  if (CRAFTY_UNLIKELY((V1 & 1) || (V1 >> 1) > SnapshotVersion))
    V1 = loadStripeSlow(Stripe); // Timestamp extension, or abort.
  uint64_t Val = __atomic_load_n(Addr, __ATOMIC_ACQUIRE);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint64_t V2 = Stripe.load(std::memory_order_acquire);
  if (CRAFTY_UNLIKELY(V1 != V2))
    abortTx(AbortCode::Conflict);
  recordRead(&Stripe, V1);
  const AccessHooks &AHooks = Runtime.accessHooks();
  if (CRAFTY_UNLIKELY(AHooks.OnTxLoad != nullptr))
    AHooks.OnTxLoad(AHooks.Ctx, ThreadId, Addr);
  return Val;
}

inline uint64_t HtmTx::load(const uint64_t *Addr) {
  assert(Active && "transactional load outside a transaction");
  maybeInjectSpuriousAbort();
  uint64_t Hash = addrHash(Addr);
  if (CRAFTY_UNLIKELY((WriteFilter & filterBit(Hash)) != 0)) {
    if (const WriteEntry *W = findWrite(Addr, Hash)) {
      // A commit-version word's value is unknown until commit; the paper's
      // algorithms never read those words back within the same transaction.
      return W->IsCommitVersion ? 0 : W->Val;
    }
  }
  return loadShared(Addr);
}

inline void HtmTx::store(uint64_t *Addr, uint64_t Val) {
  assert(Active && "transactional store outside a transaction");
  maybeInjectSpuriousAbort();
  WriteEntry &W = writeFor(Addr);
  W.Val = Val;
  W.IsCommitVersion = false;
  noteWrittenLine(Addr);
  notifyStore(Addr);
}

inline uint32_t HtmTx::storeTracked(uint64_t *Addr, uint64_t Val,
                                    uint32_t Tag, uint64_t &Old) {
  assert(Active && "transactional store outside a transaction");
  maybeInjectSpuriousAbort();
  uint64_t Hash = addrHash(Addr);
  EntryIndex::Slot &S = probeWrite(Addr, Hash);
  if (WriteIndex.live(S)) {
    // Repeat: the word's line was counted by its first store.
    WriteEntry &W = Writes[S.Entry];
    W.Val = Val;
    W.IsCommitVersion = false;
    notifyStore(Addr);
    return W.UserTag;
  }
  // First store: the load, then the store, each with its spurious draw.
  // The load touches only the read set, so S is still Addr's empty slot.
  Old = loadShared(Addr);
  maybeInjectSpuriousAbort();
  insertWrite(S, Addr, Hash, Tag).Val = Val;
  noteWrittenLine(Addr);
  notifyStore(Addr);
  return Tag;
}

inline void HtmTx::storeStream(uint64_t *Addr, uint64_t Val) {
  assert(Active && "transactional store outside a transaction");
  if (writeSetWords() >=
      Runtime.config().MaxWriteSetLines * (CacheLineBytes / 8))
    abortTx(AbortCode::Capacity);
  StreamWrites.emplace_back(Addr, Val);
  noteWrittenLine(Addr);
  notifyStore(Addr);
}

inline void HtmTx::storeCommitVersion(uint64_t *Addr, unsigned Shift,
                                      uint64_t OrMask) {
  assert(Active && "transactional store outside a transaction");
  WriteEntry &W = writeFor(Addr);
  W.IsCommitVersion = true;
  W.Shift = (uint8_t)Shift;
  W.OrMask = OrMask;
  noteWrittenLine(Addr);
  notifyStore(Addr);
}

/// Runs \p Body in a hardware transaction on \p Tx, converting the
/// longjmp-based abort path into a TxResult. \p Body receives the HtmTx.
///
/// \warning An abort unwinds via longjmp: \p Body must not rely on
/// destructors of local objects created inside the transaction.
template <typename Fn> TxResult runHtmTx(HtmTx &Tx, Fn &&Body) {
  if (setjmp(Tx.jmpEnv()) != 0)
    return TxResult{false, 0, Tx.abortCode(), Tx.abortUserCode()};
  Tx.begin();
  Body(Tx);
  uint64_t Version = Tx.commit();
  return TxResult{true, Version, AbortCode::None, 0};
}

} // namespace crafty

#endif // CRAFTY_HTM_HTM_H
