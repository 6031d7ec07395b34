//===- core/CraftyConfig.h - Crafty runtime configuration ------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the Crafty runtime: execution mode (paper Section 4),
/// the evaluated variants (Section 7.1), fallback thresholds, and the
/// Section 5.2 log-maintenance parameters.
///
/// Contention handling is one fixed policy, not a set of options:
/// read-only commits never bump the global clock, stale reads try
/// snapshot extension, commits lock stripes in sorted order, the write
/// set is always hashed, and retries use support/Spin.h's fixed
/// ExpBackoff and SGL-wait bounds (DESIGN.md 7.3 records the rejected
/// alternatives and why).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_CORE_CRAFTYCONFIG_H
#define CRAFTY_CORE_CRAFTYCONFIG_H

#include <cstddef>
#include <cstdint>

namespace crafty {

/// Crafty execution mode (paper Figures 3 and 4).
enum class CraftyMode : uint8_t {
  /// Crafty provides both thread atomicity and durability (full ACID).
  ThreadSafe,
  /// The program provides atomicity (e.g. locks); Crafty provides only
  /// durability, using the chunked Log/Redo flow of Figure 4.
  ThreadUnsafe,
};

struct CraftyConfig {
  CraftyMode Mode = CraftyMode::ThreadSafe;

  /// Crafty-NoRedo: skip the Redo phase, committing via Validate.
  bool DisableRedo = false;
  /// Crafty-NoValidate: skip the Validate phase; a failed Redo check
  /// restarts the whole transaction.
  bool DisableValidate = false;

  /// Worker threads (contexts are created eagerly).
  unsigned NumThreads = 1;

  /// Entries per per-thread circular undo log (power of two). Must hold at
  /// least two maximal sequences: the largest transaction may write at
  /// most LogEntriesPerThread / 2 - 2 words.
  size_t LogEntriesPerThread = 1 << 14;

  /// Per-thread allocator arena carved from the pool; 0 disables
  /// TxnContext::alloc support.
  size_t ArenaBytesPerThread = 0;

  /// Aborts (across Log/Redo/Validate) before falling back to the SGL.
  unsigned SglAttemptThreshold = 10;

  /// Initial persistent writes per hardware transaction in the chunked
  /// (thread-unsafe / SGL) mode; halved after each abort (Section 4.4).
  unsigned InitialChunkK = 64;

  /// Section 5.2: maximum logical-time distance recovery may need to roll
  /// back. The paper defines MAX_LAG in time units; commit timestamps here
  /// are global-version-clock values, so the lag is a commit-count bound.
  uint64_t MaxLag = 1ull << 32;

  /// Collect per-phase wall-clock times into PtmStats (two clock reads
  /// per phase; off by default to keep the hot path clean).
  bool CollectPhaseTimings = false;

  /// Attach the PersistCheck persist-ordering checker (check/PersistCheck.h)
  /// to the pool for this runtime's lifetime: every committed store, CLWB,
  /// drain and eviction is validated against the Crafty durability
  /// invariants. Near-zero cost when false (one predicted branch per
  /// transaction); intended for tests and debugging, not production runs.
  bool EnablePersistCheck = false;

  /// Attach the TxRaceCheck happens-before race and isolation checker
  /// (check/TxRaceCheck.h) to the HTM runtime for this runtime's
  /// lifetime: every transactional and non-transactional pool access is
  /// checked for weak-isolation races, missing SGL/sync exclusion in the
  /// chunked mode, and nondeterministic Validate re-execution. Near-zero
  /// cost when false (a null-hook check per access); intended for tests
  /// and debugging, not production runs.
  bool EnableTxRaceCheck = false;

  /// Test-only hook: invoked after a Log phase commits and its entries
  /// are flushed, before the Redo phase runs. Lets tests interleave
  /// conflicting commits deterministically into the Log->Redo window.
  /// Must stay null in production use.
  void (*TestAfterLogCommit)(void *Ctx, unsigned ThreadId) = nullptr;
  void *TestHookCtx = nullptr;
};

/// Explicit-abort (XABORT) payloads used by the Crafty phases.
inline constexpr uint32_t AbortUserSglHeld = 1;
inline constexpr uint32_t AbortUserRedoCheck = 2;
inline constexpr uint32_t AbortUserValidateFail = 3;
inline constexpr uint32_t AbortUserSeqOverflow = 4;

} // namespace crafty

#endif // CRAFTY_CORE_CRAFTYCONFIG_H
