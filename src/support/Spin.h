//===- support/Spin.h - Spin-wait helpers ----------------------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spin-wait helpers. Every spin loop in the project yields to the scheduler
/// after a short burst: the reproduction host may have fewer cores than
/// runnable threads (the evaluation sweeps up to 16 threads), and a pure
/// busy-wait would starve the thread being waited on.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_SUPPORT_SPIN_H
#define CRAFTY_SUPPORT_SPIN_H

#include <cstdint>
#include <thread>

namespace crafty {

/// One CPU pause (x86 PAUSE); a compiler barrier elsewhere.
inline void cpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

/// Cooperative exponential-ish backoff: pause a few times, then yield.
class SpinBackoff {
public:
  void pause() {
    if (++Count < 16) {
      cpuPause();
      return;
    }
    Count = 0;
    std::this_thread::yield();
  }

  void reset() { Count = 0; }

private:
  uint32_t Count = 0;
};

/// Pauses a capped spin-wait takes before yielding on every further
/// iteration (the SGL wait): long enough to ride out a short critical
/// section, short enough that a descheduled holder cannot livelock its
/// waiters on a loaded box.
inline constexpr uint32_t SpinWaitPauseBound = 128;

/// Bounded exponential backoff with jitter for abort-retry loops (the
/// STO_SPIN_EXPBACKOFF discipline): each call pauses for a jittered window
/// that doubles from MinSpins up to MaxSpins, and once the window is
/// capped every further call also yields to the scheduler. The jitter
/// desynchronizes threads that aborted on the same conflict; the yield
/// keeps an oversubscribed host from burning a waiter's whole quantum
/// while the conflicting committer is descheduled (the dominant
/// multi-thread failure mode on a host with fewer cores than threads).
class ExpBackoff {
public:
  static constexpr uint32_t MinSpins = 32;
  static constexpr uint32_t MaxSpins = 4096;

  /// \p Seed decorrelates the jitter streams of different threads.
  explicit ExpBackoff(uint64_t Seed)
      : RngState(Seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull) {}

  /// Escalating wait: call once after each failed attempt.
  void backoff() {
    if (Window > MaxSpins) {
      std::this_thread::yield();
      return;
    }
    // Jitter uniformly over [Window/2, Window].
    uint32_t Spins = Window / 2 + (uint32_t)(nextRand() % (Window / 2 + 1));
    for (uint32_t I = 0; I != Spins; ++I)
      cpuPause();
    Window *= 2; // Past MaxSpins: saturated, yield from now on.
  }

  void reset() { Window = MinSpins; }

private:
  uint64_t nextRand() {
    // xorshift64*: cheap thread-local jitter, no shared state.
    RngState ^= RngState >> 12;
    RngState ^= RngState << 25;
    RngState ^= RngState >> 27;
    return RngState * 0x2545f4914f6cdd1dull;
  }

  uint32_t Window = MinSpins;
  uint64_t RngState;
};

} // namespace crafty

#endif // CRAFTY_SUPPORT_SPIN_H
