//===- perfbench/src/Layers.h - Per-layer metric vocabulary ----*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer metrics every traced run prints, in one fixed order and
/// with one unit each, plus the counter deltas they are computed from.
/// A workload that bypasses a layer reports that layer's metrics as 0
/// (the layer did no work), so every traced run prints the same names.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "core/Ptm.h"
#include "pmem/PMemPool.h"

#include <map>

namespace perfbench {

/// Counters of one persistent-transaction runtime (or a sum over shards).
struct RuntimeCounters {
  crafty::PtmStats Ptm;
  crafty::HtmStats Htm;
  uint64_t NonTxClockBumps = 0;
  crafty::PMemStats Pm;

  RuntimeCounters &operator+=(const RuntimeCounters &O);
  /// Field-wise difference (this minus \p Before); MaxWriteWordsPerTxn
  /// keeps this side's value.
  RuntimeCounters since(const RuntimeCounters &Before) const;
};

using LayerValues = std::map<std::string, double>;

/// Fills the core.*, htm.* and pmem.* metrics from a counter delta.
/// \p Ops is the work unit of ops_per_s (keys or transactions);
/// \p Barriers the persist barriers issued over the same interval.
void addRuntimeLayers(LayerValues &V, const RuntimeCounters &D, double Ops,
                      double Barriers);

/// Appends every per-layer metric to \p R in canonical order, taking
/// values from \p V (0 for layers the workload bypassed). Aborts on a
/// name outside the vocabulary.
void emitPerLayer(Result &R, const LayerValues &V);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
