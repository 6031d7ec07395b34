//===- perfbench/src/Layers.cpp - Per-layer metric vocabulary -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <cstdlib>

using namespace crafty;
using namespace perfbench;

namespace {

struct LayerDef {
  const char *Name;
  const char *Unit;
};

// The order BENCHMARK.json lists them in.
const LayerDef PerLayer[] = {
    {"kv.client.send_us_per_req", "us"},
    {"kv.client.recv_us_per_req", "us"},
    {"kv.server.queue_wait_us_per_req", "us"},
    {"kv.server.execute_us_per_req", "us"},
    {"kv.server.commit_wait_us_per_req", "us"},
    {"kv.server.barriers_per_req", "count"},
    {"kv.server.barrier_us_per_call", "us"},
    {"kv.server.unattributed_us_per_req", "us"},
    {"kv.shard.txns_per_req", "count"},
    {"kv.store.hit_rate", "ratio"},
    {"heap.allocs_per_write", "count"},
    {"heap.live_pages", "pages"},
    {"core.redo_frac", "ratio"},
    {"core.validate_frac", "ratio"},
    {"core.sgl_frac", "ratio"},
    {"core.readonly_frac", "ratio"},
    {"core.writes_per_txn", "count"},
    {"core.sgl_waits_per_txn", "count"},
    {"core.log_ns_per_txn", "ns"},
    {"core.redo_ns_per_txn", "ns"},
    {"core.validate_ns_per_txn", "ns"},
    {"core.sgl_ns_per_txn", "ns"},
    {"core.body_runs_per_txn", "count"},
    {"core.overhead_us_per_txn", "us"},
    {"htm.commit_ratio", "ratio"},
    {"htm.abort_conflict_per_txn", "count"},
    {"htm.abort_capacity_per_txn", "count"},
    {"htm.abort_explicit_per_txn", "count"},
    {"htm.read_slots_per_commit", "count"},
    {"htm.clock_bumps_per_commit", "count"},
    {"htm.write_words_per_commit", "count"},
    {"pmem.clwb_per_op", "count"},
    {"pmem.lines_per_op", "count"},
    {"pmem.coalesce_ratio", "ratio"},
    {"pmem.drains_per_op", "count"},
    {"pmem.empty_drain_frac", "ratio"},
    {"pmem.barrier_lines_per_barrier", "count"},
    {"recovery.replay_ms", "ms"},
    {"recovery.sequences_rolled_back", "count"},
    {"trace.overhead_frac", "ratio"},
};

PMemStats operator-(const PMemStats &A, const PMemStats &B) {
  PMemStats D;
  D.ClwbCalls = A.ClwbCalls - B.ClwbCalls;
  D.LinesScheduled = A.LinesScheduled - B.LinesScheduled;
  D.Drains = A.Drains - B.Drains;
  D.EmptyDrains = A.EmptyDrains - B.EmptyDrains;
  D.EvictedLines = A.EvictedLines - B.EvictedLines;
  return D;
}

} // namespace

RuntimeCounters &RuntimeCounters::operator+=(const RuntimeCounters &O) {
  Ptm += O.Ptm;
  Htm += O.Htm;
  NonTxClockBumps += O.NonTxClockBumps;
  Pm.ClwbCalls += O.Pm.ClwbCalls;
  Pm.LinesScheduled += O.Pm.LinesScheduled;
  Pm.Drains += O.Pm.Drains;
  Pm.EmptyDrains += O.Pm.EmptyDrains;
  Pm.EvictedLines += O.Pm.EvictedLines;
  return *this;
}

RuntimeCounters RuntimeCounters::since(const RuntimeCounters &B) const {
  RuntimeCounters D;
  const PtmStats &P = Ptm, &Q = B.Ptm;
  D.Ptm.NonCrafty = P.NonCrafty - Q.NonCrafty;
  D.Ptm.ReadOnly = P.ReadOnly - Q.ReadOnly;
  D.Ptm.Redo = P.Redo - Q.Redo;
  D.Ptm.Validate = P.Validate - Q.Validate;
  D.Ptm.Sgl = P.Sgl - Q.Sgl;
  D.Ptm.Writes = P.Writes - Q.Writes;
  D.Ptm.SglWaits = P.SglWaits - Q.SglWaits;
  D.Ptm.LogPhaseNs = P.LogPhaseNs - Q.LogPhaseNs;
  D.Ptm.RedoPhaseNs = P.RedoPhaseNs - Q.RedoPhaseNs;
  D.Ptm.ValidatePhaseNs = P.ValidatePhaseNs - Q.ValidatePhaseNs;
  D.Ptm.SglNs = P.SglNs - Q.SglNs;
  const HtmStats &H = Htm, &G = B.Htm;
  D.Htm.Commits = H.Commits - G.Commits;
  D.Htm.AbortConflict = H.AbortConflict - G.AbortConflict;
  D.Htm.AbortCapacity = H.AbortCapacity - G.AbortCapacity;
  D.Htm.AbortExplicit = H.AbortExplicit - G.AbortExplicit;
  D.Htm.AbortZero = H.AbortZero - G.AbortZero;
  D.Htm.ValidatedReadSlots = H.ValidatedReadSlots - G.ValidatedReadSlots;
  D.Htm.WriteWordsTotal = H.WriteWordsTotal - G.WriteWordsTotal;
  D.Htm.MaxWriteWordsPerTxn = H.MaxWriteWordsPerTxn;
  D.Htm.SnapshotExtensions = H.SnapshotExtensions - G.SnapshotExtensions;
  D.Htm.ClockBumps = H.ClockBumps - G.ClockBumps;
  D.NonTxClockBumps = NonTxClockBumps - B.NonTxClockBumps;
  D.Pm = Pm - B.Pm;
  return D;
}

void perfbench::addRuntimeLayers(LayerValues &V, const RuntimeCounters &D,
                                 double Ops, double Barriers) {
  const PtmStats &P = D.Ptm;
  double Txns = (double)P.transactions();
  V["core.redo_frac"] = ratio(P.Redo, Txns);
  V["core.validate_frac"] = ratio(P.Validate, Txns);
  V["core.sgl_frac"] = ratio(P.Sgl, Txns);
  V["core.readonly_frac"] = ratio(P.ReadOnly, Txns);
  V["core.writes_per_txn"] = ratio(P.Writes, Txns);
  V["core.sgl_waits_per_txn"] = ratio(P.SglWaits, Txns);
  V["core.log_ns_per_txn"] = ratio(P.LogPhaseNs, Txns);
  V["core.redo_ns_per_txn"] = ratio(P.RedoPhaseNs, Txns);
  V["core.validate_ns_per_txn"] = ratio(P.ValidatePhaseNs, Txns);
  V["core.sgl_ns_per_txn"] = ratio(P.SglNs, Txns);

  const HtmStats &H = D.Htm;
  double Commits = (double)H.Commits;
  V["htm.commit_ratio"] = ratio(Commits, (double)H.started());
  V["htm.abort_conflict_per_txn"] = ratio(H.AbortConflict, Txns);
  V["htm.abort_capacity_per_txn"] = ratio(H.AbortCapacity, Txns);
  V["htm.abort_explicit_per_txn"] = ratio(H.AbortExplicit, Txns);
  V["htm.read_slots_per_commit"] = ratio(H.ValidatedReadSlots, Commits);
  V["htm.clock_bumps_per_commit"] =
      ratio((double)(H.ClockBumps + D.NonTxClockBumps), Commits);
  V["htm.write_words_per_commit"] = ratio(H.WriteWordsTotal, Commits);

  const PMemStats &M = D.Pm;
  V["pmem.clwb_per_op"] = ratio(M.ClwbCalls, Ops);
  V["pmem.lines_per_op"] = ratio(M.LinesScheduled, Ops);
  V["pmem.coalesce_ratio"] = ratio(M.LinesScheduled, M.ClwbCalls);
  V["pmem.drains_per_op"] = ratio(M.Drains, Ops);
  V["pmem.empty_drain_frac"] = ratio(M.EmptyDrains, M.Drains);
  // Eviction is off, so every evicted line is a barrier's write-back.
  V["pmem.barrier_lines_per_barrier"] = ratio(M.EvictedLines, Barriers);
}

void perfbench::emitPerLayer(Result &R, const LayerValues &V) {
  for (const auto &[Name, Val] : V) {
    bool Known = false;
    for (const LayerDef &L : PerLayer)
      Known |= Name == L.Name;
    if (!Known) {
      std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                   Name.c_str());
      std::abort();
    }
  }
  for (const LayerDef &L : PerLayer) {
    auto It = V.find(L.Name);
    R.add(L.Name, It == V.end() ? 0.0 : It->second, L.Unit);
  }
}
