//===- perfbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the system's
/// modules (the traced run only). Each span has a name, start, end, the
/// span that caused it and the request it belongs to. Spans stay in
/// memory and are written out once, when the run ends.
///
/// A buffer keeps the first RetainCap spans verbatim for the trace file
/// and exact per-name aggregates for all of them: count, total time, and
/// the time its child spans cover. Children never overlap inside their
/// parent here (one request's issue and receive; one transaction's body
/// runs), so a layer's self time is its total minus its children's.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : uint8_t {
  SpanSetupStore,   ///< KvStore construction.
  SpanSetupPreload, ///< KvStore::msetBatch preload.
  SpanServerStart,  ///< KvServer::start + client connects.
  SpanServerStop,   ///< KvServer::stop.
  SpanKvRequest,    ///< One KV request, issue to parsed response.
  SpanClientIssue,  ///< Building one request into a KvClient.
  SpanClientFlush,  ///< KvClient::flush of a connection's queued bytes.
  SpanClientRecv,   ///< KvClient::recv* of one response.
  SpanClientStats,  ///< KvClient::stats round trip.
  SpanCrash,        ///< Simulated power failure.
  SpanRecover,      ///< Undo-log replay after the crash.
  SpanAudit,        ///< Post-recovery ledger audit.
  SpanSetupPool,    ///< Pool + HTM + Crafty runtime + accounts.
  SpanPtmRun,       ///< One PtmBackend::run call.
  SpanPtmBody,      ///< One completed execution of a transaction body.
  NumSpanNames
};

const char *spanName(unsigned Name);

struct Span {
  uint64_t Id;
  uint64_t Parent; ///< 0 for a root span.
  uint64_t ReqId;  ///< 0 when the span serves no single request.
  uint64_t StartNs;
  uint64_t EndNs;
  uint8_t Name;
};

/// Recorder owned by one thread.
class TraceBuffer {
public:
  static constexpr size_t RetainCap = 1 << 17;

  explicit TraceBuffer(unsigned ThreadIdx)
      : IdTag((uint64_t)(ThreadIdx + 1) << 48) {}

  /// Reserves an id, so children can name a parent that has not ended.
  uint64_t newId() { return IdTag | ++NextId; }

  /// Records a finished span. \p ParentName is the parent's name (ignored
  /// for roots), whose covered time grows by this span's duration.
  void record(unsigned Name, uint64_t Id, uint64_t Parent, unsigned ParentName,
              uint64_t ReqId, uint64_t StartNs, uint64_t EndNs) {
    uint64_t Dur = EndNs - StartNs;
    Agg[Name].Count++;
    Agg[Name].TotalNs += Dur;
    if (Parent)
      Agg[ParentName].ChildNs += Dur;
    if (Kept.size() < RetainCap)
      Kept.push_back({Id, Parent, ReqId, StartNs, EndNs, (uint8_t)Name});
  }

  struct NameAgg {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
    uint64_t ChildNs = 0;
  };
  const NameAgg &agg(unsigned Name) const { return Agg[Name]; }
  const std::vector<Span> &kept() const { return Kept; }

private:
  uint64_t IdTag;
  uint64_t NextId = 0;
  NameAgg Agg[NumSpanNames];
  std::vector<Span> Kept;
};

/// Times one root span over a scope (no-op without a buffer).
class ScopedSpan {
public:
  ScopedSpan(TraceBuffer *B, unsigned Name)
      : B(B), Name(Name), Start(B ? now() : 0) {}
  ~ScopedSpan() {
    if (B)
      B->record(Name, B->newId(), 0, 0, 0, Start, now());
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  static uint64_t now();
  TraceBuffer *B;
  unsigned Name;
  uint64_t Start;
};

/// The run's buffers; null buffers when tracing is off.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  /// The buffer of thread \p Idx, created on first use (call before the
  /// threads start), or null when tracing is off.
  TraceBuffer *buffer(unsigned Idx);

  /// Sum of every buffer's aggregate for \p Name.
  TraceBuffer::NameAgg total(unsigned Name) const;
  /// Prints the per-layer self-time table to stderr.
  void printSummary() const;
  /// Writes every kept span as CSV; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<std::unique_ptr<TraceBuffer>> Buffers;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
