//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Bench.h"

#include <cstdio>

using namespace perfbench;

const char *perfbench::spanName(unsigned Name) {
  static const char *const Names[NumSpanNames] = {
      "setup.store",  "setup.preload", "server.start", "server.stop",
      "kv.request",   "client.issue",  "client.flush", "client.recv",
      "client.stats", "store.crash",   "store.recover", "audit.ledger",
      "setup.pool",   "ptm.run",       "ptm.body"};
  return Name < NumSpanNames ? Names[Name] : "?";
}

uint64_t ScopedSpan::now() { return nowNs(); }

TraceBuffer *Tracer::buffer(unsigned Idx) {
  if (!Enabled)
    return nullptr;
  while (Buffers.size() <= Idx)
    Buffers.push_back(std::make_unique<TraceBuffer>((unsigned)Buffers.size()));
  return Buffers[Idx].get();
}

TraceBuffer::NameAgg Tracer::total(unsigned Name) const {
  TraceBuffer::NameAgg T;
  for (const auto &B : Buffers) {
    const TraceBuffer::NameAgg &A = B->agg(Name);
    T.Count += A.Count;
    T.TotalNs += A.TotalNs;
    T.ChildNs += A.ChildNs;
  }
  return T;
}

void Tracer::printSummary() const {
  std::fprintf(stderr, "%-16s %10s %12s %12s %12s\n", "span", "count",
               "total_ms", "self_ms", "self_us/span");
  for (unsigned N = 0; N != NumSpanNames; ++N) {
    TraceBuffer::NameAgg A = total(N);
    if (!A.Count)
      continue;
    uint64_t Self = A.TotalNs - A.ChildNs;
    std::fprintf(stderr, "%-16s %10llu %12.3f %12.3f %12.3f\n", spanName(N),
                 (unsigned long long)A.Count, A.TotalNs * 1e-6, Self * 1e-6,
                 Self * 1e-3 / (double)A.Count);
  }
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id,name,start_ns,end_ns,parent,request\n");
  for (const auto &B : Buffers)
    for (const Span &S : B->kept())
      std::fprintf(F, "%llx,%s,%llu,%llu,%llx,%llu\n", (unsigned long long)S.Id,
                   spanName(S.Name), (unsigned long long)S.StartNs,
                   (unsigned long long)S.EndNs, (unsigned long long)S.Parent,
                   (unsigned long long)S.ReqId);
  return std::fclose(F) == 0;
}
