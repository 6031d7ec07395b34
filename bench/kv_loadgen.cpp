//===- bench/kv_loadgen.cpp - KV service load generator -------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Load generator and crash auditor for the src/kv/ service.
//
// Bench mode (default): for each cell of {backend} x {shard count} x
// {SET batch size}, fork a KvServer child process, drive it over loopback
// TCP with M concurrent connections running a read/write mix, and record
// ops/s plus request-latency p50/p99. Points append into BENCH_kv.json
// with the same trajectory conventions as BENCH_hotpath.json (schema
// header + points array; --append splices, CRAFTY_BENCH_OPS_SCALE scales
// the op counts).
//
//   {"schema": "crafty-kv-bench-v1", "points": [
//     {"label": ..., "ops_scale": ..., "host": {...}, "results": [
//       {"system": ..., "shards": N, "conns": M, "batch": B,
//        "read_pct": P, "value_bytes": V, "ops": N,
//        "ops_per_sec": X, "p50_us": X, "p99_us": X,
//        "queue_wait_us_per_req": X, "execute_us_per_req": X,
//        "commit_wait_us_per_req": X, "barriers": N,
//        "barrier_us_per_call": X,
//        "shards_detail": [{"shard": S, "ops_per_sec": X,
//          "htm_commits": N, "htm_aborts": N, "clwb_calls": N,
//          "lines_scheduled": N, "drains": N, "empty_drains": N}, ...]},
//       ...]}, ...]}
//
// The per-request timing split and the per-shard counters come from the
// server's own STATS command, fetched once per cell after the load
// completes, so the numbers are the server's view (request arrival to
// execution start, time inside store transactions, execution end to
// group-commit release) rather than a client-side approximation.
//
// Large-value mode (--large-values): for each value size from 64 B to
// 64 KiB x {Crafty, NV-HTM, Non-durable}, drive the same read/write mix
// against a heap-enabled single-shard server. Values above the inline
// cell ceiling (248 B) route through the page-managed durable heap
// (heap/DurableHeap.h) via stage-then-publish, so the sweep measures
// the inline-vs-heap crossover and the heap pipeline's value-size
// envelope. Per-cell op counts scale down with value size to hold the
// byte volume roughly constant; the keyspace shrinks to 512 so the
// heap footprint stays bounded.
//
// --scaling-gate R turns the shard-scaling claim into an exit status:
// at the deepest batch size in the sweep (where group commit matters
// most and run-to-run noise matters least), Crafty 4-shard throughput
// must be at least R x its 1-shard throughput, or the run fails.
// --repeats K runs every cell K times against a fresh server and keeps
// the median-throughput sample; CI runs the gate with R = 0.8 and
// K = 3 (one-core runners timeslice the workers, so the gate bounds
// the cost of sharding rather than proving parallel speedup).
//
// Crash mode (--crash-after N): fork a file-backed Crafty server
// (--crash-shards, default 4, with one worker per shard), drive
// write-heavy load, SIGKILL the server after N acknowledged writes,
// restart it over the same data directory (attach + undo-log replay),
// and audit the recovered state against per-connection ledgers:
//
//  - every ACKNOWLEDGED write must be present: each key must hold a
//    value at least as new as the last acked write to it (the keyspace is
//    partitioned across connections, so per-key write order is total);
//  - every UNACKNOWLEDGED write must be absent-or-complete: a key may
//    hold any value from the unacked suffix of its write sequence,
//    byte-for-byte complete -- never a torn or fabricated value.
//
// Usage: kv_loadgen [--label NAME] [--append FILE | --out FILE]
//                   [--ops N] [--conns M] [--value-bytes V]
//                   [--read-pct P] [--keyspace K]
//                   [--crash-after N] [--datadir DIR]
//
//===----------------------------------------------------------------------===//

#include "HostStamp.h"
#include "heap/DurableHeap.h"
#include "kv/KvClient.h"
#include "kv/KvServer.h"
#include "support/Clock.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <signal.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace crafty;
using namespace crafty::kv;

namespace {

struct Options {
  std::string Label = "unlabeled";
  std::string OutPath, AppendPath;
  uint64_t OpsPerCell = 20000;
  unsigned Conns = 4;
  size_t ValueBytes = 64;
  unsigned ReadPct = 50;
  uint64_t Keyspace = 8192;
  uint64_t CrashAfter = 0;  // 0 = bench mode.
  unsigned CrashShards = 4; // Shard count for crash mode.
  unsigned Repeats = 1;     // Runs per cell; the median sample is kept.
  bool LargeValues = false; // Value-size sweep instead of the shard sweep.
  std::string DataDir;
  /// When > 0: fail the run unless Crafty 4-shard >= Gate x 1-shard
  /// ops/s at the deepest batch size in the sweep.
  double ScalingGate = 0;
};

struct BenchCell {
  SystemKind System;
  unsigned Shards;
  size_t Batch;
};

const BenchCell Cells[] = {
    {SystemKind::Crafty, 1, 1},     {SystemKind::Crafty, 1, 8},
    {SystemKind::Crafty, 4, 1},     {SystemKind::Crafty, 4, 8},
    {SystemKind::NvHtm, 1, 1},      {SystemKind::NvHtm, 1, 8},
    {SystemKind::NvHtm, 4, 1},      {SystemKind::NvHtm, 4, 8},
    {SystemKind::NonDurable, 1, 1}, {SystemKind::NonDurable, 1, 8},
    {SystemKind::NonDurable, 4, 1}, {SystemKind::NonDurable, 4, 8},
};

/// One shard's server-side counters for a bench cell.
struct ShardDetail {
  uint64_t Ops = 0;
  uint64_t HtmCommits = 0;
  uint64_t HtmAborts = 0;
  uint64_t ClwbCalls = 0;
  uint64_t LinesScheduled = 0;
  uint64_t Drains = 0;
  uint64_t EmptyDrains = 0;
};

struct CellResult {
  const char *SystemName;
  unsigned Shards;
  unsigned Conns;
  size_t Batch;
  unsigned ReadPct;
  size_t ValueBytes;
  uint64_t Ops;
  double OpsPerSec;
  double P50Us;
  double P99Us;
  double ElapsedSec = 0;
  // Server-side view (STATS command), summed over workers.
  uint64_t Requests = 0;
  uint64_t QueueWaitNs = 0;
  uint64_t ExecuteNs = 0;
  uint64_t CommitWaitNs = 0;
  uint64_t Barriers = 0;
  uint64_t BarrierNs = 0;
  std::vector<ShardDetail> PerShard;
};

/// Every integer value of `"Key":<digits>` in \p Json, in order. The
/// STATS document is emitted by our own server, so a scan beats a JSON
/// parser dependency; the trailing colon keeps "ops" from matching
/// "ops_per_shard".
std::vector<uint64_t> extractJsonInts(const std::string &Json,
                                      const std::string &Key) {
  std::vector<uint64_t> Out;
  std::string Needle = "\"" + Key + "\":";
  size_t Pos = 0;
  while ((Pos = Json.find(Needle, Pos)) != std::string::npos) {
    Pos += Needle.size();
    Out.push_back(std::strtoull(Json.c_str() + Pos, nullptr, 10));
  }
  return Out;
}

uint64_t sumInts(const std::vector<uint64_t> &V) {
  uint64_t S = 0;
  for (uint64_t X : V)
    S += X;
  return S;
}

/// Folds the server's STATS document into \p R. The document has a
/// workers section followed by a shards section; worker timing keys only
/// appear before "shards": and per-shard keys only after it.
void foldServerStats(const std::string &Json, CellResult &R) {
  size_t Split = Json.find("\"shards\":");
  if (Split == std::string::npos)
    return;
  std::string WorkersPart = Json.substr(0, Split);
  std::string ShardsPart = Json.substr(Split);
  R.Requests = sumInts(extractJsonInts(WorkersPart, "requests"));
  R.QueueWaitNs = sumInts(extractJsonInts(WorkersPart, "queue_wait_ns"));
  R.ExecuteNs = sumInts(extractJsonInts(WorkersPart, "execute_ns"));
  R.CommitWaitNs = sumInts(extractJsonInts(WorkersPart, "commit_wait_ns"));
  R.Barriers = sumInts(extractJsonInts(WorkersPart, "barriers"));
  R.BarrierNs = sumInts(extractJsonInts(WorkersPart, "barrier_ns"));
  std::vector<uint64_t> Ops = extractJsonInts(ShardsPart, "ops");
  std::vector<uint64_t> Commits = extractJsonInts(ShardsPart, "htm_commits");
  std::vector<uint64_t> Aborts = extractJsonInts(ShardsPart, "htm_aborts");
  std::vector<uint64_t> Clwb = extractJsonInts(ShardsPart, "clwb_calls");
  std::vector<uint64_t> Sched =
      extractJsonInts(ShardsPart, "lines_scheduled");
  std::vector<uint64_t> Drains = extractJsonInts(ShardsPart, "drains");
  std::vector<uint64_t> Empty = extractJsonInts(ShardsPart, "empty_drains");
  R.PerShard.resize(Ops.size());
  for (size_t S = 0; S != Ops.size(); ++S) {
    R.PerShard[S].Ops = Ops[S];
    if (S < Commits.size())
      R.PerShard[S].HtmCommits = Commits[S];
    if (S < Aborts.size())
      R.PerShard[S].HtmAborts = Aborts[S];
    if (S < Clwb.size())
      R.PerShard[S].ClwbCalls = Clwb[S];
    if (S < Sched.size())
      R.PerShard[S].LinesScheduled = Sched[S];
    if (S < Drains.size())
      R.PerShard[S].Drains = Drains[S];
    if (S < Empty.size())
      R.PerShard[S].EmptyDrains = Empty[S];
  }
}

double opsScale() {
  if (const char *Scale = std::getenv("CRAFTY_BENCH_OPS_SCALE")) {
    double F = std::atof(Scale);
    if (F > 0)
      return F;
  }
  return 1.0;
}

KvConfig storeConfig(SystemKind System, unsigned Shards,
                     const std::string &DataDir, size_t ValueBytes = 0,
                     uint64_t Keyspace = 0) {
  KvConfig KC;
  KC.NumShards = Shards;
  // Constant total capacity: the 1-shard vs N-shard comparison holds the
  // store size fixed and varies only the partitioning.
  KC.SlotsPerShard = (1 << 14) / Shards;
  KC.Backend = System;
  // Each server worker owns Tid = worker index on every shard; contexts
  // beyond the worker count would only add persist-barrier force work.
  KC.ThreadsPerShard = KvServer::autoWorkerCount(Shards);
  KC.DataDir = DataDir;
  if (ValueBytes > KC.MaxValueBytes) {
    // Values exceed the inline cell ceiling: size the durable heap for
    // the whole keyspace live at once, plus one overwrite generation
    // (freed extents stay barrier-deferred for up to a commit cycle)
    // and staging slack.
    size_t PagesPer = (ValueBytes + heap::DurableHeap::PageBytes - 1) /
                      heap::DurableHeap::PageBytes;
    size_t KeysPerShard = Keyspace / Shards + 1;
    KC.HeapPages = 2 * PagesPer * KeysPerShard + 256;
    KC.HeapWalSlots = 128;
  }
  return KC;
}

//===----------------------------------------------------------------------===//
// Forked server lifecycle
//===----------------------------------------------------------------------===//

struct ServerProc {
  pid_t Pid = -1;
  uint16_t Port = 0;
  int CtlWrite = -1; // Closing it asks the child to shut down cleanly.
};

/// Forks a child that serves \p Cfg; the child reports its port over a
/// pipe and runs until the control pipe closes (or it is killed).
ServerProc spawnServer(const KvConfig &Cfg) {
  int PortPipe[2], CtlPipe[2];
  if (pipe(PortPipe) != 0 || pipe(CtlPipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (Pid == 0) {
    close(PortPipe[0]);
    close(CtlPipe[1]);
    {
      KvStore Store(Cfg);
      KvServer Server(Store, KvServerConfig{});
      Server.start();
      char Msg[16];
      int N = std::snprintf(Msg, sizeof(Msg), "%u\n", Server.port());
      if (write(PortPipe[1], Msg, (size_t)N) != N)
        _exit(1);
      close(PortPipe[1]);
      // Serve until the parent closes the control pipe (or SIGKILLs us,
      // which is the whole point of crash mode).
      char Junk;
      while (read(CtlPipe[0], &Junk, 1) > 0)
        ;
      Server.stop();
    }
    _exit(0);
  }
  close(PortPipe[1]);
  close(CtlPipe[0]);
  ServerProc P;
  P.Pid = Pid;
  P.CtlWrite = CtlPipe[1];
  std::string PortStr;
  char C;
  while (read(PortPipe[0], &C, 1) == 1 && C != '\n')
    PortStr += C;
  close(PortPipe[0]);
  P.Port = (uint16_t)std::atoi(PortStr.c_str());
  if (P.Port == 0) {
    std::fprintf(stderr, "kv_loadgen: server child failed to start\n");
    std::exit(1);
  }
  return P;
}

void stopServer(ServerProc &P) {
  if (P.CtlWrite >= 0)
    close(P.CtlWrite);
  P.CtlWrite = -1;
  if (P.Pid > 0) {
    int St = 0;
    waitpid(P.Pid, &St, 0);
    P.Pid = -1;
  }
}

void killServer(ServerProc &P) {
  if (P.Pid > 0) {
    kill(P.Pid, SIGKILL);
    int St = 0;
    waitpid(P.Pid, &St, 0);
    P.Pid = -1;
  }
  if (P.CtlWrite >= 0)
    close(P.CtlWrite);
  P.CtlWrite = -1;
}

//===----------------------------------------------------------------------===//
// Bench mode
//===----------------------------------------------------------------------===//

std::string makeValue(uint64_t Key, uint64_t Seq, size_t Bytes) {
  char Head[64];
  int N = std::snprintf(Head, sizeof(Head), "k%llu-s%llu-",
                        (unsigned long long)Key, (unsigned long long)Seq);
  std::string V(Head, (size_t)N);
  // Deterministic tail derived from (key, seq): a torn or cross-wired
  // value cannot also have a consistent tail.
  uint64_t X = Key * 0x9e3779b97f4a7c15ull + Seq;
  while (V.size() < Bytes) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    V += (char)('a' + (X % 26));
  }
  V.resize(Bytes);
  return V;
}

CellResult runBenchCell(const Options &Opt, const BenchCell &Cell,
                        uint64_t Ops) {
  ServerProc Server = spawnServer(storeConfig(
      Cell.System, Cell.Shards, "", Opt.ValueBytes, Opt.Keyspace));

  std::atomic<uint64_t> OpsIssued{0};
  std::atomic<bool> Failed{false};
  std::vector<std::vector<double>> Lat(Opt.Conns);
  std::vector<std::thread> Threads;
  uint64_t T0 = monotonicNanos();
  for (unsigned T = 0; T != Opt.Conns; ++T) {
    Threads.emplace_back([&, T] {
      KvClient Client;
      if (!Client.connect(Server.Port)) {
        Failed.store(true);
        return;
      }
      Rng R(0x9e3779b9u + T * 1013904223u);
      std::vector<std::pair<uint64_t, std::string>> Pairs;
      std::vector<uint64_t> Keys;
      std::vector<KvStatus> Statuses;
      uint64_t Seq = 0;
      while (!Failed.load(std::memory_order_relaxed)) {
        // Claim a whole batch of ops so all cells do identical work.
        uint64_t Claim =
            OpsIssued.fetch_add(Cell.Batch, std::memory_order_relaxed);
        if (Claim >= Ops)
          break;
        bool IsRead = R.next() % 100 < Opt.ReadPct;
        uint64_t Start = monotonicNanos();
        bool Ok = true;
        if (IsRead) {
          if (Cell.Batch == 1) {
            std::string Out;
            KvStatus St = Client.get(R.next() % Opt.Keyspace, Out);
            Ok = St == KvStatus::Ok || St == KvStatus::NotFound;
          } else {
            Keys.clear();
            for (size_t I = 0; I != Cell.Batch; ++I)
              Keys.push_back(R.next() % Opt.Keyspace);
            std::vector<std::pair<KvStatus, std::string>> Out;
            Ok = Client.mget(Keys, Out);
          }
        } else {
          if (Cell.Batch == 1) {
            KvStatus St = Client.set(R.next() % Opt.Keyspace,
                                     makeValue(Claim, Seq, Opt.ValueBytes));
            Ok = St == KvStatus::Ok;
          } else {
            Pairs.clear();
            for (size_t I = 0; I != Cell.Batch; ++I)
              Pairs.emplace_back(R.next() % Opt.Keyspace,
                                 makeValue(Claim + I, Seq, Opt.ValueBytes));
            Ok = Client.mset(Pairs, Statuses);
            for (KvStatus St : Statuses)
              Ok = Ok && St == KvStatus::Ok;
          }
        }
        Lat[T].push_back((double)(monotonicNanos() - Start) / 1000.0);
        ++Seq;
        if (!Ok) {
          Failed.store(true);
          break;
        }
      }
      Client.quit();
    });
  }
  for (auto &Th : Threads)
    Th.join();
  uint64_t T1 = monotonicNanos();
  // Server-side counters for this cell, from the horse's mouth: fetched
  // after the load finishes so the document covers exactly this run.
  std::string StatsJson;
  {
    KvClient StatsClient;
    if (StatsClient.connect(Server.Port)) {
      StatsClient.stats(StatsJson);
      StatsClient.quit();
    }
  }
  stopServer(Server);
  if (Failed.load()) {
    std::fprintf(stderr, "kv_loadgen: cell failed (%s shards=%u batch=%zu)\n",
                 systemKindName(Cell.System), Cell.Shards, Cell.Batch);
    std::exit(1);
  }

  std::vector<double> All;
  for (auto &L : Lat)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  auto Pct = [&](double P) {
    if (All.empty())
      return 0.0;
    size_t I = (size_t)((double)(All.size() - 1) * P);
    return All[I];
  };

  uint64_t Done = std::min<uint64_t>(OpsIssued.load(), Ops);
  CellResult R;
  R.SystemName = systemKindName(Cell.System);
  R.Shards = Cell.Shards;
  R.Conns = Opt.Conns;
  R.Batch = Cell.Batch;
  R.ReadPct = Opt.ReadPct;
  R.ValueBytes = Opt.ValueBytes;
  R.Ops = Done;
  R.ElapsedSec = (double)(T1 - T0) / 1e9;
  R.OpsPerSec = T1 > T0 ? (double)Done * 1e9 / (double)(T1 - T0) : 0;
  R.P50Us = Pct(0.50);
  R.P99Us = Pct(0.99);
  foldServerStats(StatsJson, R);
  return R;
}

std::string formatPoint(const std::string &Label, double Scale,
                        const std::vector<CellResult> &Results) {
  std::string Out;
  JsonWriter W(Out, JsonWriter::Pretty, TrajectoryPointDepth);
  W.beginObject()
      .field("label", Label)
      .field("ops_scale", Scale);
  writeHostStamp(W);
  W.key("results")
      .beginArray();
  for (const CellResult &R : Results) {
    double PerReq = R.Requests ? 1.0 / (1000.0 * (double)R.Requests) : 0;
    W.beginObject(/*Inline=*/true)
        .field("system", R.SystemName)
        .field("shards", R.Shards)
        .field("conns", R.Conns)
        .field("batch", R.Batch)
        .field("read_pct", R.ReadPct)
        .field("value_bytes", R.ValueBytes)
        .field("ops", R.Ops)
        .field("ops_per_sec", R.OpsPerSec, 0)
        .field("p50_us", R.P50Us, 1)
        .field("p99_us", R.P99Us, 1)
        .field("queue_wait_us_per_req", (double)R.QueueWaitNs * PerReq, 2)
        .field("execute_us_per_req", (double)R.ExecuteNs * PerReq, 2)
        .field("commit_wait_us_per_req", (double)R.CommitWaitNs * PerReq, 2)
        .field("barriers", R.Barriers)
        .field("barrier_us_per_call",
               R.Barriers ? (double)R.BarrierNs / (1000.0 * (double)R.Barriers)
                          : 0.0,
               2)
        .key("shards_detail")
        .beginArray();
    for (size_t S = 0; S != R.PerShard.size(); ++S) {
      const ShardDetail &D = R.PerShard[S];
      W.beginObject()
          .field("shard", S)
          .field("ops_per_sec",
                 R.ElapsedSec > 0 ? (double)D.Ops / R.ElapsedSec : 0.0, 0)
          .field("htm_commits", D.HtmCommits)
          .field("htm_aborts", D.HtmAborts)
          .field("clwb_calls", D.ClwbCalls)
          .field("lines_scheduled", D.LinesScheduled)
          .field("drains", D.Drains)
          .field("empty_drains", D.EmptyDrains)
          .endObject();
    }
    W.endArray().endObject();
  }
  W.endArray().endObject();
  return Out;
}

constexpr const char *Schema = "crafty-kv-bench-v1";
constexpr const char *Unit = "ops_per_sec = completed key operations per "
                             "second over loopback TCP; latencies per request";

//===----------------------------------------------------------------------===//
// Crash mode
//===----------------------------------------------------------------------===//

/// One write in a connection's ledger. Acked flips once the OK response
/// arrives; writes the server never answered stay unacked.
struct LedgerEntry {
  uint64_t Key;
  std::string Val;
  bool Acked = false;
};

int runCrashAudit(const Options &Opt) {
  std::string DataDir = Opt.DataDir;
  if (DataDir.empty()) {
    char Tmpl[] = "/tmp/kv_loadgen.XXXXXX";
    if (!mkdtemp(Tmpl)) {
      std::perror("mkdtemp");
      return 1;
    }
    DataDir = Tmpl;
  }
  const unsigned Shards = Opt.CrashShards ? Opt.CrashShards : 1;
  std::fprintf(stderr,
               "crash audit: datadir=%s shards=%u conns=%u target=%llu "
               "acked writes\n",
               DataDir.c_str(), Shards, Opt.Conns,
               (unsigned long long)Opt.CrashAfter);

  ServerProc Server = spawnServer(storeConfig(
      SystemKind::Crafty, Shards, DataDir, Opt.ValueBytes, Opt.Keyspace));

  // Phase 1: write-heavy load until the kill threshold. The keyspace is
  // partitioned: connection T owns keys {T, T + Conns, T + 2*Conns, ...},
  // so each key's write order is one connection's FIFO.
  std::atomic<uint64_t> Acked{0};
  std::atomic<bool> Killed{false};
  std::vector<std::vector<LedgerEntry>> Ledgers(Opt.Conns);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Opt.Conns; ++T) {
    Threads.emplace_back([&, T] {
      KvClient Client;
      if (!Client.connect(Server.Port))
        return;
      Rng R(0xdecafbadu + T);
      uint64_t Seq = 0;
      while (!Killed.load(std::memory_order_relaxed)) {
        uint64_t Slot = R.next() % (Opt.Keyspace / Opt.Conns + 1);
        uint64_t Key = T + Slot * Opt.Conns;
        Ledgers[T].push_back(
            LedgerEntry{Key, makeValue(Key, Seq++, Opt.ValueBytes), false});
        LedgerEntry &E = Ledgers[T].back();
        KvStatus St = Client.set(Key, E.Val);
        if (St == KvStatus::Ok) {
          E.Acked = true;
          Acked.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Transport death (the kill) or a full shard; either way this
          // write is unacknowledged.
          break;
        }
      }
    });
  }
  while (Acked.load(std::memory_order_relaxed) < Opt.CrashAfter)
    std::this_thread::yield();
  killServer(Server);
  Killed.store(true);
  for (auto &Th : Threads)
    Th.join();
  uint64_t TotalAcked = Acked.load();
  std::fprintf(stderr, "crash audit: SIGKILLed server after %llu acked\n",
               (unsigned long long)TotalAcked);

  // Phase 2: restart over the same images; the store attaches and
  // replays every shard's undo log before serving.
  ServerProc Server2 = spawnServer(storeConfig(
      SystemKind::Crafty, Shards, DataDir, Opt.ValueBytes, Opt.Keyspace));

  // Phase 3: audit. For each key, the recovered value must be a complete
  // value from the suffix of its write sequence starting at the last
  // acked write (acked-durability + absent-or-complete for the unacked
  // tail; rollback of a suffix of unacked writes is legal, losing an
  // acked one is not).
  KvClient Audit;
  if (!Audit.connect(Server2.Port)) {
    std::fprintf(stderr, "crash audit: cannot connect to restarted server\n");
    return 1;
  }
  uint64_t KeysAudited = 0, Violations = 0;
  for (unsigned T = 0; T != Opt.Conns; ++T) {
    // Per-key write sequences, in order.
    std::map<uint64_t, std::vector<const LedgerEntry *>> PerKey;
    for (const LedgerEntry &E : Ledgers[T])
      PerKey[E.Key].push_back(&E);
    for (const auto &[Key, Writes] : PerKey) {
      ++KeysAudited;
      size_t LastAcked = Writes.size();
      for (size_t I = Writes.size(); I-- > 0;)
        if (Writes[I]->Acked) {
          LastAcked = I;
          break;
        }
      std::string Got;
      KvStatus St = Audit.get(Key, Got);
      bool Ok;
      if (LastAcked == Writes.size()) {
        // Nothing acked: absent, or any complete unacked value.
        Ok = St == KvStatus::NotFound;
        if (!Ok && St == KvStatus::Ok)
          for (const LedgerEntry *W : Writes)
            Ok = Ok || W->Val == Got;
      } else {
        // Acked: must hold a value from the acked write or any later one.
        Ok = false;
        if (St == KvStatus::Ok)
          for (size_t I = LastAcked; I != Writes.size(); ++I)
            Ok = Ok || Writes[I]->Val == Got;
      }
      if (!Ok) {
        ++Violations;
        std::fprintf(stderr,
                     "  VIOLATION key=%llu status=%s got=%zu bytes "
                     "(last acked write %s)\n",
                     (unsigned long long)Key, kvStatusName(St), Got.size(),
                     LastAcked == Writes.size() ? "none" : "exists");
      }
    }
  }
  Audit.quit();
  stopServer(Server2);

  std::fprintf(stderr,
               "crash audit: %llu keys audited, %llu acked writes, "
               "%llu violations -> %s\n",
               (unsigned long long)KeysAudited,
               (unsigned long long)TotalAcked,
               (unsigned long long)Violations,
               Violations ? "FAILED" : "PASSED");
  return Violations ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  signal(SIGPIPE, SIG_IGN);
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "kv_loadgen: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--label")
      Opt.Label = Next();
    else if (Arg == "--out")
      Opt.OutPath = Next();
    else if (Arg == "--append")
      Opt.AppendPath = Next();
    else if (Arg == "--ops")
      Opt.OpsPerCell = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--conns")
      Opt.Conns = (unsigned)std::atoi(Next());
    else if (Arg == "--value-bytes")
      Opt.ValueBytes = (size_t)std::atoi(Next());
    else if (Arg == "--read-pct")
      Opt.ReadPct = (unsigned)std::atoi(Next());
    else if (Arg == "--keyspace")
      Opt.Keyspace = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--crash-after")
      Opt.CrashAfter = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--crash-shards")
      Opt.CrashShards = (unsigned)std::atoi(Next());
    else if (Arg == "--repeats")
      Opt.Repeats = (unsigned)std::atoi(Next());
    else if (Arg == "--datadir")
      Opt.DataDir = Next();
    else if (Arg == "--scaling-gate")
      Opt.ScalingGate = std::atof(Next());
    else if (Arg == "--large-values")
      Opt.LargeValues = true;
    else {
      std::fprintf(
          stderr,
          "usage: kv_loadgen [--label NAME] [--append FILE | --out FILE]\n"
          "                  [--ops N] [--conns M] [--value-bytes V]\n"
          "                  [--read-pct P] [--keyspace K]\n"
          "                  [--crash-after N] [--crash-shards S]\n"
          "                  [--datadir DIR] [--scaling-gate R]\n"
          "                  [--repeats K] [--large-values]\n");
      return 2;
    }
  }
  if (Opt.Conns == 0)
    Opt.Conns = 1;
  if (Opt.Repeats == 0)
    Opt.Repeats = 1;

  if (Opt.CrashAfter)
    return runCrashAudit(Opt);

  double Scale = opsScale();
  uint64_t Ops = (uint64_t)((double)Opt.OpsPerCell * Scale);
  if (Ops == 0)
    Ops = 1;
  std::vector<CellResult> Results;
  if (Opt.LargeValues) {
    // Value-size sweep: one shard, single-op requests, sizes from 64 B
    // (inline cell) to 64 KiB (a 16-page heap extent). Per-cell op
    // counts shrink with value size so every cell moves a comparable
    // byte volume; the keyspace shrinks so the heap footprint stays
    // bounded (storeConfig sizes the heap from keyspace x value size).
    Opt.Keyspace = std::min<uint64_t>(Opt.Keyspace, 512);
    const size_t Sizes[] = {64, 256, 1024, 4096, 16384, 65536};
    const SystemKind Systems[] = {SystemKind::Crafty, SystemKind::NvHtm,
                                  SystemKind::NonDurable};
    for (SystemKind System : Systems)
      for (size_t VB : Sizes) {
        Options CellOpt = Opt;
        CellOpt.ValueBytes = VB;
        uint64_t CellOps =
            VB > 256 ? std::max<uint64_t>(Ops * 256 / VB, 256) : Ops;
        BenchCell Cell{System, 1, 1};
        std::vector<CellResult> Samples;
        for (unsigned Rep = 0; Rep != Opt.Repeats; ++Rep)
          Samples.push_back(runBenchCell(CellOpt, Cell, CellOps));
        std::sort(Samples.begin(), Samples.end(),
                  [](const CellResult &A, const CellResult &B) {
                    return A.OpsPerSec < B.OpsPerSec;
                  });
        CellResult R = Samples[Samples.size() / 2];
        std::fprintf(stderr,
                     "%-12s value=%6zuB  %9.0f ops/s  p50 %6.1fus  "
                     "p99 %6.1fus%s\n",
                     R.SystemName, R.ValueBytes, R.OpsPerSec, R.P50Us,
                     R.P99Us, Opt.Repeats > 1 ? "  (median)" : "");
        Results.push_back(R);
      }
  } else
  for (const BenchCell &Cell : Cells) {
    // --repeats R: fork a fresh server per repeat and keep the
    // median-throughput sample. Loopback service throughput on a shared
    // box is noisy (scheduler interleaving of server, clients and
    // neighbors); the median is robust to one bad repeat where the mean
    // and the best are not.
    std::vector<CellResult> Samples;
    for (unsigned Rep = 0; Rep != Opt.Repeats; ++Rep)
      Samples.push_back(runBenchCell(Opt, Cell, Ops));
    std::sort(Samples.begin(), Samples.end(),
              [](const CellResult &A, const CellResult &B) {
                return A.OpsPerSec < B.OpsPerSec;
              });
    CellResult R = Samples[Samples.size() / 2];
    std::fprintf(stderr,
                 "%-12s shards=%u batch=%zu  %9.0f ops/s  p50 %6.1fus  "
                 "p99 %6.1fus%s\n",
                 R.SystemName, R.Shards, R.Batch, R.OpsPerSec, R.P50Us,
                 R.P99Us, Opt.Repeats > 1 ? "  (median)" : "");
    Results.push_back(R);
  }

  // The shard-scaling claim as an exit status: with the share-nothing
  // server, adding shards must not cost throughput.
  bool GateFailed = false;
  if (Opt.ScalingGate > 0) {
    size_t MaxBatch = 0;
    for (const CellResult &R : Results)
      MaxBatch = std::max(MaxBatch, R.Batch);
    for (const CellResult &Multi : Results) {
      if (std::strcmp(Multi.SystemName, "Crafty") != 0 || Multi.Shards == 1 ||
          Multi.Batch != MaxBatch)
        continue;
      for (const CellResult &One : Results) {
        if (std::strcmp(One.SystemName, "Crafty") != 0 || One.Shards != 1 ||
            One.Batch != Multi.Batch)
          continue;
        double Ratio =
            One.OpsPerSec > 0 ? Multi.OpsPerSec / One.OpsPerSec : 0;
        bool Ok = Ratio >= Opt.ScalingGate;
        std::fprintf(stderr,
                     "scaling gate: Crafty batch=%zu %u-shard/%u-shard = "
                     "%.2fx (need >= %.2fx) -> %s\n",
                     Multi.Batch, Multi.Shards, One.Shards, Ratio,
                     Opt.ScalingGate, Ok ? "ok" : "FAILED");
        GateFailed |= !Ok;
      }
    }
  }

  std::string Point = formatPoint(Opt.Label, Scale, Results);
  if (!Opt.AppendPath.empty()) {
    if (!appendTrajectoryPoint(Opt.AppendPath, Schema, Unit, Point)) {
      std::fprintf(stderr,
                   "kv_loadgen: cannot append to %s (not a %s file?)\n",
                   Opt.AppendPath.c_str(), Schema);
      return 1;
    }
    std::fprintf(stderr, "appended point '%s' to %s\n", Opt.Label.c_str(),
                 Opt.AppendPath.c_str());
  } else if (!Opt.OutPath.empty()) {
    if (!writeTextFile(Opt.OutPath, trajectoryDocument(Schema, Unit, Point)))
      return 1;
    std::fprintf(stderr, "wrote %s\n", Opt.OutPath.c_str());
  } else {
    std::fputs(trajectoryDocument(Schema, Unit, Point).c_str(), stdout);
  }
  return GateFailed ? 1 : 0;
}
