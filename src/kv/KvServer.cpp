//===- kv/KvServer.cpp - Share-nothing networked KV front end -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "kv/KvServer.h"

#include "core/Crafty.h"
#include "support/Clock.h"
#include "support/Compiler.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace crafty;
using namespace crafty::kv;

namespace {

/// epoll payload tags below FirstConnId address the worker's own fds.
constexpr uint64_t WakeTag = 0;
constexpr uint64_t ListenTag = 1;
constexpr uint64_t FirstConnId = 2;

constexpr int ListenBacklog = 128;

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

} // namespace

unsigned KvServer::autoWorkerCount(unsigned Shards) {
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  return std::min(Shards, Cores);
}

KvServer::KvServer(KvStore &Store, const KvServerConfig &Cfg)
    : Store(Store), Cfg(Cfg),
      NumWorkers(Cfg.Workers ? std::min(Cfg.Workers, Store.numShards())
                             : autoWorkerCount(Store.numShards())) {
  if (Store.config().ThreadsPerShard < NumWorkers)
    fatalError("KvServer: the store needs ThreadsPerShard >= the worker "
               "count so each worker owns a Tid on every shard");
}

KvServer::~KvServer() { stop(); }

void KvServer::start() {
  if (Started.exchange(true))
    return;

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    fatalError("KvServer: socket() failed");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Cfg.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    fatalError("KvServer: bind() failed");
  socklen_t AddrLen = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
  BoundPort = ntohs(Addr.sin_port);
  if (::listen(ListenFd, ListenBacklog) < 0)
    fatalError("KvServer: listen() failed");
  setNonBlocking(ListenFd);

  // Populate Workers fully before spawning any thread: workerLoop and
  // postMsg index the vector, and a later push_back would reallocate it
  // under a running worker.
  for (unsigned W = 0; W != NumWorkers; ++W) {
    auto Wk = std::make_unique<Worker>();
    Wk->Idx = W;
    Wk->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
    Wk->WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (Wk->EpollFd < 0 || Wk->WakeFd < 0)
      fatalError("KvServer: epoll/eventfd setup failed");
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.u64 = WakeTag;
    ::epoll_ctl(Wk->EpollFd, EPOLL_CTL_ADD, Wk->WakeFd, &Ev);
    Wk->NextConnId = FirstConnId;
    Wk->Touched.assign(Store.numShards(), 0);
    Wk->StagedOps.assign(Store.numShards(), {});
    Wk->S.OpsPerShard.assign(Store.numShards(), 0);
    Workers.push_back(std::move(Wk));
  }
  // Worker 0 owns the listener; accepted fds are handed round-robin.
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = ListenTag;
  ::epoll_ctl(Workers[0]->EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev);

  for (unsigned W = 0; W != NumWorkers; ++W)
    Workers[W]->Thread = std::thread([this, W] { workerLoop(W); });
}

void KvServer::stop() {
  if (!Started.load() || Stopping.exchange(true))
    return;
  for (auto &Wk : Workers) {
    uint64_t One = 1;
    (void)!::write(Wk->WakeFd, &One, sizeof(One));
  }
  for (auto &Wk : Workers)
    if (Wk->Thread.joinable())
      Wk->Thread.join();
  for (auto &Wk : Workers) {
    if (Wk->EpollFd >= 0)
      ::close(Wk->EpollFd);
    if (Wk->WakeFd >= 0)
      ::close(Wk->WakeFd);
    Wk->EpollFd = Wk->WakeFd = -1;
  }
  if (ListenFd >= 0)
    ::close(ListenFd);
  ListenFd = -1;
}

//===----------------------------------------------------------------------===//
// Worker event loop
//===----------------------------------------------------------------------===//

void KvServer::workerLoop(unsigned W) {
  Worker &Wk = *Workers[W];
  std::vector<epoll_event> Events(128);
  bool ListenerArmed = (W == 0);
  while (true) {
    bool Stop = Stopping.load(std::memory_order_acquire);
    if (Stop && ListenerArmed) {
      ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
      ListenerArmed = false;
    }
    int N = ::epoll_wait(Wk.EpollFd, Events.data(), (int)Events.size(),
                         Stop ? 5 : -1);
    if (N < 0 && errno != EINTR)
      break;
    for (int I = 0; I < N; ++I) {
      uint64_t Tag = Events[I].data.u64;
      uint32_t Mask = Events[I].events;
      if (Tag == WakeTag) {
        uint64_t Junk;
        while (::read(Wk.WakeFd, &Junk, sizeof(Junk)) > 0)
          ;
        continue;
      }
      if (Tag == ListenTag) {
        if (!Stop)
          acceptReady(Wk);
        continue;
      }
      auto It = Wk.Conns.find(Tag);
      if (It == Wk.Conns.end())
        continue;
      if (Mask & (EPOLLHUP | EPOLLERR)) {
        closeConn(Wk, *It->second);
        continue;
      }
      if ((Mask & EPOLLIN) && !Stop) {
        readReady(Wk, *It->second);
        It = Wk.Conns.find(Tag); // readReady may close the connection.
        if (It == Wk.Conns.end())
          continue;
      }
      if (Mask & EPOLLOUT)
        flushConn(Wk, *It->second);
    }
    processInbox(Wk);
    commitCycle(Wk);
    if (Stop) {
      // Exit only once no cross-worker work can still land in the inbox:
      // STATS pieces and their completions are all counted.
      MutexLock Lk(Wk.InboxMu);
      if (Wk.Inbox.empty() &&
          StatsInFlight.load(std::memory_order_acquire) == 0)
        break;
    }
  }
  // Final flush: every releasable response was marked Ready by the last
  // commitCycle; push the bytes out (bounded) and close. flushConn can
  // closeConn (QUIT slots), which erases the entry -- advance first.
  for (auto It = Wk.Conns.begin(); It != Wk.Conns.end();) {
    Conn &C = *It->second;
    ++It;
    for (int Spin = 0; Spin != 100; ++Spin) {
      flushConn(Wk, C);
      if (C.Fd < 0 || (C.OutBuf.empty() &&
                       (C.Pending.empty() ||
                        C.Pending.front().St != Slot::Ready)))
        break;
      pollfd P{C.Fd, POLLOUT, 0};
      ::poll(&P, 1, 50);
    }
    if (C.Fd >= 0) {
      ::close(C.Fd);
      C.Fd = -1;
    }
  }
  Wk.Conns.clear();
  Wk.Doomed.clear();
}

void KvServer::acceptReady(Worker &Wk) {
  while (true) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    unsigned Target = NextAcceptWorker;
    NextAcceptWorker = (NextAcceptWorker + 1) % NumWorkers;
    if (Target == Wk.Idx) {
      adoptConn(Wk, Fd);
    } else {
      InboxMsg Msg;
      Msg.K = InboxMsg::NewConn;
      Msg.Fd = Fd;
      postMsg(Target, std::move(Msg));
    }
  }
}

void KvServer::adoptConn(Worker &Wk, int Fd) {
  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  C->Id = Wk.NextConnId++;
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = C->Id;
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  ++Wk.S.ConnsAccepted;
  Wk.Conns.emplace(C->Id, std::move(C));
}

void KvServer::closeConn(Worker &Wk, Conn &C) {
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  C.Fd = -1;
  // Outstanding STATS requests keep their StatsRequest alive via
  // shared_ptr; their completions will find no connection and drop.
  // The Conn object itself must outlive the cycle: staged operations may
  // hold destinations inside its slots, so it moves to the graveyard and
  // dies at the commit point.
  auto It = Wk.Conns.find(C.Id);
  if (It != Wk.Conns.end()) {
    Wk.Doomed.push_back(std::move(It->second));
    Wk.Conns.erase(It);
  }
}

void KvServer::markDirty(Worker &Wk, Conn &C) {
  if (C.Dirty)
    return;
  C.Dirty = true;
  Wk.DirtyConns.push_back(C.Id);
}

KvServer::Slot &KvServer::appendSlot(Worker &Wk, Conn &C) {
  C.Pending.emplace_back();
  Slot &S = C.Pending.back();
  S.SlotSeq = C.NextSlotSeq++;
  markDirty(Wk, C);
  return S;
}

//===----------------------------------------------------------------------===//
// Request path (single worker, no handoffs)
//===----------------------------------------------------------------------===//

void KvServer::readReady(Worker &Wk, Conn &C) {
  char Buf[16384];
  while (true) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.In.append(Buf, (size_t)N);
      if (C.In.size() > Cfg.MaxBufferedBytes)
        return closeConn(Wk, C);
      continue;
    }
    if (N == 0)
      return closeConn(Wk, C);
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    return closeConn(Wk, C);
  }
  if (C.Draining) {
    C.In.clear();
    return;
  }
  uint64_t ArrivalNs = monotonicNanos();
  size_t Off = 0;
  while (Off < C.In.size()) {
    KvRequest Req;
    ParseResult R =
        parseRequest(std::string_view(C.In).substr(Off), Req);
    if (R.St == ParseResult::NeedMore)
      break;
    if (R.St == ParseResult::Malformed) {
      Slot &S = appendSlot(Wk, C);
      appendProtocolError(S.Resp);
      S.St = Slot::Ready;
      S.CloseAfter = true;
      C.Draining = true;
      C.In.clear();
      return;
    }
    Off += R.Consumed;
    dispatchRequest(Wk, C, std::move(Req), ArrivalNs);
  }
  C.In.erase(0, Off);
}

void KvServer::dispatchRequest(Worker &Wk, Conn &C, KvRequest &&Req,
                               uint64_t NowNs) {
  Slot &S = appendSlot(Wk, C);
  ++Wk.S.Requests;
  switch (Req.Op) {
  case KvOp::Ping:
    appendPong(S.Resp);
    S.St = Slot::Ready;
    Served.fetch_add(1, std::memory_order_relaxed);
    return;
  case KvOp::Quit:
    appendStatus(S.Resp, KvStatus::Ok);
    S.St = Slot::Ready;
    S.CloseAfter = true;
    Served.fetch_add(1, std::memory_order_relaxed);
    return;
  case KvOp::Stats:
    startStats(Wk, C, S);
    return;
  case KvOp::Get:
  case KvOp::Set:
  case KvOp::Del:
  case KvOp::Cas: {
    if (Req.ValTooLarge) {
      // The parser skimmed an oversize payload: answer `ERR toobig`
      // immediately without staging anything. The connection stays
      // healthy -- the request framed cleanly, it was just too big.
      appendStatus(S.Resp, KvStatus::TooBig);
      S.St = Slot::Ready;
      Served.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Stage the operation; the commit point executes it inside the
    // shard's cycle batch. The slot owns the payload the views target.
    S.Op = Req.Op;
    S.ArrivalNs = NowNs;
    S.Val = std::move(Req.Val);
    S.Expect = std::move(Req.Expect);
    KvCycleOp Op;
    Op.Key = Req.Key;
    if (Req.Op == KvOp::Get) {
      Op.K = KvCycleOp::Get;
      S.Results.resize(1);
      Op.Result = &S.Results[0];
    } else {
      Op.K = Req.Op == KvOp::Set   ? KvCycleOp::Set
             : Req.Op == KvOp::Del ? KvCycleOp::Del
                                   : KvCycleOp::Cas;
      Op.Val = S.Val;
      Op.Expect = S.Expect;
      S.Statuses.assign(1, KvStatus::Err);
      Op.Status = &S.Statuses[0];
    }
    stage(Wk, Op);
    Served.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  case KvOp::Mget:
  case KvOp::Mset:
    break;
  }

  // Multi-key: stage each key on its shard in request order. The
  // per-shard lists keep arrival order, so the rendered response is
  // consistent with every earlier staged operation.
  S.Op = Req.Op;
  S.ArrivalNs = NowNs;
  if (Req.Op == KvOp::Mget) {
    S.Results.resize(Req.Keys.size());
    for (size_t I = 0; I != Req.Keys.size(); ++I) {
      KvCycleOp Op;
      Op.K = KvCycleOp::Get;
      Op.Key = Req.Keys[I];
      Op.Result = &S.Results[I];
      stage(Wk, Op);
    }
  } else {
    S.Pairs = std::move(Req.Pairs);
    S.Statuses.assign(S.Pairs.size(), KvStatus::Err);
    for (size_t I = 0; I != S.Pairs.size(); ++I) {
      // Skimmed pairs are answered `ERR toobig` in place and never staged
      // (the parser discarded their payload).
      if (I < Req.PairTooLarge.size() && Req.PairTooLarge[I]) {
        S.Statuses[I] = KvStatus::TooBig;
        continue;
      }
      KvCycleOp Op;
      Op.K = KvCycleOp::Set;
      Op.Key = S.Pairs[I].first;
      Op.Val = S.Pairs[I].second;
      Op.Status = &S.Statuses[I];
      stage(Wk, Op);
    }
  }
  Served.fetch_add(1, std::memory_order_relaxed);
}

void KvServer::stage(Worker &Wk, const KvCycleOp &Op) {
  unsigned Shard = Store.shardOf(Op.Key);
  Wk.StagedOps[Shard].push_back(Op);
  ++Wk.S.OpsPerShard[Shard];
}

void KvServer::renderSlotResponse(Slot &S) {
  switch (S.Op) {
  case KvOp::Get: {
    const KvResult &R = S.Results[0];
    if (R.Status == KvStatus::Ok)
      appendValue(S.Resp, R.Value);
    else
      appendStatus(S.Resp, R.Status);
    break;
  }
  case KvOp::Set:
  case KvOp::Del:
  case KvOp::Cas:
    appendStatus(S.Resp, S.Statuses[0]);
    break;
  case KvOp::Mget:
    appendValuesHeader(S.Resp, S.Results.size());
    for (const KvResult &R : S.Results) {
      if (R.Status == KvStatus::Ok)
        appendValue(S.Resp, R.Value);
      else
        appendNotFound(S.Resp);
    }
    break;
  case KvOp::Mset:
    appendStatusesHeader(S.Resp, S.Statuses.size());
    for (KvStatus St : S.Statuses)
      appendStatus(S.Resp, St);
    break;
  default:
    appendProtocolError(S.Resp);
    break;
  }
  // Drop the staged payload; the rendered bytes are all that's left.
  S.Val.clear();
  S.Expect.clear();
  S.Pairs.clear();
  S.Results.clear();
  S.Statuses.clear();
}

//===----------------------------------------------------------------------===//
// STATS fan-out
//===----------------------------------------------------------------------===//

void KvServer::startStats(Worker &Wk, Conn &C, Slot &S) {
  auto St = std::make_shared<StatsRequest>();
  St->OwnerWorker = Wk.Idx;
  St->ConnId = C.Id;
  St->SlotSeq = S.SlotSeq;
  St->PerWorker.resize(NumWorkers);
  St->Htm.assign(NumWorkers,
                 std::vector<HtmStats>(Store.numShards()));
  St->Remaining.store(NumWorkers, std::memory_order_relaxed);
  S.St = Slot::WaitingStats;
  S.Stats = St;
  StatsInFlight.fetch_add(1, std::memory_order_acq_rel);
  for (unsigned W = 0; W != NumWorkers; ++W) {
    if (W == Wk.Idx)
      continue;
    InboxMsg Msg;
    Msg.K = InboxMsg::StatsPiece;
    Msg.Stats = St;
    postMsg(W, std::move(Msg));
  }
  fillStatsContribution(Wk, St);
}

void KvServer::fillStatsContribution(
    Worker &Wk, const std::shared_ptr<StatsRequest> &St) {
  St->PerWorker[Wk.Idx] = Wk.S;
  for (unsigned S = 0; S != Store.numShards(); ++S)
    St->Htm[Wk.Idx][S] = Store.shard(S).htmStatsFor(Wk.Idx);
  if (St->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (St->OwnerWorker == Wk.Idx) {
      finishStats(Wk, St);
    } else {
      InboxMsg Msg;
      Msg.K = InboxMsg::StatsDone;
      Msg.Stats = St;
      postMsg(St->OwnerWorker, std::move(Msg));
    }
  }
}

std::string KvServer::formatStatsJson(const StatsRequest &St) {
  // Compact layout, workers before shards: readers sum `"key":` matches
  // and split the document at `"shards":`.
  std::string J;
  JsonWriter JW(J, JsonWriter::Compact);
  JW.beginObject()
      .field("version", "crafty-kv-stats-v1")
      .key("workers")
      .beginArray();
  for (unsigned W = 0; W != NumWorkers; ++W) {
    const WorkerStats &S = St.PerWorker[W];
    JW.beginObject()
        .field("worker", W)
        .field("requests", S.Requests)
        .field("conns_accepted", S.ConnsAccepted)
        .field("queue_wait_ns", S.QueueWaitNs)
        .field("execute_ns", S.ExecuteNs)
        .field("commit_wait_ns", S.CommitWaitNs)
        .field("barriers", S.Barriers)
        .field("barrier_ns", S.BarrierNs)
        .key("ops_per_shard")
        .beginArray();
    for (unsigned Sh = 0; Sh != Store.numShards(); ++Sh)
      JW.value(S.OpsPerShard[Sh]);
    JW.endArray().endObject();
  }
  JW.endArray().key("shards").beginArray();
  for (unsigned Sh = 0; Sh != Store.numShards(); ++Sh) {
    uint64_t Ops = 0;
    HtmStats H;
    for (unsigned W = 0; W != NumWorkers; ++W) {
      Ops += St.PerWorker[W].OpsPerShard[Sh];
      H += St.Htm[W][Sh];
    }
    PMemStats P = Store.shard(Sh).pool().stats();
    JW.beginObject()
        .field("shard", Sh)
        .field("ops", Ops)
        .field("htm_commits", H.Commits)
        .field("htm_aborts", H.aborts())
        .field("htm_abort_capacity", H.AbortCapacity)
        .field("clwb_calls", P.ClwbCalls)
        .field("lines_scheduled", P.LinesScheduled)
        .field("drains", P.Drains)
        .field("empty_drains", P.EmptyDrains)
        .field("evicted_lines", P.EvictedLines)
        .endObject();
  }
  JW.endArray().endObject();
  return J;
}

void KvServer::finishStats(Worker &Wk,
                           const std::shared_ptr<StatsRequest> &St) {
  StatsInFlight.fetch_sub(1, std::memory_order_acq_rel);
  auto It = Wk.Conns.find(St->ConnId);
  if (It == Wk.Conns.end())
    return;
  Conn &C = *It->second;
  for (Slot &S : C.Pending) {
    if (S.SlotSeq != St->SlotSeq)
      continue;
    appendStatsPayload(S.Resp, formatStatsJson(*St));
    S.St = Slot::Ready;
    S.Stats.reset();
    Served.fetch_add(1, std::memory_order_relaxed);
    markDirty(Wk, C);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Inbox, group commit and response flushing
//===----------------------------------------------------------------------===//

void KvServer::postMsg(unsigned W, InboxMsg &&Msg) {
  Worker &Wk = *Workers[W];
  {
    MutexLock Lk(Wk.InboxMu);
    Wk.Inbox.push_back(std::move(Msg));
  }
  uint64_t One = 1;
  (void)!::write(Wk.WakeFd, &One, sizeof(One));
}

void KvServer::processInbox(Worker &Wk) {
  std::vector<InboxMsg> Batch;
  {
    MutexLock Lk(Wk.InboxMu);
    Batch.swap(Wk.Inbox);
  }
  for (InboxMsg &Msg : Batch) {
    switch (Msg.K) {
    case InboxMsg::NewConn:
      adoptConn(Wk, Msg.Fd);
      break;
    case InboxMsg::StatsPiece:
      fillStatsContribution(Wk, Msg.Stats);
      break;
    case InboxMsg::StatsDone:
      finishStats(Wk, Msg.Stats);
      break;
    }
  }
}

void KvServer::commitCycle(Worker &Wk) {
  // 1. Execute the staged batches, one runCycle per shard, each in
  //    arrival order.
  uint64_t ExecStartNs = 0, ExecEndNs = 0;
  for (unsigned S = 0; S != (unsigned)Wk.StagedOps.size(); ++S) {
    std::vector<KvCycleOp> &Ops = Wk.StagedOps[S];
    if (Ops.empty())
      continue;
    if (!ExecStartNs)
      ExecStartNs = monotonicNanos();
    if (Store.shard(S).runCycle(Wk.Idx, Ops.data(), Ops.size()))
      Wk.Touched[S] = 1;
    Ops.clear();
  }
  if (ExecStartNs) {
    ExecEndNs = monotonicNanos();
    Wk.S.ExecuteNs += ExecEndNs - ExecStartNs;
    // 2. Group commit: one persist barrier on every shard the cycle wrote.
    uint64_t Barriers = 0;
    for (unsigned S = 0; S != (unsigned)Wk.Touched.size(); ++S) {
      if (!Wk.Touched[S])
        continue;
      Wk.Touched[S] = 0;
      Store.shard(S).persistAck(Wk.Idx);
      ++Barriers;
    }
    if (Barriers) {
      Wk.S.Barriers += Barriers;
      Wk.S.BarrierNs += monotonicNanos() - ExecEndNs;
    }
  }
  // 3. Release every response staged this cycle (ack follows
  //    durability): render it from its executed destinations, then
  //    transmit ready runs with writev. Nothing here marks a connection
  //    dirty, so the list is walked in place and cleared, keeping its
  //    capacity for the next cycle.
  if (!Wk.DirtyConns.empty()) {
    uint64_t CommitNs = monotonicNanos();
    for (uint64_t Id : Wk.DirtyConns) {
      auto It = Wk.Conns.find(Id);
      if (It == Wk.Conns.end())
        continue;
      Conn &C = *It->second;
      C.Dirty = false;
      for (Slot &S : C.Pending) {
        if (S.St != Slot::Staged)
          continue;
        renderSlotResponse(S);
        S.St = Slot::Ready;
        if (ExecStartNs) {
          Wk.S.QueueWaitNs +=
              ExecStartNs - std::min(S.ArrivalNs, ExecStartNs);
          Wk.S.CommitWaitNs += CommitNs - ExecEndNs;
        }
      }
      flushConn(Wk, C);
    }
    Wk.DirtyConns.clear();
  }
  // 4. Closed connections can die now: no staged operation can still
  //    point into their slots.
  Wk.Doomed.clear();
}

void KvServer::updateWriteInterest(Worker &Wk, Conn &C) {
  bool Want = !C.OutBuf.empty() ||
              (!C.Pending.empty() && C.Pending.front().St == Slot::Ready);
  if (Want == C.WantWrite)
    return;
  C.WantWrite = Want;
  epoll_event Ev{};
  Ev.events = EPOLLIN | (Want ? (uint32_t)EPOLLOUT : 0u);
  Ev.data.u64 = C.Id;
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

void KvServer::flushConn(Worker &Wk, Conn &C) {
  if (C.Fd < 0)
    return;
  constexpr int MaxIov = 64;
  while (true) {
    iovec Iov[MaxIov];
    int N = 0;
    if (!C.OutBuf.empty()) {
      Iov[N].iov_base = C.OutBuf.data();
      Iov[N].iov_len = C.OutBuf.size();
      ++N;
    }
    for (Slot &S : C.Pending) {
      if (S.St != Slot::Ready || N == MaxIov)
        break;
      Iov[N].iov_base = S.Resp.data();
      Iov[N].iov_len = S.Resp.size();
      ++N;
    }
    if (N == 0)
      break;
    ssize_t Sent = ::writev(C.Fd, Iov, N);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      return closeConn(Wk, C);
    }
    size_t Rem = (size_t)Sent;
    if (!C.OutBuf.empty()) {
      size_t Take = std::min(Rem, C.OutBuf.size());
      C.OutBuf.erase(0, Take);
      Rem -= Take;
    }
    while (!C.Pending.empty() && C.Pending.front().St == Slot::Ready) {
      Slot &S = C.Pending.front();
      if (Rem >= S.Resp.size()) {
        Rem -= S.Resp.size();
        bool Close = S.CloseAfter;
        C.Pending.pop_front();
        if (Close)
          return closeConn(Wk, C);
      } else {
        S.Resp.erase(0, Rem);
        Rem = 0;
        break;
      }
    }
  }
  updateWriteInterest(Wk, C);
}
