//===- kv/KvServer.h - Share-nothing networked KV front end ----*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KV service front end: a loopback TCP server speaking the
/// kv/KvProtocol.h line protocol over a KvStore, structured as a
/// share-nothing worker model.
///
/// Threading model:
///
///  - Worker threads, one per shard capped at the machine's core count
///    (KvServerConfig::Workers overrides). Workers own no shards; each
///    owns its slice of the network outright: its own epoll loop, its
///    own connections, its own buffers. Worker 0 additionally owns the
///    listening socket and hands accepted fds to workers round-robin --
///    the handoff at accept time is the only moment a connection ever
///    crosses threads. The cap matters on small machines: more workers
///    than cores just converts group-commit batching into context
///    switches.
///
///  - Every request, MGET and MSET across shards included, is parsed,
///    executed, group-committed and answered entirely on the worker
///    owning its connection, which uses transaction context Tid = its
///    worker index on every shard it touches. Contexts are never shared
///    (hence the store must be built with ThreadsPerShard >= the worker
///    count), and a request never crosses a thread: no dispatch queue,
///    no completion queue, no wakeup syscalls on the request path.
///
///  - Group commit per worker, at the transaction level too: requests
///    are not executed as they parse. Each one *stages* its operations
///    onto its shards' per-cycle lists, and the cycle's commit point runs
///    one chunked transaction batch per shard (KvShard::runCycle) --
///    the whole cycle costs a handful of transactions instead of one
///    per request. Then one persist barrier per touched shard, and only
///    then are the cycle's responses released (writes are never
///    acknowledged before they are durable).
///
///  - Ordering is per connection: a connection lives on exactly one
///    worker, which appends one response slot per request to the
///    connection's pending deque in parse order and transmits ready
///    slots strictly from the front (batched with writev). Staged
///    operations run in arrival order within each shard, so a pipelined
///    GET always sees the pipelined SET or MSET before it.
///
///  - STATS requests fan out to every worker: each worker reports
///    counters only it writes (its request timing breakdown, its per-
///    shard op counts, its transaction contexts' HTM statistics), so the
///    document is assembled without cross-thread reads of hot state. A
///    STATS slot holds its connection's later responses until the
///    document is complete.
///
/// Shutdown is graceful: stop() wakes every worker; each drains its
/// inbox until no STATS request is in flight anywhere, flushes every
/// connection's pending output, then exits.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_KV_KVSERVER_H
#define CRAFTY_KV_KVSERVER_H

#include "kv/KvProtocol.h"
#include "kv/KvStore.h"
#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace crafty {
namespace kv {

struct KvServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t Port = 0;
  /// Read-buffer bytes above which a connection is dropped as abusive.
  size_t MaxBufferedBytes = 4 << 20;
  /// Worker threads; 0 means autoWorkerCount(). Clamped to the shard
  /// count (tests set it explicitly to run several workers regardless of
  /// the machine).
  unsigned Workers = 0;
};

class KvServer {
public:
  /// The worker count a zero KvServerConfig::Workers resolves to:
  /// min(\p Shards, hardware cores). Exposed so load generators can size
  /// the store's ThreadsPerShard to match.
  static unsigned autoWorkerCount(unsigned Shards);

  /// \p Store must be built with ThreadsPerShard >= the worker count
  /// (each worker uses its own Tid on every shard) and outlive the
  /// server.
  KvServer(KvStore &Store, const KvServerConfig &Cfg);
  ~KvServer();
  KvServer(const KvServer &) = delete;
  KvServer &operator=(const KvServer &) = delete;

  /// Binds, listens and launches the worker threads.
  void start();
  /// Graceful shutdown: stop accepting, drain in-flight STATS requests,
  /// flush and close every connection, join all threads. Idempotent.
  void stop();

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

private:
  /// Counters a worker updates as it serves requests. Written only by
  /// the owning worker; other threads see them only through the STATS
  /// fan-out, where the owner itself copies them out.
  struct WorkerStats {
    uint64_t Requests = 0;     ///< Requests whose response this worker built.
    uint64_t QueueWaitNs = 0;  ///< Arrival to execution start.
    uint64_t ExecuteNs = 0;    ///< Inside store transactions.
    uint64_t CommitWaitNs = 0; ///< Execution end to response release.
    uint64_t Barriers = 0;     ///< persistAck calls issued.
    uint64_t BarrierNs = 0;    ///< Time inside persistAck.
    uint64_t ConnsAccepted = 0;
    std::vector<uint64_t> OpsPerShard; ///< Executions against each shard.
  };

  /// One STATS request in flight: every worker deposits its contribution
  /// at its own index, the last decrement routes the document back.
  struct StatsRequest {
    unsigned OwnerWorker = 0;
    uint64_t ConnId = 0;
    uint64_t SlotSeq = 0;
    std::vector<WorkerStats> PerWorker;
    /// [Worker][Shard] HTM statistics of that worker's context.
    std::vector<std::vector<HtmStats>> Htm;
    std::atomic<unsigned> Remaining{0};
  };

  /// One queued response: slots join a connection's Pending deque in
  /// request order and leave from the front once Ready. A Staged slot
  /// owns its request's payload bytes and result destinations; the
  /// staged per-shard KvCycleOps point into them until the cycle's
  /// commit point executes the batch and renders the response.
  struct Slot {
    enum State : uint8_t {
      Staged,       ///< Ops staged; executed + released at the commit point.
      WaitingStats, ///< Awaiting the STATS fan-out.
      Ready         ///< Transmittable.
    };
    State St = Staged;
    bool CloseAfter = false; ///< QUIT / protocol error: close once sent.
    KvOp Op = KvOp::Ping;    ///< Renders a Staged slot's response.
    uint64_t SlotSeq = 0;
    uint64_t ArrivalNs = 0; ///< For queue-wait accounting.
    std::string Resp;
    std::string Val;    ///< SET value / CAS desired (staged view target).
    std::string Expect; ///< CAS expected value.
    std::vector<std::pair<uint64_t, std::string>> Pairs; ///< MSET payload.
    std::vector<KvResult> Results;  ///< GET/MGET destinations.
    std::vector<KvStatus> Statuses; ///< SET/DEL/CAS/MSET destinations.
    std::shared_ptr<StatsRequest> Stats;
  };

  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    std::string In;     ///< Unparsed request bytes.
    std::string OutBuf; ///< Partially transmitted bytes (writev carry).
    std::deque<Slot> Pending;
    uint64_t NextSlotSeq = 0;
    bool Draining = false;  ///< Stop parsing (fatal protocol error seen).
    bool WantWrite = false; ///< EPOLLOUT currently armed.
    bool Dirty = false;     ///< Listed in Worker::DirtyConns.
  };

  /// Cross-worker message. NewConn carries a just-accepted fd;
  /// StatsPiece asks a worker for its STATS contribution and StatsDone
  /// returns the completed request to its owner.
  struct InboxMsg {
    enum Kind : uint8_t { NewConn, StatsPiece, StatsDone };
    Kind K = Kind::NewConn;
    int Fd = -1;
    std::shared_ptr<StatsRequest> Stats;
  };

  struct Worker {
    unsigned Idx = 0;
    int EpollFd = -1;
    int WakeFd = -1;
    Mutex InboxMu;
    std::vector<InboxMsg> Inbox CRAFTY_GUARDED_BY(InboxMu);
    /// Connections owned by this worker, keyed by worker-local id (the
    /// epoll payload; ids are never reused, unlike fds).
    std::map<uint64_t, std::unique_ptr<Conn>> Conns;
    uint64_t NextConnId = 0;
    /// Shards written during the current cycle (group-commit set).
    std::vector<uint8_t> Touched;
    /// Per-shard operations staged during the current cycle, executed as
    /// one chunked transaction batch per shard at the commit point -- the
    /// cycle costs a handful of transactions instead of one per request.
    std::vector<std::vector<KvCycleOp>> StagedOps;
    /// Connections whose Pending deque changed this cycle.
    std::vector<uint64_t> DirtyConns;
    /// Connections closed mid-cycle: staged operations hold pointers
    /// into their slots, so destruction waits for the commit point.
    std::vector<std::unique_ptr<Conn>> Doomed;
    WorkerStats S;
    std::thread Thread;
  };

  void workerLoop(unsigned W);
  void acceptReady(Worker &Wk);
  void adoptConn(Worker &Wk, int Fd);
  void readReady(Worker &Wk, Conn &C);
  /// Appends the request's response slot and stages its operations.
  void dispatchRequest(Worker &Wk, Conn &C, KvRequest &&Req,
                       uint64_t NowNs);
  /// Appends \p Op to its shard's staged batch.
  void stage(Worker &Wk, const KvCycleOp &Op);
  /// Renders a Staged slot's response from its executed destinations.
  void renderSlotResponse(Slot &S);
  void startStats(Worker &Wk, Conn &C, Slot &S);
  void fillStatsContribution(Worker &Wk,
                             const std::shared_ptr<StatsRequest> &St);
  void finishStats(Worker &Wk, const std::shared_ptr<StatsRequest> &St);
  std::string formatStatsJson(const StatsRequest &St);
  void processInbox(Worker &Wk);
  /// The cycle's commit point: executes the staged batches (one
  /// runCycle per shard), runs one persist barrier per shard written,
  /// then releases the cycle's responses.
  void commitCycle(Worker &Wk);
  void flushConn(Worker &Wk, Conn &C);
  void markDirty(Worker &Wk, Conn &C);
  void updateWriteInterest(Worker &Wk, Conn &C);
  void closeConn(Worker &Wk, Conn &C);
  void postMsg(unsigned W, InboxMsg &&Msg);
  Slot &appendSlot(Worker &Wk, Conn &C);

  KvStore &Store;
  KvServerConfig Cfg;
  unsigned NumWorkers = 0;
  uint16_t BoundPort = 0;

  int ListenFd = -1;
  /// Round-robin accept cursor (worker 0 only).
  unsigned NextAcceptWorker = 0;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Started{false};
  std::atomic<uint64_t> Served{0};
  /// STATS requests not yet completed; workers may not exit while any
  /// remain.
  std::atomic<uint64_t> StatsInFlight{0};

  std::vector<std::unique_ptr<Worker>> Workers;
};

} // namespace kv
} // namespace crafty

#endif // CRAFTY_KV_KVSERVER_H
