//===- kv/KvShard.cpp - One durable key-value shard -----------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "kv/KvShard.h"

#include "core/Crafty.h"
#include "log/PoolLayout.h"

#include <algorithm>
#include <cstring>

using namespace crafty;
using namespace crafty::kv;

namespace {

/// Pool bytes a shard needs: header + undo logs (or baseline redo logs) +
/// map + cells + freelist + slack for backend-internal carves.
size_t poolBytesFor(const KvConfig &Cfg) {
  size_t Cells = DurableHashMap::roundUpPow2(Cfg.SlotsPerShard);
  size_t Kv = DurableHashMap::bytesFor(Cfg.SlotsPerShard) +
              Cells * Cfg.cellBytes() + Cells * 8 + CacheLineBytes;
  if (Cfg.HeapPages)
    Kv += heap::DurableHeap::bytesFor(Cfg.HeapPages, Cfg.HeapWalSlots);
  size_t Backend = 0;
  switch (Cfg.Backend) {
  case SystemKind::Crafty:
  case SystemKind::CraftyNoValidate:
  case SystemKind::CraftyNoRedo:
    Backend = (size_t)Cfg.ThreadsPerShard * Cfg.LogEntriesPerThread *
              UndoLogRegion::EntryBytes;
    break;
  case SystemKind::NvHtm:
    Backend = (size_t)Cfg.ThreadsPerShard * (8 << 20);
    break;
  case SystemKind::DudeTm:
    Backend = 16 << 20;
    break;
  case SystemKind::NonDurable:
    break;
  }
  return Kv + Backend + (1 << 20); // Header + slack.
}

bool isCraftyKind(SystemKind K) {
  return K == SystemKind::Crafty || K == SystemKind::CraftyNoValidate ||
         K == SystemKind::CraftyNoRedo;
}

BackendOptions backendOptionsFor(const KvConfig &Cfg) {
  BackendOptions BO;
  BO.NumThreads = Cfg.ThreadsPerShard;
  BO.LogEntriesPerThread = Cfg.LogEntriesPerThread;
  BO.EnablePersistCheck = Cfg.EnablePersistCheck;
  BO.EnableTxRaceCheck = Cfg.EnableTxRaceCheck;
  return BO;
}

} // namespace

KvShard::KvShard(const KvConfig &Cfg, unsigned ShardIdx)
    : Cfg(Cfg), ShardIdx(ShardIdx), CellBytes(Cfg.cellBytes()),
      NumCells(DurableHashMap::roundUpPow2(Cfg.SlotsPerShard)),
      Stats(Cfg.ThreadsPerShard), Cycle(Cfg.ThreadsPerShard) {
  PMemConfig PC;
  PC.PoolBytes = poolBytesFor(Cfg);
  PC.Mode = Cfg.Mode;
  PC.DrainLatencyNs = Cfg.DrainLatencyNs;
  PC.EvictionPerMillion = Cfg.EvictionPerMillion;
  PC.EvictionSeed = Cfg.EvictionSeed + ShardIdx * 7919;
  PC.MaxThreads = Cfg.ThreadsPerShard + 4;
  if (!Cfg.DataDir.empty())
    PC.BackingPath =
        Cfg.DataDir + "/shard" + std::to_string(ShardIdx) + ".img";
  Pool = std::make_unique<PMemPool>(PC);
  if (Pool->attachedFromImage())
    openAttached();
  else
    openFresh();
}

KvShard::~KvShard() = default;

void KvShard::openFresh() {
  Htm = std::make_unique<HtmRuntime>(HtmConfig{});
  Backend = createBackend(Cfg.Backend, *Pool, *Htm, backendOptionsFor(Cfg));
  carveKvRegions(/*Attach=*/false);
}

void KvShard::openAttached() {
  if (!isCraftyKind(Cfg.Backend))
    fatalError("KvShard: attaching to an existing image requires a Crafty "
               "backend (undo-log recovery)");
  LastRecovery = RecoveryObserver::recoverPool(*Pool);
  if (!LastRecovery.HeaderValid)
    fatalError("KvShard: image backing file holds no valid pool header");
  // Undo-log entries hold virtual addresses of the mapping that wrote
  // them; recovery translated the old ones, and entries written from now
  // on must translate through *this* process's base.
  auto *Header = reinterpret_cast<PoolHeader *>(Pool->base());
  uint64_t NewBase = reinterpret_cast<uint64_t>(Pool->base());
  Pool->persistDirect(&Header->MappedBase, &NewBase, sizeof(NewBase));
  RecoveredOnOpen = true;
  attachBackend();
  // A fresh process's carve pointer starts at zero; advance it past the
  // regions formatPool carved (header, undo logs; no heap, no arenas) so
  // the KV regions re-carve at their formatted offsets.
  void *H = Pool->carve(sizeof(PoolHeader));
  Pool->carve((size_t)Cfg.ThreadsPerShard * Cfg.LogEntriesPerThread *
              UndoLogRegion::EntryBytes);
  if (H != Pool->base())
    fatalError("KvShard: attach carve layout does not match the image");
  carveKvRegions(/*Attach=*/true);
  // Undo replay restored bitmap/WAL consistency; now reclaim extents that
  // were staged (allocated + WAL intent durable) but never published.
  if (Heap)
    HeapReclaimed = Heap->recoverReclaim();
}

void KvShard::attachBackend() {
  Htm = std::make_unique<HtmRuntime>(HtmConfig{});
  CraftyConfig CC;
  CC.NumThreads = Cfg.ThreadsPerShard;
  CC.LogEntriesPerThread = Cfg.LogEntriesPerThread;
  CC.DisableValidate = Cfg.Backend == SystemKind::CraftyNoValidate;
  CC.DisableRedo = Cfg.Backend == SystemKind::CraftyNoRedo;
  CC.EnablePersistCheck = Cfg.EnablePersistCheck;
  CC.EnableTxRaceCheck = Cfg.EnableTxRaceCheck;
  Backend = CraftyRuntime::attach(*Pool, *Htm, CC);
}

void KvShard::carveKvRegions(bool Attach) {
  // Fixed carve order (format and attach must match): map, cells,
  // freelist links, freelist head, heap. The backend carved its own
  // regions (header, logs) first in both paths.
  Map = std::make_unique<DurableHashMap>(*Pool, Cfg.SlotsPerShard, Attach);
  CellsBase = static_cast<uint8_t *>(Pool->carve(NumCells * CellBytes));
  NextFree = static_cast<uint64_t *>(Pool->carve(NumCells * 8));
  FreeHead = static_cast<uint64_t *>(Pool->carve(CacheLineBytes));
  if (Cfg.HeapPages)
    Heap = std::make_unique<heap::DurableHeap>(*Pool, Cfg.HeapPages,
                                               Cfg.HeapWalSlots, Attach);
  if (!Attach) {
    // Chain every cell onto the freelist; setup-time direct persists.
    std::vector<uint64_t> Links(NumCells);
    for (size_t I = 0; I + 1 < NumCells; ++I)
      Links[I] = I + 2;
    Links[NumCells - 1] = 0;
    Pool->persistDirect(NextFree, Links.data(), NumCells * 8);
    uint64_t Head = 1;
    Pool->persistDirect(FreeHead, &Head, sizeof(Head));
  }
}

CraftyRuntime *KvShard::crafty() {
  if (!isCraftyKind(Cfg.Backend))
    return nullptr;
  return static_cast<CraftyRuntime *>(Backend.get());
}

void KvShard::writeCellTx(TxnContext &Tx, uint64_t CellIdx,
                          std::string_view Val) {
  uint64_t *Cell = cellAt(CellIdx);
  Tx.store(Cell, Val.size());
  for (size_t W = 0; W * 8 < Val.size(); ++W) {
    // Val.size() <= Cfg.MaxValueBytes (checked before the transaction),
    // so one cell write is at most 1 + MaxValueBytes/8 stores.
    CRAFTY_TX_BOUND(Cfg.MaxValueBytes / 8 + 1);
    uint64_t Word = 0;
    size_t N = std::min<size_t>(8, Val.size() - W * 8);
    std::memcpy(&Word, Val.data() + W * 8, N);
    Tx.store(Cell + 1 + W, Word);
  }
}

void KvShard::writeHeapCellTx(TxnContext &Tx, uint64_t CellIdx,
                              uint64_t Ref) {
  uint64_t *Cell = cellAt(CellIdx);
  Tx.store(Cell, HeapLenTag);
  Tx.store(Cell + 1, Ref);
}

void KvShard::freeCellExtentTx(TxnContext &Tx, uint64_t CellIdx) {
  if (!Heap)
    return;
  uint64_t *Cell = cellAt(CellIdx);
  if (Tx.load(Cell) != HeapLenTag)
    return;
  Heap->freeExtentInTx(Tx, Tx.load(Cell + 1));
}

bool KvShard::readCellTx(TxnContext &Tx, uint64_t CellIdx,
                         std::string &Out) {
  uint64_t *Cell = cellAt(CellIdx);
  uint64_t Len = Tx.load(Cell);
  if (Len == HeapLenTag)
    // Tag and ref were loaded transactionally: a concurrent free of this
    // extent rewrites these words and aborts us, so the raw extent copy
    // below can never commit torn.
    return Heap && Heap->readExtent(Tx.load(Cell + 1), Out);
  if (Len > Cfg.MaxValueBytes)
    return false;
  Out.resize(Len);
  for (size_t W = 0; W * 8 < Len; ++W) {
    uint64_t Word = Tx.load(Cell + 1 + W);
    size_t N = std::min<size_t>(8, Len - W * 8);
    std::memcpy(Out.data() + W * 8, &Word, N);
  }
  return true;
}

KvStatus KvShard::setInTx(TxnContext &Tx, uint64_t Key, std::string_view Val,
                          const heap::HeapStaged &S) {
  std::optional<uint64_t> Existing = Map->getTx(Tx, Key);
  uint64_t CellIdx;
  if (Existing) {
    // Overwrite in place: transaction atomicity makes the partial states
    // invisible, and no freelist traffic is needed.
    CellIdx = *Existing;
  } else {
    uint64_t Head = Tx.load(FreeHead);
    if (Head == 0)
      return KvStatus::Full;
    CellIdx = Head - 1;
    Tx.store(FreeHead, Tx.load(&NextFree[CellIdx]));
    if (!Map->putTx(Tx, Key, CellIdx)) {
      // Table full: push the popped cell back and report recoverably.
      Tx.store(&NextFree[CellIdx], Tx.load(FreeHead));
      Tx.store(FreeHead, CellIdx + 1);
      return KvStatus::Full;
    }
  }
  // Whatever extent the cell owned is displaced either way; freeing it
  // here keeps pointer swing + free in one atomic publish transaction.
  freeCellExtentTx(Tx, CellIdx);
  if (S) {
    writeHeapCellTx(Tx, CellIdx, S.Ref);
    Heap->closeWalInTx(Tx, S.WalSlot);
  } else {
    writeCellTx(Tx, CellIdx, Val);
  }
  return KvStatus::Ok;
}

bool KvShard::prepareValue(unsigned Tid, std::string_view Val,
                           heap::HeapStaged &S, KvStatus &St) {
  S = {};
  if (Val.size() <= Cfg.MaxValueBytes)
    return true; // Inline cell fast path.
  if (!Heap || Val.size() > heap::DurableHeap::MaxObjectBytes) {
    St = KvStatus::TooBig;
    return false;
  }
  S = Heap->allocAndStage(*Backend, Tid, Val);
  if (!S) {
    // Exhaustion may be only barrier-deferred reuse (pages/WAL slots
    // freed since the last barrier are held back so rollback cannot
    // resurrect clobbered extents). Force a barrier and retry once
    // before reporting the shard genuinely full.
    persistAck(Tid);
    S = Heap->allocAndStage(*Backend, Tid, Val);
  }
  if (!S) {
    St = KvStatus::Full; // Pages or WAL records exhausted.
    return false;
  }
  // Crafty's next HTM commit (the publish transaction) fences the staged
  // writebacks; backends without that flush-without-drain trick pay an
  // explicit drain here, as the paper's baselines would.
  if (!crafty())
    Heap->stageDrain(Tid);
  return true;
}

KvStatus KvShard::delInTx(TxnContext &Tx, uint64_t Key) {
  std::optional<uint64_t> Cell = Map->getTx(Tx, Key);
  if (!Cell)
    return KvStatus::NotFound;
  Map->eraseTx(Tx, Key);
  freeCellExtentTx(Tx, *Cell);
  Tx.store(&NextFree[*Cell], Tx.load(FreeHead));
  Tx.store(FreeHead, *Cell + 1);
  return KvStatus::Ok;
}

KvStatus KvShard::casInTx(TxnContext &Tx, uint64_t Key,
                          std::string_view Expect, std::string_view Desired,
                          std::string &Scratch, const heap::HeapStaged &S) {
  std::optional<uint64_t> Cell = Map->getTx(Tx, Key);
  if (!Cell)
    return KvStatus::NotFound;
  if (!readCellTx(Tx, *Cell, Scratch))
    return KvStatus::Err;
  if (Scratch != Expect)
    return KvStatus::Mismatch;
  freeCellExtentTx(Tx, *Cell);
  if (S) {
    writeHeapCellTx(Tx, *Cell, S.Ref);
    Heap->closeWalInTx(Tx, S.WalSlot);
  } else {
    writeCellTx(Tx, *Cell, Desired);
  }
  return KvStatus::Ok;
}

bool KvShard::runCycle(unsigned Tid, KvCycleOp *Ops, size_t N) {
  size_t Limit = Cfg.BatchTxnLimit ? Cfg.BatchTxnLimit : 1;
  bool Wrote = false;
  CycleScratch &CS = Cycle[Tid];
  CS.Staged.resize(Limit);
  CS.Skip.resize(Limit);
  std::vector<heap::HeapStaged> &Staged = CS.Staged;
  std::vector<uint8_t> &Skip = CS.Skip;
  for (size_t Begin = 0; Begin != N;) {
    size_t End = std::min(N, Begin + Limit);
    // Stage the chunk's heap-bound SET/CAS values before its
    // transaction; ops that fail routing get their terminal status here
    // and are skipped. Limit <= HeapWalSlots keeps every chunk's staging
    // within the WAL.
    size_t Live = 0;
    for (size_t I = Begin; I != End; ++I) {
      KvCycleOp &Op = Ops[I];
      Staged[I - Begin] = {};
      Skip[I - Begin] = false;
      if (Op.K == KvCycleOp::Set || Op.K == KvCycleOp::Cas)
        Skip[I - Begin] =
            !prepareValue(Tid, Op.Val, Staged[I - Begin], *Op.Status);
      Live += !Skip[I - Begin];
    }
    if (Live)
      Backend->run(Tid, [&](TxnContext &Tx) {
        for (size_t I = Begin; I != End; ++I) {
          // End - Begin <= Limit: one transaction covers one cycle chunk.
          CRAFTY_TX_BOUND(Cfg.BatchTxnLimit);
          KvCycleOp &Op = Ops[I];
          if (Skip[I - Begin])
            continue; // Routing failed before the transaction.
          switch (Op.K) {
          case KvCycleOp::Get: {
            KvResult &R = *Op.Result;
            R.Status = KvStatus::NotFound; // Bodies may re-execute.
            R.Value.clear();
            if (std::optional<uint64_t> Cell = Map->getTx(Tx, Op.Key))
              R.Status = readCellTx(Tx, *Cell, R.Value) ? KvStatus::Ok
                                                        : KvStatus::Err;
            break;
          }
          case KvCycleOp::Set:
            *Op.Status = setInTx(Tx, Op.Key, Op.Val, Staged[I - Begin]);
            break;
          case KvCycleOp::Del:
            *Op.Status = delInTx(Tx, Op.Key);
            break;
          case KvCycleOp::Cas:
            *Op.Status = casInTx(Tx, Op.Key, Op.Expect, Op.Val, CS.Value,
                                 Staged[I - Begin]);
            break;
          }
        }
      });
    for (size_t I = Begin; I != End; ++I)
      if (Staged[I - Begin] && *Ops[I].Status != KvStatus::Ok)
        Heap->abandon(*Backend, Tid, Staged[I - Begin]);
    for (size_t I = Begin; I != End; ++I) {
      const KvCycleOp &Op = Ops[I];
      switch (Op.K) {
      case KvCycleOp::Get:
        ++Stats[Tid].Gets;
        ++(Op.Result->Status == KvStatus::Ok ? Stats[Tid].Hits
                                             : Stats[Tid].Misses);
        break;
      case KvCycleOp::Set:
        ++Stats[Tid].Sets;
        Wrote |= *Op.Status == KvStatus::Ok;
        break;
      case KvCycleOp::Del:
        ++Stats[Tid].Dels;
        Wrote |= *Op.Status == KvStatus::Ok;
        break;
      case KvCycleOp::Cas:
        ++Stats[Tid].Cas;
        Wrote |= *Op.Status == KvStatus::Ok;
        break;
      }
    }
    Begin = End;
  }
  return Wrote;
}

void KvShard::persistAck(unsigned Tid) {
  if (CraftyRuntime *Rt = crafty())
    Rt->persistBarrier(Tid);
  // NV-HTM / DudeTM persist their redo log inside run(); Non-durable
  // promises nothing. Neither needs (or has) an on-demand barrier.
  if (Heap)
    Heap->barrierReached();
}

void KvShard::simulateCrash() { Pool->crash(); }

void KvShard::recoverInPlace() {
  // The pool survives in place (same mapping, same carve offsets), so
  // map/cell/freelist pointers stay valid; only the runtime state is
  // rebuilt, exactly as a restarted process would attach.
  Backend.reset();
  LastRecovery = RecoveryObserver::recoverPool(*Pool);
  attachBackend();
  if (Heap)
    HeapReclaimed = Heap->recoverReclaim();
}

bool KvShard::peek(uint64_t Key, std::string &Out) const {
  std::optional<uint64_t> Cell = Map->peek(Key);
  if (!Cell)
    return false;
  const uint64_t *C = cellAt(*Cell);
  uint64_t Len = C[0];
  if (Len == HeapLenTag)
    return Heap && Heap->readExtent(C[1], Out);
  if (Len > Cfg.MaxValueBytes)
    return false;
  Out.assign(reinterpret_cast<const char *>(C + 1), Len);
  return true;
}

KvHeapAudit KvShard::auditHeap() const {
  KvHeapAudit A;
  if (!Heap)
    return A;
  A.Enabled = true;
  A.BitmapPages = Heap->allocatedPages();
  A.StagedWal = Heap->stagedWalRecords();
  Map->forEachPeek([&](uint64_t, uint64_t CellIdx) {
    const uint64_t *C = cellAt(CellIdx);
    if (C[0] == HeapLenTag)
      A.LivePages +=
          heap::DurableHeap::pagesFor(heap::DurableHeap::refLen(C[1]));
  });
  return A;
}

KvOpStats KvShard::opStats() const {
  KvOpStats S;
  for (const KvOpStats &T : Stats)
    S += T;
  return S;
}
