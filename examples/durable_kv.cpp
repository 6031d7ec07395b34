//===- examples/durable_kv.cpp - The sharded KV service, crash-audited ----===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The crash-and-audit demo on the real KV service (src/kv/): a two-shard
// kv::KvStore holding byte-string values, each mutation one Crafty
// transaction on its shard. The demo writes a guaranteed phase (ended by
// a persist barrier), layers speculative overwrites on top, kills the
// machine mid-workload, recovers every shard's undo log, and audits the
// recovered store against a ledger: every guaranteed write present and
// untorn, speculative writes either absent or complete.
//
//===----------------------------------------------------------------------===//

#include "kv/KvStore.h"

#include <cstdio>
#include <map>
#include <string>

using namespace crafty;
using namespace crafty::kv;

namespace {

std::string valueOf(uint64_t Key, unsigned Gen) {
  std::string V = "gen" + std::to_string(Gen) + "-key" +
                  std::to_string(Key) + "-";
  V.append(24 + Key % 17, (char)('a' + (Key + Gen) % 26));
  return V;
}

} // namespace

int main() {
  KvConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.SlotsPerShard = 1 << 12;
  Cfg.Mode = PMemMode::Tracked;
  Cfg.EvictionPerMillion = 5000; // Spontaneous cache write-backs.
  KvStore Store(Cfg);

  std::map<uint64_t, std::string> Ledger; // What is guaranteed durable.

  // Phase 1: 500 sets, then persist barriers on every shard: everything
  // so far must survive any later crash.
  for (uint64_t K = 0; K != 500; ++K) {
    if (Store.set(0, K, valueOf(K, 1)) != KvStatus::Ok) {
      std::printf("phase-1 set failed\n");
      return 1;
    }
    Ledger[K] = valueOf(K, 1);
  }
  Store.persistAck(0);

  // Phase 2: overwrites and inserts that a crash may or may not keep.
  for (uint64_t K = 400; K != 700; ++K)
    Store.set(0, K, valueOf(K, 2));

  std::printf("crash after %zu guaranteed and 300 speculative sets...\n",
              Ledger.size());
  Store.simulateCrash();
  size_t RolledBack = Store.recover();
  std::printf("recovery rolled back %zu undo-log sequences across %u "
              "shards\n",
              RolledBack, Store.numShards());

  // Audit: every guaranteed key present with its ledger value or a
  // complete phase-2 overwrite -- never absent, never torn.
  unsigned Overwrites = 0;
  for (const auto &[K, V] : Ledger) {
    std::string Got;
    if (!Store.shard(Store.shardOf(K)).peek(K, Got)) {
      std::printf("DURABILITY VIOLATION: key %llu lost\n",
                  (unsigned long long)K);
      return 1;
    }
    if (Got != V) {
      if (Got != valueOf(K, 2)) {
        std::printf("ATOMICITY VIOLATION: key %llu has torn value\n",
                    (unsigned long long)K);
        return 1;
      }
      ++Overwrites;
    }
  }
  std::printf("audit OK: all %zu guaranteed keys present, %u committed "
              "overwrites retained\n",
              Ledger.size(), Overwrites);

  // The store keeps serving after recovery.
  std::string Out;
  if (Store.set(0, 9999, "post-recovery") != KvStatus::Ok ||
      Store.get(0, 9999, Out) != KvStatus::Ok || Out != "post-recovery") {
    std::printf("post-recovery set/get failed\n");
    return 1;
  }
  std::printf("durable_kv OK\n");
  return 0;
}
