// Durability & write policies: the extensions layered on the paper's
// protocol, in one walkthrough.
//
//   1. On-disk snapshots: a cache instance persists its entries (with their
//      Rejig config-id stamps and quarantined keys) and restores them after
//      a process restart.
//   2. Write policies (Section 2): write-around (the paper's) deletes the
//      entry, so the next read misses; write-through installs the new value
//      under the same Q lease, so the next read hits it.
//
// Build & run:  ./build/examples/durability_and_write_policies
// Exits 1 if a write policy does not behave as described.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/cache/snapshot.h"
#include "src/client/gemini_client.h"
#include "src/coordinator/coordinator.h"
#include "src/store/data_store.h"

using namespace gemini;

int main() {
  VirtualClock clock;
  DataStore store;
  store.Put("order:1001", "{\"status\": \"pending\"}");

  std::vector<std::unique_ptr<CacheInstance>> owned;
  std::vector<CacheInstance*> instances;
  for (InstanceId i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<CacheInstance>(i, &clock));
    instances.push_back(owned.back().get());
  }
  Coordinator coordinator(&clock, instances, /*num_fragments=*/4);

  // ---- 1. Snapshots -----------------------------------------------------------
  std::printf("== on-disk snapshots ==\n");
  {
    GeminiClient client(&clock, &coordinator, instances, &store);
    Session s;
    (void)client.Read(s, "order:1001");  // cache it
  }
  const std::string snap = "/tmp/gemini_example.snap";
  if (Snapshot::WriteToFile(*instances[0], snap).ok() ||
      Snapshot::WriteToFile(*instances[1], snap).ok()) {
    std::printf("  wrote a snapshot (entries + config-id stamps + "
                "quarantined keys) to %s\n",
                snap.c_str());
  }
  CacheInstance reborn(9, &clock);
  if (Snapshot::LoadFromFile(reborn, snap).ok()) {
    std::printf("  restored it into a brand-new instance: %llu entries\n\n",
                (unsigned long long)reborn.stats().entry_count);
  }
  std::remove(snap.c_str());

  // ---- 2. Write policies ---------------------------------------------------
  std::printf("== write policies ==\n");
  bool ok = true;
  for (WritePolicy policy :
       {WritePolicy::kWriteAround, WritePolicy::kWriteThrough}) {
    const bool through = policy == WritePolicy::kWriteThrough;
    GeminiClient::Options options;
    options.write_policy = policy;
    GeminiClient client(&clock, &coordinator, instances, &store, options);
    Session s;
    (void)client.Write(s, "order:1001", std::string("{\"status\": \"paid\"}"));
    auto r = client.Read(s, "order:1001");
    std::printf("  %s: the read after a write %s the cache\n",
                through ? "write-through" : "write-around",
                r.ok() && r->cache_hit ? "hits" : "misses");
    ok = ok && r.ok() && r->cache_hit == through &&
         r->value.version == store.VersionOf("order:1001");
  }
  return ok ? 0 : 1;
}
