// Quickstart: assemble a Gemini deployment by hand and run the basic
// cache-augmented read/write flow.
//
//   data store <- write-around -> cache instances <- leases <- client
//                                       ^
//                               coordinator (fragments, config ids)
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/client/gemini_client.h"
#include "src/common/clock.h"
#include "src/coordinator/coordinator.h"
#include "src/store/data_store.h"

using namespace gemini;

int main() {
  // 1. The moving parts. A VirtualClock keeps the example deterministic;
  //    production code would pass &SystemClock::Global().
  VirtualClock clock;
  DataStore store;
  store.Put("user:42:profile", "{\"name\": \"Ada\"}");
  store.Put("user:43:profile", "{\"name\": \"Grace\"}");

  // Three cache instances...
  std::vector<std::unique_ptr<CacheInstance>> owned;
  std::vector<CacheInstance*> instances;
  for (InstanceId i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<CacheInstance>(i, &clock));
    instances.push_back(owned.back().get());
  }

  // ...a coordinator that partitions the key space into 12 fragments and
  // publishes the fragment->instance configuration...
  Coordinator::Options copts;
  copts.policy = RecoveryPolicy::GeminiOW();
  Coordinator coordinator(&clock, instances, /*num_fragments=*/12, copts);

  // ...and the client library the application links against.
  GeminiClient client(&clock, &coordinator, instances, &store);
  Session session;  // no cost model: real time, nothing to bill

  // 2. A read: cache miss -> the client queries the data store under an
  //    I lease, computes the entry, and caches it for future reads.
  auto first = client.Read(session, "user:42:profile");
  std::printf("first read : %s (cache_hit=%d, served by instance %u)\n",
              first->value.data.c_str(), first->cache_hit, first->instance);

  auto second = client.Read(session, "user:42:profile");
  std::printf("second read: %s (cache_hit=%d)\n",
              second->value.data.c_str(), second->cache_hit);

  // 3. A write (write-around): update the store, invalidate the cache entry
  //    under a Q lease. The next read recomputes the fresh value.
  (void)client.Write(session, "user:42:profile",
                     std::string("{\"name\": \"Ada Lovelace\"}"));
  auto after_write = client.Read(session, "user:42:profile");
  std::printf("after write: %s (cache_hit=%d)\n",
              after_write->value.data.c_str(), after_write->cache_hit);

  // 4. Kill the instance that owns the key. The coordinator assigns a
  //    secondary replica; reads and writes keep flowing, and every write is
  //    remembered on the fragment's dirty list.
  const FragmentId fragment =
      client.config()->FragmentOf("user:42:profile");
  const InstanceId owner = client.config()->fragment(fragment).primary;
  std::printf("\nfailing instance %u (owner of fragment %u)...\n", owner,
              fragment);
  instances[owner]->Fail();
  coordinator.OnInstanceFailed(owner);

  (void)client.Write(session, "user:42:profile",
                     std::string("{\"name\": \"Countess Lovelace\"}"));
  auto during = client.Read(session, "user:42:profile");
  std::printf("during failure: %s (served by instance %u, mode=%s)\n",
              during->value.data.c_str(), during->instance,
              std::string(FragmentModeName(
                  client.config()->fragment(fragment).mode))
                  .c_str());

  // 5. Recover it. Gemini reuses the instance's persistent content
  //    immediately and guarantees the dirty key is not served stale.
  instances[owner]->RecoverPersistent();
  coordinator.OnInstanceRecovered(owner);
  auto after_recovery = client.Read(session, "user:42:profile");
  const bool fresh = after_recovery->value.version ==
                     store.VersionOf("user:42:profile");
  std::printf("after recovery: %s (fresh=%s)\n",
              after_recovery->value.data.c_str(), fresh ? "yes" : "NO - STALE");
  return fresh ? 0 : 1;
}
