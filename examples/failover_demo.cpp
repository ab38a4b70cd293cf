// Failover demo: walks one fragment through the full lifecycle of the
// paper's Figure 4 — normal -> transient -> recovery -> normal — narrating
// what each component does:
//
//   * the dirty list accumulating in the secondary replica (with its marker),
//   * still-valid persistent entries served the moment the primary returns,
//   * a recovery worker draining the dirty list under a Redlease,
//   * the coordinator completing recovery and retiring the secondary.
//
// Build & run:  ./build/examples/failover_demo
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/dirty_list.h"
#include "src/client/gemini_client.h"
#include "src/coordinator/coordinator.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"

using namespace gemini;

namespace {

void ShowFragment(const Coordinator& coordinator, FragmentId f) {
  auto cfg = coordinator.GetConfiguration();
  const auto& a = cfg->fragment(f);
  std::printf("  [config %llu] fragment %u: mode=%s primary=%d secondary=%d "
              "min-valid-config=%llu\n",
              (unsigned long long)cfg->id(), f,
              std::string(FragmentModeName(a.mode)).c_str(),
              a.primary == kInvalidInstance ? -1 : (int)a.primary,
              a.secondary == kInvalidInstance ? -1 : (int)a.secondary,
              (unsigned long long)a.config_id);
}

}  // namespace

int main() {
  VirtualClock clock;
  DataStore store;
  std::vector<std::unique_ptr<CacheInstance>> owned;
  std::vector<CacheInstance*> instances;
  for (InstanceId i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<CacheInstance>(i, &clock));
    instances.push_back(owned.back().get());
  }
  Coordinator::Options copts;
  copts.policy = RecoveryPolicy::GeminiO();  // overwrite dirty keys
  Coordinator coordinator(&clock, instances, /*num_fragments=*/6, copts);
  GeminiClient client(&clock, &coordinator, instances, &store);
  RecoveryWorker worker(&clock, &coordinator, instances);
  Session session;

  // Seed records and find a handful of keys owned by instance 0.
  std::vector<std::string> keys;
  auto cfg = coordinator.GetConfiguration();
  for (int i = 0; keys.size() < 4 && i < 500; ++i) {
    std::string key = "item:" + std::to_string(i);
    if (cfg->fragment(cfg->FragmentOf(key)).primary == 0) {
      store.Put(key, "v1-of-" + key);
      keys.push_back(std::move(key));
    }
  }
  const FragmentId f = cfg->FragmentOf(keys[0]);

  std::printf("== normal mode ==\n");
  ShowFragment(coordinator, f);
  for (const auto& k : keys) (void)client.Read(session, k);  // warm primary
  std::printf("  warmed %zu keys into instance 0 (persistent)\n\n",
              keys.size());

  std::printf("== instance 0 fails -> transient mode ==\n");
  instances[0]->Fail();
  coordinator.OnInstanceFailed(0);
  ShowFragment(coordinator, f);

  // Writes during the failure: served by the secondary, recorded dirty.
  (void)client.Write(session, keys[0], std::string("v2-of-") + keys[0]);
  (void)client.Write(session, keys[1], std::string("v2-of-") + keys[1]);
  // A read during the failure populates the secondary with the new value.
  (void)client.Read(session, keys[0]);

  const InstanceId sec =
      coordinator.GetConfiguration()->fragment(f).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  auto payload = instances[sec]->Get(internal, DirtyListKey(f));
  auto list = DirtyList::Parse(payload->data);
  std::printf("  dirty list in secondary (instance %u): %zu key(s)\n", sec,
              list->size());
  for (const auto& k : list->keys()) std::printf("    dirty: %s\n", k.c_str());

  std::printf("\n== instance 0 returns -> recovery mode ==\n");
  instances[0]->RecoverPersistent();
  coordinator.OnInstanceRecovered(0);
  ShowFragment(coordinator, f);

  // Clean keys are served from the recovered primary immediately; dirty
  // keys are never served stale.
  auto clean = client.Read(session, keys[2]);
  std::printf("  read clean key %s: cache_hit=%d from instance %u (warm!)\n",
              keys[2].c_str(), clean->cache_hit, clean->instance);
  auto dirty = client.Read(session, keys[1]);
  const bool dirty_fresh = dirty->value.version == store.VersionOf(keys[1]);
  std::printf("  read dirty key %s: value=%s (fresh=%s)\n", keys[1].c_str(),
              dirty->value.data.c_str(), dirty_fresh ? "yes" : "NO");

  std::printf("\n== recovery worker drains the dirty list ==\n");
  auto adopted = worker.TryAdoptFragment(session);
  while (worker.has_work()) (void)worker.Step(session);
  std::printf("  worker adopted fragment %d: overwrote %llu, deleted %llu "
              "dirty key(s)\n",
              adopted ? (int)*adopted : -1,
              (unsigned long long)worker.stats().keys_overwritten,
              (unsigned long long)worker.stats().keys_deleted);
  // Drain any remaining recovery-mode fragments of instance 0.
  while (worker.TryAdoptFragment(session).has_value()) {
    while (worker.has_work()) (void)worker.Step(session);
  }

  std::printf("\n== back to normal mode ==\n");
  ShowFragment(coordinator, f);
  auto final_read = client.Read(session, keys[0]);
  const bool final_fresh =
      final_read->value.version == store.VersionOf(keys[0]);
  std::printf("  final read %s: %s (cache_hit=%d, fresh=%s)\n",
              keys[0].c_str(), final_read->value.data.c_str(),
              final_read->cache_hit, final_fresh ? "yes" : "NO");
  return dirty_fresh && final_fresh ? 0 : 1;
}
