// Property-based tests: randomized operation/failure schedules replayed
// against every Gemini policy variant, asserting the paper's core invariant
// (read-after-write consistency: zero stale reads) plus structural
// invariants of the fragment lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/client/gemini_client.h"
#include "src/consistency/stale_read_checker.h"
#include "src/coordinator/coordinator.h"
#include "src/recovery/recovery_worker.h"
#include "src/sim/cluster_sim.h"
#include "src/workload/ycsb.h"

namespace gemini {
namespace {

// ---- Randomized protocol-level interleavings -----------------------------------

struct Params {
  uint64_t seed;
  bool overwrite;
  bool wst;
};

class RandomScheduleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(RandomScheduleTest, GeminiNeverServesStale) {
  const uint64_t seed = std::get<0>(GetParam());
  const int variant = std::get<1>(GetParam());
  RecoveryPolicy policy;
  WritePolicy write_policy = WritePolicy::kWriteAround;
  switch (variant) {
    case 0: policy = RecoveryPolicy::GeminiI(); break;
    case 1: policy = RecoveryPolicy::GeminiO(); break;
    case 2: policy = RecoveryPolicy::GeminiIW(); break;
    case 3: policy = RecoveryPolicy::GeminiOW(); break;
    case 4:
      policy = RecoveryPolicy::GeminiO();
      write_policy = WritePolicy::kWriteThrough;
      break;
    default:
      policy = RecoveryPolicy::GeminiOW();
      write_policy = WritePolicy::kWriteThrough;
      break;
  }

  constexpr size_t kInstances = 4;
  constexpr size_t kFragments = 16;
  constexpr int kKeys = 120;

  VirtualClock clock;
  DataStore store;
  std::vector<std::unique_ptr<CacheInstance>> instances;
  std::vector<CacheInstance*> raw;
  for (size_t i = 0; i < kInstances; ++i) {
    instances.push_back(std::make_unique<CacheInstance>(
        static_cast<InstanceId>(i), &clock));
    raw.push_back(instances.back().get());
  }
  Coordinator::Options copts;
  copts.policy = policy;
  Coordinator coordinator(&clock, raw, kFragments, copts);
  GeminiClient::Options cl;
  cl.working_set_transfer = policy.working_set_transfer;
  cl.write_policy = write_policy;
  GeminiClient client(&clock, &coordinator, raw, &store, cl);
  RecoveryState rs(kFragments);
  client.BindRecoveryState(&rs);
  RecoveryWorker::Options wo;
  wo.overwrite_dirty = policy.overwrite_dirty;
  wo.keys_per_step = 8;
  RecoveryWorker worker(&clock, &coordinator, raw, wo);
  StaleReadChecker checker(&store);
  Session session;

  for (int i = 0; i < kKeys; ++i) {
    store.Put("user" + std::to_string(i), "v");
  }

  Rng rng(seed);
  std::vector<bool> up(kInstances, true);
  size_t ups = kInstances;

  for (int step = 0; step < 3000; ++step) {
    clock.Advance(Micros(200));
    const uint64_t dice = rng.NextBounded(1000);
    const std::string key =
        "user" + std::to_string(rng.NextBounded(kKeys));
    if (dice < 600) {
      auto r = client.Read(session, key);
      if (r.ok()) {
        EXPECT_FALSE(checker.OnRead(clock.Now(), key, r->value.version))
            << "stale read of " << key << " at step " << step
            << " policy " << policy.Name() << " seed " << seed;
      }
    } else if (dice < 850) {
      Status s = client.Write(session, key);
      EXPECT_TRUE(s.ok() || s.code() == Code::kSuspended ||
                  s.code() == Code::kUnavailable)
          << s.ToString();
    } else if (dice < 920) {
      // Advance recovery.
      if (!worker.has_work()) (void)worker.TryAdoptFragment(session);
      if (worker.has_work()) (void)worker.Step(session);
    } else if (dice < 960 && ups > 2) {
      // Fail a random up instance (emulated: content retained).
      const auto victim =
          static_cast<InstanceId>(rng.NextBounded(kInstances));
      if (up[victim]) {
        up[victim] = false;
        --ups;
        coordinator.OnInstanceFailed(victim);
      }
    } else {
      // Recover a random down instance.
      for (InstanceId i = 0; i < kInstances; ++i) {
        if (!up[i]) {
          up[i] = true;
          ++ups;
          for (FragmentId f : coordinator.FragmentsWithPrimary(i)) {
            rs.ResetWst(f);
          }
          coordinator.OnInstanceRecovered(i);
          break;
        }
      }
    }
  }
  EXPECT_EQ(checker.total_stale(), 0u);

  // Structural invariants of the final configuration.
  auto cfg = coordinator.GetConfiguration();
  for (FragmentId f = 0; f < cfg->num_fragments(); ++f) {
    const auto& a = cfg->fragment(f);
    EXPECT_LE(a.config_id, cfg->id());
    if (a.mode == FragmentMode::kNormal) {
      EXPECT_EQ(a.secondary, kInvalidInstance);
    } else if (a.mode == FragmentMode::kTransient) {
      // A transient fragment always has a live secondary; a recovery-mode
      // fragment may have lost its secondary (Section 3.3) and is then
      // finished by workers replaying their fetched dirty lists.
      EXPECT_NE(a.secondary, kInvalidInstance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndVariants, RandomScheduleTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

// ---- Randomized end-to-end simulations ------------------------------------------

class RandomSimTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSimTest, FullSimPreservesConsistencyAndConverges) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  YcsbWorkload::Options wo;
  wo.num_records = 1500;
  wo.update_fraction = 0.02 + 0.2 * rng.NextDouble();
  SimOptions so;
  so.num_instances = 3 + rng.NextBounded(3);
  so.num_fragments = 32;
  so.num_client_objects = 2;
  so.closed_loop_threads = 4 + rng.NextBounded(12);
  so.num_recovery_workers = 1 + rng.NextBounded(3);
  so.policy = rng.NextBounded(2) == 0 ? RecoveryPolicy::GeminiO()
                                      : RecoveryPolicy::GeminiOW();
  so.crash_failures = rng.NextBounded(2) == 0;
  so.audit_invariants = true;
  so.seed = seed * 31;
  ClusterSim sim(so, std::make_shared<YcsbWorkload>(wo));

  // 1-2 random failures.
  const int failures = 1 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < failures; ++i) {
    const auto victim =
        static_cast<InstanceId>(rng.NextBounded(so.num_instances));
    const auto at = Seconds(5.0 + 10.0 * i + rng.NextDouble() * 3.0);
    const auto down = Seconds(1.0 + rng.NextDouble() * 5.0);
    sim.ScheduleFailure(victim, at, down);
  }
  sim.Run(Seconds(60));

  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u) << "seed " << seed;
  // The cluster converges: no fragment stuck outside normal mode.
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  // Load kept flowing.
  EXPECT_GT(sim.metrics().ops.Total(), 5000u);
  // Structural invariants held on every monitor tick.
  for (const auto& v : sim.invariant_violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSimTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace gemini
