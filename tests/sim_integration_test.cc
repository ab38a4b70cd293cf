// End-to-end discrete-event simulations: small-scale versions of the
// paper's experiments, asserting the qualitative results each figure makes.
#include "src/sim/cluster_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/workload/ycsb.h"

namespace gemini {
namespace {

SimOptions SmallCluster(RecoveryPolicy policy) {
  SimOptions o;
  o.num_instances = 4;
  o.num_fragments = 64;
  o.num_client_objects = 2;
  o.closed_loop_threads = 8;
  o.num_recovery_workers = 2;
  o.policy = policy;
  o.seed = 7;
  return o;
}

std::shared_ptr<Workload> SmallYcsb(double update_fraction = 0.05) {
  YcsbWorkload::Options o;
  o.num_records = 2000;
  o.update_fraction = update_fraction;
  return std::make_shared<YcsbWorkload>(o);
}

TEST(SimIntegration, SteadyStateReachesHighHitRatio) {
  ClusterSim sim(SmallCluster(RecoveryPolicy::GeminiOW()), SmallYcsb());
  sim.Run(Seconds(20));
  const double hit = sim.metrics().overall_hit.RatioBetween(15, 20);
  EXPECT_GT(hit, 0.9);
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
  EXPECT_GT(sim.metrics().ops.Total(), 10000u);
}

TEST(SimIntegration, GeminiRecoversWithZeroStaleReads) {
  ClusterSim sim(SmallCluster(RecoveryPolicy::GeminiOW()), SmallYcsb(0.10));
  sim.ScheduleFailure(0, Seconds(10), Seconds(5));
  sim.Run(Seconds(40));
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
  // Recovery completed: all fragments back to normal.
  EXPECT_GE(sim.RecoveryDurationSeconds(0), 0.0);
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
}

TEST(SimIntegration, StaleCacheServesStaleReads) {
  // Figure 1: reusing content verbatim violates read-after-write.
  ClusterSim sim(SmallCluster(RecoveryPolicy::StaleCache()), SmallYcsb(0.10));
  sim.ScheduleFailure(0, Seconds(10), Seconds(5));
  sim.Run(Seconds(30));
  EXPECT_GT(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimIntegration, VolatileCacheConsistentButSlowerToWarm) {
  ClusterSim gemini_sim(SmallCluster(RecoveryPolicy::GeminiO()),
                        SmallYcsb(0.05));
  ClusterSim volatile_sim(SmallCluster(RecoveryPolicy::VolatileCache()),
                          SmallYcsb(0.05));
  for (auto* sim : {&gemini_sim, &volatile_sim}) {
    sim->ScheduleFailure(0, Seconds(10), Seconds(5));
    sim->Run(Seconds(60));
    EXPECT_EQ(sim->metrics().stale.total_stale(), 0u);
  }
  // Gemini restores the instance's hit ratio faster than VolatileCache
  // (the paper's headline: two orders of magnitude at scale).
  const double g = gemini_sim.SecondsToRestoreHitRatio(0);
  const double v = volatile_sim.SecondsToRestoreHitRatio(0);
  ASSERT_GE(g, 0.0);
  // VolatileCache either took longer or never restored within the run.
  if (v >= 0.0) {
    EXPECT_LE(g, v);
  }
  // Immediately after recovery Gemini's instance serves hits from its
  // persistent content while VolatileCache starts cold.
  const double g_hit = gemini_sim.metrics().InstanceHitBetween(0, 15, 18);
  const double v_hit = volatile_sim.metrics().InstanceHitBetween(0, 15, 18);
  EXPECT_GT(g_hit, v_hit);
}

TEST(SimIntegration, TransientModeRoutesToSecondaries) {
  ClusterSim sim(SmallCluster(RecoveryPolicy::GeminiO()), SmallYcsb());
  sim.ScheduleFailure(0, Seconds(10), Seconds(10));
  sim.Run(Seconds(15));
  // Mid-failure: the failed instance serves nothing.
  const auto& hit = sim.metrics().instance_hit[0];
  const auto& den = hit.denominator().buckets();
  for (size_t s = 12; s < 15 && s < den.size(); ++s) {
    EXPECT_EQ(den[s], 0u) << "second " << s;
  }
  // Ops keep completing against the secondaries.
  EXPECT_GT(sim.metrics().ops.At(Seconds(13)), 100u);
  sim.Run(Seconds(40));
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimIntegration, SuspendedWritesResumeAfterPublication) {
  // Crash failures with a detection delay exercise the failover window.
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  o.crash_failures = true;
  o.failure_detection_delay = Millis(500);
  ClusterSim sim(o, SmallYcsb(0.5));  // write-heavy: hits the window often
  sim.ScheduleFailure(0, Seconds(10), Seconds(5));
  sim.Run(Seconds(30));
  EXPECT_GT(sim.metrics().suspended_writes.Total(), 0u);
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
}

TEST(SimIntegration, EvolvingPatternWstImprovesHitRatio) {
  // Section 5.4.4: with a 100% pattern change, Gemini-I+W restores hit
  // ratio faster than Gemini-I because the new working set lives in the
  // secondaries.
  auto make = [](RecoveryPolicy policy) {
    YcsbWorkload::Options wo;
    // A working set large relative to the data store's refill bandwidth:
    // the transfer's advantage is fetching the new working set from the
    // fast secondaries instead of the slow store.
    wo.num_records = 20000;
    wo.update_fraction = 0.05;
    wo.evolution = YcsbWorkload::Evolution::kSwitch100;
    SimOptions so = SmallCluster(policy);
    so.closed_loop_threads = 16;
    so.net.store_servers = 4;
    return std::make_unique<ClusterSim>(so,
                                        std::make_shared<YcsbWorkload>(wo));
  };
  auto with_wst = make(RecoveryPolicy::GeminiIW());
  auto without = make(RecoveryPolicy::GeminiI());
  for (auto* sim : {with_wst.get(), without.get()}) {
    sim->ScheduleFailure(0, Seconds(12), Seconds(10));
    sim->SchedulePhaseChange(Seconds(12), 1);
    sim->Run(Seconds(30));
  }
  // In the seconds right after recovery (t=22..27) the WST variant serves a
  // higher hit ratio on the recovering instance.
  const double w = with_wst->metrics().InstanceHitBetween(0, 22, 27);
  const double wo_hit = without->metrics().InstanceHitBetween(0, 22, 27);
  EXPECT_GT(w, wo_hit);
  uint64_t copies = 0;
  for (size_t c = 0; c < with_wst->num_clients(); ++c) {
    copies += with_wst->client(c).stats().wst_copies;
  }
  EXPECT_GT(copies, 0u);
  EXPECT_EQ(with_wst->metrics().stale.total_stale(), 0u);
  EXPECT_EQ(without->metrics().stale.total_stale(), 0u);
}

TEST(SimIntegration, OpenLoopFacebookStyleDrive) {
  // Open-loop arrivals (the Figure 1/6 drive mode) with a YCSB universe.
  class OpenLoopYcsb : public YcsbWorkload {
   public:
    using YcsbWorkload::YcsbWorkload;
    Duration NextInterarrival(Rng& rng) override {
      return std::max<Duration>(
          1, static_cast<Duration>(rng.NextExponential(200.0)));
    }
  };
  YcsbWorkload::Options wo;
  wo.num_records = 2000;
  SimOptions so = SmallCluster(RecoveryPolicy::GeminiOW());
  so.closed_loop_threads = 0;  // open loop
  ClusterSim sim(so, std::make_shared<OpenLoopYcsb>(wo));
  sim.Run(Seconds(10));
  // ~5000 arrivals/sec.
  EXPECT_GT(sim.metrics().ops.At(Seconds(8)), 3000u);
  EXPECT_LT(sim.metrics().ops.At(Seconds(8)), 8000u);
}

TEST(SimIntegration, HighLoadRaisesLatency) {
  SimOptions low = SmallCluster(RecoveryPolicy::GeminiO());
  low.closed_loop_threads = 4;
  SimOptions high = SmallCluster(RecoveryPolicy::GeminiO());
  high.closed_loop_threads = 64;
  ClusterSim low_sim(low, SmallYcsb());
  ClusterSim high_sim(high, SmallYcsb());
  low_sim.Run(Seconds(10));
  high_sim.Run(Seconds(10));
  const double low_p90 = low_sim.metrics().read_latency.Percentiles(0.9).back();
  const double high_p90 =
      high_sim.metrics().read_latency.Percentiles(0.9).back();
  EXPECT_GT(high_p90, low_p90);
  // Throughput scales with threads until capacity.
  EXPECT_GT(high_sim.metrics().ops.At(Seconds(9)),
            low_sim.metrics().ops.At(Seconds(9)));
}

TEST(SimIntegration, CoordinatorFailoverMidInstanceFailure) {
  // The coordinator master dies while an instance failure is in flight; a
  // shadow promotion restores progress with zero stale reads (Section 2.1).
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  o.coordinator_shadows = 2;
  ClusterSim sim(o, SmallYcsb(0.10));
  sim.ScheduleFailure(0, Seconds(10), Seconds(8));
  sim.ScheduleCoordinatorFailure(Seconds(12));
  sim.Run(Seconds(40));
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
  ASSERT_NE(sim.master(), nullptr);
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(
      sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_GT(sim.metrics().ops.At(Seconds(38)), 1000u);
}

TEST(SimIntegration, DeterministicForSameSeed) {
  auto run = [](bool kill_master) {
    ClusterSim sim(SmallCluster(RecoveryPolicy::GeminiOW()), SmallYcsb());
    sim.ScheduleFailure(0, Seconds(5), Seconds(3));
    if (kill_master) sim.ScheduleCoordinatorFailure(Seconds(7));
    sim.Run(Seconds(15));
    return std::make_tuple(sim.metrics().ops.Total(),
                           sim.metrics().suspended_writes.Total(),
                           sim.master() != nullptr ? sim.master()->latest_id()
                                                   : 0);
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(true), run(true));
}

// ---- Coordinator failover (Section 2.1): the master/shadow election -------
//
// SmallCluster's replicas use ElectionCore's default timing: a 100 ms sync
// beat, and rank r promotes 600 ms x (r + 1) after the last sync it heard.

/// Runs `sim` in 1 ms steps until a coordinator master is up; false if none
/// is by `limit`.
bool RunUntilMaster(ClusterSim& sim, Timestamp limit) {
  while (sim.master() == nullptr) {
    if (sim.clock().Now() >= limit) return false;
    sim.Run(sim.clock().Now() + Millis(1));
  }
  return true;
}

std::vector<CacheInstance*> Instances(ClusterSim& sim) {
  std::vector<CacheInstance*> raw;
  for (size_t i = 0; i < sim.options().num_instances; ++i) {
    raw.push_back(&sim.instance(static_cast<InstanceId>(i)));
  }
  return raw;
}

/// A key whose fragment's primary is `instance` in `config`.
std::string KeyOnInstance(ClusterSim& sim, const Configuration& config,
                          InstanceId instance) {
  for (uint64_t r = 0; r < sim.workload().num_records(); ++r) {
    std::string key = sim.workload().KeyOfRecord(r);
    if (config.fragment(config.FragmentOf(key)).primary == instance) {
      return key;
    }
  }
  ADD_FAILURE() << "no key on instance " << instance;
  return "";
}

TEST(SimCoordinatorFailover, NoShadowPromotesWhileTheMasterSyncs) {
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiOW());
  o.coordinator_shadows = 2;
  ClusterSim sim(o, SmallYcsb(0.10));
  sim.ScheduleFailure(0, Seconds(3), Seconds(3));
  sim.Run(Seconds(12));
  EXPECT_TRUE(sim.election(0).is_master());
  for (size_t rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(sim.election(rank).epoch(), 1u) << "rank " << rank;
  }
  EXPECT_FALSE(sim.election(1).is_master());
  EXPECT_FALSE(sim.election(2).is_master());
  EXPECT_LT(sim.master()->latest_id(), uint64_t{1} << 32);
}

TEST(SimCoordinatorFailover, KeepsAssignmentsAndMintsAboveTheEpochFloor) {
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  o.coordinator_shadows = 2;
  ClusterSim sim(o, SmallYcsb());
  sim.ScheduleFailure(0, Seconds(2), Seconds(8));
  sim.ScheduleCoordinatorFailure(Seconds(4));
  sim.Run(Seconds(4) - 1);
  const ConfigurationPtr before = sim.master()->GetConfiguration();
  ASSERT_FALSE(sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());

  sim.Run(Seconds(4));
  EXPECT_EQ(sim.master(), nullptr);
  EXPECT_EQ(sim.coordinator().GetConfiguration(), nullptr);
  ASSERT_TRUE(RunUntilMaster(sim, Seconds(8)));
  // The lowest live rank wins, after its own staggered deadline.
  EXPECT_TRUE(sim.election(1).is_master());
  EXPECT_FALSE(sim.election(2).is_master());
  EXPECT_EQ(sim.election(1).epoch(), 2u);
  EXPECT_GE(sim.clock().Now(), Seconds(4) + 2 * Millis(600) - Millis(100));

  // Every fragment keeps its assignment and mode; the re-publish carries
  // an id at the epoch-2 floor.
  const ConfigurationPtr after = sim.master()->GetConfiguration();
  EXPECT_EQ(after->id(), uint64_t{2} << 32);
  ASSERT_EQ(after->num_fragments(), before->num_fragments());
  for (FragmentId f = 0; f < before->num_fragments(); ++f) {
    EXPECT_EQ(after->fragment(f).primary, before->fragment(f).primary);
    EXPECT_EQ(after->fragment(f).secondary, before->fragment(f).secondary);
    EXPECT_EQ(after->fragment(f).mode, before->fragment(f).mode);
  }
  // Ids minted afterwards (instance 0's recovery) sit above the floor.
  sim.Run(Seconds(30));
  EXPECT_GE(sim.master()->latest_id(), (uint64_t{2} << 32) + 1);
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimCoordinatorFailover, CachedConfigurationRidesThroughTheElectionGap) {
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  ClusterSim sim(o, SmallYcsb());
  sim.ScheduleCoordinatorFailure(Seconds(5));
  sim.Run(Seconds(5) + Millis(300));
  ASSERT_EQ(sim.master(), nullptr);

  // A client with a cached configuration keeps hitting the cache; it needs
  // no coordinator round trip for that.
  GeminiClient& cached = sim.client(0);
  Session s;
  const std::string key = sim.workload().KeyOfRecord(0);
  ASSERT_TRUE(cached.Read(s, key).ok());
  auto hit = cached.Read(s, key);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(cached.Write(s, key).ok());

  // A client with none fails until a shadow promotes.
  GeminiClient fresh(&sim.clock(), &sim.coordinator(), Instances(sim),
                     &sim.store());
  EXPECT_FALSE(fresh.Read(s, key).ok());
  ASSERT_TRUE(RunUntilMaster(sim, Seconds(8)));
  EXPECT_TRUE(fresh.Read(s, key).ok());

  sim.Run(Seconds(10));
  EXPECT_GT(sim.metrics().overall_hit.RatioBetween(5, 6), 0.8);
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimCoordinatorFailover, FailoverMidRecoveryKeepsRecoveringConsistently) {
  // Long dirty lists and one slow worker keep instance 0's fragments in
  // recovery well past the master kill.
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  o.num_recovery_workers = 1;
  o.worker_keys_per_step = 2;
  ClusterSim sim(o, SmallYcsb(0.5));
  sim.ScheduleFailure(0, Seconds(3), Seconds(4));
  sim.ScheduleCoordinatorFailure(Seconds(7) + Millis(20));
  sim.Run(Seconds(7) + Millis(10));
  ASSERT_FALSE(sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());

  sim.Run(Seconds(7) + Millis(20));
  ASSERT_EQ(sim.master(), nullptr);
  ASSERT_TRUE(RunUntilMaster(sim, Seconds(10)));
  // The promoted master carries on with the recovery its state recorded.
  const auto recovering =
      sim.master()->FragmentsInMode(FragmentMode::kRecovery);
  EXPECT_FALSE(recovering.empty());
  for (FragmentId f : recovering) {
    EXPECT_EQ(sim.master()->GetConfiguration()->fragment(f).primary, 0u);
  }

  sim.Run(Seconds(40));
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_GE(sim.RecoveryDurationSeconds(0), 0.0);
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimCoordinatorFailover, InstanceEventsSeenWithoutAMasterReachTheNext) {
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  ClusterSim sim(o, SmallYcsb(0.10));
  // Instance 1 fails under the old master and recovers in the gap;
  // instance 2 fails in the gap.
  sim.ScheduleFailure(1, Seconds(2), Seconds(3.5));
  sim.ScheduleCoordinatorFailure(Seconds(5));
  sim.ScheduleFailure(2, Seconds(5.5), Seconds(10));
  sim.Run(Seconds(5.6));
  ASSERT_EQ(sim.master(), nullptr);
  ASSERT_TRUE(RunUntilMaster(sim, Seconds(8)));

  Coordinator& m = *sim.master();
  const ConfigurationPtr config = m.GetConfiguration();
  for (FragmentId f : m.FragmentsWithPrimary(2)) {
    EXPECT_EQ(m.ModeOf(f), FragmentMode::kTransient) << "fragment " << f;
  }
  for (FragmentId f : m.FragmentsWithPrimary(1)) {
    EXPECT_NE(m.ModeOf(f), FragmentMode::kTransient) << "fragment " << f;
  }
  // Reads of instance 2's keys go to the secondaries now.
  Session s;
  auto r = sim.client(0).Read(s, KeyOnInstance(sim, *config, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->instance, 2u);

  sim.Run(Seconds(40));
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_TRUE(sim.master()->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

TEST(SimCoordinatorFailover, EveryReplicaDeadLapsesLeasesFailSafe) {
  // Fragment leases have a finite lifetime (Section 2.3). Once every
  // replica is dead, nothing renews them: instances stop serving, reads
  // come from the store, writes suspend, and no read is stale.
  SimOptions o = SmallCluster(RecoveryPolicy::GeminiO());
  o.fragment_lease_lifetime = Seconds(3);
  ClusterSim sim(o, SmallYcsb());
  sim.ScheduleCoordinatorFailure(Seconds(2));
  sim.ScheduleCoordinatorFailure(Seconds(5));
  sim.Run(Seconds(4));
  ASSERT_NE(sim.master(), nullptr);
  EXPECT_TRUE(sim.election(1).is_master());
  sim.Run(Seconds(9));
  EXPECT_EQ(sim.master(), nullptr);

  GeminiClient& client = sim.client(0);
  Session s;
  const std::string key = sim.workload().KeyOfRecord(0);
  for (int i = 0; i < 2; ++i) {
    auto r = client.Read(s, key);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->cache_hit);
    EXPECT_EQ(r->value.version, sim.store().VersionOf(key));
  }
  EXPECT_EQ(client.Write(s, key).code(), Code::kSuspended);
  // The leases rank 1 last renewed at t=4 s lapsed at 7 s: from then on
  // the load's reads all missed, and its writes suspended.
  const auto& reads = sim.metrics().overall_hit.denominator().buckets();
  ASSERT_GT(reads.size(), 7u);
  EXPECT_GT(reads[7], 0u);
  EXPECT_EQ(sim.metrics().overall_hit.RatioBetween(7, 9), 0.0);
  EXPECT_GT(sim.metrics().suspended_writes.Total(), 0u);
  EXPECT_EQ(sim.metrics().stale.total_stale(), 0u);
}

}  // namespace
}  // namespace gemini
