// Working-set-transfer demo (Section 3.2.2 / 5.4.4): drives the full
// discrete-event harness with an evolving access pattern and shows why the
// +W variants matter.
//
// The application's working set switches completely during the failure, so
// the recovering instance's persistent content is useless — but the NEW
// working set was cached in the secondary replicas while the primary was
// down. Gemini-I+W copies it over on demand; Gemini-I must recompute it from
// the (much slower) data store.
//
// Build & run:  ./build/examples/working_set_transfer
#include <cstdio>
#include <memory>

#include "src/sim/cluster_sim.h"
#include "src/workload/ycsb.h"

using namespace gemini;

namespace {

std::unique_ptr<ClusterSim> MakeSim(RecoveryPolicy policy) {
  YcsbWorkload::Options wo;
  wo.num_records = 40'000;
  wo.update_fraction = 0.05;
  wo.evolution = YcsbWorkload::Evolution::kSwitch100;
  SimOptions so;
  so.num_instances = 4;
  so.num_fragments = 400;
  so.closed_loop_threads = 32;
  so.policy = policy;
  so.seed = 7;
  return std::make_unique<ClusterSim>(so, std::make_shared<YcsbWorkload>(wo));
}

}  // namespace

int main() {
  constexpr double kFailAt = 20, kFailFor = 15, kObserve = 15;

  std::printf("running Gemini-I and Gemini-I+W through a failure during\n"
              "which the working set changes 100%%...\n\n");

  std::unique_ptr<ClusterSim> sims[2] = {MakeSim(RecoveryPolicy::GeminiI()),
                                         MakeSim(RecoveryPolicy::GeminiIW())};
  for (auto& sim : sims) {
    sim->ScheduleFailure(0, Seconds(kFailAt), Seconds(kFailFor));
    sim->SchedulePhaseChange(Seconds(kFailAt), 1);  // the switch
    sim->Run(Seconds(kFailAt + kFailFor + kObserve));
  }

  std::printf("hit ratio of the recovering instance, per second after "
              "recovery:\n");
  std::printf("  sec   Gemini-I   Gemini-I+W\n");
  const auto rec = static_cast<size_t>(kFailAt + kFailFor);
  for (size_t s = 0; s < static_cast<size_t>(kObserve); ++s) {
    std::printf("  %3zu   %7.1f%%   %9.1f%%\n", s,
                sims[0]->metrics().InstanceHitBetween(0, rec + s, rec + s + 1) *
                    100,
                sims[1]->metrics().InstanceHitBetween(0, rec + s, rec + s + 1) *
                    100);
  }

  uint64_t copies = 0;
  for (size_t c = 0; c < sims[1]->num_clients(); ++c) {
    copies += sims[1]->client(c).stats().wst_copies;
  }
  std::printf("\nGemini-I+W transferred %llu entries from secondaries to the "
              "recovering primary\n",
              (unsigned long long)copies);
  std::printf("store queries: Gemini-I=%llu vs Gemini-I+W=%llu "
              "(the transfer spares the data store)\n",
              (unsigned long long)sims[0]->store().stats().queries,
              (unsigned long long)sims[1]->store().stats().queries);
  std::printf("stale reads (both must be zero): %llu / %llu\n",
              (unsigned long long)sims[0]->metrics().stale.total_stale(),
              (unsigned long long)sims[1]->metrics().stale.total_stale());
  return sims[0]->metrics().stale.total_stale() == 0 &&
                 sims[1]->metrics().stale.total_stale() == 0
             ? 0
             : 1;
}
