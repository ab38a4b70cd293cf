// Ablations for the design choices DESIGN.md calls out (not paper figures —
// these quantify why Gemini's mechanisms are designed the way they are):
//
//  A. Rejig O(1) discard (bump the fragment's config id; entries die lazily)
//     vs eager scan-and-delete of every key — the cost of discarding a
//     fragment as a function of its size (Section 3.2.4's motivation:
//     "discard millions and billions of cache entries").
//
//  B. Dirty-list growth: bytes of dirty list per fragment as a function of
//     failure duration and update rate — the overhead transition (4)'s byte
//     budget trades against, and the marker mechanism protects.
//
//  C. Recovery-worker scaling: time to drain the dirty lists of a failed
//     instance vs the number of workers (one worker per fragment via
//     Redlease; more workers parallelize across fragments).
//
//  D. Working-set-transfer termination threshold: epsilon of the h
//     threshold vs how long the transfer stays active and the hit ratio it
//     delivers.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"

namespace gemini::bench {
namespace {

// ---- A: Rejig discard vs eager delete --------------------------------------

void AblationRejigDiscard() {
  std::printf("\n[A] Discarding a fragment: Rejig id-bump vs eager "
              "scan-and-delete\n");
  std::printf("  entries   id-bump (cache ops, wall us)   eager-delete "
              "(cache ops, wall us)\n");
  for (uint64_t n : {10'000ULL, 100'000ULL, 1'000'000ULL}) {
    VirtualClock clock;
    CacheInstance inst(0, &clock);
    inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
    OpContext ctx{1, 0};
    for (uint64_t i = 0; i < n; ++i) {
      (void)inst.Set(ctx, "user" + std::to_string(i), CacheValue::OfSize(64));
    }

    // Rejig: one lease update; entries die lazily on access.
    auto t0 = std::chrono::steady_clock::now();
    inst.GrantFragmentLease(0, /*min_valid_config=*/2,
                            clock.Now() + Seconds(3600), 2);
    auto t1 = std::chrono::steady_clock::now();
    const double bump_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    // Eager: delete every key individually (what a system without per-entry
    // config ids must do).
    t0 = std::chrono::steady_clock::now();
    OpContext ctx2{2, 0};
    for (uint64_t i = 0; i < n; ++i) {
      (void)inst.Delete(ctx2, "user" + std::to_string(i));
    }
    t1 = std::chrono::steady_clock::now();
    const double eager_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    std::printf("  %7llu   %10s %12.1f        %8llu %14.1f\n",
                (unsigned long long)n, "1", bump_us, (unsigned long long)n,
                eager_us);
  }
  std::printf("  -> the id bump is O(1) regardless of fragment size; eager "
              "deletion scales linearly (and would be billions of ops at "
              "datacenter scale).\n");
}

// ---- B: dirty-list growth ----------------------------------------------------

void AblationDirtyListGrowth(const BenchFlags& flags) {
  std::printf("\n[B] Dirty-list size vs failure duration and update rate "
              "(bytes per fragment, max across fragments)\n");
  std::printf("  update%%   10s-failure   30s-failure\n");
  YcsbClusterParams p = YcsbParams(flags);
  p.records = 60'000;
  p.warmup_seconds = 10;
  for (double update_pct : {1.0, 10.0, 50.0}) {
    std::printf("  %7.0f", update_pct);
    for (double fail_for : {10.0, 30.0}) {
      auto sim = MakeYcsbSim(flags, p, RecoveryPolicy::GeminiO(),
                             update_pct / 100.0, /*high_load=*/true);
      sim->ScheduleFailure(0, Seconds(p.warmup_seconds), Seconds(fail_for));
      sim->Run(Seconds(p.warmup_seconds + fail_for - 0.5));
      uint64_t max_bytes = 0;
      auto cfg = sim->master()->GetConfiguration();
      OpContext internal{kInternalConfigId, kInvalidFragment};
      for (FragmentId f = 0; f < cfg->num_fragments(); ++f) {
        const auto& a = cfg->fragment(f);
        if (a.mode != FragmentMode::kTransient) continue;
        auto v = sim->instance(a.secondary).Get(internal, DirtyListKey(f));
        if (v.ok()) {
          max_bytes = std::max<uint64_t>(max_bytes, v->data.size());
        }
      }
      std::printf("   %11llu", (unsigned long long)max_bytes);
    }
    std::printf("\n");
  }
  std::printf("  -> growth is linear in failure duration x write rate; the "
              "coordinator's byte budget (EnforceDirtyListBudget) caps it "
              "via transition (4).\n");
}

// ---- C: recovery-worker scaling ----------------------------------------------

void AblationWorkerScaling(const BenchFlags& flags) {
  std::printf("\n[C] Recovery time vs number of recovery workers "
              "(Gemini-O, 10%% updates, 30s failure)\n");
  std::printf("  workers   recovery seconds\n");
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    YcsbWorkload::Options wo;
    wo.num_records = 100'000;
    wo.update_fraction = 0.10;
    SimOptions so;
    so.num_instances = 5;
    so.num_fragments = 1000;
    so.closed_loop_threads = 40;
    so.num_recovery_workers = workers;
    so.policy = RecoveryPolicy::GeminiO();
    so.seed = flags.seed;
    ClusterSim sim(so, std::make_shared<YcsbWorkload>(wo));
    sim.ScheduleFailure(0, Seconds(15), Seconds(30));
    double t = 45;
    double dur = -1;
    while (t < 200) {
      t += 5;
      sim.Run(Seconds(t));
      dur = sim.RecoveryDurationSeconds(0);
      if (dur >= 0) break;
    }
    std::printf("  %7zu   %16.1f\n", workers, dur);
  }
  std::printf("  -> the Redlease gives one worker per fragment; extra "
              "workers parallelize across the instance's fragments until "
              "the primaries' ingest bound.\n");
}

// ---- D: WST termination threshold ---------------------------------------------

void AblationWstThreshold(const BenchFlags& flags) {
  std::printf("\n[D] Working-set-transfer h-threshold (epsilon below the "
              "pre-failure hit ratio) vs transfer volume and hit ratio\n");
  std::printf("  epsilon   wst copies   recovering-instance hit (first 10s) "
              "  recovery seconds\n");
  for (double eps : {0.005, 0.02, 0.10}) {
    YcsbWorkload::Options wo;
    wo.num_records = 100'000;
    wo.update_fraction = 0.05;
    wo.evolution = YcsbWorkload::Evolution::kSwitch100;
    SimOptions so;
    so.num_instances = 5;
    so.num_fragments = 1000;
    so.closed_loop_threads = 40;
    so.policy = RecoveryPolicy::GeminiOW();
    so.wst_epsilon = eps;
    so.seed = flags.seed;
    ClusterSim sim(so, std::make_shared<YcsbWorkload>(wo));
    sim.ScheduleFailure(0, Seconds(15), Seconds(30));
    sim.SchedulePhaseChange(Seconds(15), 1);
    sim.Run(Seconds(120));
    uint64_t copies = 0;
    for (size_t c = 0; c < sim.num_clients(); ++c) {
      copies += sim.client(c).stats().wst_copies;
    }
    const double hit = sim.metrics().InstanceHitBetween(0, 45, 55);
    std::printf("  %7.3f   %10llu   %34.3f   %16.1f\n", eps,
                (unsigned long long)copies, hit,
                sim.RecoveryDurationSeconds(0));
  }
  std::printf("  -> a tighter epsilon keeps the transfer alive longer "
              "(more copies) for a marginally higher hit ratio; the paper's "
              "h = prefailure - epsilon balances the two.\n");
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  PrintHeader("Ablations",
              "design-choice studies: Rejig discards, dirty-list growth, "
              "worker scaling, WST thresholds");
  AblationRejigDiscard();
  AblationDirtyListGrowth(flags);
  if (!flags.quick) {
    AblationWorkerScaling(flags);
    AblationWstThreshold(flags);
  }
  return 0;
}

}  // namespace
}  // namespace gemini::bench

int main(int argc, char** argv) { return gemini::bench::Main(argc, argv); }
