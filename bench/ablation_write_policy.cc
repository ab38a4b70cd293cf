// Ablation: write-around (the paper's policy) vs write-through (our
// extension, Section 2's "its implementation with write-through is
// different").
//
// Trade-off measured here: write-around turns every write into a future
// cache miss (the entry is deleted), so read-back traffic hits the data
// store; write-through installs the new value under the same Q lease, so
// recently written keys stay hits — at the cost of pushing every write's
// value through the cache. With Gemini-O, write-through also makes the
// recovery overwrite repopulate real values instead of re-invalidations.
#include <cstdio>

#include "bench/bench_common.h"

namespace gemini::bench {
namespace {

struct RunResult {
  double hit_ratio = 0;        // steady state
  uint64_t store_queries = 0;  // read-back load on the data store
  double write_ack_us = 0;     // mean latency until a write is acknowledged
  double post_recovery_hit = 0;
  uint64_t stale = 0;
};

RunResult RunOnce(const BenchFlags& flags, WritePolicy policy,
                  double update_fraction) {
  // This ablation drives the protocol stack directly (the DES harness does
  // not parameterize the write policy): one policy-aware client against a
  // 5-instance cluster, a warm-up phase, a measured steady-state phase, and
  // one failure episode.
  VirtualClock clock;
  DataStore store;
  std::vector<std::unique_ptr<CacheInstance>> owned;
  std::vector<CacheInstance*> raw;
  for (InstanceId i = 0; i < 5; ++i) {
    owned.push_back(std::make_unique<CacheInstance>(i, &clock));
    raw.push_back(owned.back().get());
  }
  Coordinator::Options copts;
  copts.policy = RecoveryPolicy::GeminiO();
  Coordinator coordinator(&clock, raw, 1000, copts);
  GeminiClient::Options cl;
  cl.write_policy = policy;
  GeminiClient client(&clock, &coordinator, raw, &store, cl);
  RecoveryWorker worker(&clock, &coordinator, raw);
  StaleReadChecker checker(&store);
  CostModel model(NetParams{}, 5);
  Session session;

  const uint64_t records = flags.quick ? 5'000 : 30'000;
  YcsbWorkload::Options gen_opts;
  gen_opts.num_records = records;
  gen_opts.update_fraction = update_fraction;
  YcsbWorkload workload(gen_opts);
  workload.LoadStore(store);
  Rng rng(flags.seed);

  const int kWarm = flags.quick ? 30'000 : 150'000;
  const int kMeasure = flags.quick ? 30'000 : 150'000;
  Histogram write_lat;
  auto run_ops = [&](int n, uint64_t* hits, uint64_t* reads) {
    for (int i = 0; i < n; ++i) {
      clock.Advance(Micros(30));
      Operation op = workload.Next(rng);
      if (op.is_read) {
        auto r = client.Read(session, op.key);
        if (r.ok()) {
          if (reads != nullptr) ++*reads;
          if (hits != nullptr && r->cache_hit) ++*hits;
          (void)checker.OnRead(clock.Now(), op.key, r->value.version);
        }
      } else {
        Session ws(&model, clock.Now());
        (void)client.Write(ws, op.key, "w");
        write_lat.Record(ws.Elapsed());
      }
    }
  };

  run_ops(kWarm, nullptr, nullptr);
  store.ResetCounters();
  uint64_t hits = 0, reads = 0;
  run_ops(kMeasure, &hits, &reads);

  RunResult out;
  out.hit_ratio = reads > 0 ? double(hits) / double(reads) : 0;
  out.store_queries = store.stats().queries;
  out.write_ack_us = write_lat.Mean();

  // Failure episode: measure read-back hits right after recovery.
  coordinator.OnInstanceFailed(0);
  run_ops(flags.quick ? 10'000 : 40'000, nullptr, nullptr);
  coordinator.OnInstanceRecovered(0);
  Session ws;
  for (int guard = 0; guard < 20000; ++guard) {
    if (!worker.has_work() && !worker.TryAdoptFragment(ws).has_value()) break;
    (void)worker.Step(ws);
  }
  uint64_t post_hits = 0, post_reads = 0;
  run_ops(flags.quick ? 10'000 : 30'000, &post_hits, &post_reads);
  out.post_recovery_hit =
      post_reads > 0 ? double(post_hits) / double(post_reads) : 0;
  out.stale = checker.total_stale();
  return out;
}

int Main(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  PrintHeader("Ablation: write policy",
              "write-around (paper) vs write-through (extension), "
              "steady-state and post-recovery behaviour");

  std::printf("\n  update%%   policy         hit%%    store queries   "
              "write-ack us   post-recovery hit%%   stale\n");
  bool ok = true;
  for (double update : {0.05, 0.2}) {
    RunResult wa = RunOnce(flags, WritePolicy::kWriteAround, update);
    RunResult wt = RunOnce(flags, WritePolicy::kWriteThrough, update);
    std::printf(
        "  %7.0f   write-around   %5.2f   %13llu   %12.0f   %18.2f   %5llu\n",
        update * 100, wa.hit_ratio * 100, (unsigned long long)wa.store_queries,
        wa.write_ack_us, wa.post_recovery_hit * 100,
        (unsigned long long)wa.stale);
    std::printf(
        "  %7.0f   write-through  %5.2f   %13llu   %12.0f   %18.2f   %5llu\n",
        update * 100, wt.hit_ratio * 100, (unsigned long long)wt.store_queries,
        wt.write_ack_us, wt.post_recovery_hit * 100,
        (unsigned long long)wt.stale);
    // Write-through must trade store read-backs for cache installs, and
    // both policies must stay consistent.
    ok = ok && wt.store_queries <= wa.store_queries &&
         wt.hit_ratio >= wa.hit_ratio && wa.stale == 0 && wt.stale == 0;
  }

  PrintClaim(
      "(Section 2, unevaluated) write-through avoids the read-back misses "
      "write-around creates",
      ok ? "write-through: higher hit ratio, fewer store queries; zero stale "
           "reads under both policies"
         : "UNEXPECTED ORDERING");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gemini::bench

int main(int argc, char** argv) { return gemini::bench::Main(argc, argv); }
