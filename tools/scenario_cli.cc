// scenario_cli: run a custom Gemini failure scenario from the command line
// and print per-second CSV series — the knob-turning tool for downstream
// users (the figure benches hard-code the paper's parameters; this exposes
// them).
//
//   ./build/tools/scenario_cli --policy=gemini-ow --records=100000
//       --instances=5 --fragments=1000 --threads=40 --updates=5
//       --fail=0:20:10 --fail=1:60:5 --coordfail=30 --evolve=100
//       --seconds=120 --seed=7        (single command line)
//
// Output: CSV with one row per virtual second: throughput, overall hit
// ratio, per-failed-instance hit ratio, p90 read latency, stale reads.
// A summary block at the end reports recovery metrics per failed instance.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/cluster_sim.h"
#include "src/workload/ycsb.h"

namespace gemini {
namespace {

struct FailureSpec {
  InstanceId instance = 0;
  double at = 0;
  double down_for = 0;
};

struct CliOptions {
  std::string policy = "gemini-ow";
  uint64_t records = 100'000;
  size_t instances = 5;
  size_t fragments = 1000;
  size_t threads = 40;
  double updates_pct = 5;
  int evolve = 0;  // 0 | 20 | 100
  double seconds = 60;
  uint64_t seed = 42;
  bool crash = false;
  std::vector<FailureSpec> failures;
  double coord_fail_at = -1;
};

RecoveryPolicy ParsePolicy(const std::string& name) {
  if (name == "volatile") return RecoveryPolicy::VolatileCache();
  if (name == "stale") return RecoveryPolicy::StaleCache();
  if (name == "gemini-i") return RecoveryPolicy::GeminiI();
  if (name == "gemini-o") return RecoveryPolicy::GeminiO();
  if (name == "gemini-iw") return RecoveryPolicy::GeminiIW();
  if (name == "gemini-ow") return RecoveryPolicy::GeminiOW();
  std::fprintf(stderr, "unknown --policy=%s (volatile|stale|gemini-{i,o,iw,ow})\n",
               name.c_str());
  std::exit(2);
}

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  *out = arg + n;
  return true;
}

CliOptions Parse(int argc, char** argv) {
  CliOptions o;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (ParseArg(argv[i], "--policy=", &v)) {
      o.policy = v;
    } else if (ParseArg(argv[i], "--records=", &v)) {
      o.records = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--instances=", &v)) {
      o.instances = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--fragments=", &v)) {
      o.fragments = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--threads=", &v)) {
      o.threads = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--updates=", &v)) {
      o.updates_pct = std::strtod(v.c_str(), nullptr);
    } else if (ParseArg(argv[i], "--evolve=", &v)) {
      o.evolve = std::atoi(v.c_str());
    } else if (ParseArg(argv[i], "--seconds=", &v)) {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseArg(argv[i], "--seed=", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--crash") == 0) {
      o.crash = true;
    } else if (ParseArg(argv[i], "--fail=", &v)) {
      // --fail=<instance>:<at_seconds>:<duration_seconds>
      FailureSpec f;
      if (std::sscanf(v.c_str(), "%u:%lf:%lf", &f.instance, &f.at,
                      &f.down_for) != 3) {
        std::fprintf(stderr, "bad --fail=%s (want i:at:dur)\n", v.c_str());
        std::exit(2);
      }
      o.failures.push_back(f);
    } else if (ParseArg(argv[i], "--coordfail=", &v)) {
      // --coordfail=<at_seconds>: kill the coordinator master; the shadows'
      // election decides when one takes over.
      int used = 0;
      if (std::sscanf(v.c_str(), "%lf%n", &o.coord_fail_at, &used) != 1 ||
          static_cast<size_t>(used) != v.size()) {
        std::fprintf(stderr, "bad --coordfail=%s (want at)\n", v.c_str());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      std::exit(2);
    }
  }
  return o;
}

}  // namespace
}  // namespace gemini

int main(int argc, char** argv) {
  using namespace gemini;
  const CliOptions cli = Parse(argc, argv);

  YcsbWorkload::Options wo;
  wo.num_records = cli.records;
  wo.update_fraction = cli.updates_pct / 100.0;
  wo.evolution = cli.evolve == 100 ? YcsbWorkload::Evolution::kSwitch100
                 : cli.evolve == 20 ? YcsbWorkload::Evolution::kSwitch20
                                    : YcsbWorkload::Evolution::kStatic;
  SimOptions so;
  so.num_instances = cli.instances;
  so.num_fragments = cli.fragments;
  so.closed_loop_threads = cli.threads;
  so.policy = ParsePolicy(cli.policy);
  so.crash_failures = cli.crash;
  so.seed = cli.seed;
  ClusterSim sim(so, std::make_shared<YcsbWorkload>(wo));

  double first_failure = -1;
  for (const auto& f : cli.failures) {
    sim.ScheduleFailure(f.instance, Seconds(f.at), Seconds(f.down_for));
    if (first_failure < 0 || f.at < first_failure) first_failure = f.at;
  }
  if (cli.evolve != 0 && first_failure >= 0) {
    sim.SchedulePhaseChange(Seconds(first_failure), 1);
  }
  if (cli.coord_fail_at >= 0) {
    sim.ScheduleCoordinatorFailure(Seconds(cli.coord_fail_at));
  }
  sim.Run(Seconds(cli.seconds));

  // ---- CSV ---------------------------------------------------------------------
  std::printf("second,throughput,hit_ratio,p90_read_us,stale_reads");
  for (const auto& f : cli.failures) {
    std::printf(",hit_instance_%u", f.instance);
  }
  std::printf("\n");
  const auto& m = sim.metrics();
  const auto hit = m.overall_hit.Ratios();
  const auto p90 = m.read_latency.Percentiles(0.90);
  const auto& stale = m.stale.stale_per_interval().buckets();
  const auto seconds = static_cast<size_t>(cli.seconds);
  for (size_t s = 0; s < seconds; ++s) {
    std::printf("%zu,%llu,%.4f,%.0f,%llu", s,
                (unsigned long long)m.ops.At(Seconds((double)s)),
                s < hit.size() ? hit[s] : 0.0,
                s < p90.size() ? p90[s] : 0.0,
                (unsigned long long)(s < stale.size() ? stale[s] : 0));
    for (const auto& f : cli.failures) {
      std::printf(",%.4f", m.InstanceHitBetween(f.instance, s, s + 1));
    }
    std::printf("\n");
  }

  std::fprintf(stderr, "\n# policy=%s stale_total=%llu\n", cli.policy.c_str(),
               (unsigned long long)m.stale.total_stale());
  for (const auto& rec : sim.recoveries()) {
    std::fprintf(stderr,
                 "# instance %u: failed@%.1fs recovered@%.1fs "
                 "recovery_duration=%.1fs restore_hit_ratio=%.1fs "
                 "prefailure_hit=%.3f\n",
                 rec.instance, ToSeconds(rec.failed_at),
                 ToSeconds(rec.recovered_at),
                 sim.RecoveryDurationSeconds(rec.instance),
                 sim.SecondsToRestoreHitRatio(rec.instance),
                 rec.prefailure_hit_ratio);
  }
  return 0;
}
