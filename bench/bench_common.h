// Shared plumbing for the figure/table benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (Section 5) and prints the same rows/series the paper plots,
// followed by a PAPER vs MEASURED summary of the qualitative claim.
//
// Scale: the paper's testbed is an 11-node cluster running multi-hundred-
// second experiments against a 10M-record database. The default bench
// parameters replay the same experiments on a proportionally scaled
// database (300k records) so the whole suite finishes in minutes on one
// core; pass --full for a scale closer to the paper's (slower). The *shapes*
// (who wins, by what factor, where crossovers fall) are preserved; absolute
// numbers are not expected to match (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cluster_sim.h"
#include "src/workload/facebook.h"
#include "src/workload/ycsb.h"

namespace gemini::bench {

struct BenchFlags {
  bool full = false;   // closer to paper scale
  bool quick = false;  // CI-sized smoke run
  uint64_t seed = 42;
};

inline BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) flags.full = true;
    if (std::strcmp(argv[i], "--quick") == 0) flags.quick = true;
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  return flags;
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("==================================================================\n");
}

inline void PrintClaim(const char* paper, const char* measured) {
  std::printf("  PAPER:    %s\n  MEASURED: %s\n", paper, measured);
}

// ---- Machine-readable results (BENCH_*.json) --------------------------------
//
// Alongside its human-readable table, a bench can emit its series as a flat
// JSON document — the format CI smoke-validates and the committed baselines
// at the repo root (BENCH_<suite>.json) use:
//
//   { "bench": "<suite>",
//     "results": [ { "name": "...", "params": { "k": v, ... },
//                    "ops_per_sec": ..., "p50_us": ..., "p99_us": ... } ] }

struct BenchResult {
  std::string name;
  /// Ordered (key, value) parameter pairs identifying the configuration.
  std::vector<std::pair<std::string, double>> params;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

inline std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline std::string ResultsToJson(const std::string& suite,
                                 const std::vector<BenchResult>& results) {
  // Names and param keys are plain identifiers by convention, so no string
  // escaping is needed here.
  std::string out = "{\n  \"bench\": \"" + suite + "\",\n  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + r.name + "\", \"params\": {";
    for (size_t j = 0; j < r.params.size(); ++j) {
      if (j > 0) out += ", ";
      out += "\"" + r.params[j].first + "\": " + JsonNumber(r.params[j].second);
    }
    out += "}, \"ops_per_sec\": " + JsonNumber(r.ops_per_sec);
    out += ", \"p50_us\": " + JsonNumber(r.p50_us);
    out += ", \"p99_us\": " + JsonNumber(r.p99_us) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

/// Writes `results` to `path`, the --json=PATH a run was given, and says
/// so. Without --json (`path` empty) a bench writes no file, so a local run
/// never replaces a committed BENCH_*.json baseline: refreshing one means
/// passing its committed path. False, after reporting it, when the file
/// cannot be written.
inline bool WriteResultsJson(const std::string& path, const std::string& suite,
                             const std::vector<BenchResult>& results) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool wrote = false;
  if (f != nullptr) {
    const std::string doc = ResultsToJson(suite, results);
    wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    wrote = std::fclose(f) == 0 && wrote;
  }
  if (!wrote) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\n  results written to %s\n", path.c_str());
  return true;
}

// ---- The paper's YCSB cluster (Section 5.2), proportionally scaled ----------

struct YcsbClusterParams {
  size_t records = 300'000;   // paper: 10M
  size_t instances = 5;       // paper: 5
  size_t fragments = 5000;    // paper: 5000 (1000 per instance)
  size_t low_threads = 40;    // paper: 5 clients x 8 threads
  size_t high_threads = 200;  // paper: 5 clients x 40 threads
  double warmup_seconds = 40;
  NetParams net;              // per-bench latency/queueing overrides
};

inline YcsbClusterParams YcsbParams(const BenchFlags& flags) {
  YcsbClusterParams p;
  if (flags.full) {
    p.records = 2'000'000;
    p.warmup_seconds = 120;
  } else if (flags.quick) {
    p.records = 60'000;
    p.fragments = 1000;
    p.warmup_seconds = 15;
  }
  return p;
}

inline std::unique_ptr<ClusterSim> MakeYcsbSim(
    const BenchFlags& flags, const YcsbClusterParams& p, RecoveryPolicy policy,
    double update_fraction, bool high_load,
    YcsbWorkload::Evolution evolution = YcsbWorkload::Evolution::kStatic) {
  YcsbWorkload::Options wo;
  wo.num_records = p.records;
  wo.update_fraction = update_fraction;
  wo.evolution = evolution;
  SimOptions so;
  so.num_instances = p.instances;
  so.num_fragments = p.fragments;
  so.num_client_objects = 5;
  so.closed_loop_threads = high_load ? p.high_threads : p.low_threads;
  so.num_recovery_workers = 4;
  so.policy = policy;
  so.net = p.net;
  so.seed = flags.seed;
  return std::make_unique<ClusterSim>(so, std::make_shared<YcsbWorkload>(wo));
}

// ---- The paper's Facebook-like cluster (Section 5.1), scaled ----------------

// Scaling note: the request rate is scaled with the database so that the
// ops-per-record ratio (and hence the LRU eviction horizon relative to the
// failure duration) stays within a few x of the paper's 52k ops/s over 10M
// records. Oversubscribing load per record makes dirty lists evict in
// seconds — a behaviour the protocol handles (marker detection + discard)
// but which the paper's configuration does not trigger.
struct FacebookClusterParams {
  size_t records = 300'000;         // paper: 10M
  size_t instances = 20;            // paper: 100 (20% still fail)
  size_t fragments = 5000;          // paper: 5000
  Duration interarrival = Micros(120);  // paper: 19us at 10M records
  double warmup_seconds = 80;
};

inline FacebookClusterParams FacebookParams(const BenchFlags& flags) {
  FacebookClusterParams p;
  if (flags.full) {
    p.records = 2'000'000;
    p.instances = 100;
    p.interarrival = Micros(50);
    p.warmup_seconds = 200;
  } else if (flags.quick) {
    p.records = 100'000;
    p.instances = 10;
    p.fragments = 1000;
    p.interarrival = Micros(250);
    p.warmup_seconds = 30;
  }
  return p;
}

inline std::unique_ptr<ClusterSim> MakeFacebookSim(
    const BenchFlags& flags, const FacebookClusterParams& p,
    RecoveryPolicy policy) {
  FacebookWorkload::Options wo;
  wo.num_records = p.records;
  wo.mean_interarrival = p.interarrival;
  auto workload = std::make_shared<FacebookWorkload>(wo);
  SimOptions so;
  so.num_instances = p.instances;
  so.num_fragments = p.fragments;
  so.num_client_objects = 5;
  so.closed_loop_threads = 0;  // open loop, trace-driven
  so.num_recovery_workers = 8;
  so.policy = policy;
  so.seed = flags.seed;
  // Section 5.1: cache memory = 50% of the database size.
  so.instance_capacity_bytes =
      workload->ApproxDatabaseBytes() / 2 / p.instances;
  return std::make_unique<ClusterSim>(so, std::move(workload));
}

}  // namespace gemini::bench
