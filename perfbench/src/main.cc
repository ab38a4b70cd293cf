// perfbench_loadgen: runs one benchmark workload against live geminid /
// geminicoordd processes and prints its metrics; the last stdout line is
// one JSON object {correct, attempted, failed, metrics}. perfbench/run.py
// builds this binary and is the command to use.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR --trace-dir DIR
//   perfbench_loadgen --dump-stream --workload NAME --seed N
//
// Exit codes: 0 run completed with correct outputs, 1 a correctness
// violation (stale read, wrong value, fragment never normal), 2 bad flags,
// 3 the run could not complete (a daemon failed to start, ...).
#include <sys/prctl.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness.h"
#include "src/workload.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

/// Metric names of the final JSON line; must match BENCHMARK.json
/// (perfbench/test_perfbench.py checks it).
const std::vector<std::string> kEndToEnd = {
    "ops_per_s", "read_p50_us", "read_p90_us",        "write_p50_us",
    "hit_ratio", "recovery_s",  "recovery_hit_ratio", "ok_frac",
    "setup_s",
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"transport.window_wait_p50_us", "us"},
    {"transport.window_wait_p99_us", "us"},
    {"transport.inflight_p50_us", "us"},
    {"transport.inflight_p99_us", "us"},
    {"transport.frames_per_flush", "count"},
    {"transport.sendmsg_per_op", "count"},
    {"daemon.cpu_us_per_op", "us"},
    {"client.cpu_us_per_op", "us"},
    {"cache.hit_ratio", "fraction"},
    {"cache.evictions_per_set", "count"},
    {"cache.used_bytes", "bytes"},
    {"persist.wal_bytes_per_user_byte", "count"},
    {"persist.records_per_commit", "count"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_lag_bytes", "bytes"},
    {"persist.disk_bytes_per_live_byte", "count"},
    {"client.backend_calls_per_read", "count"},
    {"client.backend_calls_per_write", "count"},
    {"client.backend_us_per_read", "us"},
    {"client.store_us_per_read", "us"},
    {"client.self_us_per_read", "us"},
    {"client.store_reads_per_read", "count"},
    {"client.suspended_writes", "count"},
    {"store.queries", "count"},
    {"store.updates", "count"},
    {"lease.backoffs_per_op", "count"},
    {"cluster.failover_s", "s"},
    {"cluster.config_changes", "count"},
    {"coordinator.us_per_call", "us"},
    {"cluster.restart_to_recovery_mode_s", "s"},
    {"recovery.step_busy_s", "s"},
    {"recovery.adopt_success_ratio", "fraction"},
    {"recovery.wst_keys_copied", "count"},
    {"recovery.wst_copy_ratio", "fraction"},
    {"recovery.wst_pages", "count"},
    {"recovery.wst_aborts", "count"},
    {"recovery.scan_keys_per_copied", "count"},
    {"recovery.keys_overwritten", "count"},
    {"trace.spans", "count"},
    {"trace_overhead.ops_per_s", "fraction"},
    {"trace_overhead.read_p50_us", "fraction"},
    {"trace_overhead.read_p90_us", "fraction"},
    {"trace_overhead.write_p50_us", "fraction"},
    {"trace_overhead.hit_ratio", "fraction"},
    {"trace_overhead.recovery_s", "fraction"},
    {"trace_overhead.recovery_hit_ratio", "fraction"},
    {"trace_overhead.ok_frac", "fraction"},
};

const std::vector<std::string> kWorkloads = {
    "wire_read_mostly", "wire_write_heavy", "lookaside_disk_loss"};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_loadgen: " << why << "\n"
            << "usage: perfbench_loadgen --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --trace-dir DIR [--tiny]\n"
               "       perfbench_loadgen --dump-stream --workload NAME "
               "--seed N\n";
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const char* v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || v[0] == '-') {
    Usage("invalid value '" + std::string(v) + "' for " + flag);
  }
  return x;
}

/// Prints the digest and first ops of each stream the workload generates,
/// for the self-tests' reproducibility checks.
int DumpStreams(const RunOptions& o) {
  const std::vector<StreamSpec> specs = o.workload == "lookaside_disk_loss"
                                            ? LookasideStreamSpecs(o)
                                            : WireStreamSpecs(o);
  for (const StreamSpec& spec : specs) {
    const std::vector<uint32_t> ops = MakeOpStream(spec);
    std::printf("stream %u digest %016llx first", spec.partition,
                static_cast<unsigned long long>(StreamDigest(ops)));
    for (size_t i = 0; i < 8 && i < ops.size(); ++i) {
      std::printf(" %c%u", IsWrite(ops[i]) ? 'W' : 'R', KeyOf(ops[i]));
    }
    std::printf("\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  RunOptions o;
  bool dump = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--seed") {
      o.seed = ParseUint(arg, next());
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(ParseUint(arg, next()));
    } else if (arg == "--trace") {
      const uint64_t t = ParseUint(arg, next());
      if (t > 1) Usage("--trace must be 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (arg == "--work-dir") {
      o.work_dir = next();
    } else if (arg == "--trace-dir") {
      o.trace_dir = next();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--dump-stream") {
      dump = true;
    } else {
      Usage("unknown option " + arg);
    }
  }
  bool known = false;
  for (const auto& w : kWorkloads) known = known || w == o.workload;
  if (!known) Usage("unknown workload '" + o.workload + "'");
  if (dump) return DumpStreams(o);
  if (!have_trace || o.work_dir.empty() || o.trace_dir.empty()) {
    Usage("--trace, --work-dir and --trace-dir are required");
  }
  if (o.seconds < 1 || o.seconds > 60) Usage("--seconds must be in [1, 60]");

  // The look-aside store's round trip is a sleep; the default 50 us timer
  // slack would add an overshoot to it that depends on the host's other
  // timers. Every thread and daemon started from here on inherits 1 ns.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  MakeDirs(o.work_dir);
  MakeDirs(o.trace_dir);
  // Everything must be torn down well within the 180 s a run may take.
  Supervisor::Get().Install(o.work_dir, 150);
  RunResult result;
  int code = 0;
  try {
    if (o.workload == "lookaside_disk_loss") {
      RunLookaside(o, &result);
    } else {
      RunWire(o, &result);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    code = 3;
  }
  Supervisor::Get().Cleanup();
  Supervisor::Get().Uninstall();
  if (code != 0) return code;

  std::vector<std::string> names = kEndToEnd;
  if (o.trace) {
    names.clear();
    std::string missing;
    for (const auto& [name, unit] : kPerLayer) {
      names.push_back(name);
      if (!result.report.Has(name)) {
        result.report.Set(name, 0, unit);
        missing += " " + name;
      }
    }
    if (!missing.empty()) {
      result.report.Note("not exercised by this workload (reported as 0):" +
                         missing);
    }
  }
  result.report.Note(std::string("verdict ") +
                     (result.correct ? "correct" : "INCORRECT") +
                     ", attempted " + std::to_string(result.attempted) +
                     ", failed " + std::to_string(result.failed));
  result.report.PrintHuman();
  result.report.PrintJson(result.correct, result.attempted, result.failed,
                          names);
  if (!result.correct) {
    std::cerr << "perfbench: correctness violation; see the verdict line\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
