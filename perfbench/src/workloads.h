// The benchmark's workloads. Each one sets up its daemons, measures, checks
// the program's outputs and fills a RunResult; main() prints it.
#pragma once

#include <cstdint>
#include <string>

#include <vector>

#include "src/harness.h"
#include "src/workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: the measured time is split between an untraced and a
  /// traced half; per-layer metrics come from the traced half and the
  /// difference between the halves is the tracing overhead.
  bool trace = false;
  /// Shrinks every size for the self-tests (correctness, not speed).
  bool tiny = false;
  std::string work_dir;   // data dirs; removed at exit
  std::string trace_dir;  // span CSVs of traced runs
};

struct RunResult {
  Report report;
  /// False on a stale read, a wrong value, or a fragment that never
  /// returned to normal.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RunWire(const RunOptions& options, RunResult* out);
void RunLookaside(const RunOptions& options, RunResult* out);

/// The op streams a workload generates from options.seed, one per client.
std::vector<StreamSpec> WireStreamSpecs(const RunOptions& options);
std::vector<StreamSpec> LookasideStreamSpecs(const RunOptions& options);

}  // namespace perfbench
