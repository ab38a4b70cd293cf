// Shared working-set-transfer control flags (Section 3.2.2).
//
// Gemini terminates the working set transfer of a recovering fragment when
// (a) the primary's cache hit ratio exceeds a threshold h, or (b) the
// secondary's miss ratio exceeds a threshold m. The ratios are measured over
// the live request stream — in our harness by the per-instance monitor that
// samples hit ratios once per virtual second (the paper monitors at the same
// granularity, Section 5.4.1).
//
// RecoveryState is the process-wide flag array the monitor flips and every
// client consults before looking up a secondary replica. It is keyed by
// fragment; flags are reset when a fragment re-enters transient mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace gemini {

class RecoveryState {
 public:
  explicit RecoveryState(size_t num_fragments);

  [[nodiscard]] bool WstTerminated(FragmentId fragment) const;
  void TerminateWst(FragmentId fragment);
  void ResetWst(FragmentId fragment);

 private:
  std::vector<std::atomic<uint8_t>> wst_terminated_;
};

/// Termination thresholds (Section 3.2.2): the paper sets h to the
/// primary's pre-failure hit ratio minus epsilon, m to 1 - h + epsilon;
/// SimOptions::wst says how the simulator sets them.
struct WstThresholds {
  double h = 0.0;
  double m = 1.0;
};

}  // namespace gemini
