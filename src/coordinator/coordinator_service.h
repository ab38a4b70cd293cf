// CoordinatorService: the coordinator API surface that clients and recovery
// workers depend on.
//
// Section 2.1: "Gemini's coordinator consists of one master and one or more
// shadow coordinators ... When the coordinator fails, one of the shadow
// coordinators is promoted." Client code therefore talks to an interface:
// a Coordinator directly; ClusterSim's router to its lowest-ranked live
// master; or RemoteCoordinator (src/cluster), which fails over across a
// replicated group of geminicoordd processes (docs/PROTOCOL.md §12.7).
#pragma once

#include "src/common/types.h"
#include "src/coordinator/configuration.h"

namespace gemini {

class CoordinatorService {
 public:
  virtual ~CoordinatorService() = default;

  /// Latest published configuration, or nullptr while no master is
  /// reachable (callers retry; reads fall through to the data store).
  [[nodiscard]] virtual ConfigurationPtr GetConfiguration() const = 0;
  [[nodiscard]] virtual ConfigId latest_id() const = 0;

  /// Recovery progress notifications (Sections 3.2.3-3.2.4).
  virtual void OnDirtyListProcessed(FragmentId fragment) = 0;
  virtual void OnWorkingSetTransferTerminated(FragmentId fragment) = 0;
  virtual void OnDirtyListUnavailable(FragmentId fragment) = 0;

  /// True iff the fragment's dirty list is already drained this episode.
  [[nodiscard]] virtual bool DirtyProcessed(FragmentId fragment) const = 0;
};

}  // namespace gemini
