// CoordinatorControl: the Gemini coordinator hosted behind a TransportServer.
//
// This is the glue that puts the control plane on the wire (docs/PROTOCOL.md
// §12). It owns:
//   - one ClusterEndpoint per instance slot (the coordinator's view of the
//     cluster: remote geminids reached over TCP),
//   - the Coordinator itself, unchanged from the in-process build,
//   - a HeartbeatMonitor fed by kCoordRegister / kCoordHeartbeat frames,
//   - a ticker thread that advances failure detection, runs recovery cycles,
//     and renews fragment leases,
// and implements TransportServer::ControlPlane so the server's event-loop
// shards can hand it kCoord* frames.
//
// Detection flow: geminids register and then beat every heartbeat interval.
// The ticker calls HeartbeatMonitor::Tick; a missed-beat verdict gates the
// instance's endpoint *down* first (so the coordinator never publishes into
// a dead instance) and then runs Coordinator::OnInstancesFailed — fragments
// move normal -> transient exactly as in-process. A re-registration gates
// the endpoint up and runs OnInstanceRecovered (transient -> recovery when
// the dirty list survived). Every publish fires the coordinator's config
// listener, which pushes the serialized configuration to all subscribed
// connections via TransportServer::PushConfigToSubscribers — clients learn
// of a Rejig without polling.
//
// Lease discipline: networked fragment leases are short (seconds, not the
// in-process hour) so that a partitioned coordinator fails safe — instances
// stop serving when grants lapse. The ticker re-grants at ~1/3 of the
// lifetime.
//
// Threading: kCoord* handlers run on server shard threads; they only touch
// the monitor under mu_ and reply from coordinator accessors — recovery
// cycles (which fan out RPCs to instances) always run on the ticker thread.
// Shutdown order matters: Stop() this control (halts the ticker and config
// pushes) BEFORE stopping the server, per PushConfigToSubscribers's contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "src/cluster/cluster_endpoint.h"
#include "src/common/clock.h"
#include "src/coordinator/coordinator.h"
#include "src/coordinator/heartbeat.h"
#include "src/transport/server.h"

namespace gemini {

class CoordinatorControl final : public ControlPlane {
 public:
  struct Options {
    size_t num_instances = 0;
    size_t num_fragments = 0;
    Coordinator::Options coordinator;
    /// Its `interval` is also the ticker's period.
    HeartbeatMonitor::Options heartbeat;
    /// Invoked after every event that mutated the replicable
    /// CoordinatorState: a registration, a failure/recovery edge (and the
    /// Rejig it published), or a dirty-list/WST report. This is the
    /// replication trigger — CoordinatorReplica uses it to schedule a
    /// kCoordShadowSync to every shadow. Runs on shard threads and the
    /// ticker; must be thread-safe and cheap (a cv notify, not an RPC).
    std::function<void()> on_state_mutation;
  };

  CoordinatorControl(const Clock* clock, Options options);
  ~CoordinatorControl() override;

  CoordinatorControl(const CoordinatorControl&) = delete;
  CoordinatorControl& operator=(const CoordinatorControl&) = delete;

  /// Attaches the server whose subscribed connections receive config pushes
  /// and starts the ticker. Call after server->Start().
  void Start(TransportServer* server);

  /// Halts the ticker and detaches the server (no further pushes). Call
  /// BEFORE server->Stop().
  void Stop();

  // ControlPlane (runs on server shard threads).
  Reply HandleControl(wire::Op op, std::string_view body) override;

  /// `cluster.*` counters for this coordinator's kStats response
  /// (docs/PROTOCOL.md §12.6), mirroring the persist.* pattern.
  std::vector<std::pair<std::string, uint64_t>> ExtraStats() override;

  /// Seeds heartbeat expectation from previously exported coordinator state
  /// (a restarted/promoted coordinator): every instance believed up gets a
  /// registration grace window instead of being failed on the first tick.
  /// Call before Start().
  void ImportState(const CoordinatorState& state);

  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] ClusterEndpoint& endpoint(InstanceId id) {
    return *endpoints_[id];
  }

 private:
  void TickerLoop();
  // kCoord* handlers, called with their request fields (wire::Serve).
  Result<ConfigId> Register(InstanceId instance, std::string_view host,
                            uint16_t port);
  Result<std::tuple<ConfigId, uint8_t>> Heartbeat(
      const std::vector<InstanceId>& ids);
  Result<std::string> Config();
  Status Report(uint8_t event, FragmentId fragment);

  const Clock* clock_;
  Options options_;
  std::vector<std::unique_ptr<ClusterEndpoint>> endpoints_;
  std::unique_ptr<Coordinator> coordinator_;

  std::mutex mu_;  // guards monitor_ and stop_; never held across RPCs
  HeartbeatMonitor monitor_;
  /// Push target; atomic so the config listener (running under the
  /// coordinator's lock) never takes mu_ — no lock-order edge with threads
  /// that hold mu_ and then call into the coordinator.
  std::atomic<TransportServer*> server_{nullptr};
  bool stop_ = false;
  std::condition_variable ticker_cv_;
  std::thread ticker_;

  // cluster.* counters (kStats; shard threads + ticker, hence atomics).
  std::atomic<uint64_t> registrations_{0};
  std::atomic<uint64_t> heartbeats_received_{0};
  std::atomic<uint64_t> failures_detected_{0};
  std::atomic<uint64_t> recoveries_detected_{0};
};

}  // namespace gemini
