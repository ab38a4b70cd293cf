// CoordinatorReplica: one member of a replicated geminicoordd group —
// master + shadow coordinator processes with election and epoch fencing
// (Section 2.1; docs/PROTOCOL.md §12.7).
//
// Every geminicoordd hosts a CoordinatorReplica, which owns at most one
// CoordinatorControl (the actual coordinator) and is either the master
// running it or a shadow holding a replica of its state. Every election
// decision is ElectionCore's (src/coordinator/election.h), the core
// ClusterSim runs too; this class carries them out over the network.
//
// Replication: after every state-mutating event (the CoordinatorControl
// on_state_mutation hook) and on each beat, the master pushes its full
// serialized CoordinatorState to every peer as a kCoordShadowSync frame
// carrying (master epoch, rank). The state is one entry per fragment, and
// one received sync makes any shadow current.
//
// Promotion imports the replicated state into a fresh CoordinatorControl
// (ImportState re-publishes and re-grants fragment leases; the heartbeat
// monitor opens the registration grace window) and starts serving kCoord*
// ops. A master whose sync a peer rejects demotes itself.
//
// Fencing: a promoted master at epoch E >= 2 mints configuration ids above
// (E << 32), so clients, which adopt configurations only forward, ignore
// what a stale ex-master publishes later. The floor orders ids, not
// content: a shadow that promotes from a replica older than a configuration
// the master had already published re-publishes the older assignments
// under a higher id, and clients adopt them (docs/PROTOCOL.md §12.7).
//
// Threading: kCoord* handlers run on server shard threads and only copy the
// active control pointer under mu_; the replication loop runs on its own
// thread and is the only sender of syncs. The loop's wakeup cv uses a
// separate mutex from mu_ so the control's threads can nudge it while a
// shard thread holds mu_.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/coordinator_control.h"
#include "src/common/clock.h"
#include "src/coordinator/coordinator.h"
#include "src/coordinator/election.h"
#include "src/transport/server.h"
#include "src/transport/tcp_connection.h"

namespace gemini {

/// CoordinatorState <-> bytes, the payload of kCoordShadowSync. Versioned
/// and length-checked; Decode returns false on any malformed input.
void EncodeCoordinatorState(std::string& out, const CoordinatorState& state);
bool DecodeCoordinatorState(std::string_view in, CoordinatorState* state);

class CoordinatorReplica final : public ControlPlane {
 public:
  struct PeerEndpoint {
    std::string host;
    uint16_t port = 0;
  };

  struct Options {
    /// Options for the CoordinatorControl this replica runs while master.
    /// Its on_state_mutation hook is chained: the replica installs its own
    /// replication nudge and still calls any hook supplied here.
    CoordinatorControl::Options control;
    /// The other members of the coordinator group; listing this process too
    /// is harmless (its echoed claim is acked, not applied). Empty = a
    /// single-coordinator deployment, master from Start().
    std::vector<PeerEndpoint> peers;
    /// Rank (the replica's index in the deployment's ordered coordinator
    /// list) and timing; a 0 sync_interval defaults to the control's
    /// heartbeat interval. A sync also follows every state mutation. The
    /// election timeout must comfortably exceed sync_interval plus the
    /// worst-case stall of one sync round (a dead peer costs up to the
    /// 200 ms peer dial timeout until its breaker opens).
    ElectionCore::Options election;
  };

  CoordinatorReplica(const Clock* clock, Options options);
  ~CoordinatorReplica() override;

  CoordinatorReplica(const CoordinatorReplica&) = delete;
  CoordinatorReplica& operator=(const CoordinatorReplica&) = delete;

  /// Attaches the server (config-push target for the control while master)
  /// and starts the replication/election loop. Call after server->Start().
  void Start(TransportServer* server);

  /// Halts the loop and the active control, if any. Call BEFORE
  /// server->Stop().
  void Stop();

  // ControlPlane (server shard threads). kCoordShadowSync is handled here
  // in both roles; every other kCoord* op is delegated to the active
  // control while master and answered kNotMaster while shadow.
  Reply HandleControl(wire::Op op, std::string_view body) override;

  /// cluster.* counters: the active control's (while master) plus the
  /// replica's own role/election/replication counters.
  std::vector<std::pair<std::string, uint64_t>> ExtraStats() override;

  [[nodiscard]] bool is_master() const;
  /// Highest master epoch this replica has seen (its own while master).
  [[nodiscard]] uint64_t epoch() const;
  [[nodiscard]] uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t demotions() const {
    return demotions_.load(std::memory_order_relaxed);
  }
  /// The active control (nullptr while shadow). The pointer stays valid
  /// while the caller can exclude a concurrent demotion (tests).
  [[nodiscard]] CoordinatorControl* control();

 private:
  void ReplicaLoop();
  /// Wakes the loop now (state mutated -> replicate promptly).
  void Nudge();
  /// Carry out core_'s promote / step-down. Require mu_.
  void PromoteLocked();
  void StepDownLocked();
  /// Sends one full-state sync to every peer; demotes on a kNotMaster
  /// rejection. Runs on the loop thread, without mu_ held across RPCs.
  void ReplicateOnce();
  /// kCoordShadowSync: fences or adopts a mastership claim; answers the
  /// epoch this replica now accepts.
  Result<uint64_t> ApplyShadowSync(uint64_t epoch, uint32_t rank,
                                   std::string_view blob);

  const Clock* clock_;
  Options options_;
  std::vector<std::shared_ptr<TcpConnection>> peer_conns_;

  mutable std::mutex mu_;  // role state; never held across peer RPCs
  /// Every election decision (guarded by mu_; its sync_interval() is fixed
  /// at construction and read without it).
  ElectionCore core_;
  std::optional<CoordinatorState> replicated_state_;
  /// shared_ptr so a shard thread mid-delegation keeps the control alive
  /// across a concurrent step-down.
  std::shared_ptr<CoordinatorControl> control_;
  /// Demoted controls parked for the loop thread to Stop(): joining a
  /// control's ticker must never happen on a server shard thread.
  std::vector<std::shared_ptr<CoordinatorControl>> retired_;
  TransportServer* server_ = nullptr;

  /// Loop wakeup; separate mutex from mu_ (see header comment).
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_ = false;
  bool stop_ = false;
  std::thread loop_;

  // cluster.* counters.
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> syncs_sent_{0};
  std::atomic<uint64_t> syncs_received_{0};
  std::atomic<uint64_t> sync_send_failures_{0};
  std::atomic<uint64_t> sync_rejections_rx_{0};  // peers rejected our sync
  std::atomic<uint64_t> syncs_rejected_{0};      // we rejected a stale sync
  std::atomic<uint64_t> replication_bytes_{0};
  /// Timestamp of the last sync round in which every peer acked (replication
  /// lag = now - this while master; 0 before the first complete round).
  std::atomic<Timestamp> last_full_ack_{0};
};

}  // namespace gemini
