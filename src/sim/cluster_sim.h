// ClusterSim: the discrete-event experiment harness.
//
// Assembles a full Gemini deployment — M cache instances, a coordinator, N
// client library objects driven by closed-loop "YCSB threads" or an
// open-loop trace, stateless recovery workers, and the backing data store —
// on a virtual clock, and replays failure/recovery scenarios while
// collecting the metric series the paper's figures plot.
//
// Fidelity notes (see DESIGN.md for the full substitution table):
//  - Failures default to the paper's emulation (Section 5.2): the
//    coordinator removes the instance from the configuration; the instance
//    process keeps running with content intact. `crash_failures` instead
//    fails the process (leases lost; content persistent or wiped per
//    policy).
//  - Load: `closed_loop_threads` > 0 reproduces YCSB's closed loop (each
//    thread issues its next request when the previous completes — the
//    paper's low load is 40 threads, high load 200). With 0 threads, the
//    workload's inter-arrival model drives an open loop (the Facebook
//    trace).
//  - Working-set-transfer termination (Section 3.2.2): a monitor samples
//    each recovering instance's hit ratio once per virtual second and
//    terminates the transfer when it reaches h (default: the instance's own
//    pre-failure hit ratio minus epsilon) or when the secondary's probe miss
//    ratio exceeds m.
//  - Coordinator (Section 2.1): 1 + `coordinator_shadows` replicas run
//    geminicoordd's election (ElectionCore) at its default timing; rank 0
//    is master at t=0. A sync leaves at each mutation and on every beat and
//    arrives half a `client_coordinator_rtt` later; links are never cut. A
//    promoted master learns the failure detector's verdicts its imported
//    state lacks (the stand-in for PROTOCOL.md §12.2's grace window).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/client/gemini_client.h"
#include "src/client/recovery_state.h"
#include "src/coordinator/coordinator.h"
#include "src/coordinator/election.h"
#include "src/net/cost_model.h"
#include "src/recovery/recovery_worker.h"
#include "src/sim/event_queue.h"
#include "src/consistency/invariant_auditor.h"
#include "src/sim/metrics.h"
#include "src/store/data_store.h"
#include "src/workload/workload.h"

namespace gemini {

struct SimOptions {
  size_t num_instances = 5;
  size_t num_fragments = 5000;
  size_t num_client_objects = 5;
  /// Total closed-loop threads across all clients; 0 = open loop driven by
  /// the workload's inter-arrival model.
  size_t closed_loop_threads = 40;
  size_t num_recovery_workers = 4;
  size_t worker_keys_per_step = 256;
  RecoveryPolicy policy = RecoveryPolicy::GeminiOW();
  NetParams net;
  /// Per-instance cache budget in bytes; 0 = unbounded (the paper's YCSB
  /// setup gives instances enough memory for all their entries).
  uint64_t instance_capacity_bytes = 0;
  /// Crash (true) vs emulated (false) failures.
  bool crash_failures = false;
  /// Crash-failure detection delay before the coordinator reacts.
  Duration failure_detection_delay = Millis(200);
  Duration suspended_write_retry = Millis(10);
  /// WST thresholds; h <= 0 auto-calibrates to the instance's measured
  /// pre-failure hit ratio minus `wst_epsilon`.
  WstThresholds wst{0.0, 1.0};
  double wst_epsilon = 0.02;
  Duration monitor_interval = Seconds(1);
  Duration worker_idle_poll = Millis(50);
  /// Poll interval for detecting that all fragments of a recovering instance
  /// returned to normal mode (the paper's "recovery time" endpoint).
  Duration recovery_check_interval = Millis(100);
  /// Shadow coordinators standing by for failover (Section 2.1).
  size_t coordinator_shadows = 1;
  /// Fragment lease lifetime granted by the coordinator (paper: seconds to
  /// minutes). The monitor tick renews them; leases lapse while no
  /// coordinator master is up.
  Duration fragment_lease_lifetime = Seconds(30);
  /// Audit structural invariants (InvariantAuditor) every monitor tick.
  /// Off by default: O(F x M) per tick. Tests turn it on.
  bool audit_invariants = false;
  uint64_t seed = 42;
};

class ClusterSim {
 public:
  ClusterSim(SimOptions options, std::shared_ptr<Workload> workload);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Fails `instance` at virtual time `at` for `down_for`; recovery events
  /// are scheduled automatically.
  void ScheduleFailure(InstanceId instance, Timestamp at, Duration down_for);

  /// Fails a group of instances simultaneously in one configuration
  /// transition (the paper fails 20 of 100 instances at once); recoveries
  /// are scheduled per instance.
  void ScheduleGroupFailure(std::vector<InstanceId> instances, Timestamp at,
                            Duration down_for);

  /// Switches the workload's access-pattern phase at `at` (Section 5.4.4
  /// ties the switch to the failure).
  void SchedulePhaseChange(Timestamp at, int phase);

  /// Kills the live coordinator master at `at` (no-op if none is up); the
  /// election decides when a shadow takes over.
  void ScheduleCoordinatorFailure(Timestamp at);

  /// Runs the simulation until virtual time `until` (absolute; call
  /// repeatedly to run in stages).
  void Run(Timestamp until);

  // ---- Accessors -------------------------------------------------------------

  [[nodiscard]] const SimMetrics& metrics() const { return *metrics_; }
  VirtualClock& clock() { return clock_; }
  /// What clients and recovery workers call: routed to master().
  CoordinatorService& coordinator();
  /// The lowest-ranked live master's coordinator; nullptr while no master
  /// is up (an election gap, or every replica dead).
  [[nodiscard]] Coordinator* master() {
    Replica* r = LiveMaster();
    return r != nullptr ? r->coordinator.get() : nullptr;
  }
  /// Coordinator replica `rank`'s election state.
  [[nodiscard]] const ElectionCore& election(size_t rank) const {
    return replicas_[rank].core;
  }
  CacheInstance& instance(InstanceId i) { return *instances_[i]; }
  DataStore& store() { return store_; }
  Workload& workload() { return *workload_; }
  const SimOptions& options() const { return options_; }
  GeminiClient& client(size_t i) { return *clients_[i]; }
  size_t num_clients() const { return clients_.size(); }
  const RecoveryWorker& worker(size_t i) const { return *workers_[i]; }
  size_t num_workers() const { return workers_.size(); }

  struct RecoveryRecord {
    InstanceId instance = kInvalidInstance;
    Timestamp failed_at = -1;
    Timestamp recovered_at = -1;
    /// When every fragment whose primary is this instance returned to
    /// normal mode — the paper's "recovery time" endpoint (Figure 8.b-c).
    Timestamp fragments_normal_at = -1;
    /// Hit ratio of the instance over the 10 seconds before the failure.
    double prefailure_hit_ratio = 0.0;
  };
  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries() const {
    return recoveries_;
  }

  /// Virtual seconds from an instance's recovery until its per-second hit
  /// ratio first reaches its pre-failure level minus epsilon; -1 if never.
  [[nodiscard]] double SecondsToRestoreHitRatio(InstanceId instance) const;

  /// Virtual seconds from recovery until all of the instance's fragments
  /// were back in normal mode; -1 if that never happened.
  [[nodiscard]] double RecoveryDurationSeconds(InstanceId instance) const;

  /// Structural-invariant violations observed so far (audit_invariants).
  [[nodiscard]] const std::vector<InvariantViolation>& invariant_violations()
      const {
    return invariant_violations_;
  }

 private:
  void StartLoad();
  void ClientOp(size_t thread, Timestamp now);
  void OpenLoopArrival(Timestamp now);
  void ExecuteOp(size_t client_idx, const Operation& op, Timestamp start,
                 Timestamp first_attempt);
  void RecordRead(const Operation& op, Timestamp start, Timestamp end,
                  const Result<GeminiClient::ReadResult>& r);
  void WorkerStep(size_t worker, Timestamp now);
  void MonitorTick(Timestamp now);
  void RecoveryCheck(InstanceId instance, Timestamp now);
  void FailNow(const std::vector<InstanceId>& group, Timestamp now);
  void RecordFailure(InstanceId instance, Timestamp now);
  void RecoverNow(InstanceId instance, Timestamp now);
  void ReportFailed(const std::vector<InstanceId>& failed);
  void ReportRecovered(Coordinator& m, InstanceId instance);
  const RecoveryRecord* ActiveRecord(InstanceId instance) const;
  RecoveryRecord* ActiveRecord(InstanceId instance);

  /// One simulated geminicoordd.
  struct Replica {
    ElectionCore core{{}};
    bool alive = true;
    /// The state the last accepted sync carried.
    std::shared_ptr<const CoordinatorState> state;
    /// Non-null while master.
    std::unique_ptr<Coordinator> coordinator;
  };
  class MasterRoute;
  Replica* LiveMaster();
  /// Runs `fn` on the live master, then syncs its state to the shadows;
  /// a no-op while no master is up.
  template <typename Fn>
  void Mutate(Fn&& fn);
  std::unique_ptr<Coordinator> NewCoordinator() const;
  void ElectionTick(Replica& r, Timestamp now);
  void Promote(Replica& r);
  /// Sends master `from`'s full state to every live peer.
  void SendSync(Replica& from);

  SimOptions options_;
  std::shared_ptr<Workload> workload_;
  VirtualClock clock_;
  EventQueue events_;
  DataStore store_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<Replica> replicas_;  // index = rank; never resized after
                                   // construction (events hold Replica&)
  std::unique_ptr<MasterRoute> route_;
  /// Instances the failure detector has reported failed and not recovered.
  std::vector<bool> detected_down_;
  CostModel cost_model_;
  RecoveryState recovery_state_;
  std::vector<std::unique_ptr<GeminiClient>> clients_;
  std::vector<std::unique_ptr<RecoveryWorker>> workers_;
  std::unique_ptr<SimMetrics> metrics_;
  Rng rng_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<double> wst_h_target_;  // per instance; <0 = not recovering
  std::unique_ptr<InvariantAuditor> auditor_;
  std::vector<InvariantViolation> invariant_violations_;
  size_t arrival_count_ = 0;
  bool load_started_ = false;
};

}  // namespace gemini
