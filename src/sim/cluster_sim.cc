#include "src/sim/cluster_sim.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace gemini {

/// Routes every call to the lowest-ranked live master, the way
/// RemoteCoordinator walks its ordered endpoint list. While none is up
/// there is no configuration, and reports are dropped.
class ClusterSim::MasterRoute final : public CoordinatorService {
 public:
  explicit MasterRoute(ClusterSim* sim) : sim_(sim) {}

  [[nodiscard]] ConfigurationPtr GetConfiguration() const override {
    return sim_->master() ? sim_->master()->GetConfiguration() : nullptr;
  }
  [[nodiscard]] ConfigId latest_id() const override {
    return sim_->master() ? sim_->master()->latest_id() : 0;
  }
  void OnDirtyListProcessed(FragmentId f) override {
    sim_->Mutate([f](Coordinator& m) { m.OnDirtyListProcessed(f); });
  }
  void OnWorkingSetTransferTerminated(FragmentId f) override {
    sim_->Mutate([f](Coordinator& m) { m.OnWorkingSetTransferTerminated(f); });
  }
  void OnDirtyListUnavailable(FragmentId f) override {
    sim_->Mutate([f](Coordinator& m) { m.OnDirtyListUnavailable(f); });
  }
  [[nodiscard]] bool DirtyProcessed(FragmentId f) const override {
    return sim_->master() && sim_->master()->DirtyProcessed(f);
  }

 private:
  ClusterSim* sim_;
};

ClusterSim::ClusterSim(SimOptions options, std::shared_ptr<Workload> workload)
    : options_(options),
      workload_(std::move(workload)),
      clock_(0),
      events_(&clock_),
      cost_model_(options.net, options.num_instances),
      recovery_state_(options.num_fragments),
      rng_(options.seed) {
  assert(workload_ != nullptr);
  workload_->LoadStore(store_);

  CacheInstance::Options iopts;
  iopts.capacity_bytes = options_.instance_capacity_bytes;
  instances_.reserve(options_.num_instances);
  std::vector<CacheInstance*> raw;
  for (size_t i = 0; i < options_.num_instances; ++i) {
    instances_.push_back(std::make_unique<CacheInstance>(
        static_cast<InstanceId>(i), &clock_, iopts));
    raw.push_back(instances_.back().get());
  }

  // Rank 0 is master at t=0 and publishes config id 1; every shadow's
  // election deadline starts at t=0.
  route_ = std::make_unique<MasterRoute>(this);
  detected_down_.assign(options_.num_instances, false);
  replicas_.resize(options_.coordinator_shadows + 1);
  for (uint32_t rank = 0; rank < replicas_.size(); ++rank) {
    Replica& r = replicas_[rank];
    r.core = ElectionCore({rank});
    if (r.core.Start(0, replicas_.size() > 1, /*first_master=*/rank == 0)) {
      r.coordinator = NewCoordinator();
      SendSync(r);
    }
    events_.At(r.core.sync_interval(),
               [this, &r](Timestamp now) { ElectionTick(r, now); });
  }

  GeminiClient::Options cl_opts;
  cl_opts.working_set_transfer = options_.policy.working_set_transfer;
  cl_opts.maintain_dirty_lists = options_.policy.maintain_dirty_lists;
  for (size_t c = 0; c < options_.num_client_objects; ++c) {
    clients_.push_back(std::make_unique<GeminiClient>(
        &clock_, route_.get(), raw, &store_, cl_opts));
    clients_.back()->BindRecoveryState(&recovery_state_);
  }

  if (options_.policy.consistent_recovery) {
    RecoveryWorker::Options w_opts;
    w_opts.overwrite_dirty = options_.policy.overwrite_dirty;
    w_opts.keys_per_step = options_.worker_keys_per_step;
    for (size_t w = 0; w < options_.num_recovery_workers; ++w) {
      workers_.push_back(std::make_unique<RecoveryWorker>(
          &clock_, route_.get(), raw, w_opts));
    }
  }

  metrics_ = std::make_unique<SimMetrics>(options_.num_instances, &store_);
  wst_h_target_.assign(options_.num_instances, -1.0);
  if (options_.audit_invariants) {
    auditor_ = std::make_unique<InvariantAuditor>(
        raw, options_.policy.maintain_dirty_lists);
  }
}

ClusterSim::~ClusterSim() = default;

CoordinatorService& ClusterSim::coordinator() { return *route_; }

ClusterSim::Replica* ClusterSim::LiveMaster() {
  for (Replica& r : replicas_) {
    if (r.alive && r.coordinator != nullptr) return &r;
  }
  return nullptr;
}

template <typename Fn>
void ClusterSim::Mutate(Fn&& fn) {
  if (Replica* r = LiveMaster()) {
    fn(*r->coordinator);
    SendSync(*r);
  }
}

std::unique_ptr<Coordinator> ClusterSim::NewCoordinator() const {
  std::vector<CacheInstance*> raw;
  for (const auto& instance : instances_) raw.push_back(instance.get());
  Coordinator::Options copts;
  copts.policy = options_.policy;
  copts.fragment_lease_lifetime = options_.fragment_lease_lifetime;
  return std::make_unique<Coordinator>(&clock_, std::move(raw),
                                       options_.num_fragments, copts);
}

void ClusterSim::ElectionTick(Replica& r, Timestamp now) {
  if (!r.alive) return;  // a dead replica's beat stops
  const ElectionCore::Action action = r.core.Tick(now);
  if (action == ElectionCore::Action::kPromote) Promote(r);
  if (action == ElectionCore::Action::kSendSync) SendSync(r);
  events_.At(now + r.core.sync_interval(),
             [this, &r](Timestamp t) { ElectionTick(r, t); });
}

void ClusterSim::Promote(Replica& r) {
  r.coordinator = NewCoordinator();
  CoordinatorState state =
      r.state != nullptr ? *r.state : r.coordinator->ExportState();
  state.master_epoch = r.core.epoch();
  r.coordinator->ImportState(state);
  // Stand-in for §12.2's registration grace window: the new master learns
  // the failure detector's verdicts its state lacks, failures first (a
  // fragment put into recovery just before its secondary fails is stranded).
  std::vector<InstanceId> failed;
  for (InstanceId i = 0; i < detected_down_.size(); ++i) {
    if (state.believed_up[i] && detected_down_[i]) failed.push_back(i);
  }
  if (!failed.empty()) r.coordinator->OnInstancesFailed(failed);
  for (InstanceId i = 0; i < detected_down_.size(); ++i) {
    if (!state.believed_up[i] && !detected_down_[i]) {
      ReportRecovered(*r.coordinator, i);
    }
  }
  SendSync(r);
}

void ClusterSim::SendSync(Replica& from) {
  std::shared_ptr<const CoordinatorState> state =
      std::make_shared<CoordinatorState>(from.coordinator->ExportState());
  const uint64_t epoch = from.core.epoch();
  const uint32_t rank = from.core.rank();
  const Duration one_way = options_.net.client_coordinator_rtt / 2;
  for (Replica& to : replicas_) {
    if (&to == &from || !to.alive) continue;
    events_.After(one_way, [this, &from, &to, epoch, rank, state,
                            one_way](Timestamp now) {
      if (!to.alive) return;
      switch (to.core.OnClaim(epoch, rank, now)) {
        case ElectionCore::Verdict::kStale:
          // The rejection travels back to the sender.
          events_.After(one_way, [&from, epoch](Timestamp t) {
            if (from.alive && from.core.OnSyncRejected(epoch, t) ==
                                  ElectionCore::Action::kStepDown) {
              from.coordinator.reset();
            }
          });
          return;
        case ElectionCore::Verdict::kStepDown:
          to.coordinator.reset();
          [[fallthrough]];
        case ElectionCore::Verdict::kAccepted:
          to.state = state;
          return;
        case ElectionCore::Verdict::kOwnEcho:
          return;
      }
    });
  }
}

void ClusterSim::StartLoad() {
  if (load_started_) return;
  load_started_ = true;
  if (options_.closed_loop_threads > 0) {
    // Stagger thread starts across the first millisecond so the queueing
    // model does not see one synchronized burst.
    const Duration stagger =
        std::max<Duration>(1, Millis(1) / options_.closed_loop_threads);
    for (size_t t = 0; t < options_.closed_loop_threads; ++t) {
      events_.At(clock_.Now() + static_cast<Duration>(t) * stagger,
                 [this, t](Timestamp now) { ClientOp(t, now); });
    }
  } else {
    events_.At(clock_.Now() + workload_->NextInterarrival(rng_),
               [this](Timestamp now) { OpenLoopArrival(now); });
  }
  events_.At(clock_.Now() + options_.monitor_interval,
             [this](Timestamp now) { MonitorTick(now); });
  for (size_t w = 0; w < workers_.size(); ++w) {
    events_.At(clock_.Now() + static_cast<Duration>(w + 1) * Millis(1),
               [this, w](Timestamp now) { WorkerStep(w, now); });
  }
}

void ClusterSim::Run(Timestamp until) {
  StartLoad();
  events_.RunUntil(until);
}

void ClusterSim::ClientOp(size_t thread, Timestamp now) {
  Operation op = workload_->Next(rng_);
  ExecuteOp(thread % clients_.size(), op, now, now);
  // ExecuteOp schedules the thread's next operation (or a retry) itself via
  // the chaining below.
  (void)thread;
}

void ClusterSim::OpenLoopArrival(Timestamp now) {
  events_.At(now + workload_->NextInterarrival(rng_),
             [this](Timestamp t) { OpenLoopArrival(t); });
  Operation op = workload_->Next(rng_);
  ExecuteOp(arrival_count_++ % clients_.size(), op, now, now);
}

void ClusterSim::ExecuteOp(size_t client_idx, const Operation& op,
                           Timestamp start, Timestamp first_attempt) {
  // Identify the issuing closed-loop thread (if any) by reverse-mapping is
  // unnecessary: chaining is handled by the caller for closed-loop threads.
  Session session(&cost_model_, start);
  GeminiClient& client = *clients_[client_idx];

  Timestamp end;
  bool reschedule_thread = options_.closed_loop_threads > 0;
  size_t thread = client_idx;  // representative; see ClientOp chaining note

  if (op.is_read) {
    auto r = client.Read(session, op.key);
    end = session.cursor();
    RecordRead(op, first_attempt, end, r);
  } else {
    Status s = client.Write(session, op.key);
    end = session.cursor();
    if (s.code() == Code::kSuspended) {
      metrics_->suspended_writes.Add(end);
      Operation retry = op;
      events_.At(end + options_.suspended_write_retry,
                 [this, client_idx, retry, first_attempt](Timestamp t) {
                   ExecuteOp(client_idx, retry, t, first_attempt);
                 });
      return;
    }
    metrics_->ops.Add(end);
    metrics_->writes.Add(end);
    if (!s.ok()) metrics_->errors.Add(end);
    metrics_->write_latency.Record(end, end - first_attempt);
  }

  if (reschedule_thread) {
    // Client-side per-op overhead, jittered so closed-loop threads do not
    // march in lockstep (which would create synthetic arrival bursts).
    const Duration overhead = options_.net.client_op_overhead;
    const Duration jitter =
        overhead > 0 ? static_cast<Duration>(
                           rng_.NextBounded(static_cast<uint64_t>(
                               overhead / 4 + 1)))
                     : 0;
    events_.At(end + overhead + jitter,
               [this, thread](Timestamp t) { ClientOp(thread, t); });
  }
}

void ClusterSim::RecordRead(const Operation& op, Timestamp start,
                            Timestamp end,
                            const Result<GeminiClient::ReadResult>& r) {
  metrics_->ops.Add(end);
  metrics_->reads.Add(end);
  if (!r.ok()) {
    if (r.code() != Code::kNotFound) metrics_->errors.Add(end);
    return;
  }
  metrics_->read_latency.Record(end, end - start);
  const auto& rr = *r;
  if (rr.routed != kInvalidInstance &&
      rr.routed < metrics_->instance_hit.size()) {
    // Client-perceived hit ratio of the routed instance. A working-set-
    // transfer hit (value copied from the secondary) counts: the client saw
    // a cache hit for a key routed to the recovering instance - exactly the
    // quantity Figures 7a/10 plot.
    metrics_->instance_hit[rr.routed].AddDenominator(end);
    if (rr.cache_hit) {
      metrics_->instance_hit[rr.routed].AddNumerator(end);
    }
    metrics_->instance_self_hit[rr.routed].AddDenominator(end);
    if (rr.cache_hit && rr.instance == rr.routed) {
      metrics_->instance_self_hit[rr.routed].AddNumerator(end);
    }
  }
  metrics_->overall_hit.AddDenominator(end);
  if (rr.cache_hit) metrics_->overall_hit.AddNumerator(end);
  metrics_->stale.OnRead(end, op.key, rr.value.version);

  if (rr.secondary_probed && rr.routed != kInvalidInstance &&
      rr.routed < metrics_->wst_probe_miss.size()) {
    metrics_->wst_probe_miss[rr.routed].AddDenominator(end);
    if (!rr.from_secondary) {
      metrics_->wst_probe_miss[rr.routed].AddNumerator(end);
    }
  }
}

void ClusterSim::WorkerStep(size_t worker, Timestamp now) {
  Session session(&cost_model_, now);
  RecoveryWorker& w = *workers_[worker];
  bool idle = false;
  if (!w.has_work()) {
    idle = !w.TryAdoptFragment(session).has_value();
  }
  if (!idle) {
    (void)w.Step(session);
  }
  const Timestamp next = idle ? now + options_.worker_idle_poll
                              : std::max(session.cursor(), now + 1);
  events_.At(next, [this, worker](Timestamp t) { WorkerStep(worker, t); });
}

const ClusterSim::RecoveryRecord* ClusterSim::ActiveRecord(
    InstanceId instance) const {
  for (auto it = recoveries_.rbegin(); it != recoveries_.rend(); ++it) {
    if (it->instance == instance) return &*it;
  }
  return nullptr;
}

ClusterSim::RecoveryRecord* ClusterSim::ActiveRecord(InstanceId instance) {
  const ClusterSim& self = *this;
  return const_cast<RecoveryRecord*>(self.ActiveRecord(instance));
}

void ClusterSim::ScheduleFailure(InstanceId instance, Timestamp at,
                                 Duration down_for) {
  ScheduleGroupFailure({instance}, at, down_for);
}

void ClusterSim::ScheduleGroupFailure(std::vector<InstanceId> instances,
                                      Timestamp at, Duration down_for) {
  events_.At(at, [this, instances](Timestamp now) { FailNow(instances, now); });
  for (InstanceId i : instances) {
    events_.At(at + down_for,
               [this, i](Timestamp now) { RecoverNow(i, now); });
  }
}

void ClusterSim::SchedulePhaseChange(Timestamp at, int phase) {
  events_.At(at, [this, phase](Timestamp) { workload_->SetPhase(phase); });
}

void ClusterSim::ScheduleCoordinatorFailure(Timestamp at) {
  events_.At(at, [this](Timestamp) {
    if (Replica* r = LiveMaster()) {
      r->alive = false;
      r->coordinator.reset();
    }
  });
}

void ClusterSim::RecordFailure(InstanceId instance, Timestamp now) {
  RecoveryRecord rec;
  rec.instance = instance;
  rec.failed_at = now;
  const auto sec = static_cast<size_t>(now / kSecond);
  const size_t from = sec > 10 ? sec - 10 : 0;
  rec.prefailure_hit_ratio = metrics_->InstanceHitBetween(instance, from, sec);
  recoveries_.push_back(rec);
}

void ClusterSim::FailNow(const std::vector<InstanceId>& group,
                         Timestamp now) {
  for (InstanceId i : group) RecordFailure(i, now);
  if (options_.crash_failures) {
    for (InstanceId i : group) instances_[i]->Fail();
    events_.At(now + options_.failure_detection_delay,
               [this, group](Timestamp) { ReportFailed(group); });
  } else {
    // Emulated failure (Section 5.2): the coordinator removes the instances
    // from the configuration; the processes keep running, content intact.
    ReportFailed(group);
  }
}

void ClusterSim::ReportFailed(const std::vector<InstanceId>& failed) {
  for (InstanceId i : failed) detected_down_[i] = true;
  Mutate([&failed](Coordinator& m) { m.OnInstancesFailed(failed); });
}

void ClusterSim::ReportRecovered(Coordinator& m, InstanceId instance) {
  for (FragmentId f : m.FragmentsWithPrimary(instance)) {
    recovery_state_.ResetWst(f);
  }
  m.OnInstanceRecovered(instance);
}

void ClusterSim::RecoverNow(InstanceId instance, Timestamp now) {
  if (options_.crash_failures) {
    if (options_.policy.persistent) {
      instances_[instance]->RecoverPersistent();
    } else {
      instances_[instance]->RecoverVolatile();
    }
  } else if (!options_.policy.persistent) {
    // Emulated failure of a volatile cache: the baseline discards content.
    instances_[instance]->RecoverVolatile();
  }

  detected_down_[instance] = false;
  Mutate([this, instance](Coordinator& m) { ReportRecovered(m, instance); });

  RecoveryRecord* rec = ActiveRecord(instance);
  if (rec != nullptr) {
    rec->recovered_at = now;
    wst_h_target_[instance] =
        options_.wst.h > 0.0
            ? options_.wst.h
            : std::max(0.0, rec->prefailure_hit_ratio - options_.wst_epsilon);
  }
  events_.At(now + options_.recovery_check_interval,
             [this, instance](Timestamp t) { RecoveryCheck(instance, t); });
}

void ClusterSim::RecoveryCheck(InstanceId instance, Timestamp now) {
  RecoveryRecord* rec = ActiveRecord(instance);
  if (rec == nullptr || rec->fragments_normal_at >= 0) return;
  // No master, no verdict: check again after the election.
  const Coordinator* m = master();
  bool all_normal = m != nullptr;
  if (m != nullptr) {
    for (FragmentId f : m->FragmentsWithPrimary(instance)) {
      if (m->ModeOf(f) != FragmentMode::kNormal) {
        all_normal = false;
        break;
      }
    }
  }
  if (all_normal) {
    rec->fragments_normal_at = now;
    return;
  }
  events_.At(now + options_.recovery_check_interval,
             [this, instance](Timestamp t) { RecoveryCheck(instance, t); });
}

void ClusterSim::MonitorTick(Timestamp now) {
  Coordinator* const m = master();
  if (m != nullptr) m->RenewLeases();
  if (auditor_ != nullptr && m != nullptr) {
    auto violations = auditor_->Audit(*m->GetConfiguration());
    for (auto& v : violations) {
      invariant_violations_.push_back(std::move(v));
    }
  }
  if (options_.policy.working_set_transfer && m != nullptr) {
    const auto sec = static_cast<size_t>(now / kSecond);
    for (auto& rec : recoveries_) {
      if (rec.recovered_at < 0 || rec.fragments_normal_at >= 0) continue;
      const InstanceId i = rec.instance;
      if (sec == 0) continue;
      // Section 3.2.2's h-condition watches the primary's own content
      // (transfer-served hits excluded), so the transfer does not satisfy
      // its own termination condition.
      const auto& hit_series = metrics_->instance_self_hit[i];
      const auto& hit_den = hit_series.denominator().buckets();
      const size_t last = sec - 1;
      const bool have_lookups = last < hit_den.size() && hit_den[last] > 0;
      const double hit = hit_series.RatioBetween(last, sec);

      const auto& probe = metrics_->wst_probe_miss[i];
      const auto& probe_den = probe.denominator().buckets();
      const bool have_probes = last < probe_den.size() && probe_den[last] > 0;
      const double probe_miss = probe.RatioBetween(last, sec);

      const bool h_reached = have_lookups && hit >= wst_h_target_[i];
      const bool m_exceeded = have_probes && probe_miss > options_.wst.m;
      if (!h_reached && !m_exceeded) continue;

      for (FragmentId f : m->FragmentsWithPrimary(i)) {
        if (m->ModeOf(f) != FragmentMode::kRecovery) continue;
        if (recovery_state_.WstTerminated(f)) continue;
        recovery_state_.TerminateWst(f);
        route_->OnWorkingSetTransferTerminated(f);
      }
    }
  }
  events_.At(now + options_.monitor_interval,
             [this](Timestamp t) { MonitorTick(t); });
}

double ClusterSim::SecondsToRestoreHitRatio(InstanceId instance) const {
  const RecoveryRecord* rec = ActiveRecord(instance);
  if (rec == nullptr || rec->recovered_at < 0) return -1.0;
  const double target =
      std::max(0.0, rec->prefailure_hit_ratio - options_.wst_epsilon);
  const auto from = static_cast<size_t>(rec->recovered_at / kSecond);
  return metrics_->SecondsUntilHitRatio(instance, from, target);
}

double ClusterSim::RecoveryDurationSeconds(InstanceId instance) const {
  const RecoveryRecord* rec = ActiveRecord(instance);
  if (rec == nullptr || rec->recovered_at < 0 ||
      rec->fragments_normal_at < 0) {
    return -1.0;
  }
  return ToSeconds(rec->fragments_normal_at - rec->recovered_at);
}

}  // namespace gemini
