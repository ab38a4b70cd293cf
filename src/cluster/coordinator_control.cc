#include "src/cluster/coordinator_control.h"

#include <chrono>
#include <utility>

#include "src/common/logging.h"

namespace gemini {

CoordinatorControl::CoordinatorControl(const Clock* clock, Options options)
    : clock_(clock),
      options_(std::move(options)),
      monitor_(clock, options_.num_instances, options_.heartbeat) {
  endpoints_.reserve(options_.num_instances);
  std::vector<InstanceEndpoint*> eps;
  eps.reserve(options_.num_instances);
  for (InstanceId i = 0; i < options_.num_instances; ++i) {
    endpoints_.push_back(std::make_unique<ClusterEndpoint>(i));
    eps.push_back(endpoints_.back().get());
  }
  coordinator_ = std::make_unique<Coordinator>(
      clock_, std::move(eps), options_.num_fragments, options_.coordinator);
  // Called with the coordinator's lock held on whichever thread published
  // (ticker or a shard handling kCoordReport). PushConfigToSubscribers only
  // takes shard inbox locks and writes a wake byte — cheap, no re-entry.
  coordinator_->SetConfigListener([this](const ConfigurationPtr& config) {
    TransportServer* server = server_.load(std::memory_order_acquire);
    if (server != nullptr && config != nullptr) {
      server->PushConfigToSubscribers(config->Serialize());
    }
  });
}

CoordinatorControl::~CoordinatorControl() { Stop(); }

void CoordinatorControl::Start(TransportServer* server) {
  server_.store(server, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  ticker_ = std::thread([this] { TickerLoop(); });
}

void CoordinatorControl::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !ticker_.joinable()) return;
    stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  server_.store(nullptr, std::memory_order_release);
}

void CoordinatorControl::ImportState(const CoordinatorState& state) {
  coordinator_->ImportState(state);
  // Instances the previous master believed up get a grace window to check
  // in before the monitor fails them: a coordinator restart must not look
  // like a cluster-wide outage. A surviving geminid's link re-registers as
  // soon as its connection to the new master comes up (registration is how
  // the endpoint learns the instance's address again); a mere heartbeat
  // within grace also suffices to keep the instance alive.
  std::lock_guard<std::mutex> lock(mu_);
  for (InstanceId i = 0; i < state.believed_up.size(); ++i) {
    if (i < options_.num_instances && state.believed_up[i]) {
      monitor_.ExpectRegistration(i);
    }
  }
}

void CoordinatorControl::TickerLoop() {
  const Duration renew_period =
      std::max<Duration>(options_.coordinator.fragment_lease_lifetime / 3,
                         options_.heartbeat.interval);
  Timestamp last_renew = clock_->Now();
  for (;;) {
    HeartbeatMonitor::Transitions t;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ticker_cv_.wait_for(
          lock, std::chrono::microseconds(options_.heartbeat.interval),
          [&] { return stop_; });
      if (stop_) return;
      t = monitor_.Tick(clock_->Now());
    }
    // Recovery edges first, failures second: when a tick carries both for
    // one instance (it re-registered and immediately went silent again),
    // this order leaves the coordinator agreeing with the monitor's final
    // verdict (failed). Gate order within each: the endpoint comes up
    // before the recovery cycle needs it, and goes down before the failure
    // cycle would otherwise publish into a dead instance.
    for (InstanceId id : t.recovered) {
      endpoints_[id]->SetUp(true);
      LOG_INFO << "coordinator: instance " << id << " registered; recovering";
      coordinator_->OnInstanceRecovered(id);
    }
    recoveries_detected_.fetch_add(t.recovered.size(),
                                   std::memory_order_relaxed);
    if (!t.failed.empty()) {
      for (InstanceId id : t.failed) {
        endpoints_[id]->SetUp(false);
        LOG_WARN << "coordinator: instance " << id
                 << " missed its heartbeat deadline; failing over";
      }
      coordinator_->OnInstancesFailed(t.failed);
      failures_detected_.fetch_add(t.failed.size(), std::memory_order_relaxed);
    }
    if ((!t.recovered.empty() || !t.failed.empty()) &&
        options_.on_state_mutation) {
      options_.on_state_mutation();
    }
    const Timestamp now = clock_->Now();
    if (now - last_renew >= renew_period) {
      coordinator_->RenewLeases();
      last_renew = now;
    }
  }
}

ControlPlane::Reply CoordinatorControl::HandleControl(wire::Op op,
                                                      std::string_view body) {
  using wire::Op;
  switch (op) {
    case Op::kCoordRegister:
      return Serve<Op::kCoordRegister>(
          body, [this](InstanceId instance, wire::Blob host, uint16_t port) {
            return Register(instance, host, port);
          });
    case Op::kCoordHeartbeat:
      return Serve<Op::kCoordHeartbeat>(
          body, [this](std::vector<InstanceId> ids) { return Heartbeat(ids); });
    case Op::kCoordConfigGet:
      return Serve<Op::kCoordConfigGet>(body, [this] { return Config(); });
    case Op::kCoordConfigWatch: {
      Reply reply = Serve<Op::kCoordConfigWatch>(
          body, [this](ConfigId /*known*/) { return Config(); });
      reply.subscribe = reply.status.ok();
      return reply;
    }
    case Op::kCoordReport:
      return Serve<Op::kCoordReport>(
          body, [this](uint8_t event, FragmentId fragment) {
            return Report(event, fragment);
          });
    case Op::kCoordDirtyQuery:
      return Serve<Op::kCoordDirtyQuery>(body, [this](FragmentId fragment) {
        return static_cast<uint8_t>(coordinator_->DirtyProcessed(fragment));
      });
    default:
      return {Status(Code::kInvalidArgument, "not a coordinator op"), {}, false};
  }
}

Result<ConfigId> CoordinatorControl::Register(InstanceId instance,
                                              std::string_view host,
                                              uint16_t port) {
  if (instance >= options_.num_instances) {
    return Status(Code::kInvalidArgument, "instance id out of range");
  }
  endpoints_[instance]->Attach(std::string(host), port);
  {
    std::lock_guard<std::mutex> lock(mu_);
    monitor_.Register(instance);
  }
  registrations_.fetch_add(1, std::memory_order_relaxed);
  if (options_.on_state_mutation) options_.on_state_mutation();
  // The recovery cycle itself runs on the ticker (next tick drains the
  // registration edge); the shard thread only records the beat and replies.
  return coordinator_->latest_id();
}

Result<std::tuple<ConfigId, uint8_t>> CoordinatorControl::Heartbeat(
    const std::vector<InstanceId>& ids) {
  if (ids.size() > options_.num_instances) {
    return Status(Code::kInvalidArgument, "heartbeat names too many instances");
  }
  bool all_registered = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (InstanceId id : ids) {
      monitor_.OnHeartbeat(id);
      // A beat does not revive a failed instance (the process may have
      // restarted and lost its leases) — the reply tells the sender to
      // re-register, which is the explicit recovery edge.
      all_registered &= monitor_.alive(id);
    }
  }
  heartbeats_received_.fetch_add(1, std::memory_order_relaxed);
  return std::tuple<ConfigId, uint8_t>(coordinator_->latest_id(),
                                       all_registered ? 1 : 0);
}

Result<std::string> CoordinatorControl::Config() {
  ConfigurationPtr config = coordinator_->GetConfiguration();
  if (!config) return Status(Code::kUnavailable, "no configuration published");
  return config->Serialize();
}

Status CoordinatorControl::Report(uint8_t event, FragmentId fragment) {
  if (!wire::IsKnownCoordEvent(event)) {
    return Status(Code::kInvalidArgument, "unknown coordinator event");
  }
  switch (static_cast<wire::CoordEvent>(event)) {
    case wire::CoordEvent::kDirtyListProcessed:
      coordinator_->OnDirtyListProcessed(fragment);
      break;
    case wire::CoordEvent::kWorkingSetTransferTerminated:
      coordinator_->OnWorkingSetTransferTerminated(fragment);
      break;
    case wire::CoordEvent::kDirtyListUnavailable:
      coordinator_->OnDirtyListUnavailable(fragment);
      break;
  }
  if (options_.on_state_mutation) options_.on_state_mutation();
  return Status::Ok();
}

std::vector<std::pair<std::string, uint64_t>> CoordinatorControl::ExtraStats() {
  return {
      {"cluster.registrations",
       registrations_.load(std::memory_order_relaxed)},
      {"cluster.heartbeats_received",
       heartbeats_received_.load(std::memory_order_relaxed)},
      {"cluster.failures_detected",
       failures_detected_.load(std::memory_order_relaxed)},
      {"cluster.recoveries_detected",
       recoveries_detected_.load(std::memory_order_relaxed)},
      {"cluster.config_id", coordinator_->latest_id()},
      {"cluster.discarded_fragments",
       coordinator_->discarded_fragment_count()},
  };
}

}  // namespace gemini
