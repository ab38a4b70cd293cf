#include "src/cluster/coordinator_replica.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/transport/wire.h"

namespace gemini {

namespace {

constexpr uint32_t kStateCodecVersion = 1;

// Dial/IO budget per peer sync. Short on purpose: a dead shadow must not
// stall the master's beat to the live ones past their deadlines.
constexpr Duration kPeerConnectTimeout = Millis(200);
constexpr Duration kPeerIoTimeout = Millis(400);

/// The CoordinatorState blob, in the wire field codec: codec version,
/// master_epoch, next_config_id, discarded_fragments, round_robin_cursor,
/// believed_up, and per fragment: primary, secondary, config_id, mode,
/// epoch, prefailure_config_id, secondary_created_id, dirty_processed,
/// wst_terminated.
using FragmentFields = std::tuple<wire::u32, wire::u32, wire::u64, wire::u8,
                                  wire::u32, wire::u64, wire::u64, wire::u8,
                                  wire::u8>;
using StateFields =
    std::tuple<wire::u32, wire::u64, wire::u64, wire::u64, wire::u64,
               std::vector<wire::u8>, std::vector<FragmentFields>>;

}  // namespace

void EncodeCoordinatorState(std::string& out, const CoordinatorState& state) {
  std::vector<FragmentFields> fragments;
  for (const auto& fe : state.fragments) {
    const FragmentAssignment& a = fe.assignment;
    fragments.emplace_back(a.primary, a.secondary, a.config_id,
                           static_cast<uint8_t>(a.mode), a.epoch,
                           fe.prefailure_config_id, fe.secondary_created_id,
                           fe.dirty_processed, fe.wst_terminated);
  }
  wire::Encode<StateFields>(
      out, std::tie(kStateCodecVersion, state.master_epoch,
                    state.next_config_id, state.discarded_fragments,
                    state.round_robin_cursor, state.believed_up, fragments));
}

bool DecodeCoordinatorState(std::string_view in, CoordinatorState* state) {
  uint32_t version = 0;
  uint64_t cursor = 0;
  std::vector<uint8_t> up;
  std::vector<FragmentFields> fragments;
  auto fields = std::tie(version, state->master_epoch, state->next_config_id,
                         state->discarded_fragments, cursor, up, fragments);
  if (!wire::Decode<StateFields>(in, &fields) ||
      version != kStateCodecVersion) {
    return false;
  }
  state->round_robin_cursor = static_cast<size_t>(cursor);
  state->believed_up.assign(up.begin(), up.end());
  state->fragments.clear();
  for (const auto& [primary, secondary, config_id, mode, frag_epoch,
                    prefailure, created, dirty, wst] : fragments) {
    if (mode > static_cast<uint8_t>(FragmentMode::kRecovery)) return false;
    CoordinatorState::FragmentEntry fe;
    fe.assignment = {primary, secondary, config_id,
                     static_cast<FragmentMode>(mode), frag_epoch};
    fe.prefailure_config_id = prefailure;
    fe.secondary_created_id = created;
    fe.dirty_processed = dirty != 0;
    fe.wst_terminated = wst != 0;
    state->fragments.push_back(fe);
  }
  return true;
}

CoordinatorReplica::CoordinatorReplica(const Clock* clock, Options options)
    : clock_(clock),
      options_(std::move(options)),
      core_(options_.election, options_.control.heartbeat.interval) {
  // Chain the mutation hook: the control nudges replication, and any hook
  // the deployment supplied still fires.
  auto user_hook = options_.control.on_state_mutation;
  options_.control.on_state_mutation = [this, user_hook] {
    if (user_hook) user_hook();
    Nudge();
  };
  peer_conns_.reserve(options_.peers.size());
  for (const auto& peer : options_.peers) {
    TcpConnection::Options c;
    c.connect_timeout = kPeerConnectTimeout;
    c.io_timeout = kPeerIoTimeout;
    // A dead shadow must cost the sync round as little as possible: trip
    // the breaker quickly, probe again within a few beats.
    c.breaker_failure_threshold = 3;
    c.breaker_cooldown = std::max<Duration>(Millis(250), core_.sync_interval());
    peer_conns_.push_back(
        TcpConnection::Acquire(peer.host, peer.port, wire::kAnyInstance, c));
  }
}

CoordinatorReplica::~CoordinatorReplica() { Stop(); }

void CoordinatorReplica::Start(TransportServer* server) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_ = server;
    if (core_.Start(clock_->Now(), !options_.peers.empty())) PromoteLocked();
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = false;
    wake_ = false;
  }
  loop_ = std::thread([this] { ReplicaLoop(); });
}

void CoordinatorReplica::Stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (stop_ && !loop_.joinable()) return;
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (loop_.joinable()) loop_.join();
  std::shared_ptr<CoordinatorControl> control;
  {
    std::lock_guard<std::mutex> lock(mu_);
    control = std::move(control_);
    server_ = nullptr;
  }
  if (control) control->Stop();
}

void CoordinatorReplica::Nudge() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_ = true;
  }
  wake_cv_.notify_all();
}

void CoordinatorReplica::ReplicaLoop() {
  for (;;) {
    std::vector<std::shared_ptr<CoordinatorControl>> retired;
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_for(lock,
                        std::chrono::microseconds(core_.sync_interval()),
                        [&] { return stop_ || wake_; });
      if (stop_) return;
      wake_ = false;
    }
    ElectionCore::Action action;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired.swap(retired_);
      action = core_.Tick(clock_->Now());
      if (action == ElectionCore::Action::kPromote) PromoteLocked();
    }
    // Joining a demoted control's ticker happens here, never on a shard
    // thread and never under mu_.
    for (auto& c : retired) c->Stop();
    retired.clear();
    if (action != ElectionCore::Action::kNone) ReplicateOnce();
  }
}

void CoordinatorReplica::PromoteLocked() {
  auto control = std::make_shared<CoordinatorControl>(clock_, options_.control);
  // Promotion = ImportState + registration grace window: adopt the last
  // replicated state (or this control's own fresh table on a cold boot),
  // stamped with the new epoch for the config-id floor.
  CoordinatorState state = replicated_state_.has_value()
                               ? *replicated_state_
                               : control->coordinator().ExportState();
  state.master_epoch = core_.epoch();
  control->ImportState(state);
  control->Start(server_);
  control_ = std::move(control);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO << "coordinator replica rank " << options_.election.rank
           << ": promoted to master (epoch " << core_.epoch() << ")";
}

void CoordinatorReplica::StepDownLocked() {
  if (control_) retired_.push_back(std::move(control_));
  demotions_.fetch_add(1, std::memory_order_relaxed);
  LOG_WARN << "coordinator replica rank " << options_.election.rank
           << ": demoted to shadow (saw epoch " << core_.epoch() << ")";
}

void CoordinatorReplica::ReplicateOnce() {
  uint64_t epoch = 0;
  std::shared_ptr<CoordinatorControl> control;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!core_.is_master()) return;
    epoch = core_.epoch();
    control = control_;
  }
  // The control's state carries `epoch`: PromoteLocked imported it so.
  std::string blob;
  EncodeCoordinatorState(blob, control->coordinator().ExportState());
  bool all_acked = true;
  for (auto& conn : peer_conns_) {
    const Result<uint64_t> acked = conn->Call<wire::Op::kCoordShadowSync>(
        epoch, options_.election.rank, blob);
    if (acked.ok()) {
      syncs_sent_.fetch_add(1, std::memory_order_relaxed);
      replication_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
      continue;
    }
    if (acked.code() == Code::kNotMaster) {
      // A peer has seen a strictly newer mastership claim: fence ourselves.
      sync_rejections_rx_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      if (core_.OnSyncRejected(epoch, clock_->Now()) ==
          ElectionCore::Action::kStepDown) {
        StepDownLocked();
      }
      return;
    }
    // Unreachable shadow: it will be caught up by a later beat (full-state
    // sync is self-healing); the breaker keeps a dead peer cheap.
    sync_send_failures_.fetch_add(1, std::memory_order_relaxed);
    all_acked = false;
  }
  if (all_acked) {
    last_full_ack_.store(clock_->Now(), std::memory_order_relaxed);
  }
}

Result<uint64_t> CoordinatorReplica::ApplyShadowSync(uint64_t epoch,
                                                     uint32_t rank,
                                                     std::string_view blob) {
  CoordinatorState state;
  if (!DecodeCoordinatorState(blob, &state)) {
    return Status(Code::kInvalidArgument, "malformed coordinator state");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const ElectionCore::Verdict verdict =
      core_.OnClaim(epoch, rank, clock_->Now());
  if (verdict == ElectionCore::Verdict::kOwnEcho) return core_.epoch();
  if (verdict == ElectionCore::Verdict::kStale) {
    syncs_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status(Code::kNotMaster, "stale mastership claim");
  }
  if (verdict == ElectionCore::Verdict::kStepDown) StepDownLocked();
  replicated_state_ = std::move(state);
  syncs_received_.fetch_add(1, std::memory_order_relaxed);
  // A step-down queued a retired control; make sure the loop drains it.
  if (!retired_.empty()) Nudge();
  return core_.epoch();
}

ControlPlane::Reply CoordinatorReplica::HandleControl(wire::Op op,
                                                      std::string_view body) {
  if (op == wire::Op::kCoordShadowSync) {
    return Serve<wire::Op::kCoordShadowSync>(
        body, [this](uint64_t epoch, uint32_t rank, wire::Blob blob) {
          return ApplyShadowSync(epoch, rank, blob);
        });
  }
  std::shared_ptr<CoordinatorControl> control;
  {
    std::lock_guard<std::mutex> lock(mu_);
    control = control_;
  }
  if (!control) {
    return {Status(Code::kNotMaster, "shadow coordinator; redial the master"),
            {},
            false};
  }
  return control->HandleControl(op, body);
}

std::vector<std::pair<std::string, uint64_t>> CoordinatorReplica::ExtraStats() {
  std::shared_ptr<CoordinatorControl> control;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    control = control_;
    epoch = core_.epoch();
  }
  const bool master = control != nullptr;
  std::vector<std::pair<std::string, uint64_t>> kv;
  if (control) kv = control->ExtraStats();
  kv.emplace_back("cluster.is_master", master ? 1 : 0);
  kv.emplace_back("cluster.epoch", epoch);
  kv.emplace_back("cluster.rank", options_.election.rank);
  kv.emplace_back("cluster.promotions",
                  promotions_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.demotions",
                  demotions_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.syncs_sent",
                  syncs_sent_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.syncs_received",
                  syncs_received_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.sync_send_failures",
                  sync_send_failures_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.sync_rejections",
                  sync_rejections_rx_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.syncs_rejected",
                  syncs_rejected_.load(std::memory_order_relaxed));
  kv.emplace_back("cluster.replication_bytes",
                  replication_bytes_.load(std::memory_order_relaxed));
  const Timestamp last = last_full_ack_.load(std::memory_order_relaxed);
  kv.emplace_back("cluster.replication_lag_us",
                  master && last != 0 && !peer_conns_.empty()
                      ? static_cast<uint64_t>(
                            std::max<Timestamp>(0, clock_->Now() - last))
                      : 0);
  return kv;
}

bool CoordinatorReplica::is_master() const {
  std::lock_guard<std::mutex> lock(mu_);
  return control_ != nullptr;
}

uint64_t CoordinatorReplica::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.epoch();
}

CoordinatorControl* CoordinatorReplica::control() {
  std::lock_guard<std::mutex> lock(mu_);
  return control_.get();
}

}  // namespace gemini
