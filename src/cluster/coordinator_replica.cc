#include "src/cluster/coordinator_replica.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/transport/wire.h"

namespace gemini {

namespace {

constexpr uint32_t kStateCodecVersion = 1;

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
    : clock_(clock), options_(std::move(options)) {
  if (options_.sync_interval == 0) {
    options_.sync_interval = options_.control.heartbeat.interval;
  }
  if (options_.sync_interval == 0) options_.sync_interval = Millis(100);
  if (options_.election_timeout == 0) {
    options_.election_timeout = 6 * options_.sync_interval;
  }
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
    c.connect_timeout = options_.peer_connect_timeout;
    c.io_timeout = options_.peer_io_timeout;
    // A dead shadow must cost the sync round as little as possible: trip
    // the breaker quickly, probe again within a few beats.
    c.breaker_failure_threshold = 3;
    c.breaker_cooldown = std::max<Duration>(Millis(250), options_.sync_interval);
    peer_conns_.push_back(
        TcpConnection::Acquire(peer.host, peer.port, wire::kAnyInstance, c));
  }
}

CoordinatorReplica::~CoordinatorReplica() { Stop(); }

void CoordinatorReplica::Start(TransportServer* server) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_ = server;
    last_master_contact_ = clock_->Now();
    // Single-coordinator deployment: no one to elect against, become the
    // master right away (pre-HA geminicoordd behavior).
    if (options_.peers.empty()) PromoteLocked();
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
    role_ = Role::kShadow;
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
                        std::chrono::microseconds(options_.sync_interval),
                        [&] { return stop_ || wake_; });
      if (stop_) return;
      wake_ = false;
    }
    bool master = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired.swap(retired_);
      if (role_ == Role::kMaster) {
        master = true;
      } else {
        // Rank-staggered election: the lowest live rank's deadline fires
        // first, and its first sync resets every later rank's timer.
        const Duration deadline =
            options_.election_timeout *
            (static_cast<Duration>(options_.rank) + 1);
        if (clock_->Now() - last_master_contact_ >= deadline) {
          PromoteLocked();
          master = true;
        }
      }
    }
    // Joining a demoted control's ticker happens here, never on a shard
    // thread and never under mu_.
    for (auto& c : retired) c->Stop();
    retired.clear();
    if (master) ReplicateOnce();
  }
}

void CoordinatorReplica::PromoteLocked() {
  epoch_ += 1;
  auto control = std::make_shared<CoordinatorControl>(clock_, options_.control);
  // Promotion = ImportState + registration grace window: adopt the dead
  // master's replicated state (or this control's own fresh table on a cold
  // boot), stamped with the new epoch so the config-id floor fences any
  // still-live ex-master, then let believed-up instances re-register
  // without reading as a cluster-wide outage.
  CoordinatorState state = replicated_state_.has_value()
                               ? *replicated_state_
                               : control->coordinator().ExportState();
  state.master_epoch = epoch_;
  control->ImportState(state);
  control->Start(server_);
  control_ = std::move(control);
  role_ = Role::kMaster;
  master_rank_ = options_.rank;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO << "coordinator replica rank " << options_.rank
           << ": promoted to master (epoch " << epoch_ << ")";
}

void CoordinatorReplica::StepDownLocked() {
  if (control_) retired_.push_back(std::move(control_));
  control_.reset();
  role_ = Role::kShadow;
  master_rank_ = UINT32_MAX;
  // Full election delay before this replica may claim mastership again; by
  // then the real master's syncs will have reset the timer.
  last_master_contact_ = clock_->Now();
  demotions_.fetch_add(1, std::memory_order_relaxed);
  LOG_WARN << "coordinator replica rank " << options_.rank
           << ": demoted to shadow (saw epoch " << epoch_ << ")";
}

void CoordinatorReplica::ReplicateOnce() {
  uint64_t epoch = 0;
  std::shared_ptr<CoordinatorControl> control;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (role_ != Role::kMaster) return;
    epoch = epoch_;
    control = control_;
  }
  CoordinatorState state = control->coordinator().ExportState();
  state.master_epoch = epoch;
  std::string blob;
  EncodeCoordinatorState(blob, state);
  bool all_acked = true;
  for (auto& conn : peer_conns_) {
    const Result<uint64_t> acked =
        conn->Call<wire::Op::kCoordShadowSync>(epoch, options_.rank, blob);
    if (acked.ok()) {
      syncs_sent_.fetch_add(1, std::memory_order_relaxed);
      replication_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
      continue;
    }
    if (acked.code() == Code::kNotMaster) {
      // A peer has seen a strictly newer mastership claim: fence ourselves.
      sync_rejections_rx_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      if (role_ == Role::kMaster && epoch_ == epoch) StepDownLocked();
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
  // A claim carrying our own rank is our own sync echoed back: ranks are
  // unique within a group, so this only happens when the operator listed
  // this replica in its own --peers. Ack without applying — treating the
  // echo as a foreign claim would make a boot master demote itself.
  if (rank == options_.rank) return epoch_;
  // Mastership claims are ordered by (epoch, rank): higher epoch wins, and
  // within one epoch the lower rank wins (two shadows that promoted off the
  // same dead master both bumped to the same epoch).
  const bool current =
      epoch > epoch_ || (epoch == epoch_ && rank <= master_rank_);
  if (!current) {
    syncs_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status(Code::kNotMaster, "stale mastership claim");
  }
  epoch_ = epoch;  // raise first so a step-down logs the epoch that won
  if (role_ == Role::kMaster) StepDownLocked();
  master_rank_ = rank;
  last_master_contact_ = clock_->Now();
  replicated_state_ = std::move(state);
  syncs_received_.fetch_add(1, std::memory_order_relaxed);
  // A step-down queued a retired control; make sure the loop drains it.
  if (!retired_.empty()) Nudge();
  return epoch_;
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
  bool master = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    control = control_;
    epoch = epoch_;
    master = role_ == Role::kMaster;
  }
  std::vector<std::pair<std::string, uint64_t>> kv;
  if (control) kv = control->ExtraStats();
  kv.emplace_back("cluster.is_master", master ? 1 : 0);
  kv.emplace_back("cluster.epoch", epoch);
  kv.emplace_back("cluster.rank", options_.rank);
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
  return role_ == Role::kMaster;
}

uint64_t CoordinatorReplica::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

CoordinatorControl* CoordinatorReplica::control() {
  std::lock_guard<std::mutex> lock(mu_);
  return control_.get();
}

}  // namespace gemini
