#include "src/cluster/remote_coordinator.h"

#include <chrono>
#include <utility>

#include "src/common/logging.h"

namespace gemini {

namespace {

constexpr Duration kIoTimeout = Seconds(2);
constexpr Duration kConnectTimeout = Seconds(1);

ConfigurationPtr ParseConfig(std::string_view serialized) {
  auto config = Configuration::Deserialize(serialized);
  if (!config.has_value()) return nullptr;
  return std::make_shared<const Configuration>(std::move(*config));
}

/// Decodes a config push body, `blob serialized_configuration`.
ConfigurationPtr ParsePushBody(std::string_view body) {
  std::string_view blob;
  return wire::Decode<wire::Blob>(body, &blob) ? ParseConfig(blob) : nullptr;
}

}  // namespace

void RemoteCoordinator::State::Adopt(ConfigurationPtr fresh) {
  if (!fresh) return;
  std::lock_guard<std::mutex> lock(mu);
  if (config && config->id() >= fresh->id()) return;  // ids only move forward
  latest.store(fresh->id(), std::memory_order_release);
  config = std::move(fresh);
}

RemoteCoordinator::RemoteCoordinator(std::vector<Endpoint> endpoints,
                                     Options options)
    : state_(std::make_shared<State>()), options_(options) {
  TcpConnection::Options conn_opts;
  conn_opts.io_timeout = kIoTimeout;
  conn_opts.connect_timeout = kConnectTimeout;
  conns_.reserve(endpoints.size());
  std::weak_ptr<State> weak = state_;
  for (const auto& ep : endpoints) {
    auto conn = TcpConnection::Acquire(ep.host, ep.port, wire::kAnyInstance,
                                       conn_opts);
    // Every endpoint keeps a push handler: after a failover the new master
    // pushes on whichever connection re-subscribed, and a straggler push
    // from a fenced ex-master is inert (ids adopt only forward).
    conn->AddPushHandler([weak](uint8_t tag, const std::string& body) {
      if (tag != wire::kPushConfigTag) return;
      if (auto state = weak.lock()) state->Adopt(ParsePushBody(body));
    });
    conns_.push_back(std::move(conn));
  }
  if (options_.rewatch_interval > 0) {
    rewatcher_ = std::thread([this] { RewatchLoop(); });
  }
}

RemoteCoordinator::~RemoteCoordinator() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (rewatcher_.joinable()) rewatcher_.join();
}

template <wire::Op op, typename... Args>
wire::CallResult<op> RemoteCoordinator::CallFailover(
    const Args&... args) const {
  const size_t n = conns_.size();
  const size_t start = active_.load(std::memory_order_acquire);
  wire::CallResult<op> last =
      Status(Code::kUnavailable, "no coordinator endpoints");
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (start + i) % n;
    last = conns_[idx]->Call<op>(args...);
    if (last.ok()) {
      if (idx != start) {
        active_.store(idx, std::memory_order_release);
        endpoint_switches_.fetch_add(1, std::memory_order_relaxed);
      }
      return last;
    }
    if (last.code() == Code::kNotMaster) {
      // A shadow (or a fenced ex-master) definitively did not serve this;
      // the master is elsewhere in the list.
      not_master_bounces_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // A dead endpoint: move on only if the op may be sent again, since the
    // lost request may have been applied (docs/PROTOCOL.md §11.2).
    if (last.code() == Code::kUnavailable && wire::IsIdempotentOp(op)) {
      continue;
    }
    return last;  // a definitive answer (or an ambiguous loss, fail-fast op)
  }
  return last;
}

Status RemoteCoordinator::Refresh() {
  const Result<std::string> serialized =
      CallFailover<wire::Op::kCoordConfigWatch>(
          state_->latest.load(std::memory_order_acquire));
  if (!serialized.ok()) return serialized.status();
  ConfigurationPtr config = ParseConfig(*serialized);
  if (!config) return Status(Code::kInternal, "malformed configuration body");
  state_->Adopt(std::move(config));
  return Status::Ok();
}

void RemoteCoordinator::RewatchLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::microseconds(options_.rewatch_interval),
                        [&] { return stop_; });
      if (stop_) return;
    }
    (void)Refresh();  // unreachable coordinator: keep the cached snapshot
  }
}

ConfigurationPtr RemoteCoordinator::GetConfiguration() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->config;
}

ConfigId RemoteCoordinator::latest_id() const {
  return state_->latest.load(std::memory_order_acquire);
}

RemoteCoordinator::Stats RemoteCoordinator::stats() const {
  Stats out;
  out.endpoint_switches = endpoint_switches_.load(std::memory_order_relaxed);
  out.not_master_bounces = not_master_bounces_.load(std::memory_order_relaxed);
  return out;
}

void RemoteCoordinator::Report(wire::CoordEvent event, FragmentId fragment) {
  // Rotates past shadows (a kNotMaster answer means the report was not
  // applied), but kCoordReport is fail-fast, so a kUnavailable ends it: a
  // replayed report after an ambiguous loss could land twice across a mode
  // transition.
  const Status s = CallFailover<wire::Op::kCoordReport>(
      static_cast<uint8_t>(event), fragment);
  if (!s.ok()) {
    // Fail-fast by design: the reporter's next pass re-derives the fact.
    LOG_WARN << "coordinator report (event " << static_cast<int>(event)
             << ", fragment " << fragment << ") lost: " << s.ToString();
  }
}

void RemoteCoordinator::OnDirtyListProcessed(FragmentId fragment) {
  Report(wire::CoordEvent::kDirtyListProcessed, fragment);
}

void RemoteCoordinator::OnWorkingSetTransferTerminated(FragmentId fragment) {
  Report(wire::CoordEvent::kWorkingSetTransferTerminated, fragment);
}

void RemoteCoordinator::OnDirtyListUnavailable(FragmentId fragment) {
  Report(wire::CoordEvent::kDirtyListUnavailable, fragment);
}

bool RemoteCoordinator::DirtyProcessed(FragmentId fragment) const {
  const Result<uint8_t> processed =
      CallFailover<wire::Op::kCoordDirtyQuery>(fragment);
  return processed.ok() && *processed != 0;
}

}  // namespace gemini
