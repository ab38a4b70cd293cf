#include "src/cluster/coordinator_link.h"

#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/transport/wire.h"

namespace gemini {

namespace {

constexpr Duration kIoTimeout = Seconds(1);
constexpr Duration kConnectTimeout = Millis(500);

}  // namespace

CoordinatorLink::CoordinatorLink(Options options)
    : options_(std::move(options)) {
  TcpConnection::Options conn_opts;
  conn_opts.io_timeout = kIoTimeout;
  conn_opts.connect_timeout = kConnectTimeout;
  conns_.reserve(options_.coordinators.size());
  for (const auto& ep : options_.coordinators) {
    conns_.push_back(
        TcpConnection::Acquire(ep.host, ep.port, wire::kAnyInstance,
                               conn_opts));
  }
}

CoordinatorLink::~CoordinatorLink() { Stop(); }

void CoordinatorLink::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_.joinable()) return;
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void CoordinatorLink::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CoordinatorLink::Rotate() {
  if (conns_.size() < 2) return;
  active_ = (active_ + 1) % conns_.size();
  endpoint_switches_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO << "instance " << options_.instance
           << ": rotating to coordinator endpoint " << active_;
}

bool CoordinatorLink::TryRegister() {
  const Result<ConfigId> latest = conn().Call<wire::Op::kCoordRegister>(
      options_.instance, options_.advertise_host, options_.advertise_port);
  if (!latest.ok()) {
    // Dead (kUnavailable) or shadow (kNotMaster) coordinator: try the next
    // endpoint on the following round. Registration is idempotent, so
    // landing on the real master twice is harmless.
    Rotate();
    return false;
  }
  if (options_.on_config_id) options_.on_config_id(*latest);
  LOG_INFO << "instance " << options_.instance
           << ": registered with coordinator (config id " << *latest << ")";
  return true;
}

bool CoordinatorLink::TryHeartbeat() {
  const auto reply = conn().Call<wire::Op::kCoordHeartbeat>(
      std::vector<InstanceId>{options_.instance});
  if (!reply.ok()) {
    // The master died or was demoted under us; re-register with the next
    // endpoint (the promoted master's grace window expects exactly that).
    Rotate();
    return false;
  }
  const auto [latest, still_registered] = *reply;
  if (options_.on_config_id) options_.on_config_id(latest);
  // registered=0 means the coordinator failed this instance (missed beats,
  // or a restarted coordinator that never saw it): fall back to
  // registration, the explicit recovery edge.
  return still_registered != 0;
}

void CoordinatorLink::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock,
                   std::chrono::microseconds(options_.heartbeat_interval),
                   [&] { return stop_; });
      if (stop_) return;
    }
    if (!registered_.load(std::memory_order_acquire)) {
      registered_.store(TryRegister(), std::memory_order_release);
      continue;
    }
    if (!TryHeartbeat()) {
      // The coordinator may have restarted (and forgotten this instance's
      // address) — fall back to registration next round.
      registered_.store(false, std::memory_order_release);
    }
  }
}

}  // namespace gemini
