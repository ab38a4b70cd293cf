// CoordinatorLink: a geminid's lifeline to the coordinator.
//
// One background thread registers the instance (kCoordRegister with its
// advertised data-plane address) and then streams kCoordHeartbeat frames at
// the configured interval. Both replies carry the coordinator's latest
// configuration id, forwarded to `on_config_id` — so a geminid partitioned
// from config pushes still observes Rejig advances at heartbeat granularity
// and discards stale entries (CacheInstance::ObserveConfigId is a
// max-merge).
//
// Failure handling mirrors the protocol's retry classification
// (docs/PROTOCOL.md §11-12): registration and heartbeats are idempotent, so
// the loop simply tries again next interval; a failed beat flips the link
// to unregistered and the next round re-registers — exactly what a
// restarted or repartitioned coordinator needs, since registration is how
// it (re)learns the instance's address and how HeartbeatMonitor
// distinguishes a restarted process (recovery edge) from a delayed beat.
//
// With a replicated coordinator group (docs/PROTOCOL.md §12.7), the link
// holds the full endpoint list and rotates to the next endpoint whenever a
// round fails — the coordinator died (kUnavailable) or answered kNotMaster
// (a shadow). Rotation re-registers, which is exactly the promoted master's
// grace-window expectation.
//
// Start() never blocks on the coordinator being reachable: the first
// registration attempt happens on the link thread.
//
// Thread-safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/types.h"
#include "src/transport/tcp_connection.h"

namespace gemini {

class CoordinatorLink {
 public:
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
  };

  struct Options {
    /// The deployment's ordered coordinator endpoint list (master and
    /// shadows; one endpoint for a single coordinator). Must be non-empty.
    std::vector<Endpoint> coordinators;
    /// The instance this link speaks for.
    InstanceId instance = 0;
    /// The data-plane address the coordinator should dial back (the
    /// *advertised* address: behind a fault proxy this is the real server
    /// port, not the proxy's — control traffic must not inherit the data
    /// plane's chaos).
    std::string advertise_host;
    uint16_t advertise_port = 0;
    Duration heartbeat_interval = Millis(100);
    /// Latest configuration id from each register/heartbeat reply; called
    /// on the link thread. Typically CacheInstance::ObserveConfigId.
    std::function<void(ConfigId)> on_config_id;
  };

  explicit CoordinatorLink(Options options);
  ~CoordinatorLink();

  CoordinatorLink(const CoordinatorLink&) = delete;
  CoordinatorLink& operator=(const CoordinatorLink&) = delete;

  void Start();
  void Stop();

  /// True while the last register/heartbeat round trip succeeded.
  [[nodiscard]] bool registered() const {
    return registered_.load(std::memory_order_acquire);
  }

  /// Times the link rotated to another coordinator endpoint.
  [[nodiscard]] uint64_t endpoint_switches() const {
    return endpoint_switches_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  bool TryRegister();
  bool TryHeartbeat();
  TcpConnection& conn() { return *conns_[active_]; }
  /// Next endpoint; called after a failed round (link thread only).
  void Rotate();

  const Options options_;
  std::vector<std::shared_ptr<TcpConnection>> conns_;
  /// Index into conns_; touched only by the link thread.
  size_t active_ = 0;
  std::atomic<uint64_t> endpoint_switches_{0};

  std::atomic<bool> registered_{false};
  std::mutex mu_;
  bool stop_ = false;
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace gemini
