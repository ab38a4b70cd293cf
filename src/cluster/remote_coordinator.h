// RemoteCoordinator: a CoordinatorService backed by a replicated group of
// geminicoordds over TCP.
//
// Clients and recovery workers keep programming against CoordinatorService;
// this implementation caches the latest configuration locally and keeps it
// fresh two ways:
//   - push: the connection subscribes via kCoordConfigWatch, and every
//     coordinator publish arrives as an unsolicited kPushConfig frame on the
//     reader thread — a Rejig reaches clients without polling;
//   - re-watch: the watch is re-issued periodically, because a redial (the
//     coordinator restarted, the connection dropped) silently sheds the
//     server-side subscription. The re-watch both refreshes the snapshot and
//     re-subscribes, bounding how long a client can miss pushes.
// Configuration ids only move forward: a stale push or response never
// regresses the cache.
//
// Recovery notifications map to kCoordReport (fail-fast, never retried:
// docs/PROTOCOL.md §11) and DirtyProcessed to kCoordDirtyQuery. A report
// lost to a connection drop is safe — recovery-side callers re-derive and
// re-report on their next pass.
//
// Failover (docs/PROTOCOL.md §12.7): constructed with the deployment's full
// coordinator endpoint list, the client talks to one endpoint at a time and
// rotates to the next on kNotMaster (endpoint is a shadow or a fenced
// ex-master), and on kUnavailable (endpoint dead — its breaker makes repeat
// failures cheap) iff the op's retry class allows sending it again
// (wire::IsIdempotentOp). So the watch and the dirty query rotate past a
// dead endpoint, and a report does not: a shadow definitively did not apply
// it, while kUnavailable is ambiguous. All endpoints' push handlers stay
// attached; configuration ids adopt only forward, so a straggler push from
// an ex-master is inert.
//
// Thread-safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/coordinator/coordinator_service.h"
#include "src/transport/tcp_connection.h"

namespace gemini {

class RemoteCoordinator final : public CoordinatorService {
 public:
  struct Options {
    /// Period of the background re-watch; 0 disables the thread (callers
    /// drive Refresh() themselves — tests, single-shot tools).
    Duration rewatch_interval = Millis(500);
  };

  /// One member of the coordinator group.
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
  };

  /// Failover counters (cumulative).
  struct Stats {
    /// Times the active endpoint changed (a successful call landed on a
    /// different endpoint than the previous one) — "client redials".
    uint64_t endpoint_switches = 0;
    /// kNotMaster answers that bounced a call to the next endpoint.
    uint64_t not_master_bounces = 0;
  };

  /// `endpoints` is the deployment's ordered coordinator list (masters and
  /// shadows alike); must be non-empty.
  RemoteCoordinator(std::vector<Endpoint> endpoints, Options options);
  RemoteCoordinator(std::string host, uint16_t port, Options options)
      : RemoteCoordinator(std::vector<Endpoint>{{std::move(host), port}},
                          options) {}
  ~RemoteCoordinator() override;

  RemoteCoordinator(const RemoteCoordinator&) = delete;
  RemoteCoordinator& operator=(const RemoteCoordinator&) = delete;

  /// One watch round trip now: fetches the coordinator's configuration,
  /// adopts it if newer, (re-)subscribes to pushes, failing over across the
  /// endpoint list. kUnavailable/kNotMaster when no endpoint answered as
  /// master — the cached snapshot stays.
  Status Refresh();

  [[nodiscard]] Stats stats() const;
  /// Index (into the constructor's endpoint list) of the endpoint the last
  /// successful call landed on.
  [[nodiscard]] size_t active_endpoint() const {
    return active_.load(std::memory_order_acquire);
  }

  // CoordinatorService.
  [[nodiscard]] ConfigurationPtr GetConfiguration() const override;
  [[nodiscard]] ConfigId latest_id() const override;
  void OnDirtyListProcessed(FragmentId fragment) override;
  void OnWorkingSetTransferTerminated(FragmentId fragment) override;
  void OnDirtyListUnavailable(FragmentId fragment) override;
  [[nodiscard]] bool DirtyProcessed(FragmentId fragment) const override;

 private:
  /// The push handler outlives `this` only via this shared state: the
  /// connection may be shared (Acquire) and keeps handlers for its own
  /// lifetime, so the handler captures a weak_ptr.
  struct State {
    mutable std::mutex mu;
    ConfigurationPtr config;
    std::atomic<ConfigId> latest{0};

    void Adopt(ConfigurationPtr fresh);
  };

  void Report(wire::CoordEvent event, FragmentId fragment);
  void RewatchLoop();
  /// Calls `op` on the active endpoint, rotating through the list on
  /// kNotMaster (always) and kUnavailable (iff wire::IsIdempotentOp(op)).
  /// Returns the first success or the last error.
  template <wire::Op op, typename... Args>
  wire::CallResult<op> CallFailover(const Args&... args) const;

  const std::shared_ptr<State> state_;
  std::vector<std::shared_ptr<TcpConnection>> conns_;
  const Options options_;
  mutable std::atomic<size_t> active_{0};
  mutable std::atomic<uint64_t> endpoint_switches_{0};
  mutable std::atomic<uint64_t> not_master_bounces_{0};

  std::mutex stop_mu_;
  bool stop_ = false;
  std::condition_variable stop_cv_;
  std::thread rewatcher_;
};

}  // namespace gemini
