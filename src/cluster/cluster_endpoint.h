// ClusterEndpoint: a remote geminid instance as seen by the coordinator.
//
// Implements InstanceEndpoint over a TcpConnection, so the unchanged
// Coordinator drives real processes: lease grants become kLeaseGrant frames
// (TTL on the wire — the instance computes the expiry on its own clock,
// docs/PROTOCOL.md §12.3), and config-entry / dirty-list accesses become
// internal-context kGet/kSet/kDelete.
//
// The endpoint is *gated*: available() reflects what the control plane
// believes (heartbeat state), not the socket. CoordinatorControl gates an
// endpoint down before telling the coordinator it failed and up when it
// re-registers, so the coordinator never tries to publish into an instance
// the failure detector has written off. Until the first registration
// attaches a host:port, every operation is a cheap no-op / kUnavailable.
//
// Calls carry short timeouts and a circuit breaker: the coordinator's
// ticker must never hang on a half-dead instance longer than one beat or
// two.
//
// Thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/instance_endpoint.h"
#include "src/transport/tcp_connection.h"

namespace gemini {

class ClusterEndpoint final : public InstanceEndpoint {
 public:
  explicit ClusterEndpoint(InstanceId id) : id_(id) {}

  /// Binds (or re-binds, after a restart on a new port) the endpoint to the
  /// instance's advertised address. Resets the connection when the address
  /// changed. Does not dial — the first operation does.
  void Attach(const std::string& host, uint16_t port);

  /// Control-plane gate (heartbeat verdict). A gated-down endpoint drops
  /// every operation without touching the socket.
  void SetUp(bool up);

  [[nodiscard]] bool available() const override;

  void GrantLease(FragmentId fragment, ConfigId min_valid_config, Duration ttl,
                  ConfigId latest_config) override;
  void RevokeLease(FragmentId fragment, ConfigId latest_config) override;
  Result<CacheValue> Get(std::string_view key) override;
  Status Set(std::string_view key, CacheValue value) override;
  Status Delete(std::string_view key) override;

  [[nodiscard]] InstanceId id() const { return id_; }

 private:
  /// Connection snapshot, or nullptr when unattached or gated down.
  std::shared_ptr<TcpConnection> Conn() const;
  /// One typed round trip (TcpConnection::Call) on the current connection;
  /// kUnavailable while unattached or gated down.
  template <wire::Op op, typename... Args>
  wire::CallResult<op> Call(const Args&... args);

  const InstanceId id_;

  mutable std::mutex mu_;
  std::string host_;
  uint16_t port_ = 0;
  bool up_ = false;
  std::shared_ptr<TcpConnection> conn_;
};

}  // namespace gemini
