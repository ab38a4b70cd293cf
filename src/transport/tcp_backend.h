// TcpCacheBackend: a CacheBackend that fronts a remote geminid over TCP.
//
// A backend names `(endpoint, instance)` — since a geminid can host many
// CacheInstances behind one event loop, the instance id picks which one
// this backend talks to (kAnyInstance = the server's default, which is
// what a single-instance geminid serves). The socket itself lives in a
// shared TcpConnection (src/transport/tcp_connection.h): every backend in
// the process targeting the same (host, port, instance) multiplexes one
// *pipelined* connection — so a GeminiClient, a recovery worker, and a
// flusher pointed at the same instance cost one socket, not three, and
// their requests share the in-flight window instead of waiting on each
// other's round trips.
//
// Every operation is one wire frame and one response frame (a batched op
// is a pipelined burst of them, or one bulk frame), sent once; connection
// loss maps to kUnavailable — the same code an in-process failed instance
// returns — so GeminiClient's failover machinery (configuration refresh,
// store fall-through, write suspension) drives recovery with no
// transport-specific logic. The next call after a drop redials.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {

class TcpCacheBackend : public CacheBackend {
 public:
  using Options = TcpConnection::Options;

  TcpCacheBackend(std::string host, uint16_t port)
      : TcpCacheBackend(std::move(host), port, wire::kAnyInstance,
                        Options()) {}
  TcpCacheBackend(std::string host, uint16_t port, Options options)
      : TcpCacheBackend(std::move(host), port, wire::kAnyInstance, options) {}
  /// Targets a specific instance on a multi-instance server; the HELLO
  /// handshake fails with kWrongInstance when the server does not host it.
  TcpCacheBackend(std::string host, uint16_t port,
                  InstanceId target_instance, Options options = Options());
  ~TcpCacheBackend() override;

  TcpCacheBackend(const TcpCacheBackend&) = delete;
  TcpCacheBackend& operator=(const TcpCacheBackend&) = delete;

  /// Dials and runs the HELLO handshake. Idempotent; kUnavailable when the
  /// server cannot be reached, kWrongInstance when it does not host the
  /// target instance, kInternal on a protocol-version mismatch.
  Status Connect();
  /// Closes the underlying (possibly shared) socket; sharers redial on
  /// their next call.
  void Disconnect();
  [[nodiscard]] bool connected() const;

  /// The remote instance's id, learned from HELLO (kInvalidInstance until
  /// the first successful Connect()).
  [[nodiscard]] InstanceId id() const override;

  /// Circuit-breaker state of the underlying (possibly shared) connection;
  /// kOpen means calls fail fast with kUnavailable without dialing.
  [[nodiscard]] TcpConnection::BreakerState breaker_state() const;

  // ---- CacheBackend ---------------------------------------------------------

  Result<CacheValue> Get(const OpContext& ctx, std::string_view key) override;
  /// Issues the whole batch as one pipelined burst over the shared
  /// connection: N gets cost ~1 round trip (window permitting) instead of N.
  /// On transport loss every slot not yet answered fails kUnavailable.
  std::vector<Result<CacheValue>> MultiGet(
      const std::vector<GetRequest>& reqs) override;
  Result<IqGetResult> IqGet(const OpContext& ctx,
                            std::string_view key) override;
  Status IqSet(const OpContext& ctx, std::string_view key, CacheValue value,
               LeaseToken token) override;
  Result<LeaseToken> Qareg(const OpContext& ctx,
                           std::string_view key) override;
  Status Dar(const OpContext& ctx, std::string_view key,
             LeaseToken token) override;
  Status Rar(const OpContext& ctx, std::string_view key, CacheValue value,
             LeaseToken token) override;
  Result<LeaseToken> ISet(const OpContext& ctx,
                          std::string_view key) override;
  Status IDelete(const OpContext& ctx, std::string_view key,
                 LeaseToken token) override;
  Status Delete(const OpContext& ctx, std::string_view key) override;
  Status Set(const OpContext& ctx, std::string_view key,
             CacheValue value) override;
  /// Ships the whole batch as ONE kMultiSet frame (one round trip total,
  /// not one per window slot). Bulk writes are non-idempotent, so on
  /// transport loss every shipped slot fails kUnavailable and the caller
  /// decides what to re-run.
  std::vector<Status> MultiSet(std::vector<SetRequest> reqs) override;
  /// One kMultiDelete frame; same fail-fast contract as MultiSet.
  std::vector<Status> MultiDelete(
      const std::vector<DeleteRequest>& reqs) override;
  /// The batched lease ops: each burst is one frame per key pipelined over
  /// the shared connection, like MultiGet — on transport loss every slot
  /// not yet answered fails kUnavailable.
  std::vector<Result<IqGetResult>> MultiIqGet(
      const std::vector<GetRequest>& reqs) override;
  std::vector<Result<LeaseToken>> MultiISet(
      const std::vector<GetRequest>& reqs) override;
  std::vector<Status> MultiIqSet(std::vector<IqSetRequest> reqs) override;
  std::vector<Status> MultiIDelete(
      const std::vector<IDeleteRequest>& reqs) override;
  Status Cas(const OpContext& ctx, std::string_view key, Version expected,
             CacheValue value) override;
  Status Append(const OpContext& ctx, std::string_view key,
                std::string_view data) override;
  Result<LeaseToken> AcquireRed(std::string_view key) override;
  Status ReleaseRed(std::string_view key, LeaseToken token) override;
  Status RenewRed(std::string_view key, LeaseToken token) override;
  /// One kWorkingSetScan frame per page (docs/PROTOCOL.md §13). Idempotent:
  /// a caller may send a dropped page again, and any returned cursor
  /// resumes the scan after a reconnect.
  Result<WorkingSetPage> WorkingSetScan(const OpContext& ctx,
                                        uint32_t num_fragments,
                                        uint64_t cursor,
                                        uint32_t max_keys) override;

  // ---- Wire-only extras -----------------------------------------------------

  Status Ping();
  /// The instance ids the remote server hosts (discovery for tools and
  /// cluster bring-up).
  Result<std::vector<InstanceId>> ListInstances();
  /// The remote instance's latest observed configuration id.
  Result<ConfigId> RemoteConfigId();
  /// Advances the remote instance's latest observed configuration id.
  Status BumpConfigId(ConfigId latest);
  /// Dirty-list ops by fragment id (the server owns the key scheme).
  Result<CacheValue> DirtyListGet(ConfigId config_id, FragmentId fragment);
  Status DirtyListAppend(ConfigId config_id, FragmentId fragment,
                         std::string_view record);

 private:
  /// Ships `reqs` as one pipelined burst (TcpConnection::TransactBatch, one
  /// `op` frame per request) and returns one slot per request, by index:
  /// `fields(req)` ties the request's row fields, a kOk response decodes
  /// into the slot's `Target`, and an error response or transport loss
  /// becomes the slot's status. Oversized requests fail locally and never
  /// ship.
  template <wire::Op op, typename Target = wire::ResponseOf<op>, typename Req,
            typename Fields>
  std::vector<wire::CallResult<op, Target>> Burst(const std::vector<Req>& reqs,
                                                  Fields fields);

  /// Ships `reqs` as ONE bulk `op` frame (kMultiSet/kMultiDelete) and maps
  /// its per-entry codes back onto one status per request. Oversized keys
  /// fail locally and the rest of the batch still ships.
  template <wire::Op op, typename Req, typename Fields>
  std::vector<Status> Bulk(const std::vector<Req>& reqs, Fields fields);

  std::shared_ptr<TcpConnection> conn_;
};

}  // namespace gemini
