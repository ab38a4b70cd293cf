// TransportServer: the geminid event loops.
//
// Hosts an InstanceRegistry — one or many CacheInstances — behind the wire
// protocol (src/transport/wire.h, docs/PROTOCOL.md §10). The server runs
// `Options::num_loops` event-loop shards, each a non-blocking,
// level-triggered epoll loop on its own thread. Shard 0 owns the listen
// socket and acts as the acceptor, assigning each accepted connection to a
// shard round-robin; a connection lives on exactly one shard for its whole
// lifetime, so only that shard's thread ever reads or writes it.
// num_loops = 1 (and the default on a single-core machine) reproduces the
// historical single-threaded behavior exactly.
//
// Connection model: accept → mandatory HELLO (version exchange; a v2 HELLO
// names the target instance, a v1 HELLO gets the registry's default) →
// pipelined requests against the bound instance: every complete frame in
// the read buffer is processed in arrival order and its response appended
// to the write buffer in that same order. Because a connection is pinned to
// one shard, this is the FIFO-per-connection guarantee (docs/PROTOCOL.md
// §10.6) pipelined clients match responses against — sharding does not
// weaken it, it only removes cross-connection serialization. A reply whose
// op appended an eager WAL record (Qareg, ISet, IDelete, config-id advance)
// is held, with every later reply on its connection, until the instance's
// WAL writer reports the record durable and wakes the shard; the loop keeps
// serving every connection meanwhile, so one fsync covers the eager records
// of many frames (group commit). Selecting
// an instance the registry does not host fails the handshake cleanly: the
// server answers kWrongInstance, then closes. Each connection owns a read
// buffer (frames are reassembled across short reads) and a write buffer
// (responses that do not fit the socket buffer are flushed when the fd
// turns writable). A framing violation — oversized length prefix, unknown
// opcode, HELLO out of order — closes the connection; a merely unparsable
// body gets a kInvalidArgument response and the connection lives on.
//
// Stats are lock-free on the hot path: each shard keeps its own atomic
// counters (plus flat per-instance arrays indexed by registry slot), and
// stats() aggregates across shards on read, so a kStats-style poller never
// contends with request handling.
//
// Shutdown is graceful: Stop() stops accepting, lets every shard drain its
// connections' pending write buffers (bounded by drain_timeout), then
// closes everything and joins the loop threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/persistence_sink.h"
#include "src/common/status.h"
#include "src/transport/instance_registry.h"
#include "src/transport/wire.h"

namespace gemini {

/// Server-side hook for the coordinator control plane (wire ops
/// kCoordRegister..kCoordDirtyQuery, docs/PROTOCOL.md §12). TransportServer
/// stays ignorant of coordinator semantics: it routes every control-plane
/// frame to the attached ControlPlane and appends whatever reply comes back.
/// HandleControl runs on an event-loop shard thread — it may block briefly
/// (the coordinator's publish path issues RPCs to instances), but anything
/// long-running belongs on the implementation's own threads. A server
/// without a control plane answers these ops with kInvalidArgument.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;

  struct Reply {
    Status status = Status::Ok();
    /// Response body for an Ok status (error messages travel in `status`).
    std::string body;
    /// Subscribe this connection to configuration pushes: from now on every
    /// PushConfigToSubscribers() broadcast lands on it as a kPushConfigTag
    /// frame.
    bool subscribe = false;
  };
  virtual Reply HandleControl(wire::Op op, std::string_view body) = 0;

  /// Extra name/value pairs appended to this server's kStats response —
  /// the control plane's `cluster.*` counters (registrations, heartbeats,
  /// promotions, replication lag/bytes, ...), mirroring how an instance's
  /// extra_stats hook surfaces `persist.*`. Called from shard threads; must
  /// be thread-safe. Default: nothing.
  virtual std::vector<std::pair<std::string, uint64_t>> ExtraStats() {
    return {};
  }

 protected:
  /// Serves one control op from its wire-table row: decodes `body`, calls
  /// `handle` with the request fields (see wire::Serve) and encodes its ok
  /// value as the reply body.
  template <wire::Op op, typename Handler>
  static Reply Serve(std::string_view body, Handler&& handle) {
    Reply reply;
    reply.status = wire::Serve<op>(
        body, std::forward<Handler>(handle),
        [&reply](const auto& value) {
          wire::Encode<wire::ResponseFieldsOf<op>>(reply.body, value);
        });
    return reply;
  }
};

class TransportServer {
 public:
  struct Options {
    /// Address to bind. Loopback by default: the protocol is unauthenticated
    /// (trusted-cluster), so exposing it wider is an explicit choice.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Event-loop shards. 0 = one per hardware thread
    /// (std::thread::hardware_concurrency); clamped to [1, 64]. 1 preserves
    /// the single-threaded behavior of earlier versions.
    uint32_t num_loops = 0;
    /// How long Stop() waits for write buffers to drain.
    int drain_timeout_ms = 2000;
    /// Slowloris guard: a connection that has not completed its HELLO, or
    /// sits on a partial request frame, for longer than this is reaped
    /// (counted in Stats::connections_reaped). Established connections that
    /// are merely idle between complete requests are never reaped — clients
    /// legitimately hold pipelined connections open for their lifetime.
    /// 0 disables reaping.
    int idle_timeout_ms = 30000;
    /// Coordinator control plane served by this server (null = plain data
    /// server; control ops answer kInvalidArgument). Must outlive the
    /// server. With a control plane attached the registry may be empty — a
    /// coordinator-only server accepts HELLOs that target kAnyInstance,
    /// binds no instance, and answers data ops with kUnavailable.
    ControlPlane* control = nullptr;
  };

  /// Multi-instance server. The registry must stay unchanged (and its
  /// instances and their persistence sinks alive) for the server's
  /// lifetime.
  TransportServer(InstanceRegistry registry, Options options);
  /// Single-instance sugar: a one-entry registry.
  TransportServer(CacheInstance* instance, Options options);
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Binds, listens, and starts the loop threads. kInvalidArgument on an
  /// empty registry without a control plane, kInternal on socket or epoll
  /// errors (bind failure, exhausted fds).
  Status Start();

  /// Broadcasts a kPushConfigTag frame carrying `serialized_config`
  /// (Configuration::Serialize bytes) to every connection subscribed via
  /// kCoordConfigWatch. Safe from any thread while the server runs, but
  /// must not race Stop(): callers (the coordinator control plane) stop
  /// pushing before stopping the server. No-op when not running.
  void PushConfigToSubscribers(std::string_view serialized_config);

  /// Graceful shutdown; idempotent. Safe to call from any thread.
  void Stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (valid after Start() returned Ok).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Effective shard count after resolving num_loops = 0 (valid after
  /// Start() returned Ok).
  [[nodiscard]] size_t loop_count() const { return shards_.size(); }

  [[nodiscard]] const InstanceRegistry& registry() const { return registry_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t frames_handled = 0;
    uint64_t protocol_errors = 0;
    /// Connections closed by the idle/partial-frame reaper.
    uint64_t connections_reaped = 0;
    /// accept(2) failures other than EAGAIN/EINTR.
    uint64_t accept_errors = 0;
    /// Response-path batching efficiency: every flush gathers a connection's
    /// queued frames into one sendmsg iovec chain, so frames_flushed /
    /// flush_calls is the average pipeline depth the write path actually
    /// exploited.
    uint64_t sendmsg_calls = 0;
    uint64_t flush_calls = 0;
    uint64_t frames_flushed = 0;
    /// Working-set scan service (kWorkingSetScan, docs/PROTOCOL.md §13):
    /// pages served, keys enumerated, and their summed charged bytes.
    /// Recovery workers drive these while streaming a fragment's hot set
    /// off this server; surfaced over kStats as recovery.scan_*.
    uint64_t ws_scan_pages = 0;
    uint64_t ws_scan_keys = 0;
    uint64_t ws_scan_bytes = 0;
    struct PerInstance {
      uint64_t frames_handled = 0;
      uint64_t protocol_errors = 0;
    };
    /// Frames/errors attributed to the instance the connection was bound
    /// to; handshake traffic (HELLO itself, pre-HELLO violations) counts
    /// only in the totals above.
    std::map<InstanceId, PerInstance> per_instance;
  };
  /// Aggregates the per-shard atomic counters; never blocks the data path.
  /// Counters are *cumulative across Stop()/Start() cycles*: Start() folds
  /// the previous run's totals into a baseline before dropping its shards,
  /// so a restarted server keeps counting where it left off (the wire
  /// kStats op and monitoring both see monotonic values). Do not call
  /// concurrently with Start()/Stop().
  [[nodiscard]] Stats stats() const;

 private:
  struct Connection;
  struct Shard;
  class OutQueue;
  class Poller;

  void Loop(Shard& shard);
  /// Shard 0 only: accepts and assigns connections round-robin.
  void AcceptReady(Shard& shard);
  /// Configures one freshly accepted socket and assigns it to a shard.
  void DispatchAccepted(Shard& shard, int fd);
  /// Accept-error accounting + burst guard.
  void AcceptFailure(Shard& shard);
  /// Moves fds handed over by the acceptor onto this shard's poller.
  void AdoptInbox(Shard& shard, bool draining);
  /// Reads, decodes, and handles frames; returns false when the connection
  /// must be closed.
  bool ReadReady(Shard& shard, Connection& conn);
  /// Decodes and handles every complete frame in conn.in, then flushes.
  bool ProcessInput(Shard& shard, Connection& conn);
  /// Flushes the write queue's ready frames; returns false on a dead socket.
  bool FlushWrites(Shard& shard, Connection& conn);
  /// Holds the reply just queued until the connection's instance makes
  /// `lsn` durable, and parks the connection on its shard.
  void HoldReply(Shard& shard, Connection& conn, Lsn lsn);
  /// Readies the connection's replies whose records are durable (or
  /// failed); unparks it once nothing is held. Returns whether any reply
  /// became ready.
  bool ReleaseHeld(Shard& shard, Connection& conn);
  /// ReleaseHeld + flush for every parked connection of the shard; runs
  /// when a WAL writer's OnDurable wakes the loop.
  void ReleaseParked(Shard& shard, bool draining);
  void CloseConnection(Shard& shard, int fd);
  /// Dispatches one request frame, appending the response frame to the
  /// connection's write buffer. Returns false to drop the connection.
  bool HandleFrame(Shard& shard, Connection& conn, uint8_t op,
                   std::string_view body);
  /// Runs a routed session or instance op and appends its response.
  void ServeOp(Shard& shard, Connection& conn, wire::Op op,
               std::string_view body);
  /// Serves one `op` frame from its wire-table row (wire::Serve) and
  /// appends the response: the handler's ok value, or its error.
  template <wire::Op op, typename Handler>
  static void Dispatch(OutQueue& out, std::string_view body, Handler&& handle);
  /// Handles the mandatory first frame; binds the connection's instance.
  bool HandleHello(Shard& shard, Connection& conn, std::string_view body);
  void CountProtocolError(Shard& shard, const Connection& conn);
  /// Routes one control-plane op to options_.control and appends the reply.
  void HandleControlOp(Connection& conn, wire::Op op, std::string_view body);
  /// One kWorkingSetScan page off `instance`, counted in the shard's
  /// recovery.scan_* stats.
  static Result<WorkingSetPage> ScanPage(Shard& shard, CacheInstance* instance,
                                         const OpContext& ctx,
                                         uint32_t num_fragments,
                                         uint64_t cursor, uint32_t max_keys);
  /// The kStats rows for `conn`'s server + bound instance.
  std::vector<std::pair<std::string, uint64_t>> StatsRows(
      const Connection& conn) const;
  /// Appends the response frame for a non-ok (or empty ok) Status.
  static void RespondStatus(OutQueue& out, const Status& s);
  /// Delivers queued config-push frames to this shard's subscribers.
  void DeliverPushes(Shard& shard, std::vector<std::string> frames);

  InstanceRegistry registry_;
  Options options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Ascending instance ids; position = registry slot (per-shard counter
  /// arrays are indexed by it).
  std::vector<InstanceId> slot_ids_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The hosted instances' persistence sinks, each told to wake every
  /// shard when its durable LSN advances (registered Start → Stop).
  std::vector<PersistenceSink*> durable_sinks_;
  /// Round-robin cursor for connection assignment (acceptor thread only).
  size_t next_shard_ = 0;
  std::atomic<uint64_t> connections_accepted_{0};
  /// Totals of completed runs; stats() adds the live shard counters on top
  /// (see stats() — counters survive Stop()/Start()).
  Stats baseline_;
};

}  // namespace gemini
