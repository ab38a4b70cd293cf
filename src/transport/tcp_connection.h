// TcpConnection: one pipelined wire-protocol socket to a geminid, shareable
// between several TcpCacheBackends.
//
// A connection dials, runs the HELLO handshake (naming the target instance
// when the server hosts several), and then carries a *pipelined* request
// stream: callers enqueue (frame, completion) pairs into a bounded in-flight
// window, a writer thread coalesces everything pending into one send(2), and
// a reader thread drains responses, completing callers strictly in FIFO
// order. Response frames carry a status code, not a correlation id, so FIFO
// completion is the protocol's matching rule — sound because a geminid
// processes each connection's frames sequentially and replies in submission
// order (docs/PROTOCOL.md §10.6). Any number of backends — a GeminiClient's
// per-instance backend, a recovery worker's, a flusher's — multiplex one
// socket without waiting on each other's round trips.
//
// Sharing is per (host, port, instance): Acquire() hands out a
// process-wide shared connection for the triple, creating it lazily and
// dropping it when the last holder releases it. Connection loss fails every
// in-flight call with kUnavailable — the same code an in-process failed
// instance returns — and the next call redials. Each request is sent once:
// nothing here re-sends a request whose connection dropped. Whether it may
// go again is the caller's call, by the op's retry class
// (wire::IsIdempotentOp, docs/PROTOCOL.md §11.2).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/transport/wire.h"

namespace gemini {

class TcpConnection {
 public:
  struct Options {
    Duration connect_timeout = Seconds(5);
    /// Per-call socket send/receive timeout (0 = OS default, i.e. block).
    /// Expiry mid-response is connection-fatal: the reader cannot tell a
    /// stalled peer from a dead one, and resuming a half-read stream later
    /// would desync the FIFO, so it fails the whole in-flight window with
    /// kUnavailable and forces a redial.
    Duration io_timeout = Seconds(30);
    /// Upper bound on requests in flight (submitted, response pending) on
    /// this connection. Submitters past the bound block until a slot frees;
    /// 1 degenerates to the old strict request/response alternation.
    size_t max_inflight = 32;
    /// Circuit breaker: after this many *consecutive* failed dials (socket
    /// or handshake failure with kUnavailable) the endpoint is considered
    /// down and every call fails fast — no dial, no connect_timeout — until
    /// breaker_cooldown passes; then exactly one half-open probe dial runs,
    /// closing the breaker on success or re-opening it on failure. Fast
    /// kUnavailable is what lets GeminiClient fall through to the data
    /// store instead of hammering a dead endpoint.
    int breaker_failure_threshold = 8;
    Duration breaker_cooldown = Millis(500);
  };

  /// Observable circuit-breaker state (for tests and introspection).
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  /// Completion of one submitted request: the response status and, for kOk,
  /// the response body. Invoked exactly once, on the reader thread (or on
  /// the submitting thread when the request fails before being enqueued) —
  /// keep it cheap and never call back into this connection from inside.
  using Completion = std::function<void(Status, std::string)>;

  /// Handler for unsolicited server pushes (frames whose tag satisfies
  /// wire::IsPushTag — e.g. configuration pushes after a kCoordConfigWatch
  /// subscription). Runs on the reader thread; keep it cheap and never call
  /// back into this connection from inside. Push frames are not responses:
  /// they bypass the FIFO response matching entirely (§10.6 unaffected).
  using PushHandler = std::function<void(uint8_t tag, const std::string& body)>;

  /// Registers `handler` for every push frame this connection receives, for
  /// the connection's lifetime (there is no removal — holders of a shared
  /// connection each add their own handler and must outlive it, or capture
  /// weak state). Registering also switches the reader into push-interest
  /// mode: it keeps draining the socket even with no request in flight, so
  /// pushes arrive promptly on an otherwise idle connection.
  void AddPushHandler(PushHandler handler);

  /// One request of a pipelined batch.
  struct BatchRequest {
    wire::Op op;
    std::string body;
  };
  /// Its response: `status` is kOk with `body` holding the payload, or the
  /// decoded error (connection loss = kUnavailable).
  struct BatchResponse {
    Status status = Status::Ok();
    std::string body;
  };

  /// `target_instance` selects the remote instance in the v2 HELLO;
  /// kAnyInstance binds the server's default instance.
  TcpConnection(std::string host, uint16_t port, InstanceId target_instance,
                Options options);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Returns the process-wide shared connection for (host, port,
  /// target_instance), creating it with `options` when no live holder
  /// exists (an already-live connection keeps its original options).
  static std::shared_ptr<TcpConnection> Acquire(const std::string& host,
                                                uint16_t port,
                                                InstanceId target_instance,
                                                const Options& options);

  /// Dials and runs the HELLO handshake. Idempotent; kUnavailable when the
  /// server cannot be reached, kWrongInstance when it does not host the
  /// target, kInternal on a protocol-version mismatch.
  Status Connect();
  /// Tears the connection down promptly: shuts the socket down out-of-band
  /// (interrupting reader/writer syscalls mid-flight) and fails every
  /// in-flight request with kUnavailable. Every sharer sees the drop; the
  /// next call redials.
  void Disconnect();
  [[nodiscard]] bool connected() const;

  /// The bound remote instance's id, learned from HELLO (kInvalidInstance
  /// until the first successful Connect()).
  [[nodiscard]] InstanceId remote_id() const;

  /// Current circuit-breaker state. kOpen = calls fail fast without
  /// dialing; kHalfOpen = the cooldown has passed and the next call is the
  /// probe.
  [[nodiscard]] BreakerState breaker_state() const;

  /// Submits one request into the pipeline (connecting first if needed) and
  /// returns once it occupies a window slot; `done` fires when its response
  /// arrives, in FIFO order with every other submission. Blocks while the
  /// window is full. On connection loss `done` fires with kUnavailable.
  void SubmitAsync(wire::Op op, std::string_view body, Completion done);

  /// One request/response round trip (connecting first if needed).
  /// `resp_body` receives the response payload of a kOk reply; a non-ok
  /// reply becomes the returned Status (message from the body blob).
  /// Internally a SubmitAsync + wait, so concurrent callers pipeline
  /// instead of serializing. The request is sent once: a connection lost
  /// before its response arrives returns kUnavailable.
  Status Transact(wire::Op op, std::string_view body,
                  std::string* resp_body);

  /// Transact() typed by `op`'s wire-table row (wire.h): `args` are the
  /// request fields in row order, and the ok-response decodes into
  /// `Target`. A key or frame over the wire limits fails locally with
  /// kInvalidArgument, so the shared connection never carries a frame the
  /// server must answer by closing it.
  template <wire::Op op, typename Target = wire::ResponseOf<op>,
            typename... Args>
  wire::CallResult<op, Target> Call(const Args&... args) {
    std::string body;
    const auto fields = std::forward_as_tuple(args...);
    if (Status s = wire::EncodeRequest<op>(body, fields); !s.ok()) return s;
    std::string resp;
    if (Status s = Transact(op, body, &resp); !s.ok()) return s;
    return wire::DecodeResponse<op, Target>(resp);
  }

  /// Submits every request back-to-back (one coalesced burst, up to the
  /// window) and waits for all responses. resp[i] corresponds to reqs[i].
  /// A burst rides one connection epoch: only its first request may dial,
  /// and once that epoch drops, every request not yet answered fails
  /// kUnavailable — none is redialed onto a new connection or re-sent.
  std::vector<BatchResponse> TransactBatch(
      const std::vector<BatchRequest>& reqs);

 private:
  /// One connection epoch: the fd plus the receive buffer of its response
  /// stream. Epochs are immutable-identity objects handed to the reader and
  /// writer via shared_ptr, so a reconnect (new epoch) can never mix two
  /// sockets' bytes, and the fd is closed only when the last reference
  /// drops — after every thread has stopped issuing syscalls on it.
  struct Socket {
    explicit Socket(int fd_in) : fd(fd_in) {}
    ~Socket();
    /// Out-of-band interrupt: wakes any thread blocked in send/recv on this
    /// fd without racing fd reuse (close happens at destruction).
    void ShutdownBoth() const;

    const int fd;
    /// Bytes received but not yet decoded. Only the reader thread touches
    /// it while the epoch is current.
    std::string recv_buf;
  };

  /// SubmitAsync's body. `pin` (null for a lone request) holds a burst's
  /// epoch: empty before the burst's first request, which dials as usual
  /// and records the socket it landed on (null if the dial failed); every
  /// later request fails kUnavailable unless that socket is still current.
  void Submit(wire::Op op, std::string_view body, Completion done,
              std::optional<std::shared_ptr<Socket>>* pin);
  Status ConnectLocked();
  /// The actual dial + HELLO, called by ConnectLocked once the breaker
  /// admits the attempt.
  Status DialLocked();
  /// Drops the current epoch and returns the completions (in-flight and
  /// queued-unsent) the caller must fail with `why` AFTER unlocking.
  std::deque<Completion> TearLocked();
  /// Fails `victims` with (kUnavailable, why); call without holding mu_.
  static void FailAll(std::deque<Completion>& victims, const std::string& why);

  void WriterLoop();
  void ReaderLoop();
  /// Decodes one kOk/error response body into the Status/payload pair the
  /// completion receives.
  static void CompleteFromFrame(const Completion& done, uint8_t tag,
                                std::string body);

  const std::string host_;
  const uint16_t port_;
  const InstanceId target_instance_;
  const Options options_;

  mutable std::mutex mu_;
  /// Current epoch; nullptr = disconnected.
  std::shared_ptr<Socket> sock_;
  InstanceId remote_id_ = kInvalidInstance;
  /// Circuit breaker (guarded by mu_): consecutive kUnavailable dial
  /// failures and the wall-clock (SystemClock, monotonic us) the open state
  /// lasts until.
  int consecutive_dial_failures_ = 0;
  Timestamp breaker_open_until_ = 0;
  /// Encoded request frames accepted but not yet handed to the socket, one
  /// string per frame. The writer swaps the whole deque out and sends it as
  /// an iovec chain through one sendmsg(2), so every frame pending at wakeup
  /// leaves in one syscall (write coalescing) with no coalescing memcpy.
  std::deque<std::string> send_queue_;
  /// Completions of submitted requests, oldest first — the FIFO the reader
  /// matches response frames against.
  std::deque<Completion> inflight_;
  /// Copy-on-write push handler list (guarded by mu_; the reader snapshots
  /// it and dispatches with mu_ released).
  std::shared_ptr<const std::vector<PushHandler>> push_handlers_;
  /// True once any push handler exists: the reader then pumps the socket
  /// even when inflight_ is empty, and an idle recv timeout is benign
  /// instead of connection-fatal.
  bool push_interest_ = false;
  bool shutdown_ = false;
  bool threads_started_ = false;

  std::condition_variable writer_cv_;  // work for the writer / teardown
  std::condition_variable reader_cv_;  // work for the reader / teardown
  std::condition_variable window_cv_;  // a window slot freed / epoch died

  std::thread writer_;
  std::thread reader_;
};

}  // namespace gemini
