#include "src/transport/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/cache/persistence_sink.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/transport/wire.h"

namespace gemini {

namespace {

constexpr int kListenBacklog = 128;
/// Accept-error burst guard: after this many *consecutive* accept(2)
/// failures (fd exhaustion, accept storms — EAGAIN and EINTR do not count)
/// the acceptor unsubscribes from the listen socket for kAcceptPauseMs
/// instead of spinning, then resumes. Each failure counts in
/// Stats::accept_errors.
constexpr int kAcceptErrorBurst = 64;
constexpr int kAcceptPauseMs = 100;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Runs `apply` on each entry of a parsed bulk batch, in order (a malformed
/// frame never gets here, so it applies nothing); the codes are the response.
template <typename Entry, typename Apply>
std::vector<uint8_t> ApplyEach(std::vector<Entry>& batch, Apply apply) {
  std::vector<uint8_t> codes;
  codes.reserve(batch.size());
  for (Entry& entry : batch) {
    codes.push_back(
        static_cast<uint8_t>(std::apply(apply, std::move(entry)).code()));
  }
  return codes;
}

}  // namespace

// ---- OutQueue ---------------------------------------------------------------

/// One queued response frame, kept as up to three pieces so a bulk payload
/// (a GET's value bytes) is *moved* into place exactly once and gathered
/// straight from there by sendmsg — never re-copied into a contiguous write
/// buffer. Small frames use only `pre`.
struct OutFrame {
  std::string pre;      // u32 len | u8 tag | fields before the payload
  std::string payload;  // bulk bytes, moved from the cache result
  std::string post;     // fields after the payload
  /// The eager WAL record this reply waits for (0 = none): the frame, and
  /// every frame after it, stays queued until the record is durable.
  Lsn lsn = 0;
  [[nodiscard]] size_t size() const {
    return pre.size() + payload.size() + post.size();
  }
};

/// Per-connection write queue: whole response frames in FIFO order plus a
/// byte offset into the front frame. FlushWrites gathers the unsent pieces
/// into one iovec chain per sendmsg call, so N pipelined responses cost one
/// syscall and zero coalescing copies. Only the ready prefix leaves: a
/// reply held for an eager record's fsync (HoldBack) holds every later
/// frame too, so replies still leave in request order (§10.6).
class TransportServer::OutQueue {
 public:
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  /// Some frame may be sent now.
  [[nodiscard]] bool has_ready() const { return ready_ > 0; }
  /// Some frame waits for an eager record.
  [[nodiscard]] bool has_held() const { return ready_ < frames_.size(); }

  /// Single-piece frame: status-only and small structured responses.
  void PushFrame(uint8_t tag, std::string_view body) {
    OutFrame f;
    wire::AppendFrame(f.pre, tag, body);
    Push(std::move(f));
  }

  /// Three-piece frame. `head` holds the response fields before the bulk
  /// payload's u32 length prefix, `post` the fields after the payload
  /// bytes; the frame header and the payload length prefix are built here.
  void PushPayloadFrame(uint8_t tag, std::string_view head,
                        std::string payload, std::string post) {
    OutFrame f;
    wire::PutU32(f.pre, static_cast<uint32_t>(1 + head.size() + 4 +
                                              payload.size() + post.size()));
    wire::PutU8(f.pre, tag);
    f.pre.append(head);
    wire::PutU32(f.pre, static_cast<uint32_t>(payload.size()));
    f.payload = std::move(payload);
    f.post = std::move(post);
    Push(std::move(f));
  }

  /// Already-encoded frame bytes (config pushes arrive fully framed).
  void PushRaw(std::string frame) {
    OutFrame f;
    f.pre = std::move(frame);
    Push(std::move(f));
  }

  /// Holds the newest frame, and every frame queued after it, until
  /// Release sees `lsn` durable.
  void HoldBack(Lsn lsn) {
    frames_.back().lsn = lsn;
    ready_ = std::min(ready_, frames_.size() - 1);
  }

  /// Readies held frames in order, up to the first whose record `sink` has
  /// not made durable yet. A reply whose record the log failed to persist
  /// is replaced by kUnavailable: the op must not be acknowledged. Returns
  /// whether any frame became ready.
  bool Release(const PersistenceSink& sink) {
    const size_t before = ready_;
    for (; ready_ < frames_.size(); ++ready_) {
      OutFrame& f = frames_[ready_];
      if (f.lsn == 0) continue;
      const Durability d = sink.CheckDurable(f.lsn);
      if (d == Durability::kPending) break;
      if (d == Durability::kFailed) {
        f = OutFrame();
        std::string body;
        wire::PutBlob(body, "write-ahead log failed before the op was durable");
        wire::AppendFrame(f.pre, static_cast<uint8_t>(Code::kUnavailable),
                          body);
      }
      f.lsn = 0;
    }
    return ready_ != before;
  }

  /// Fills up to `max` iovecs with the unsent bytes of the ready frames;
  /// returns the count.
  size_t Gather(struct iovec* iov, size_t max) const {
    size_t n = 0;
    size_t skip = offset_;
    for (size_t i = 0; i < ready_; ++i) {
      const OutFrame& f = frames_[i];
      for (const std::string* piece : {&f.pre, &f.payload, &f.post}) {
        if (piece->empty()) continue;
        if (skip >= piece->size()) {
          skip -= piece->size();
          continue;
        }
        if (n == max) return n;
        iov[n].iov_base = const_cast<char*>(piece->data()) + skip;
        iov[n].iov_len = piece->size() - skip;
        skip = 0;
        ++n;
      }
      if (n == max) return n;
    }
    return n;
  }

  /// Advances past `sent` bytes, dropping completed frames; returns how
  /// many whole frames finished.
  size_t Consume(size_t sent) {
    offset_ += sent;
    size_t done = 0;
    while (!frames_.empty() && offset_ >= frames_.front().size()) {
      offset_ -= frames_.front().size();
      frames_.pop_front();
      ++done;
    }
    ready_ -= done;
    return done;
  }

 private:
  void Push(OutFrame f) {
    frames_.push_back(std::move(f));
    if (ready_ + 1 == frames_.size()) ++ready_;  // nothing held before it
  }

  std::deque<OutFrame> frames_;
  size_t ready_ = 0;   // frames at the front that may be sent
  size_t offset_ = 0;  // bytes of the front frame already sent
};

// ---- Connection -------------------------------------------------------------

struct TransportServer::Connection {
  explicit Connection(int fd_in)
      : fd(fd_in), last_activity(SystemClock::Global().Now()) {}
  int fd;
  /// Last time bytes arrived (monotonic us); the reaper compares it against
  /// idle_timeout_ms for connections stuck pre-HELLO or mid-frame.
  Timestamp last_activity;
  std::string in;  // unparsed request bytes
  OutQueue out;    // unflushed response frames
  bool hello_done = false;
  // Subscribed to configuration pushes via kCoordConfigWatch.
  bool config_subscriber = false;
  // Bound by HELLO; every data op on this connection hits this instance.
  // Stays null on a coordinator-only server (empty registry): data ops then
  // answer kUnavailable while control ops keep working.
  CacheInstance* instance = nullptr;
  InstanceId bound_id = kInvalidInstance;
  size_t instance_slot = InstanceRegistry::npos;
  const InstanceOptions* instance_options = nullptr;
  // On its shard's parked list: some reply waits for an eager record of
  // the instance's sink.
  bool parked = false;

  /// Held replies count: Stop()'s drain waits for them too.
  [[nodiscard]] bool has_pending_writes() const { return !out.empty(); }
};

// ---- Poller -----------------------------------------------------------------

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// One shard's level-triggered epoll set. Read interest is permanent; write
/// interest is switched on only while a connection has unflushed responses.
class TransportServer::Poller {
 public:
  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  [[nodiscard]] bool valid() const { return epfd_ >= 0; }

  bool Add(int fd) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Update(int fd, bool want_write) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = want_write ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void Remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Blocks up to timeout_ms; appends the ready fds to `out`. False on a
  /// dead epoll fd (EINTR is an empty wake-up, not an error).
  bool Wait(int timeout_ms, std::vector<PollerEvent>& out) {
    struct epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      PollerEvent ev;
      ev.fd = events[i].data.fd;
      ev.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(ev);
    }
    return true;
  }

 private:
  int epfd_;
};

// ---- Shard ------------------------------------------------------------------

/// One event-loop shard: its own poller, connections, self-pipe, thread, and
/// atomic counters. Everything except the inbox (and the counters, read by
/// stats()) is touched only by the shard's own loop thread.
struct TransportServer::Shard final : DurableListener {
  Shard(size_t index_in, size_t nslots)
      : index(index_in),
        per_instance_frames(nslots),
        per_instance_errors(nslots) {}

  /// A WAL writer advanced its durable LSN: wake the loop if it holds
  /// replies. The loop sets awaiting_durable before it re-checks the held
  /// LSNs, so either it sees the new LSN or this sees the flag.
  void OnDurable() override {
    if (!awaiting_durable.load()) return;
    const char byte = 'd';
    [[maybe_unused]] ssize_t n = ::write(wake_fds[1], &byte, 1);
  }

  const size_t index;
  int wake_fds[2] = {-1, -1};  // self-pipe: Stop()/the acceptor wake the loop
  Poller poller;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  std::thread thread;

  // Accepted fds handed over by the acceptor (shard 0), adopted by this
  // shard's loop on its next wake-up.
  std::mutex inbox_mu;
  std::vector<int> inbox;
  // Config-push frames queued by PushConfigToSubscribers (same lock + wake
  // pipe as the inbox), delivered to subscribed connections on wake-up.
  std::vector<std::string> pushes;
  // Connections holding replies for eager records, and whether any exist
  // (read by OnDurable on WAL writer threads).
  std::vector<int> parked;
  std::atomic<bool> awaiting_durable{false};

  std::atomic<uint64_t> frames_handled{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> connections_reaped{0};
  std::atomic<uint64_t> accept_errors{0};
  // Write-path batching: sendmsg syscalls issued, flush rounds, response
  // frames fully flushed.
  std::atomic<uint64_t> sendmsg_calls{0};
  std::atomic<uint64_t> flush_calls{0};
  std::atomic<uint64_t> frames_flushed{0};
  // Working-set scan service (recovery workers pulling hot pages off this
  // server's instances): pages served, keys and charged bytes enumerated.
  std::atomic<uint64_t> ws_scan_pages{0};
  std::atomic<uint64_t> ws_scan_keys{0};
  std::atomic<uint64_t> ws_scan_bytes{0};
  // Acceptor-only state (shard 0's loop thread): the accept-error burst
  // guard's consecutive-failure count and suspension window.
  int consecutive_accept_errors = 0;
  bool accept_suspended = false;
  Timestamp accept_suspended_until = 0;
  // Indexed by registry slot (ascending instance-id order).
  std::vector<std::atomic<uint64_t>> per_instance_frames;
  std::vector<std::atomic<uint64_t>> per_instance_errors;
};

// ---- Lifecycle --------------------------------------------------------------

TransportServer::TransportServer(InstanceRegistry registry, Options options)
    : registry_(std::move(registry)), options_(std::move(options)) {}

TransportServer::TransportServer(CacheInstance* instance, Options options)
    : options_(std::move(options)) {
  (void)registry_.Add(instance);
}

TransportServer::~TransportServer() { Stop(); }

Status TransportServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status(Code::kInvalidArgument, "server already running");
  }
  if (registry_.empty() && options_.control == nullptr) {
    return Status(Code::kInvalidArgument, "no instances registered");
  }
  stop_requested_.store(false, std::memory_order_release);
  // Fold the previous run's counters into the cumulative baseline before
  // dropping the shards that own them: stats() stays monotonic across
  // Stop()/Start() cycles instead of resetting with each restart.
  baseline_ = stats();
  shards_.clear();
  connections_accepted_.store(0, std::memory_order_relaxed);
  slot_ids_ = registry_.ids();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status(Code::kInternal, "socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(Code::kInvalidArgument,
                  "bad bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(Code::kInternal,
                  "bind(" + options_.bind_address + ":" +
                      std::to_string(options_.port) + ") failed: " +
                      std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0 ||
      !SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(Code::kInternal, "listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);

  uint32_t nloops = options_.num_loops;
  if (nloops == 0) {
    nloops = std::max(1u, std::thread::hardware_concurrency());
  }
  nloops = std::min(nloops, 64u);

  const auto teardown = [this]() {
    for (auto& shard : shards_) {
      if (shard->wake_fds[0] >= 0) ::close(shard->wake_fds[0]);
      if (shard->wake_fds[1] >= 0) ::close(shard->wake_fds[1]);
    }
    shards_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
  };

  shards_.reserve(nloops);
  for (uint32_t i = 0; i < nloops; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, slot_ids_.size()));
    Shard& shard = *shards_.back();
    if (!shard.poller.valid()) {
      teardown();
      return Status(Code::kInternal, "epoll_create1 failed");
    }
    if (::pipe(shard.wake_fds) != 0 || !SetNonBlocking(shard.wake_fds[0]) ||
        !SetNonBlocking(shard.wake_fds[1])) {
      teardown();
      return Status(Code::kInternal, "self-pipe failed");
    }
    shard.poller.Add(shard.wake_fds[0]);
  }
  shards_[0]->poller.Add(listen_fd_);
  next_shard_ = 0;

  // Every shard hears every hosted instance's WAL writer: a connection on
  // any shard may hold replies for any instance's eager records.
  durable_sinks_.clear();
  for (InstanceId id : slot_ids_) {
    PersistenceSink* sink = registry_.Find(id)->options().persistence;
    if (sink != nullptr &&
        std::find(durable_sinks_.begin(), durable_sinks_.end(), sink) ==
            durable_sinks_.end()) {
      durable_sinks_.push_back(sink);
    }
  }
  for (PersistenceSink* sink : durable_sinks_) {
    for (auto& shard : shards_) sink->AddDurableListener(shard.get());
  }

  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { Loop(*s); });
  }
  std::string id_list;
  for (InstanceId id : slot_ids_) {
    if (!id_list.empty()) id_list += ",";
    id_list += std::to_string(id);
  }
  if (id_list.empty()) id_list = "none: coordinator-only";
  LOG_INFO << "geminid transport listening on " << options_.bind_address
           << ":" << port_ << " (instances " << id_list << ", "
           << shards_.size() << " event loop"
           << (shards_.size() == 1 ? "" : "s") << ")";
  return Status::Ok();
}

void TransportServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  // Wake every shard; a failed write means that loop is already draining.
  const char byte = 'w';
  for (auto& shard : shards_) {
    [[maybe_unused]] ssize_t n = ::write(shard->wake_fds[1], &byte, 1);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Detach from the WAL writers before their wake-ups could hit a closed
  // pipe.
  for (PersistenceSink* sink : durable_sinks_) {
    for (auto& shard : shards_) sink->RemoveDurableListener(shard.get());
  }
  // Every loop thread has exited: closing the listen socket and the
  // self-pipes here (not in Loop()) keeps the wake writes above from racing
  // the close. Any fd the acceptor handed over that its target shard never
  // adopted is closed here too.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& shard : shards_) {
    ::close(shard->wake_fds[0]);
    ::close(shard->wake_fds[1]);
    shard->wake_fds[0] = shard->wake_fds[1] = -1;
    std::lock_guard<std::mutex> lock(shard->inbox_mu);
    for (int fd : shard->inbox) ::close(fd);
    shard->inbox.clear();
  }
  running_.store(false, std::memory_order_release);
}

TransportServer::Stats TransportServer::stats() const {
  Stats s = baseline_;
  s.connections_accepted +=
      connections_accepted_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    s.frames_handled += shard->frames_handled.load(std::memory_order_relaxed);
    s.protocol_errors +=
        shard->protocol_errors.load(std::memory_order_relaxed);
    s.connections_reaped +=
        shard->connections_reaped.load(std::memory_order_relaxed);
    s.accept_errors += shard->accept_errors.load(std::memory_order_relaxed);
    s.sendmsg_calls += shard->sendmsg_calls.load(std::memory_order_relaxed);
    s.flush_calls += shard->flush_calls.load(std::memory_order_relaxed);
    s.frames_flushed += shard->frames_flushed.load(std::memory_order_relaxed);
    s.ws_scan_pages += shard->ws_scan_pages.load(std::memory_order_relaxed);
    s.ws_scan_keys += shard->ws_scan_keys.load(std::memory_order_relaxed);
    s.ws_scan_bytes += shard->ws_scan_bytes.load(std::memory_order_relaxed);
  }
  for (size_t slot = 0; slot < slot_ids_.size(); ++slot) {
    uint64_t frames = 0;
    uint64_t errors = 0;
    for (const auto& shard : shards_) {
      frames +=
          shard->per_instance_frames[slot].load(std::memory_order_relaxed);
      errors +=
          shard->per_instance_errors[slot].load(std::memory_order_relaxed);
    }
    if (frames != 0 || errors != 0) {
      Stats::PerInstance& pi = s.per_instance[slot_ids_[slot]];
      pi.frames_handled += frames;
      pi.protocol_errors += errors;
    }
  }
  return s;
}

void TransportServer::PushConfigToSubscribers(
    std::string_view serialized_config) {
  if (!running_.load(std::memory_order_acquire)) return;
  std::string body;
  wire::PutBlob(body, serialized_config);
  std::string frame;
  wire::AppendFrame(frame, wire::kPushConfigTag, body);
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->inbox_mu);
      shard->pushes.push_back(frame);
    }
    const char byte = 'p';
    [[maybe_unused]] ssize_t n = ::write(shard->wake_fds[1], &byte, 1);
  }
}

// ---- Event loop -------------------------------------------------------------

void TransportServer::Loop(Shard& shard) {
  std::vector<PollerEvent> events;
  // Drain deadline once stop is requested (monotonic ms).
  int drain_budget_ms = options_.drain_timeout_ms;
  bool draining = false;

  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      // Stop accepting; connections with queued responses get to drain.
      if (shard.index == 0) shard.poller.Remove(listen_fd_);
      AdoptInbox(shard, /*draining=*/true);
      std::vector<int> idle;
      for (auto& [fd, conn] : shard.connections) {
        if (!conn->has_pending_writes()) idle.push_back(fd);
      }
      for (int fd : idle) CloseConnection(shard, fd);
    }
    if (draining && (shard.connections.empty() || drain_budget_ms <= 0)) {
      break;
    }

    // Resume accepting after an accept-error burst pause (the guard in
    // AcceptFailure unsubscribed the listen fd so the level-triggered poller
    // does not spin on it).
    if (shard.index == 0 && shard.accept_suspended && !draining &&
        SystemClock::Global().Now() >= shard.accept_suspended_until) {
      shard.poller.Add(listen_fd_);
      shard.accept_suspended = false;
    }

    events.clear();
    // With the reaper armed, wake often enough to enforce its deadline even
    // when no fd turns ready.
    int timeout = 500;
    if (options_.idle_timeout_ms > 0) {
      timeout = std::min(timeout, std::max(10, options_.idle_timeout_ms / 4));
    }
    if (shard.index == 0 && shard.accept_suspended) {
      timeout = std::min(timeout, kAcceptPauseMs / 2);
    }
    if (draining) timeout = std::min(drain_budget_ms, 50);
    if (!shard.poller.Wait(timeout, events)) break;
    if (draining) drain_budget_ms -= timeout;

    // Idle/partial-frame reaper: close connections that are stuck before
    // HELLO or mid-frame (slowloris, dead peers holding fds). Established
    // connections idle *between* requests are left alone — pipelined
    // clients hold their connection for life.
    if (!draining && options_.idle_timeout_ms > 0) {
      const Timestamp now = SystemClock::Global().Now();
      const Duration limit = Millis(options_.idle_timeout_ms);
      std::vector<int> reap;
      for (auto& [fd, conn] : shard.connections) {
        if ((!conn->hello_done || !conn->in.empty()) &&
            now - conn->last_activity > limit) {
          reap.push_back(fd);
        }
      }
      for (int fd : reap) {
        shard.connections_reaped.fetch_add(1, std::memory_order_relaxed);
        CloseConnection(shard, fd);
      }
    }

    for (const PollerEvent& ev : events) {
      if (ev.fd == shard.wake_fds[0]) {
        char buf[64];
        while (::read(shard.wake_fds[0], buf, sizeof(buf)) > 0) {
        }
        AdoptInbox(shard, draining);
        ReleaseParked(shard, draining);
        continue;
      }
      if (ev.fd == listen_fd_ && shard.index == 0) {
        if (!draining) AcceptReady(shard);
        continue;
      }
      auto it = shard.connections.find(ev.fd);
      if (it == shard.connections.end()) continue;
      Connection& conn = *it->second;
      bool alive = !ev.error;
      if (alive && ev.writable) alive = FlushWrites(shard, conn);
      if (alive && ev.readable && !draining) alive = ReadReady(shard, conn);
      if (alive && draining && !conn.has_pending_writes()) alive = false;
      if (!alive) CloseConnection(shard, ev.fd);
    }
  }

  AdoptInbox(shard, /*draining=*/true);
  for (auto it = shard.connections.begin(); it != shard.connections.end();) {
    int fd = it->first;
    ++it;
    CloseConnection(shard, fd);
  }
  // listen_fd_ and the self-pipes stay open until Stop() has joined every
  // loop thread; closing them here would race Stop()'s wake-up writes.
}

void TransportServer::AcceptReady(Shard& shard) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      if (errno == EINTR) continue;
      AcceptFailure(shard);
      if (shard.accept_suspended) return;
      continue;
    }
    DispatchAccepted(shard, fd);
  }
}

void TransportServer::AcceptFailure(Shard& shard) {
  // A real accept failure (EMFILE/ENFILE fd exhaustion, aborted connections
  // under SYN pressure). Count it; after a burst of consecutive failures,
  // unsubscribe from the listen fd for kAcceptPauseMs — the level-triggered
  // poller would otherwise report it ready forever and turn the error into
  // a busy spin.
  shard.accept_errors.fetch_add(1, std::memory_order_relaxed);
  if (++shard.consecutive_accept_errors >= kAcceptErrorBurst) {
    shard.poller.Remove(listen_fd_);
    shard.accept_suspended = true;
    shard.accept_suspended_until =
        SystemClock::Global().Now() + Millis(kAcceptPauseMs);
    shard.consecutive_accept_errors = 0;
  }
}

void TransportServer::DispatchAccepted(Shard& shard, int fd) {
  shard.consecutive_accept_errors = 0;
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);

  Shard& target = *shards_[next_shard_ % shards_.size()];
  ++next_shard_;
  if (&target == &shard) {
    shard.poller.Add(fd);
    shard.connections.emplace(fd, std::make_unique<Connection>(fd));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(target.inbox_mu);
    target.inbox.push_back(fd);
  }
  const char byte = 'c';
  [[maybe_unused]] ssize_t n = ::write(target.wake_fds[1], &byte, 1);
}

void TransportServer::AdoptInbox(Shard& shard, bool draining) {
  std::vector<int> handoff;
  std::vector<std::string> pushes;
  {
    std::lock_guard<std::mutex> lock(shard.inbox_mu);
    handoff.swap(shard.inbox);
    pushes.swap(shard.pushes);
  }
  for (int fd : handoff) {
    if (draining) {
      ::close(fd);
      continue;
    }
    shard.poller.Add(fd);
    shard.connections.emplace(fd, std::make_unique<Connection>(fd));
  }
  if (!draining && !pushes.empty()) DeliverPushes(shard, std::move(pushes));
}

void TransportServer::DeliverPushes(Shard& shard,
                                    std::vector<std::string> frames) {
  // Pushes land between request frames, never inside one: responses are
  // appended synchronously in HandleFrame, so at this point every buffered
  // response is complete and the FIFO matching rule is preserved.
  std::vector<int> dead;
  for (auto& [fd, conn] : shard.connections) {
    if (!conn->config_subscriber) continue;
    for (const std::string& frame : frames) conn->out.PushRaw(frame);
    if (!FlushWrites(shard, *conn)) dead.push_back(fd);
  }
  for (int fd : dead) CloseConnection(shard, fd);
}

bool TransportServer::ReadReady(Shard& shard, Connection& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      conn.last_activity = SystemClock::Global().Now();
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return ProcessInput(shard, conn);
}

bool TransportServer::ProcessInput(Shard& shard, Connection& conn) {
  size_t cursor = 0;
  for (;;) {
    size_t consumed = 0;
    uint8_t op = 0;
    std::string_view body;
    const std::string_view rest =
        std::string_view(conn.in).substr(cursor);
    const wire::DecodeResult r =
        wire::DecodeFrame(rest, &consumed, &op, &body);
    if (r == wire::DecodeResult::kNeedMore) break;
    if (r == wire::DecodeResult::kMalformed) {
      CountProtocolError(shard, conn);
      return false;
    }
    cursor += consumed;
    if (!HandleFrame(shard, conn, op, body)) {
      CountProtocolError(shard, conn);
      return false;
    }
  }
  conn.in.erase(0, cursor);
  // Re-check after HoldReply raised awaiting_durable: a record made durable
  // before the flag was up woke nobody.
  if (conn.parked) ReleaseHeld(shard, conn);
  return FlushWrites(shard, conn);
}

void TransportServer::HoldReply(Shard& shard, Connection& conn, Lsn lsn) {
  conn.out.HoldBack(lsn);
  if (conn.parked) return;
  conn.parked = true;
  shard.parked.push_back(conn.fd);
  shard.awaiting_durable.store(true);
}

bool TransportServer::ReleaseHeld(Shard& shard, Connection& conn) {
  const bool released =
      conn.out.Release(*conn.instance->options().persistence);
  if (!conn.out.has_held()) {
    conn.parked = false;
    std::erase(shard.parked, conn.fd);
    if (shard.parked.empty()) shard.awaiting_durable.store(false);
  }
  return released;
}

void TransportServer::ReleaseParked(Shard& shard, bool draining) {
  // A copy: ReleaseHeld and CloseConnection unpark as they go.
  const std::vector<int> parked = shard.parked;
  for (int fd : parked) {
    Connection& conn = *shard.connections.at(fd);
    if (!ReleaseHeld(shard, conn)) continue;
    bool alive = FlushWrites(shard, conn);
    if (alive && draining && !conn.has_pending_writes()) alive = false;
    if (!alive) CloseConnection(shard, fd);
  }
}

bool TransportServer::FlushWrites(Shard& shard, Connection& conn) {
  // Held replies never leave early, and a connection with nothing ready
  // keeps EPOLLOUT off: the level-triggered loop would spin on it.
  if (!conn.out.has_ready()) {
    shard.poller.Update(conn.fd, /*want_write=*/false);
    return true;
  }
  shard.flush_calls.fetch_add(1, std::memory_order_relaxed);
  while (conn.out.has_ready()) {
    struct iovec iov[32];
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = conn.out.Gather(iov, 32);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      shard.sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
      shard.frames_flushed.fetch_add(
          conn.out.Consume(static_cast<size_t>(n)),
          std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      shard.poller.Update(conn.fd, /*want_write=*/true);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  shard.poller.Update(conn.fd, /*want_write=*/false);
  return true;
}

void TransportServer::CloseConnection(Shard& shard, int fd) {
  shard.poller.Remove(fd);
  ::close(fd);
  shard.connections.erase(fd);
  if (std::erase(shard.parked, fd) > 0 && shard.parked.empty()) {
    shard.awaiting_durable.store(false);
  }
}

// ---- Request dispatch -------------------------------------------------------

/// Appends a response frame for a plain Status outcome.
void TransportServer::RespondStatus(OutQueue& out, const Status& s) {
  std::string body;
  if (!s.ok() && !s.message().empty()) wire::PutBlob(body, s.message());
  out.PushFrame(static_cast<uint8_t>(s.code()), body);
}

template <wire::Op op, typename Handler>
void TransportServer::Dispatch(OutQueue& out, std::string_view body,
                               Handler&& handle) {
  const Status s = wire::Serve<op>(
      body, std::forward<Handler>(handle), [&out](auto& value) {
        // The first value in a response rides as its own iovec piece, so
        // its bytes are never copied into a contiguous response buffer.
        wire::SplitBody b = wire::EncodeResponseSplit<op>(value);
        if (b.split) {
          out.PushPayloadFrame(static_cast<uint8_t>(Code::kOk), b.head,
                               std::move(b.payload), std::move(b.post));
        } else {
          out.PushFrame(static_cast<uint8_t>(Code::kOk), b.head);
        }
      });
  if (!s.ok()) RespondStatus(out, s);
}

void TransportServer::CountProtocolError(Shard& shard,
                                         const Connection& conn) {
  shard.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  if (conn.instance_slot != InstanceRegistry::npos) {
    shard.per_instance_errors[conn.instance_slot].fetch_add(
        1, std::memory_order_relaxed);
  }
}

bool TransportServer::HandleHello(Shard& shard, Connection& conn,
                                  std::string_view body) {
  wire::Reader r(body);
  uint32_t version = 0;
  if (!r.GetU32(&version)) return false;
  if (version < wire::kMinProtocolVersion ||
      version > wire::kProtocolVersion) {
    RespondStatus(conn.out,
                  Status(Code::kInvalidArgument,
                         "protocol version mismatch: server speaks " +
                             std::to_string(wire::kMinProtocolVersion) +
                             ".." +
                             std::to_string(wire::kProtocolVersion)));
    // Answer, then drop: FlushWrites runs before the close in ReadReady's
    // caller only on true returns, so flush here explicitly.
    FlushWrites(shard, conn);
    return false;
  }

  // v1 ends after the version; v2 appends the target instance id.
  InstanceId requested = wire::kAnyInstance;
  if (version >= 2) {
    uint32_t id = 0;
    if (!r.GetU32(&id)) return false;
    requested = id;
  }
  if (!r.Done()) return false;

  CacheInstance* instance = requested == wire::kAnyInstance
                                ? registry_.default_instance()
                                : registry_.Find(requested);
  InstanceId bound = wire::kAnyInstance;
  if (instance != nullptr) {
    conn.instance = instance;
    conn.bound_id = bound = instance->id();
    conn.instance_slot = registry_.IndexOf(bound);
    conn.instance_options = registry_.FindOptions(bound);
  } else if (requested != wire::kAnyInstance || !registry_.empty() ||
             options_.control == nullptr) {
    // Fail the handshake cleanly: tell the client which id was refused,
    // then close — a client configured for a fragment group this server
    // does not host must not silently talk to the wrong instance.
    RespondStatus(conn.out,
                  Status(Code::kWrongInstance,
                         "instance " + std::to_string(requested) +
                             " is not hosted by this server"));
    FlushWrites(shard, conn);
    return false;
  }
  // A coordinator-only server's handshake succeeds unbound: control ops
  // work; data ops answer kUnavailable.
  conn.hello_done = true;
  std::string resp;
  wire::PutU32(resp, version);
  wire::PutU32(resp, bound);
  conn.out.PushFrame(static_cast<uint8_t>(Code::kOk), resp);
  return true;
}

bool TransportServer::HandleFrame(Shard& shard, Connection& conn,
                                  uint8_t op_byte, std::string_view body) {
  shard.frames_handled.fetch_add(1, std::memory_order_relaxed);
  if (conn.instance_slot != InstanceRegistry::npos) {
    shard.per_instance_frames[conn.instance_slot].fetch_add(
        1, std::memory_order_relaxed);
  }
  const wire::OpRow* row = wire::FindOp(op_byte);
  if (row == nullptr) return false;
  const wire::Op op = static_cast<wire::Op>(op_byte);

  // The handshake must come first, and exactly once.
  if (!conn.hello_done) {
    return op == wire::Op::kHello && HandleHello(shard, conn, body);
  }
  if (op == wire::Op::kHello) return false;
  if (row->scope == wire::Scope::kControl) {
    HandleControlOp(conn, op, body);
    return true;
  }
  // A coordinator-only server (empty registry) binds no instance: session
  // ops still work; instance ops are answered kUnavailable rather than
  // dereferencing a null instance.
  if (row->scope == wire::Scope::kInstance && conn.instance == nullptr) {
    RespondStatus(conn.out,
                  Status(Code::kUnavailable,
                         "no instance bound (coordinator-only server)"));
    return true;
  }

  // The op's eager WAL records are not waited for here: the scope collects
  // their LSN and the reply is held until it is durable, while the loop
  // goes on serving this and every other connection.
  EagerScope eager;
  ServeOp(shard, conn, op, body);
  if (eager.lsn() != 0) HoldReply(shard, conn, eager.lsn());
  return true;
}

void TransportServer::ServeOp(Shard& shard, Connection& conn, wire::Op op,
                              std::string_view body) {
  using wire::Op;
  using std::bind_front;
  CacheInstance* const in = conn.instance;
  OutQueue& out = conn.out;
  switch (op) {
    case Op::kHello:
    case Op::kCoordRegister:
    case Op::kCoordHeartbeat:
    case Op::kCoordConfigGet:
    case Op::kCoordConfigWatch:
    case Op::kCoordReport:
    case Op::kCoordDirtyQuery:
    case Op::kCoordShadowSync:
      return;  // routed by HandleFrame
    case Op::kPing:
      return Dispatch<Op::kPing>(out, body, [] { return Status::Ok(); });
    case Op::kInstanceList:
      return Dispatch<Op::kInstanceList>(out, body,
                                         [&] { return registry_.ids(); });
    case Op::kGet:
      return Dispatch<Op::kGet>(out, body, bind_front(&CacheInstance::Get, in));
    case Op::kSet:
      return Dispatch<Op::kSet>(out, body, bind_front(&CacheInstance::Set, in));
    case Op::kDelete:
      return Dispatch<Op::kDelete>(out, body,
                                   bind_front(&CacheInstance::Delete, in));
    case Op::kCas:
      return Dispatch<Op::kCas>(out, body, bind_front(&CacheInstance::Cas, in));
    case Op::kAppend:
      return Dispatch<Op::kAppend>(out, body,
                                   bind_front(&CacheInstance::Append, in));
    case Op::kMultiSet:
      return Dispatch<Op::kMultiSet>(
          out, body, [in](std::vector<wire::SetEntry> batch) {
            return ApplyEach(batch, bind_front(&CacheInstance::Set, in));
          });
    case Op::kMultiDelete:
      return Dispatch<Op::kMultiDelete>(
          out, body, [in](std::vector<wire::DeleteEntry> batch) {
            return ApplyEach(batch, bind_front(&CacheInstance::Delete, in));
          });
    case Op::kIqGet:
      return Dispatch<Op::kIqGet>(out, body,
                                  bind_front(&CacheInstance::IqGet, in));
    case Op::kIqSet:
      return Dispatch<Op::kIqSet>(
          out, body, [in](OpContext ctx, wire::Key key, LeaseToken token,
                          CacheValue value) {
            return in->IqSet(ctx, key, std::move(value), token);
          });
    case Op::kQareg:
      return Dispatch<Op::kQareg>(out, body,
                                  bind_front(&CacheInstance::Qareg, in));
    case Op::kDar:
      return Dispatch<Op::kDar>(out, body, bind_front(&CacheInstance::Dar, in));
    case Op::kRar:
      return Dispatch<Op::kRar>(
          out, body, [in](OpContext ctx, wire::Key key, LeaseToken token,
                          CacheValue value) {
            return in->Rar(ctx, key, std::move(value), token);
          });
    case Op::kISet:
      return Dispatch<Op::kISet>(out, body,
                                 bind_front(&CacheInstance::ISet, in));
    case Op::kIDelete:
      return Dispatch<Op::kIDelete>(out, body,
                                    bind_front(&CacheInstance::IDelete, in));
    case Op::kWriteBackInstall:
      // Retired (docs/PROTOCOL.md §10.3): no op could flush what it
      // installed, so it only validates its body and refuses.
      return Dispatch<Op::kWriteBackInstall>(
          out, body, [](OpContext, wire::Key, LeaseToken, CacheValue) {
            return Status(Code::kInvalidArgument,
                          "write-back is not supported");
          });
    case Op::kRedAcquire:
      return Dispatch<Op::kRedAcquire>(
          out, body, bind_front(&CacheInstance::AcquireRed, in));
    case Op::kRedRelease:
      return Dispatch<Op::kRedRelease>(
          out, body, bind_front(&CacheInstance::ReleaseRed, in));
    case Op::kRedRenew:
      return Dispatch<Op::kRedRenew>(out, body,
                                     bind_front(&CacheInstance::RenewRed, in));
    case Op::kDirtyListGet:
      return Dispatch<Op::kDirtyListGet>(
          out, body, [in](ConfigId config_id, FragmentId fragment) {
            return in->Get({config_id, kInvalidFragment},
                           DirtyListKey(fragment));
          });
    case Op::kDirtyListAppend:
      return Dispatch<Op::kDirtyListAppend>(
          out, body,
          [in](ConfigId config_id, FragmentId fragment, wire::Blob record) {
            return in->Append({config_id, kInvalidFragment},
                              DirtyListKey(fragment), record);
          });
    case Op::kWorkingSetScan:
      return Dispatch<Op::kWorkingSetScan>(
          out, body, bind_front(&ScanPage, std::ref(shard), in));
    case Op::kConfigIdGet:
      return Dispatch<Op::kConfigIdGet>(
          out, body, [in] { return in->latest_config_id(); });
    case Op::kConfigIdBump:
      return Dispatch<Op::kConfigIdBump>(
          out, body, bind_front(&CacheInstance::ObserveConfigId, in));
    case Op::kSnapshot:
      // Retired (docs/PROTOCOL.md §10.3): durability is the WAL engine's
      // job, so the op only validates its body and refuses.
      return Dispatch<Op::kSnapshot>(out, body, [](wire::Blob) {
        return Status(Code::kInvalidArgument, "no snapshot path configured");
      });
    case Op::kStats:
      return Dispatch<Op::kStats>(out, body, [&] { return StatsRows(conn); });
    case Op::kLeaseGrant:
      // Lifetimes cross the wire as TTLs; the expiry is computed in this
      // instance's own clock domain (docs/PROTOCOL.md §12.3), saturating
      // instead of overflowing on a hostile TTL.
      return Dispatch<Op::kLeaseGrant>(
          out, body,
          [in](FragmentId fragment, ConfigId min_valid, uint64_t ttl_us,
               ConfigId latest) {
            const Timestamp now = in->clock().Now();
            const uint64_t room = static_cast<uint64_t>(
                std::numeric_limits<Timestamp>::max() - now);
            return in->GrantFragmentLease(
                fragment, min_valid,
                now + static_cast<Duration>(std::min(ttl_us, room)), latest);
          });
    case Op::kLeaseRevoke:
      return Dispatch<Op::kLeaseRevoke>(
          out, body, bind_front(&CacheInstance::RevokeFragmentLease, in));
  }
}

Result<WorkingSetPage> TransportServer::ScanPage(Shard& shard,
                                                 CacheInstance* instance,
                                                 const OpContext& ctx,
                                                 uint32_t num_fragments,
                                                 uint64_t cursor,
                                                 uint32_t max_keys) {
  // Bound the page so a hostile max_keys cannot make the response outgrow
  // kMaxFrameLen (worst case ~64KiB keys each): the scanner clamps, the
  // client just sees a smaller page and more cursors.
  constexpr uint32_t kMaxScanPage = 64 * 1024;
  Result<WorkingSetPage> page = instance->WorkingSetScan(
      ctx, num_fragments, cursor, std::min(max_keys, kMaxScanPage));
  if (!page.ok()) return page;
  uint64_t page_bytes = 0;
  for (const WorkingSetItem& item : page->items) {
    page_bytes += item.charged_bytes;
  }
  shard.ws_scan_pages.fetch_add(1, std::memory_order_relaxed);
  shard.ws_scan_keys.fetch_add(page->items.size(), std::memory_order_relaxed);
  shard.ws_scan_bytes.fetch_add(page_bytes, std::memory_order_relaxed);
  return page;
}

void TransportServer::HandleControlOp(Connection& conn, wire::Op op,
                                      std::string_view body) {
  if (options_.control == nullptr) {
    RespondStatus(conn.out,
                  Status(Code::kInvalidArgument,
                         "this server is not a coordinator"));
    return;
  }
  ControlPlane::Reply reply = options_.control->HandleControl(op, body);
  if (reply.subscribe) conn.config_subscriber = true;
  if (reply.status.ok()) {
    conn.out.PushFrame(static_cast<uint8_t>(Code::kOk), reply.body);
  } else {
    RespondStatus(conn.out, reply.status);
  }
}

std::vector<std::pair<std::string, uint64_t>> TransportServer::StatsRows(
    const Connection& conn) const {
  std::vector<std::pair<std::string, uint64_t>> kv;
  const Stats server = stats();
  kv.emplace_back("server.connections_accepted", server.connections_accepted);
  kv.emplace_back("server.frames_handled", server.frames_handled);
  kv.emplace_back("server.protocol_errors", server.protocol_errors);
  kv.emplace_back("server.connections_reaped", server.connections_reaped);
  kv.emplace_back("server.accept_errors", server.accept_errors);
  // Data-plane flush efficiency: sendmsg_calls counts actual syscalls,
  // frames_per_flush shows how much coalescing the gathered writes achieve.
  kv.emplace_back("transport.sendmsg_calls", server.sendmsg_calls);
  kv.emplace_back("transport.flush_calls", server.flush_calls);
  kv.emplace_back("transport.frames_flushed", server.frames_flushed);
  kv.emplace_back("transport.frames_per_flush",
                  server.flush_calls > 0
                      ? server.frames_flushed / server.flush_calls
                      : 0);
  // Working-set transfer progress as seen from this server (the scan side;
  // the pulling worker keeps its own install-side counters).
  kv.emplace_back("recovery.scan_pages", server.ws_scan_pages);
  kv.emplace_back("recovery.scan_keys", server.ws_scan_keys);
  kv.emplace_back("recovery.scan_bytes", server.ws_scan_bytes);
  // Control-plane counters (cluster.*) when a coordinator is attached.
  if (options_.control != nullptr) {
    for (auto& [name, value] : options_.control->ExtraStats()) {
      kv.emplace_back(name, value);
    }
  }
  if (conn.instance != nullptr) {
    const auto it = server.per_instance.find(conn.bound_id);
    if (it != server.per_instance.end()) {
      kv.emplace_back("instance.frames_handled", it->second.frames_handled);
      kv.emplace_back("instance.protocol_errors", it->second.protocol_errors);
    }
    const CacheInstance::Stats cache = conn.instance->stats();
    kv.emplace_back("cache.hits", cache.hits);
    kv.emplace_back("cache.misses", cache.misses);
    kv.emplace_back("cache.inserts", cache.inserts);
    kv.emplace_back("cache.deletes", cache.deletes);
    kv.emplace_back("cache.evictions", cache.evictions);
    kv.emplace_back("cache.config_discards", cache.config_discards);
    kv.emplace_back("cache.used_bytes", cache.used_bytes);
    kv.emplace_back("cache.entry_count", cache.entry_count);
    if (conn.instance_options != nullptr &&
        conn.instance_options->extra_stats != nullptr) {
      for (auto& [name, value] : conn.instance_options->extra_stats()) {
        kv.emplace_back(name, value);
      }
    }
  }
  return kv;
}

}  // namespace gemini
