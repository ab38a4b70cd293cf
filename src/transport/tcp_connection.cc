#include "src/transport/tcp_connection.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace gemini {

namespace {

Status SocketError(const char* what) {
  return Status(Code::kUnavailable,
                std::string(what) + ": " + std::strerror(errno));
}

void SetTimeout(int fd, int optname, Duration d) {
  if (d <= 0) return;
  struct timeval tv;
  tv.tv_sec = d / kSecond;
  tv.tv_usec = d % kSecond;
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

Status SendAllFd(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return SocketError("send");
  }
  return Status::Ok();
}

/// Sends every queued frame in gathered bursts: an iovec per frame feeds
/// sendmsg(2), so write coalescing costs no memcpy into a contiguous
/// buffer. Partial writes advance an offset into the chain and resend the
/// remainder.
Status SendFramesFd(int fd, const std::deque<std::string>& frames) {
  constexpr size_t kMaxIov = 64;
  size_t idx = 0;     // first frame not yet fully sent
  size_t offset = 0;  // bytes of frames[idx] already sent
  while (idx < frames.size()) {
    struct iovec iov[kMaxIov];
    size_t n = 0;
    for (size_t i = idx; i < frames.size() && n < kMaxIov; ++i) {
      const std::string& f = frames[i];
      const size_t skip = i == idx ? offset : 0;
      iov[n].iov_base = const_cast<char*>(f.data()) + skip;
      iov[n].iov_len = f.size() - skip;
      ++n;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return SocketError("sendmsg");
    }
    size_t remaining = static_cast<size_t>(sent);
    while (idx < frames.size()) {
      const size_t left = frames[idx].size() - offset;
      if (remaining < left) {
        offset += remaining;
        break;
      }
      remaining -= left;
      offset = 0;
      ++idx;
    }
  }
  return Status::Ok();
}

/// Reads from `fd` into `buf` until one full frame is decodable; outputs its
/// tag and body and erases the consumed bytes. Used only for the synchronous
/// HELLO exchange, before the connection's reader thread owns the stream.
Status ReadFrameFd(int fd, std::string& buf, uint8_t* tag, std::string* body) {
  char chunk[64 * 1024];
  for (;;) {
    size_t consumed = 0;
    std::string_view view;
    const wire::DecodeResult r = wire::DecodeFrame(buf, &consumed, tag, &view);
    if (r == wire::DecodeResult::kFrame) {
      body->assign(view);
      buf.erase(0, consumed);
      return Status::Ok();
    }
    if (r == wire::DecodeResult::kMalformed) {
      return Status(Code::kInternal, "malformed response frame");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status(Code::kUnavailable, "server closed connection");
    return SocketError("recv");
  }
}

/// Decodes a non-ok response body's optional message blob.
Status StatusFromError(Code code, std::string_view body) {
  std::string message;
  if (wire::Decode<wire::Blob>(body, &message) && !message.empty()) {
    return Status(code, std::move(message));
  }
  return Status(code);
}

}  // namespace

TcpConnection::Socket::~Socket() {
  if (fd >= 0) ::close(fd);
}

void TcpConnection::Socket::ShutdownBoth() const {
  ::shutdown(fd, SHUT_RDWR);
}

TcpConnection::TcpConnection(std::string host, uint16_t port,
                             InstanceId target_instance, Options options)
    : host_(std::move(host)),
      port_(port),
      target_instance_(target_instance),
      options_(options) {}

TcpConnection::~TcpConnection() {
  std::deque<Completion> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    victims = TearLocked();
  }
  FailAll(victims, "connection destroyed");
  if (writer_.joinable()) writer_.join();
  if (reader_.joinable()) reader_.join();
}

std::shared_ptr<TcpConnection> TcpConnection::Acquire(
    const std::string& host, uint16_t port, InstanceId target_instance,
    const Options& options) {
  static std::mutex pool_mu;
  static std::unordered_map<std::string, std::weak_ptr<TcpConnection>>* pool =
      new std::unordered_map<std::string, std::weak_ptr<TcpConnection>>();

  const std::string key =
      host + ":" + std::to_string(port) + "#" + std::to_string(target_instance);
  std::lock_guard<std::mutex> lock(pool_mu);
  // Prune dead entries so ephemeral test servers don't accumulate.
  for (auto it = pool->begin(); it != pool->end();) {
    it = it->second.expired() ? pool->erase(it) : std::next(it);
  }
  if (auto existing = (*pool)[key].lock()) return existing;
  auto conn =
      std::make_shared<TcpConnection>(host, port, target_instance, options);
  (*pool)[key] = conn;
  return conn;
}

bool TcpConnection::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sock_ != nullptr;
}

InstanceId TcpConnection::remote_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remote_id_;
}

Status TcpConnection::Connect() {
  std::lock_guard<std::mutex> lock(mu_);
  return ConnectLocked();
}

void TcpConnection::Disconnect() {
  std::deque<Completion> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims = TearLocked();
  }
  FailAll(victims, "disconnected");
}

std::deque<TcpConnection::Completion> TcpConnection::TearLocked() {
  if (sock_ != nullptr) {
    // Shutdown (not close) interrupts any thread blocked in send/recv; the
    // fd itself is closed when the last Socket reference drops, so a thread
    // still holding the epoch can never race fd-number reuse.
    sock_->ShutdownBoth();
    sock_.reset();
  }
  send_queue_.clear();
  std::deque<Completion> victims;
  victims.swap(inflight_);
  writer_cv_.notify_all();
  reader_cv_.notify_all();
  window_cv_.notify_all();
  return victims;
}

void TcpConnection::FailAll(std::deque<Completion>& victims,
                            const std::string& why) {
  for (auto& done : victims) done(Status(Code::kUnavailable, why), {});
  victims.clear();
}

TcpConnection::BreakerState TcpConnection::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (consecutive_dial_failures_ < options_.breaker_failure_threshold) {
    return BreakerState::kClosed;
  }
  return SystemClock::Global().Now() < breaker_open_until_
             ? BreakerState::kOpen
             : BreakerState::kHalfOpen;
}

Status TcpConnection::ConnectLocked() {
  if (sock_ != nullptr) return Status::Ok();

  // Circuit breaker: while open, fail fast — no dial, no connect_timeout.
  // Once the cooldown passes, exactly one caller (mu_ serializes us) runs
  // the half-open probe dial below; success closes the breaker, failure
  // re-opens it for another cooldown.
  if (consecutive_dial_failures_ >= options_.breaker_failure_threshold &&
      SystemClock::Global().Now() < breaker_open_until_) {
    return Status(Code::kUnavailable,
                  "circuit breaker open for " + host_ + ":" +
                      std::to_string(port_) + " after " +
                      std::to_string(consecutive_dial_failures_) +
                      " consecutive dial failures");
  }

  Status s = DialLocked();
  if (s.ok()) {
    consecutive_dial_failures_ = 0;
  } else if (s.code() == Code::kUnavailable) {
    // Only transport-level failures trip the breaker; kWrongInstance and
    // protocol mismatches are configuration errors the caller must see
    // verbatim every time.
    ++consecutive_dial_failures_;
    breaker_open_until_ =
        SystemClock::Global().Now() + options_.breaker_cooldown;
  }
  return s;
}

Status TcpConnection::DialLocked() {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port_);
  if (::getaddrinfo(host_.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status(Code::kUnavailable, "cannot resolve " + host_);
  }

  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return SocketError("socket");
  }

  // Non-blocking connect with a poll()-based timeout, then back to blocking
  // with per-call IO timeouts.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return SocketError("connect");
  }
  if (rc != 0) {
    struct pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        static_cast<int>(options_.connect_timeout / kMillisecond);
    rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Status(Code::kUnavailable,
                    "connect to " + host_ + ":" + port_str +
                        (rc <= 0 ? " timed out" : " refused"));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetTimeout(fd, SO_RCVTIMEO, options_.io_timeout);
  SetTimeout(fd, SO_SNDTIMEO, options_.io_timeout);

  // HELLO: version exchange + instance selection, run synchronously on this
  // thread *before* the epoch is published — the reader and writer threads
  // never see handshake bytes. kAnyInstance asks for the server's default
  // (what a v1 client would have gotten).
  std::string body;
  wire::PutU32(body, wire::kProtocolVersion);
  wire::PutU32(body, target_instance_);
  std::string frame;
  wire::AppendRequest(frame, wire::Op::kHello, body);
  std::string stream;
  uint8_t tag = 0;
  std::string resp;
  Status s = SendAllFd(fd, frame);
  if (s.ok()) s = ReadFrameFd(fd, stream, &tag, &resp);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  if (const Code code = wire::CodeFromWire(tag); code != Code::kOk) {
    ::close(fd);
    Status err = StatusFromError(code, resp);
    if (code == Code::kInvalidArgument) {
      return Status(Code::kInternal, "protocol version rejected by server: " +
                                         err.message());
    }
    // kWrongInstance (the server does not host the target) and transport
    // errors pass through untouched.
    return err;
  }
  wire::Reader r(resp);
  uint32_t version = 0, instance_id = 0;
  if (!r.GetU32(&version) || !r.GetU32(&instance_id) || !r.Done() ||
      version != wire::kProtocolVersion) {
    ::close(fd);
    return Status(Code::kInternal, "malformed HELLO response");
  }
  if (target_instance_ != wire::kAnyInstance &&
      instance_id != target_instance_) {
    ::close(fd);
    return Status(Code::kWrongInstance,
                  "server bound instance " + std::to_string(instance_id) +
                      ", wanted " + std::to_string(target_instance_));
  }
  remote_id_ = instance_id;
  sock_ = std::make_shared<Socket>(fd);
  sock_->recv_buf = std::move(stream);  // bytes the server sent past HELLO
  if (!threads_started_) {
    threads_started_ = true;
    writer_ = std::thread(&TcpConnection::WriterLoop, this);
    reader_ = std::thread(&TcpConnection::ReaderLoop, this);
  }
  // A push-interested reader starts pumping the fresh epoch immediately,
  // without waiting for the next request.
  if (push_interest_) reader_cv_.notify_one();
  return Status::Ok();
}

void TcpConnection::SubmitAsync(wire::Op op, std::string_view body,
                                Completion done) {
  Submit(op, body, std::move(done), nullptr);
}

void TcpConnection::Submit(wire::Op op, std::string_view body,
                           Completion done,
                           std::optional<std::shared_ptr<Socket>>* pin) {
  const size_t window = std::max<size_t>(1, options_.max_inflight);
  std::unique_lock<std::mutex> lock(mu_);
  if (pin != nullptr && pin->has_value()) {
    // A later request of a burst: it rides the burst's epoch or fails.
    // Redialing here would split one burst across two connections.
    if (**pin == nullptr || sock_ != **pin) {
      lock.unlock();
      done(Status(Code::kUnavailable, "connection dropped mid-burst"), {});
      return;
    }
  } else if (Status s = ConnectLocked(); !s.ok()) {
    if (pin != nullptr) *pin = nullptr;
    lock.unlock();
    done(std::move(s), {});
    return;
  }
  // Backpressure: wait for a window slot on *this* epoch. A teardown while
  // we wait (sock_ changed or cleared) fails the request instead of silently
  // enqueuing onto a different connection.
  const std::shared_ptr<Socket> sock = sock_;
  if (pin != nullptr) *pin = sock;
  window_cv_.wait(lock, [&] {
    return shutdown_ || sock_ != sock || inflight_.size() < window;
  });
  if (shutdown_ || sock_ != sock) {
    lock.unlock();
    done(Status(Code::kUnavailable, "connection dropped"), {});
    return;
  }
  std::string frame;
  wire::AppendRequest(frame, op, body);
  send_queue_.push_back(std::move(frame));
  inflight_.push_back(std::move(done));
  writer_cv_.notify_one();
  reader_cv_.notify_one();
}

void TcpConnection::AddPushHandler(PushHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = push_handlers_ != nullptr
                  ? std::make_shared<std::vector<PushHandler>>(*push_handlers_)
                  : std::make_shared<std::vector<PushHandler>>();
  next->push_back(std::move(handler));
  push_handlers_ = std::move(next);
  push_interest_ = true;
  reader_cv_.notify_one();
}

void TcpConnection::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    writer_cv_.wait(lock, [&] {
      return shutdown_ || (sock_ != nullptr && !send_queue_.empty());
    });
    if (shutdown_) return;
    const std::shared_ptr<Socket> sock = sock_;
    // Write coalescing, zero-copy: take every frame queued since the last
    // wakeup and push the whole set through one gathered sendmsg(2) — under
    // load, many small frames ride one syscall (and one TCP segment, with
    // TCP_NODELAY) without ever being memcpy'd into a contiguous buffer.
    std::deque<std::string> out;
    out.swap(send_queue_);
    lock.unlock();
    const Status s = SendFramesFd(sock->fd, out);
    lock.lock();
    if (!s.ok() && sock_ == sock) {
      auto victims = TearLocked();
      lock.unlock();
      FailAll(victims, s.message());
      lock.lock();
    }
  }
}

void TcpConnection::ReaderLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    reader_cv_.wait(lock, [&] {
      return shutdown_ ||
             (sock_ != nullptr && (!inflight_.empty() || push_interest_));
    });
    if (shutdown_) return;
    const std::shared_ptr<Socket> sock = sock_;
    // Drain responses while this epoch stays current and requests are in
    // flight. Responses match requests by position (FIFO per connection,
    // docs/PROTOCOL.md §10.6). Under push interest the reader keeps pumping
    // even with an empty window, so unsolicited frames arrive promptly.
    while (!shutdown_ && sock_ == sock &&
           (!inflight_.empty() || push_interest_)) {
      size_t consumed = 0;
      uint8_t tag = 0;
      std::string_view view;
      const wire::DecodeResult r =
          wire::DecodeFrame(sock->recv_buf, &consumed, &tag, &view);
      if (r == wire::DecodeResult::kFrame) {
        std::string body(view);
        sock->recv_buf.erase(0, consumed);
        if (wire::IsPushTag(tag)) {
          // Unsolicited server push: route out of band; the response FIFO
          // is untouched.
          const auto handlers = push_handlers_;
          lock.unlock();
          if (handlers != nullptr) {
            for (const PushHandler& h : *handlers) h(tag, body);
          }
          lock.lock();
          continue;
        }
        if (inflight_.empty()) {
          // A response-tagged frame with nothing in flight (only reachable
          // in push-interest mode): the server desynced; drop the
          // connection rather than mis-match a future request.
          auto victims = TearLocked();
          lock.unlock();
          FailAll(victims, "unsolicited response frame");
          lock.lock();
          break;
        }
        Completion done = std::move(inflight_.front());
        inflight_.pop_front();
        window_cv_.notify_one();
        lock.unlock();
        CompleteFromFrame(done, tag, std::move(body));
        lock.lock();
        continue;
      }
      if (r == wire::DecodeResult::kMalformed) {
        // The stream is unparseable; attribute the malformed frame to the
        // oldest in-flight request and drop everything behind it.
        auto victims = TearLocked();
        lock.unlock();
        if (!victims.empty()) {
          Completion first = std::move(victims.front());
          victims.pop_front();
          first(Status(Code::kInternal, "malformed response frame"), {});
        }
        FailAll(victims, "connection dropped after malformed frame");
        lock.lock();
        break;
      }
      // kNeedMore: block in recv with the lock released so submitters and
      // Disconnect() stay unblocked; ShutdownBoth() interrupts the call.
      lock.unlock();
      char chunk[64 * 1024];
      const ssize_t n = ::recv(sock->fd, chunk, sizeof(chunk), 0);
      const int recv_errno = errno;
      lock.lock();
      if (sock_ != sock) break;  // torn down while we were blocked
      if (n > 0) {
        sock->recv_buf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && recv_errno == EINTR) continue;
      if (n < 0 && (recv_errno == EAGAIN || recv_errno == EWOULDBLOCK) &&
          inflight_.empty()) {
        // Idle push-interest poll: SO_RCVTIMEO expired with no response
        // owed and no partial frame at risk — keep listening.
        continue;
      }
      errno = recv_errno;
      Status err;
      if (n == 0) {
        err = Status(Code::kUnavailable, "server closed connection");
      } else if (recv_errno == EAGAIN || recv_errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired with responses outstanding — possibly mid-
        // frame (partial bytes buffered). The reader cannot tell a stalled
        // peer from a dead one, and resuming this stream later would
        // desync the FIFO, so the timeout is connection-fatal: fail the
        // whole in-flight window and force a redial.
        err = Status(Code::kUnavailable,
                     "recv timed out awaiting response (" +
                         std::to_string(sock->recv_buf.size()) +
                         " bytes of a frame buffered); dropping connection");
      } else {
        err = SocketError("recv");
      }
      auto victims = TearLocked();
      lock.unlock();
      FailAll(victims, err.message());
      lock.lock();
      break;
    }
  }
}

void TcpConnection::CompleteFromFrame(const Completion& done, uint8_t tag,
                                      std::string body) {
  const Code code = wire::CodeFromWire(tag);
  if (code == Code::kOk) {
    done(Status::Ok(), std::move(body));
    return;
  }
  done(StatusFromError(code, body), {});
}

Status TcpConnection::Transact(wire::Op op, std::string_view body,
                               std::string* resp_body) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::Ok();
    std::string body;
  } w;
  SubmitAsync(op, body, [&w](Status s, std::string b) {
    std::lock_guard<std::mutex> lk(w.mu);
    w.status = std::move(s);
    w.body = std::move(b);
    w.done = true;
    w.cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(w.mu);
  w.cv.wait(lk, [&] { return w.done; });
  if (resp_body != nullptr) *resp_body = std::move(w.body);
  return w.status;
}

std::vector<TcpConnection::BatchResponse> TcpConnection::TransactBatch(
    const std::vector<BatchRequest>& reqs) {
  std::vector<BatchResponse> out(reqs.size());
  if (reqs.empty()) return out;
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = reqs.size();
  std::optional<std::shared_ptr<Socket>> epoch;
  for (size_t i = 0; i < reqs.size(); ++i) {
    // Submissions past the window block until earlier responses free slots,
    // so arbitrarily large batches stream through without growing the queue.
    Submit(reqs[i].op, reqs[i].body,
           [&, i](Status s, std::string b) {
             std::lock_guard<std::mutex> lk(mu);
             out[i].status = std::move(s);
             out[i].body = std::move(b);
             if (--pending == 0) cv.notify_one();
           },
           &epoch);
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return pending == 0; });
  return out;
}

}  // namespace gemini
