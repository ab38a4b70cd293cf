// Pipelined-transport tests: window backpressure, write coalescing under
// concurrent submitters, FIFO response matching, batched MultiGet, and the
// failure half of the contract — a mid-pipeline connection loss fails every
// in-flight request with kUnavailable, Disconnect() interrupts blocked I/O
// promptly, and an auto-reconnect never mismatches requests and responses
// across sockets.
//
// Two servers appear here: the real TransportServer (the geminid event
// loop) for end-to-end behaviour, and StallServer — a hand-rolled wire
// speaker that answers HELLO and then releases responses only when told to
// — for the timing-sensitive cases (a real server answers too fast to hold
// a window full).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/clock.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using std::chrono::steady_clock;

const OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

/// Polls `cond` for up to `deadline_ms`; true when it became true.
template <typename Cond>
bool WaitFor(Cond cond, int deadline_ms = 5000) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// ---- StallServer: a wire speaker with a hand brake on its responses --------

class StallServer {
 public:
  StallServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    // A short accept/recv timeout doubles as the control-flag poll interval.
    timeval tv{0, 50 * 1000};
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    thread_ = std::thread(&StallServer::Run, this);
  }

  ~StallServer() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  [[nodiscard]] uint16_t port() const { return port_; }

  [[nodiscard]] size_t requests_seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_seen_;
  }

  /// Releases `n` queued responses (each an empty kOk frame).
  void AllowResponses(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    allowed_ += n;
  }

  /// Drops the accepted connection (the mid-pipeline kill).
  void CloseClient() {
    std::lock_guard<std::mutex> lock(mu_);
    close_client_ = true;
  }

 private:
  void Run() {
    while (!stop_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) continue;
      timeval tv{0, 50 * 1000};
      ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ServeClient(cfd);
      ::close(cfd);
      std::lock_guard<std::mutex> lock(mu_);
      close_client_ = false;
    }
  }

  void ServeClient(int cfd) {
    std::string buf;
    bool saw_hello = false;
    while (!stop_.load()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (close_client_) return;
        while (allowed_ > 0 && pending_ > 0) {
          std::string out;
          wire::AppendResponse(out, Code::kOk, {});
          (void)::send(cfd, out.data(), out.size(), MSG_NOSIGNAL);
          --allowed_;
          --pending_;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(cfd, chunk, sizeof(chunk), 0);
      if (n == 0) return;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // timeout tick: re-check the control flags
        }
        return;
      }
      buf.append(chunk, static_cast<size_t>(n));
      for (;;) {
        size_t consumed = 0;
        uint8_t tag = 0;
        std::string_view body;
        if (wire::DecodeFrame(buf, &consumed, &tag, &body) !=
            wire::DecodeResult::kFrame) {
          break;
        }
        if (!saw_hello) {
          saw_hello = true;
          wire::Reader r(body);
          uint32_t version = 0;
          ASSERT_TRUE(r.GetU32(&version));
          std::string hello;
          wire::PutU32(hello, version);
          wire::PutU32(hello, 0);  // instance id
          std::string out;
          wire::AppendResponse(out, Code::kOk, hello);
          (void)::send(cfd, out.data(), out.size(), MSG_NOSIGNAL);
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          ++requests_seen_;
          ++pending_;
        }
        buf.erase(0, consumed);
      }
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  size_t requests_seen_ = 0;
  size_t pending_ = 0;
  size_t allowed_ = 0;
  bool close_client_ = false;
};

/// A counter for async completions.
struct CompletionLog {
  std::mutex mu;
  std::vector<Status> statuses;

  TcpConnection::Completion Slot() {
    return [this](Status s, std::string) {
      std::lock_guard<std::mutex> lock(mu);
      statuses.push_back(std::move(s));
    };
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return statuses.size();
  }
  size_t CountCode(Code code) {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const Status& s : statuses) n += s.code() == code ? 1 : 0;
    return n;
  }
};

// ---- Window backpressure ---------------------------------------------------

TEST(TransportPipelineTest, WindowBackpressureBlocksExtraSubmitter) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 3;
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  for (int i = 0; i < 3; ++i) {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  }
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 3; }));

  // The window is full: a fourth submitter must block until a slot frees.
  std::atomic<bool> fourth_submitted{false};
  std::thread extra([&] {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
    fourth_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(fourth_submitted.load());
  EXPECT_EQ(server.requests_seen(), 3u);

  server.AllowResponses(1);
  EXPECT_TRUE(WaitFor([&] { return fourth_submitted.load(); }));
  EXPECT_TRUE(WaitFor([&] { return server.requests_seen() == 4; }));

  server.AllowResponses(3);
  EXPECT_TRUE(WaitFor([&] { return log.count() == 4; }));
  EXPECT_EQ(log.CountCode(Code::kOk), 4u);
  extra.join();
}

// ---- Mid-pipeline connection loss ------------------------------------------

TEST(TransportPipelineTest, MidPipelineKillFailsAllInflightThenReconnects) {
  auto server = std::make_unique<StallServer>();
  const uint16_t port = server->port();
  TcpConnection::Options opts;
  opts.max_inflight = 8;
  TcpConnection conn("127.0.0.1", port, wire::kAnyInstance, opts);

  CompletionLog log;
  constexpr size_t kInflight = 5;
  for (size_t i = 0; i < kInflight; ++i) {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  }
  ASSERT_TRUE(WaitFor([&] { return server->requests_seen() == kInflight; }));

  // Kill the server side with all five in flight: every caller must
  // complete with kUnavailable — none may hang, none may see a stray
  // response.
  server->CloseClient();
  ASSERT_TRUE(WaitFor([&] { return log.count() == kInflight; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), kInflight);
  EXPECT_FALSE(conn.connected());

  // Bring a *real* geminid up on the same port; the next calls redial
  // transparently. A fresh socket starts an empty FIFO, so pipelined
  // requests after the reconnect must match their own responses — verify by
  // writing distinct values and reading them back in one burst.
  server->Stop();
  server.reset();
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.port = port;
  TransportServer real(&instance, sopts);
  Status started = Status(Code::kInternal);
  for (int i = 0; i < 100 && !started.ok(); ++i) {
    started = real.Start();
    if (!started.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(started.ok()) << started.ToString();

  constexpr size_t kKeys = 24;  // deliberately wider than the window
  std::vector<TcpConnection::BatchRequest> sets(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    sets[i].op = wire::Op::kSet;
    wire::PutContext(sets[i].body, kInternalCtx);
    wire::PutKey(sets[i].body, "k" + std::to_string(i));
    wire::PutValue(sets[i].body,
                   CacheValue::OfData("v" + std::to_string(i)));
  }
  for (const auto& resp : conn.TransactBatch(sets)) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  std::vector<TcpConnection::BatchRequest> gets(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    gets[i].op = wire::Op::kGet;
    wire::PutContext(gets[i].body, kInternalCtx);
    wire::PutKey(gets[i].body, "k" + std::to_string(i));
  }
  const auto resps = conn.TransactBatch(gets);
  ASSERT_EQ(resps.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(resps[i].status.ok()) << resps[i].status.ToString();
    wire::Reader r(resps[i].body);
    CacheValue value;
    ASSERT_TRUE(r.GetValue(&value) && r.Done());
    EXPECT_EQ(value.data, "v" + std::to_string(i));  // FIFO: no mismatch
  }
  real.Stop();
}

// ---- Disconnect() promptness -----------------------------------------------

TEST(TransportPipelineTest, DisconnectInterruptsBlockedIoPromptly) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 4;
  opts.io_timeout = Seconds(30);  // the old code would block this long
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 2; }));

  // The reader thread is now parked in recv() with no response coming.
  const auto t0 = steady_clock::now();
  conn.Disconnect();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 2000) << "Disconnect blocked behind io_timeout";
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
  EXPECT_FALSE(conn.connected());
}

TEST(TransportPipelineTest, DisconnectFailsSubmitterBlockedOnWindow) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 1;
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 1; }));

  std::atomic<bool> second_submitted{false};
  std::thread blocked([&] {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
    second_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_submitted.load());

  conn.Disconnect();
  EXPECT_TRUE(WaitFor([&] { return second_submitted.load(); }));
  blocked.join();
  // Both the in-flight request and the window-blocked one fail.
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
}

// ---- End-to-end against the real server ------------------------------------

class PipelineE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = std::make_unique<CacheInstance>(0, &clock_);
    server_ = std::make_unique<TransportServer>(instance_.get(),
                                                TransportServer::Options{});
    ASSERT_TRUE(server_->Start().ok());
    backend_ = std::make_unique<TcpCacheBackend>("127.0.0.1", server_->port());
  }

  void TearDown() override {
    backend_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  VirtualClock clock_;
  std::unique_ptr<CacheInstance> instance_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<TcpCacheBackend> backend_;
};

TEST_F(PipelineE2eTest, MultiGetMixesHitsMissesAndLocalErrors) {
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(backend_
                    ->Set(kInternalCtx, "key" + std::to_string(i),
                          CacheValue::OfData("value" + std::to_string(i)))
                    .ok());
  }
  std::vector<GetRequest> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back({kInternalCtx, "key" + std::to_string(i)});
  }
  reqs.push_back({kInternalCtx, std::string(wire::kMaxKeyLen + 1, 'x')});

  auto results = backend_->MultiGet(reqs);
  ASSERT_EQ(results.size(), reqs.size());
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(results[i]->data, "value" + std::to_string(i));
    } else {
      EXPECT_EQ(results[i].code(), Code::kNotFound) << i;
    }
  }
  // The oversized key fails locally without poisoning the rest of the batch.
  EXPECT_EQ(results.back().code(), Code::kInvalidArgument);
}

TEST_F(PipelineE2eTest, ConcurrentSubmittersNeverMismatchResponses) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::string suffix = std::to_string(t) + "_" + std::to_string(i);
      ASSERT_TRUE(backend_
                      ->Set(kInternalCtx, "key" + suffix,
                            CacheValue::OfData("value" + suffix))
                      .ok());
    }
  }
  // All threads share the backend (and thus one pipelined connection); each
  // verifies every response against its own key — a FIFO mix-up anywhere
  // surfaces as a wrong value here.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string suffix =
            std::to_string(t) + "_" + std::to_string(i);
        auto r = backend_->Get(kInternalCtx, "key" + suffix);
        if (!r.ok() || r->data != "value" + suffix) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(PipelineE2eTest, OversizedSetFailsLocallyWithoutDroppingSharers) {
  // A frame over kMaxFrameLen makes the server close the connection, which
  // would fail every sharer's in-flight requests and force a redial: the
  // client must refuse it before anything is sent.
  ASSERT_TRUE(backend_->Set(kInternalCtx, "k", CacheValue::OfData("v")).ok());
  const uint64_t accepted = server_->stats().connections_accepted;
  TcpCacheBackend sharer("127.0.0.1", server_->port());  // same connection
  std::atomic<bool> stop{false};
  std::atomic<int> bursts{0};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    const std::vector<GetRequest> burst(64, GetRequest{kInternalCtx, "k"});
    while (!stop.load()) {
      for (const auto& r : sharer.MultiGet(burst)) {
        if (!r.ok()) failures.fetch_add(1);
      }
      bursts.fetch_add(1);
    }
  });
  ASSERT_TRUE(WaitFor([&] { return bursts.load() > 0; }));
  const Status s = backend_->Set(
      kInternalCtx, "big", CacheValue::OfData(std::string(17u << 20, 'x')));
  const int after = bursts.load();
  EXPECT_TRUE(WaitFor([&] { return bursts.load() >= after + 3; }));
  stop.store(true);
  reader.join();
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
  EXPECT_EQ(server_->stats().connections_accepted, accepted);
}

}  // namespace
}  // namespace gemini
