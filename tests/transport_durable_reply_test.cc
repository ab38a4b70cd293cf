// Durable replies without stalling the event loop (PROTOCOL.md §9, §10.6).
//
// An op that appends an eager WAL record (Qareg, ISet, IDelete, a config-id
// advance) is answered only once that record is durable, but the serving
// event loop never waits for the fsync: it holds the reply, and every later
// reply on the same connection, and keeps serving. Two halves:
//
//  - Against a real PersistentStore: one fsync covers the eager records of
//    many frames and many connections (group commit), and pipelined replies
//    still come back correct and in request order. The journal-commit
//    counts are timing: grouping shows only while an fsync outlasts the
//    loop's work between frames, so each case keeps its best of several
//    rounds, and the counts are printed but not checked in sanitizer
//    builds, whose per-op cost rivals an fsync, or on a data dir whose
//    fsync is nearly free (tmpfs).
//  - Against ManualSink, a sink whose durability the test drives by hand:
//    the loop appends a whole burst's, and many connections', eager records
//    before any is durable; a reply never leaves before its record is
//    durable, the loop keeps serving other connections meanwhile, a failed
//    log answers kUnavailable, and Stop() drains held replies.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <ftw.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/cache/cache_instance.h"
#include "src/cache/persistence_sink.h"
#include "src/common/clock.h"
#include "src/persist/persistent_store.h"
#include "src/transport/server.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using std::chrono::milliseconds;

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int RemoveEntry(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

/// Below this fsync latency a commit can finish before the loop reads the
/// next frame, so one commit per record is no bug.
constexpr double kGroupingFsyncMicros = 50;

/// Median wall time, in microseconds, of a small append plus fsync to a
/// file at `path` (removed afterwards).
double MedianFsyncMicros(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(fd, 0);
  const std::string bytes(64, 'x');
  std::vector<double> micros;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    EXPECT_EQ(::fsync(fd), 0);
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  ::close(fd);
  ::unlink(path.c_str());
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  return micros[micros.size() / 2];
}

template <wire::Op op, typename... Args>
TcpConnection::BatchRequest Request(const Args&... args) {
  TcpConnection::BatchRequest req{op, {}};
  EXPECT_TRUE(
      wire::EncodeRequest<op>(req.body, std::forward_as_tuple(args...)).ok());
  return req;
}

/// A blocking client socket that writes a whole pipelined burst in one
/// send, so every frame reaches the server's read buffer together.
class RawClient {
 public:
  explicit RawClient(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::string hello;
    wire::PutU32(hello, wire::kProtocolVersion);
    wire::PutU32(hello, wire::kAnyInstance);
    std::string frame;
    wire::AppendRequest(frame, wire::Op::kHello, hello);
    Send(frame);
    EXPECT_EQ(Read().first, Code::kOk);
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void Send(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// The next response frame: its status and body.
  std::pair<Code, std::string> Read() {
    for (;;) {
      size_t consumed = 0;
      uint8_t tag = 0;
      std::string_view body;
      if (wire::DecodeFrame(in_, &consumed, &tag, &body) ==
          wire::DecodeResult::kFrame) {
        std::pair<Code, std::string> out{wire::CodeFromWire(tag),
                                         std::string(body)};
        in_.erase(0, consumed);
        return out;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return {Code::kUnavailable, {}};
      in_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string in_;
};

/// One Qareg request frame for `key`.
std::string QaregFrame(const std::string& key) {
  std::string body;
  EXPECT_TRUE(wire::EncodeRequest<wire::Op::kQareg>(
                  body, std::forward_as_tuple(kCtx, key))
                  .ok());
  std::string frame;
  wire::AppendRequest(frame, wire::Op::kQareg, body);
  return frame;
}

/// `n` ISet request frames, back to back.
std::string IsetBurst(const std::string& prefix, int n) {
  std::string frames;
  for (int i = 0; i < n; ++i) {
    std::string body;
    EXPECT_TRUE(wire::EncodeRequest<wire::Op::kISet>(
                    body, std::forward_as_tuple(kCtx,
                                                prefix + std::to_string(i)))
                    .ok());
    wire::AppendRequest(frames, wire::Op::kISet, body);
  }
  return frames;
}

/// A persistence sink whose eager records become durable, or fail, only
/// when the test says so. Batched records are ignored.
class ManualSink final : public PersistenceSink {
 public:
  void OnUpsert(PersistOp, std::string_view, const CacheValue&,
                ConfigId) override {}
  void OnDelete(PersistOp op, std::string_view) override {
    if (op == PersistOp::kISet || op == PersistOp::kIDelete) Eager();
  }
  void OnQuarantineBegin(std::string_view) override { Eager(); }
  void OnQuarantineEnd(std::string_view) override {}
  void OnConfigObserved(ConfigId) override { Eager(); }
  void OnQuarantineClear() override {}
  void OnVolatileWipe() override { Eager(); }

  Durability CheckDurable(Lsn lsn) const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (durable_ >= lsn) return Durability::kDurable;
    return failed_ ? Durability::kFailed : Durability::kPending;
  }
  Status WaitDurable(Lsn lsn) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return durable_ >= lsn || failed_; });
    return durable_ >= lsn ? Status::Ok() : Status(Code::kUnavailable);
  }
  void AddDurableListener(DurableListener* listener) override {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    listeners_.push_back(listener);
  }
  void RemoveDurableListener(DurableListener* listener) override {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    std::erase(listeners_, listener);
  }

  /// One "fsync": every eager record so far becomes durable.
  void MakeDurable() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      durable_ = issued_;
    }
    Notify();
  }
  /// The log fails: pending and later eager records never become durable.
  void Fail() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed_ = true;
    }
    Notify();
  }
  [[nodiscard]] Lsn issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return issued_;
  }
  /// Polls until `n` eager records exist (the op under test has run).
  bool WaitIssued(Lsn n) const {
    for (int i = 0; i < 2000 && issued() < n; ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return issued() >= n;
  }

 private:
  void Eager() {
    Lsn lsn = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      lsn = failed_ ? kFailedLsn : ++issued_;
    }
    EagerScope::Record(lsn);
  }
  void Notify() {
    cv_.notify_all();
    std::lock_guard<std::mutex> lock(listeners_mu_);
    for (DurableListener* listener : listeners_) listener->OnDurable();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Lsn issued_ = 0;
  Lsn durable_ = 0;
  bool failed_ = false;
  std::mutex listeners_mu_;
  std::vector<DurableListener*> listeners_;
};

/// A 1-loop server over one instance persisted to `sink`.
struct Rig {
  explicit Rig(PersistenceSink* sink) {
    CacheInstance::Options copts;
    copts.persistence = sink;
    instance = std::make_unique<CacheInstance>(0, &SystemClock::Global(),
                                               copts);
  }
  void Start() {
    TransportServer::Options sopts;
    sopts.num_loops = 1;
    server = std::make_unique<TransportServer>(instance.get(), sopts);
    ASSERT_TRUE(server->Start().ok());
  }
  std::unique_ptr<TcpConnection> Connect() const {
    auto conn = std::make_unique<TcpConnection>(
        "127.0.0.1", server->port(), wire::kAnyInstance,
        TcpConnection::Options());
    EXPECT_TRUE(conn->Connect().ok());
    return conn;
  }
  std::unique_ptr<CacheInstance> instance;
  std::unique_ptr<TransportServer> server;
};

// ---- Group commit against the real WAL ---------------------------------------

class DurableReplyStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/durable_reply_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveTree(dir_);
    // The writer fsyncs batched records on its own only after 50 ms; here
    // they ride the eager records' fsyncs, so the journal commits counted
    // below are the ones eager records paid for.
    store_ = std::make_unique<PersistentStore>(dir_);
    rig_ = std::make_unique<Rig>(store_.get());
    ASSERT_TRUE(store_->Open(*rig_->instance).ok());
    rig_->Start();
    fsync_us_ = MedianFsyncMicros(dir_ + ".fsync_probe");
  }
  void TearDown() override {
    rig_->server->Stop();
    EXPECT_TRUE(store_->error().ok());
    store_->Close();
    rig_.reset();
    store_.reset();
    RemoveTree(dir_);
  }
  uint64_t commits() const { return store_->stats().fsyncs; }

  /// Prints the fewest journal commits a round of `what` took and checks
  /// them against `limit` where grouping can show (see the file comment).
  void ExpectGrouped(const char* what, uint64_t fewest, uint64_t limit) const {
    std::printf("[ commits  ] %s: %llu (best of %d; fsync p50 %.0f us)\n",
                what, static_cast<unsigned long long>(fewest), kRounds,
                fsync_us_);
    if (kSanitized || fsync_us_ < kGroupingFsyncMicros) {
      std::printf("[ commits  ] not checked: sanitizer build or fsync "
                  "under %.0f us\n",
                  kGroupingFsyncMicros);
      return;
    }
    EXPECT_LE(fewest, limit) << "journal commits for " << what;
  }

  static constexpr int kRounds = 5;
  double fsync_us_ = 0;
  std::string dir_;
  std::unique_ptr<PersistentStore> store_;
  std::unique_ptr<Rig> rig_;
};

TEST_F(DurableReplyStoreTest, IsetBurstSharesJournalCommits) {
  RawClient client(rig_->server->port());
  uint64_t fewest = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    const std::string prefix = "burst" + std::to_string(round) + "_";
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(rig_->instance
                      ->Set(kCtx, prefix + std::to_string(i),
                            CacheValue::OfData("v"))
                      .ok());
    }
    const uint64_t before = commits();
    client.Send(IsetBurst(prefix, 32));
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(client.Read().first, Code::kOk) << i;
      EXPECT_FALSE(rig_->instance->ContainsRaw(prefix + std::to_string(i)));
    }
    fewest = std::min(fewest, commits() - before);
  }
  EXPECT_EQ(store_->stats().eager_records, 32u * kRounds);
  // 32 eager deletes; a loop that waited out each fsync would pay 32.
  ExpectGrouped("a 32-key ISet burst", fewest, 4);
}

TEST_F(DurableReplyStoreTest, QaregsFromManyConnectionsShareJournalCommits) {
  constexpr int kConnections = 16;
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<RawClient>(rig_->server->port()));
  }
  uint64_t fewest = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t before = commits();
    for (int i = 0; i < kConnections; ++i) {
      clients[i]->Send(QaregFrame("shared" + std::to_string(round) + "_" +
                                  std::to_string(i)));
    }
    for (auto& client : clients) EXPECT_EQ(client->Read().first, Code::kOk);
    fewest = std::min(fewest, commits() - before);
  }
  // The loop reads every connection's Qareg while the first fsync runs;
  // one that waited out each fsync before reading the next would pay 16.
  ExpectGrouped("16 connections' Qaregs", fewest, 7);
}

TEST_F(DurableReplyStoreTest, PipelinedRepliesComeBackCorrectAndInOrder) {
  ASSERT_TRUE(
      rig_->instance->Set(kCtx, "present", CacheValue::OfData("pv", 3)).ok());
  ASSERT_TRUE(
      rig_->instance->Set(kCtx, "doomed", CacheValue::OfData("dv", 4)).ok());
  auto conn = rig_->Connect();
  const std::vector<TcpConnection::BatchResponse> replies =
      conn->TransactBatch({Request<wire::Op::kQareg>(kCtx, "written"),
                           Request<wire::Op::kGet>(kCtx, "present"),
                           Request<wire::Op::kISet>(kCtx, "doomed"),
                           Request<wire::Op::kGet>(kCtx, "doomed")});
  ASSERT_EQ(replies.size(), 4u);
  ASSERT_TRUE(replies[0].status.ok());
  EXPECT_TRUE(wire::DecodeResponse<wire::Op::kQareg>(replies[0].body).ok());
  ASSERT_TRUE(replies[1].status.ok());
  auto present = wire::DecodeResponse<wire::Op::kGet>(replies[1].body);
  ASSERT_TRUE(present.ok());
  EXPECT_EQ(present->data, "pv");
  ASSERT_TRUE(replies[2].status.ok());
  EXPECT_TRUE(wire::DecodeResponse<wire::Op::kISet>(replies[2].body).ok());
  // The GET behind the ISet sees its delete: frames are processed in order.
  EXPECT_EQ(replies[3].status.code(), Code::kNotFound);
}

// ---- Reply holding, driven by hand --------------------------------------------

class DurableReplyManualTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rig_ = std::make_unique<Rig>(&sink_);
    rig_->Start();
  }
  void TearDown() override { rig_->server->Stop(); }

  ManualSink sink_;
  std::unique_ptr<Rig> rig_;
};

TEST_F(DurableReplyManualTest, BurstAppendsEveryRecordBeforeAnyIsDurable) {
  RawClient client(rig_->server->port());
  client.Send(IsetBurst("burst", 32));
  // All 32 eager records are appended while none is durable: nothing on
  // the loop waits for one before it serves the next.
  ASSERT_TRUE(sink_.WaitIssued(32));
  sink_.MakeDurable();  // one fsync answers the whole burst
  for (int i = 0; i < 32; ++i) EXPECT_EQ(client.Read().first, Code::kOk);
}

TEST_F(DurableReplyManualTest, ConnectionsShareOneFsync) {
  constexpr int kConnections = 16;
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<RawClient>(rig_->server->port()));
    clients.back()->Send(QaregFrame("k" + std::to_string(i)));
  }
  ASSERT_TRUE(sink_.WaitIssued(kConnections));
  sink_.MakeDurable();
  for (auto& client : clients) EXPECT_EQ(client->Read().first, Code::kOk);
}

TEST_F(DurableReplyManualTest, ReplyWaitsForItsRecordWhileTheLoopServesOthers) {
  ASSERT_TRUE(
      rig_->instance->Set(kCtx, "other", CacheValue::OfData("ov")).ok());
  auto writer = rig_->Connect();
  auto reader = rig_->Connect();
  auto held = std::async(std::launch::async, [&] {
    return writer->TransactBatch({Request<wire::Op::kQareg>(kCtx, "k"),
                                  Request<wire::Op::kGet>(kCtx, "other")});
  });
  // The Qareg ran (its record exists) but neither it nor the GET behind it
  // on the same connection is answered before the record is durable.
  ASSERT_TRUE(sink_.WaitIssued(1));
  EXPECT_EQ(held.wait_for(milliseconds(100)), std::future_status::timeout);
  // Meanwhile the same loop answers another connection.
  auto other = reader->Call<wire::Op::kGet>(kCtx, "other");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->data, "ov");
  EXPECT_EQ(held.wait_for(milliseconds(0)), std::future_status::timeout);

  sink_.MakeDurable();
  const auto replies = held.get();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_TRUE(replies[1].status.ok());
}

TEST_F(DurableReplyManualTest, EveryEagerOpWaitsForItsRecord) {
  auto conn = rig_->Connect();
  const std::vector<TcpConnection::BatchRequest> eager_ops = {
      Request<wire::Op::kISet>(kCtx, "a"),
      Request<wire::Op::kIDelete>(kCtx, "a", LeaseToken{1}),
      Request<wire::Op::kConfigIdBump>(ConfigId{7}),
      Request<wire::Op::kLeaseGrant>(FragmentId{0}, ConfigId{1},
                                     uint64_t{60'000'000}, ConfigId{8}),
      Request<wire::Op::kLeaseRevoke>(FragmentId{0}, ConfigId{9})};
  for (const auto& req : eager_ops) {
    const Lsn before = sink_.issued();
    auto reply = std::async(std::launch::async,
                            [&] { return conn->TransactBatch({req}); });
    ASSERT_TRUE(sink_.WaitIssued(before + 1)) << wire::OpName(req.op);
    EXPECT_EQ(reply.wait_for(milliseconds(50)), std::future_status::timeout)
        << wire::OpName(req.op) << " answered before its record was durable";
    sink_.MakeDurable();
    EXPECT_TRUE(reply.get().at(0).status.ok()) << wire::OpName(req.op);
  }
}

TEST_F(DurableReplyManualTest, FailedLogAnswersUnavailable) {
  ASSERT_TRUE(
      rig_->instance->Set(kCtx, "other", CacheValue::OfData("ov")).ok());
  auto conn = rig_->Connect();
  auto held = std::async(std::launch::async, [&] {
    return conn->TransactBatch({Request<wire::Op::kQareg>(kCtx, "k")});
  });
  ASSERT_TRUE(sink_.WaitIssued(1));
  sink_.Fail();
  // The held reply, and an eager op issued after the failure, are refused;
  // ops without an eager record are still served.
  EXPECT_EQ(held.get().at(0).status.code(), Code::kUnavailable);
  EXPECT_EQ(conn->Call<wire::Op::kQareg>(kCtx, "k2").code(),
            Code::kUnavailable);
  EXPECT_EQ(conn->Call<wire::Op::kISet>(kCtx, "k3").code(),
            Code::kUnavailable);
  auto other = conn->Call<wire::Op::kGet>(kCtx, "other");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->data, "ov");
  // In process, the same ops return kUnavailable too.
  EXPECT_EQ(rig_->instance->Qareg(kCtx, "k4").code(), Code::kUnavailable);
  EXPECT_EQ(rig_->instance->ObserveConfigId(100).code(), Code::kUnavailable);
}

TEST_F(DurableReplyManualTest, StopDrainsHeldReplies) {
  auto conn = rig_->Connect();
  auto held = std::async(std::launch::async, [&] {
    return conn->TransactBatch({Request<wire::Op::kQareg>(kCtx, "k")});
  });
  ASSERT_TRUE(sink_.WaitIssued(1));
  std::thread durable([this] {
    std::this_thread::sleep_for(milliseconds(100));
    sink_.MakeDurable();
  });
  rig_->server->Stop();  // the drain waits for the held reply
  durable.join();
  EXPECT_TRUE(held.get().at(0).status.ok());
}

TEST_F(DurableReplyManualTest, InProcessCallersWaitWithNoLockHeld) {
  // Qareg waits for its record after releasing the meta lock, so a lease
  // grant (which takes it exclusively) is not stuck behind the fsync.
  auto token = std::async(std::launch::async,
                          [&] { return rig_->instance->Qareg(kCtx, "k"); });
  ASSERT_TRUE(sink_.WaitIssued(1));
  EXPECT_EQ(token.wait_for(milliseconds(50)), std::future_status::timeout);
  EXPECT_TRUE(rig_->instance
                  ->GrantFragmentLease(0, 0, SystemClock::Global().Now() +
                                                 Seconds(60),
                                       /*latest_config=*/0)
                  .ok());
  sink_.MakeDurable();
  EXPECT_TRUE(token.get().ok());
}

}  // namespace
}  // namespace gemini
