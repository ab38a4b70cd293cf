// Multi-instance transport tests: one TransportServer (the geminid event
// loop) hosting several CacheInstances behind a single ephemeral loopback
// port. HELLO-based instance selection, kInstanceList discovery, the v1
// HELLO compatibility fallback, clean handshake failure on unknown ids,
// connection sharing between backends, per-instance server stats — and the
// payoff: an unmodified GeminiClient plus a
// RecoveryWorker running the full primary-failure → transient-mode →
// recovery cycle against two instances of one in-process geminid, entirely
// over real TCP sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/dirty_list.h"
#include "src/client/gemini_client.h"
#include "src/coordinator/coordinator.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

constexpr OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

// ---- Instance selection, discovery, and compatibility ----------------------

class MultiInstanceTest : public ::testing::Test {
 protected:
  /// Starts one server hosting instances with the given ids (in order; the
  /// first is the registry default).
  void StartServer(const std::vector<InstanceId>& ids) {
    InstanceRegistry registry;
    for (const InstanceId id : ids) {
      instances_.push_back(std::make_unique<CacheInstance>(id, &clock_));
      ASSERT_TRUE(registry.Add(instances_.back().get()).ok());
    }
    server_ = std::make_unique<TransportServer>(std::move(registry),
                                                TransportServer::Options{});
    ASSERT_TRUE(server_->Start().ok());
  }

  CacheInstance& instance(size_t i) { return *instances_[i]; }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  VirtualClock clock_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::unique_ptr<TransportServer> server_;
};

TEST_F(MultiInstanceTest, HelloRoutesToSelectedInstance) {
  StartServer({4, 9});
  TcpCacheBackend to4("127.0.0.1", server_->port(), 4);
  TcpCacheBackend to9("127.0.0.1", server_->port(), 9);
  ASSERT_TRUE(to4.Connect().ok());
  ASSERT_TRUE(to9.Connect().ok());
  EXPECT_EQ(to4.id(), 4u);
  EXPECT_EQ(to9.id(), 9u);

  // Writes land only on the instance the connection is bound to.
  ASSERT_TRUE(to4.Set(kInternalCtx, "only4", CacheValue::OfData("a")).ok());
  ASSERT_TRUE(to9.Set(kInternalCtx, "only9", CacheValue::OfData("b")).ok());
  EXPECT_TRUE(instance(0).ContainsRaw("only4"));
  EXPECT_FALSE(instance(0).ContainsRaw("only9"));
  EXPECT_TRUE(instance(1).ContainsRaw("only9"));
  EXPECT_FALSE(instance(1).ContainsRaw("only4"));
}

TEST_F(MultiInstanceTest, AnyInstanceSentinelBindsTheDefault) {
  StartServer({4, 9});
  // No explicit target: the backend asks for wire::kAnyInstance and gets
  // the registry default (the first instance added).
  TcpCacheBackend backend("127.0.0.1", server_->port());
  ASSERT_TRUE(backend.Connect().ok());
  EXPECT_EQ(backend.id(), 4u);
  ASSERT_TRUE(backend.Set(kInternalCtx, "k", CacheValue::OfData("v")).ok());
  EXPECT_TRUE(instance(0).ContainsRaw("k"));
}

TEST_F(MultiInstanceTest, UnknownInstanceFailsHandshakeCleanly) {
  StartServer({4, 9});
  TcpCacheBackend wrong("127.0.0.1", server_->port(), 7);
  EXPECT_EQ(wrong.Connect().code(), Code::kWrongInstance);
  EXPECT_FALSE(wrong.connected());

  // The refusal is per-connection: the server keeps serving everyone else.
  TcpCacheBackend right("127.0.0.1", server_->port(), 9);
  ASSERT_TRUE(right.Connect().ok());
  EXPECT_TRUE(right.Ping().ok());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(MultiInstanceTest, InstanceListAdvertisesHostedIds) {
  StartServer({9, 4, 12});
  TcpCacheBackend backend("127.0.0.1", server_->port(), 4);
  ASSERT_TRUE(backend.Connect().ok());
  auto ids = backend.ListInstances();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<InstanceId>{4, 9, 12}));  // ascending
}

TEST_F(MultiInstanceTest, BackendsOnOneEndpointShareTheConnection) {
  StartServer({4, 9});
  TcpCacheBackend a("127.0.0.1", server_->port(), 4);
  TcpCacheBackend b("127.0.0.1", server_->port(), 4);
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());
  // Same endpoint + same instance: one socket, multiplexed.
  EXPECT_EQ(server_->stats().connections_accepted, 1u);

  ASSERT_TRUE(a.Set(kInternalCtx, "ka", CacheValue::OfData("va")).ok());
  auto got = b.Get(kInternalCtx, "ka");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "va");

  // A different target instance cannot share (the binding is per-HELLO):
  // it gets its own connection.
  TcpCacheBackend c("127.0.0.1", server_->port(), 9);
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_EQ(server_->stats().connections_accepted, 2u);
}

TEST_F(MultiInstanceTest, PerInstanceStatsAttributeTraffic) {
  StartServer({4, 9});
  TcpCacheBackend to4("127.0.0.1", server_->port(), 4);
  TcpCacheBackend to9("127.0.0.1", server_->port(), 9);
  ASSERT_TRUE(to4.Connect().ok());
  ASSERT_TRUE(to9.Connect().ok());
  ASSERT_TRUE(to4.Ping().ok());
  ASSERT_TRUE(to4.Ping().ok());
  ASSERT_TRUE(to9.Ping().ok());

  const TransportServer::Stats stats = server_->stats();
  ASSERT_EQ(stats.per_instance.count(4), 1u);
  ASSERT_EQ(stats.per_instance.count(9), 1u);
  EXPECT_GE(stats.per_instance.at(4).frames_handled, 2u);
  EXPECT_GE(stats.per_instance.at(9).frames_handled, 1u);
  EXPECT_GT(stats.per_instance.at(4).frames_handled,
            stats.per_instance.at(9).frames_handled);
}

// ---- v1 HELLO compatibility (raw socket: the pre-refactor client) ----------

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Reads exactly one frame (blocking); false on EOF/timeout/garbage.
bool ReadFrame(int fd, uint8_t* tag, std::string* body) {
  std::string buf;
  char chunk[512];
  for (;;) {
    size_t consumed = 0;
    std::string_view body_view;
    switch (wire::DecodeFrame(buf, &consumed, tag, &body_view)) {
      case wire::DecodeResult::kFrame:
        body->assign(body_view);
        return true;
      case wire::DecodeResult::kMalformed:
        return false;
      case wire::DecodeResult::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;  // interrupted by a signal
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

TEST_F(MultiInstanceTest, V1HelloBindsDefaultInstanceAndServes) {
  StartServer({4, 9});
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);

  // A pre-refactor client's HELLO: just `u32 version`, no instance field.
  std::string hello_body;
  wire::PutU32(hello_body, 1);
  std::string out;
  wire::AppendRequest(out, wire::Op::kHello, hello_body);
  ASSERT_TRUE(SendAll(fd, out));

  uint8_t tag = 0xFF;
  std::string body;
  ASSERT_TRUE(ReadFrame(fd, &tag, &body));
  EXPECT_EQ(wire::CodeFromWire(tag), Code::kOk);
  wire::Reader r(body);
  uint32_t version = 0, bound = 0;
  ASSERT_TRUE(r.GetU32(&version));
  ASSERT_TRUE(r.GetU32(&bound));
  // The server echoes the *client's* version — a v1 client rejects anything
  // else — and binds it to the registry default.
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(bound, 4u);

  // The handshake was real: ops on the connection reach the default.
  std::string set_body;
  wire::PutContext(set_body, kInternalCtx);
  wire::PutKey(set_body, "legacy");
  wire::PutValue(set_body, CacheValue::OfData("v"));
  out.clear();
  wire::AppendRequest(out, wire::Op::kSet, set_body);
  ASSERT_TRUE(SendAll(fd, out));
  ASSERT_TRUE(ReadFrame(fd, &tag, &body));
  EXPECT_EQ(wire::CodeFromWire(tag), Code::kOk);
  EXPECT_TRUE(instance(0).ContainsRaw("legacy"));
  EXPECT_FALSE(instance(1).ContainsRaw("legacy"));
  ::close(fd);
}

TEST_F(MultiInstanceTest, UnsupportedHelloVersionIsRejectedNotDropped) {
  StartServer({4});
  int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string hello_body;
  wire::PutU32(hello_body, wire::kProtocolVersion + 1);
  std::string out;
  wire::AppendRequest(out, wire::Op::kHello, hello_body);
  ASSERT_TRUE(SendAll(fd, out));
  uint8_t tag = 0xFF;
  std::string body;
  // The server answers (so the client can print a useful error), then
  // closes.
  ASSERT_TRUE(ReadFrame(fd, &tag, &body));
  EXPECT_EQ(wire::CodeFromWire(tag), Code::kInvalidArgument);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // EOF
  ::close(fd);
}

// ---- The payoff: full failure/recovery cycle against one geminid -----------

// Parameterized over the server's event-loop shard count: the failover
// cycle must be oblivious to whether the backends' connections share one
// loop or land on different shards.
class MultiInstanceClusterTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr size_t kInstances = 2;
  static constexpr size_t kFragments = 4;

  void SetUp() override {
    InstanceRegistry registry;
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
      ASSERT_TRUE(registry.Add(instances_.back().get()).ok());
    }
    // ONE server hosts the whole replica set.
    TransportServer::Options sopts;
    sopts.num_loops = GetParam();
    server_ = std::make_unique<TransportServer>(std::move(registry), sopts);
    ASSERT_TRUE(server_->Start().ok());
    for (size_t i = 0; i < kInstances; ++i) {
      backends_.push_back(std::make_unique<TcpCacheBackend>(
          "127.0.0.1", server_->port(), static_cast<InstanceId>(i)));
      // Connect eagerly so backend->id() reflects the remote instance
      // before the client starts routing.
      ASSERT_TRUE(backends_.back()->Connect().ok());
      remote_.push_back(backends_.back().get());
    }
    // The coordinator is co-located with the instances (it manages the same
    // objects the server hosts); client and recovery worker reach them only
    // through TCP.
    Coordinator::Options copts;
    copts.policy = RecoveryPolicy::GeminiO();
    coordinator_ = std::make_unique<Coordinator>(&clock_, raw_, kFragments,
                                                 copts);
    client_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                             remote_, &store_);
    for (int i = 0; i < 50; ++i) {
      store_.Put("user" + std::to_string(i), "v" + std::to_string(i));
    }
  }

  void TearDown() override {
    for (auto& b : backends_) b->Disconnect();
    server_->Stop();
  }

  /// A store key whose fragment has `id` as primary.
  std::string KeyOnPrimary(InstanceId id) {
    auto cfg = coordinator_->GetConfiguration();
    for (int i = 0; i < 50; ++i) {
      std::string key = "user" + std::to_string(i);
      if (cfg->fragment(cfg->FragmentOf(key)).primary == id) return key;
    }
    ADD_FAILURE() << "no key with primary " << id;
    return "user0";
  }

  VirtualClock clock_;
  DataStore store_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::unique_ptr<TransportServer> server_;
  std::vector<std::unique_ptr<TcpCacheBackend>> backends_;
  std::vector<CacheBackend*> remote_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  Session session_;
};

TEST_P(MultiInstanceClusterTest, FullFailoverAndRecoveryCycleOverTcp) {
  const std::string key = KeyOnPrimary(0);
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(key);

  // Warm the primary through the wire.
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);

  // Primary fails; the coordinator publishes a transient configuration,
  // which is when the fragment gets its secondary replica.
  instances_[0]->Fail();
  coordinator_->OnInstanceFailed(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kTransient);
  const InstanceId secondary =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_NE(secondary, kInvalidInstance);

  // Transient reads and writes are served by the secondary — and the write
  // lands on the fragment's dirty list there, observable over the same
  // sockets.
  r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(client_->Write(session_, key, std::string("fresh")).ok());
  auto dl = backends_[secondary]->DirtyListGet(
      coordinator_->GetConfiguration()->id(), f);
  ASSERT_TRUE(dl.ok());
  EXPECT_NE(dl->data.find(key), std::string::npos);
  // Refill the secondary so recovery has a fresh value to transfer.
  ASSERT_TRUE(client_->Read(session_, key).ok());

  // The primary restarts with its (persistent) content; its fragments enter
  // recovery mode.
  instances_[0]->RecoverPersistent();
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  // A recovery worker drains the dirty lists — through the same TCP
  // backends the client uses, not in-process shortcuts.
  RecoveryWorker::Options wopts;
  wopts.overwrite_dirty = true;
  RecoveryWorker worker(&clock_, coordinator_.get(), remote_, wopts);
  Session wsession;
  for (int guard = 0; guard < 10000; ++guard) {
    if (!worker.has_work() &&
        !worker.TryAdoptFragment(wsession).has_value()) {
      break;
    }
    (void)worker.Step(wsession);
  }
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_GT(worker.stats().fragments_recovered, 0u);
  EXPECT_GT(worker.stats().keys_overwritten, 0u);

  // The recovered primary serves the fresh value as a hit, end to end.
  r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->value.data, "fresh");
  EXPECT_EQ(r->value.version, store_.VersionOf(key));
}

INSTANTIATE_TEST_SUITE_P(Loops, MultiInstanceClusterTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return std::to_string(info.param) + "Loops";
                         });

}  // namespace
}  // namespace gemini
