// End-to-end transport tests: a real TransportServer (the geminid event
// loop) on an ephemeral loopback port, driven through TcpCacheBackend over
// actual TCP sockets — SET/GET/DELETE/CAS, a full IQ-lease cycle, Redleases,
// dirty lists, config ids, the retired SNAPSHOT op, protocol-error handling,
// reconnection, and an unmodified GeminiClient running its request protocol
// against remote instances.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/client/gemini_client.h"
#include "src/coordinator/coordinator.h"
#include "src/store/data_store.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

constexpr OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

class TransportE2eTest : public ::testing::Test {
 protected:
  void StartServer(TransportServer::Options options = {},
                   CacheInstance::Options instance_options = {}) {
    instance_ = std::make_unique<CacheInstance>(7, &clock_, instance_options);
    options.port = 0;  // ephemeral
    server_ = std::make_unique<TransportServer>(instance_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    backend_ =
        std::make_unique<TcpCacheBackend>("127.0.0.1", server_->port());
    ASSERT_TRUE(backend_->Connect().ok());
  }

  void TearDown() override {
    if (backend_ != nullptr) backend_->Disconnect();
    if (server_ != nullptr) server_->Stop();
  }

  VirtualClock clock_;
  std::unique_ptr<CacheInstance> instance_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<TcpCacheBackend> backend_;
};

TEST_F(TransportE2eTest, HelloNegotiatesInstanceId) {
  StartServer();
  EXPECT_EQ(backend_->id(), 7u);
  EXPECT_TRUE(backend_->Ping().ok());
}

TEST_F(TransportE2eTest, SetGetDeleteRoundTrip) {
  StartServer();
  CacheValue v = CacheValue::OfData("payload", /*v=*/3);
  ASSERT_TRUE(backend_->Set(kInternalCtx, "k1", v).ok());

  auto got = backend_->Get(kInternalCtx, "k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "payload");
  EXPECT_EQ(got->version, 3u);
  // The write really landed in the server-side instance.
  EXPECT_TRUE(instance_->ContainsRaw("k1"));

  ASSERT_TRUE(backend_->Delete(kInternalCtx, "k1").ok());
  EXPECT_EQ(backend_->Get(kInternalCtx, "k1").code(), Code::kNotFound);
  EXPECT_FALSE(instance_->ContainsRaw("k1"));
}

TEST_F(TransportE2eTest, BinaryAndEmptyPayloadsSurviveTheWire) {
  StartServer();
  const std::string binary("\x00\xFF\x7F\n\r\x01gemini\x00", 14);
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "bin", CacheValue::OfData(binary)).ok());
  auto got = backend_->Get(kInternalCtx, "bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, binary);

  // Size-only value (simulator idiom): zero-length payload, nonzero charge.
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "sz", CacheValue::OfSize(329, 5)).ok());
  got = backend_->Get(kInternalCtx, "sz");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->data.empty());
  EXPECT_EQ(got->charged_bytes, 329u);
  EXPECT_EQ(got->version, 5u);
}

TEST_F(TransportE2eTest, CasReplacesOnlyOnVersionMatch) {
  StartServer();
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "k", CacheValue::OfData("v1", 1)).ok());
  EXPECT_EQ(backend_->Cas(kInternalCtx, "k", 99, CacheValue::OfData("x", 2))
                .code(),
            Code::kLeaseInvalid);
  ASSERT_TRUE(
      backend_->Cas(kInternalCtx, "k", 1, CacheValue::OfData("v2", 2)).ok());
  auto got = backend_->Get(kInternalCtx, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "v2");
  EXPECT_EQ(backend_->Cas(kInternalCtx, "miss", 0, CacheValue::OfData("y"))
                .code(),
            Code::kNotFound);
}

TEST_F(TransportE2eTest, IqLeaseCycleOverTcp) {
  StartServer();
  // Miss grants an I lease...
  auto miss = backend_->IqGet(kInternalCtx, "key");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->value.has_value());
  ASSERT_NE(miss->i_token, kNoLease);

  // ...a second session colliding on the same key is told to back off...
  EXPECT_EQ(backend_->IqGet(kInternalCtx, "key").code(), Code::kBackoff);

  // ...the holder installs the computed value and releases the lease...
  ASSERT_TRUE(backend_->IqSet(kInternalCtx, "key",
                              CacheValue::OfData("computed", 1),
                              miss->i_token)
                  .ok());

  // ...after which reads hit.
  auto hit = backend_->IqGet(kInternalCtx, "key");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->value.has_value());
  EXPECT_EQ(hit->value->data, "computed");

  // Write path: Q lease, delete-and-release invalidates the entry.
  auto q = backend_->Qareg(kInternalCtx, "key");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(backend_->Dar(kInternalCtx, "key", *q).ok());
  auto after = backend_->IqGet(kInternalCtx, "key");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->value.has_value());
  ASSERT_NE(after->i_token, kNoLease);
  // Release so later tests see a clean lease table.
  EXPECT_TRUE(backend_->IDelete(kInternalCtx, "key", after->i_token).ok());
}

TEST_F(TransportE2eTest, IqSetWithVoidedLeaseIsIgnored) {
  StartServer();
  auto miss = backend_->IqGet(kInternalCtx, "key");
  ASSERT_TRUE(miss.ok());
  // A concurrent write voids the I lease (Lemma 2)...
  auto q = backend_->Qareg(kInternalCtx, "key");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(backend_->Dar(kInternalCtx, "key", *q).ok());
  // ...so the stale insert must be dropped server-side.
  EXPECT_EQ(backend_->IqSet(kInternalCtx, "key", CacheValue::OfData("stale"),
                            miss->i_token)
                .code(),
            Code::kLeaseInvalid);
  EXPECT_FALSE(instance_->ContainsRaw("key"));
}

TEST_F(TransportE2eTest, RarInstallsUnderQLease) {
  StartServer();
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "key", CacheValue::OfData("old", 1)).ok());
  auto q = backend_->Qareg(kInternalCtx, "key");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(
      backend_->Rar(kInternalCtx, "key", CacheValue::OfData("new", 2), *q)
          .ok());
  auto got = backend_->Get(kInternalCtx, "key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "new");
}

TEST_F(TransportE2eTest, RedleaseCycleOverTcp) {
  StartServer();
  auto red = backend_->AcquireRed("dirty-list-key");
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(backend_->AcquireRed("dirty-list-key").code(), Code::kBackoff);
  EXPECT_TRUE(backend_->RenewRed("dirty-list-key", *red).ok());
  EXPECT_TRUE(backend_->ReleaseRed("dirty-list-key", *red).ok());
  EXPECT_TRUE(backend_->AcquireRed("dirty-list-key").ok());
}

TEST_F(TransportE2eTest, DirtyListOpsAndConfigIds) {
  StartServer();
  EXPECT_EQ(backend_->DirtyListGet(kInternalConfigId, 3).code(),
            Code::kNotFound);
  ASSERT_TRUE(backend_->DirtyListAppend(kInternalConfigId, 3, "rec1").ok());
  ASSERT_TRUE(backend_->DirtyListAppend(kInternalConfigId, 3, "rec2").ok());
  auto list = backend_->DirtyListGet(kInternalConfigId, 3);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->data, "rec1rec2");

  auto id = backend_->RemoteConfigId();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  ASSERT_TRUE(backend_->BumpConfigId(41).ok());
  id = backend_->RemoteConfigId();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 41u);
  EXPECT_EQ(instance_->latest_config_id(), 41u);
}

TEST_F(TransportE2eTest, StaleConfigIsReportedOverTheWire) {
  StartServer();
  instance_->ObserveConfigId(10);
  // A client at config id 4 touching a fragment-scoped key must be bounced.
  const OpContext stale{4, 0};
  EXPECT_EQ(backend_->Get(stale, "k").code(), Code::kStaleConfig);
}

TEST_F(TransportE2eTest, RetiredSnapshotOpIsRefusedAndConnectionLivesOn) {
  CacheInstance::Options budget;
  budget.capacity_bytes = 1 << 20;
  StartServer({}, budget);
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "k", CacheValue::OfData("still here"))
          .ok());
  const std::string path = ::testing::TempDir() + "/transport_e2e_snap.bin";
  std::remove(path.c_str());

  // The opcode stays in the append-only op space; the server parses its
  // body and refuses whatever path it names, writing nothing.
  TcpConnection conn("127.0.0.1", server_->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  for (const std::string& requested : {std::string(), path}) {
    std::string body;
    wire::PutBlob(body, requested);
    std::string resp;
    const Status s = conn.Transact(wire::Op::kSnapshot, body, &resp);
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << requested;
    EXPECT_EQ(s.message(), "no snapshot path configured");
  }
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0) << path << " was created";

  // WRITEBACK_INSTALL (0x27) is retired the same way: no op could ever
  // flush what it installed to the data store. Qareg+install pairs worth
  // twice the budget leave the instance holding nothing new.
  const CacheInstance::Stats before = instance_->stats();
  const CacheValue kilobyte = CacheValue::OfData(std::string(1024, 'w'), 1);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "wb" + std::to_string(i);
    std::string body;
    wire::PutContext(body, kInternalCtx);
    wire::PutKey(body, key);
    std::string token_resp;
    ASSERT_TRUE(conn.Transact(wire::Op::kQareg, body, &token_resp).ok());
    uint64_t token = 0;
    wire::Reader token_reader(token_resp);
    ASSERT_TRUE(token_reader.GetU64(&token));
    wire::PutU64(body, token);
    wire::PutValue(body, kilobyte);
    std::string resp;
    ASSERT_EQ(conn.Transact(wire::Op::kWriteBackInstall, body, &resp).code(),
              Code::kInvalidArgument)
        << key;
  }
  const CacheInstance::Stats after = instance_->stats();
  EXPECT_EQ(after.entry_count, before.entry_count);
  EXPECT_LE(after.used_bytes, budget.capacity_bytes);

  // The refusal is an answer, not a protocol error: the connection serves.
  std::string get_body;
  wire::PutContext(get_body, kInternalCtx);
  wire::PutKey(get_body, "k");
  std::string resp;
  ASSERT_TRUE(conn.Transact(wire::Op::kGet, get_body, &resp).ok());
  wire::Reader r(resp);
  CacheValue value;
  ASSERT_TRUE(r.GetValue(&value));
  EXPECT_EQ(value.data, "still here");
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TransportE2eTest, UnavailableInstanceMapsToUnavailable) {
  StartServer();
  instance_->Fail();
  EXPECT_EQ(backend_->Get(kInternalCtx, "k").code(), Code::kUnavailable);
  instance_->RecoverPersistent();
  EXPECT_EQ(backend_->Get(kInternalCtx, "k").code(), Code::kNotFound);
}

TEST_F(TransportE2eTest, ReconnectsAfterServerSideDrop) {
  StartServer();
  ASSERT_TRUE(
      backend_->Set(kInternalCtx, "k", CacheValue::OfData("v")).ok());
  // Simulate a drop by tearing down the client side of the connection.
  backend_->Disconnect();
  EXPECT_FALSE(backend_->connected());
  // The next call redials (and re-runs HELLO).
  auto got = backend_->Get(kInternalCtx, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "v");
  EXPECT_EQ(backend_->id(), 7u);
}

TEST_F(TransportE2eTest, ServerStopUnblocksAndRejectsNewWork) {
  StartServer();
  ASSERT_TRUE(backend_->Ping().ok());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The dead endpoint maps to kUnavailable, the same code a failed
  // in-process instance returns — GeminiClient's failover handles both.
  EXPECT_EQ(backend_->Ping().code(), Code::kUnavailable);
}

// There is one event loop and no fallback: when the kernel refuses an epoll
// fd, Start() fails cleanly, and the same server starts once fds free up.
TEST(TransportServerStartTest, EpollFailureFailsStartCleanly) {
  VirtualClock clock;
  CacheInstance instance(7, &clock);
  TransportServer server(&instance, TransportServer::Options{});

  // Cap the fd table just above the lowest free slot, fill it, then free
  // one slot: the listen socket takes it and epoll_create1 gets EMFILE.
  const int probe = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(probe, 0);
  ::close(probe);
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(probe) + 16;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  std::vector<int> hoard;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) hoard.push_back(fd);
  ::close(hoard.back());
  hoard.pop_back();
  const Status s = server.Start();
  for (int fd : hoard) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(s.code(), Code::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("epoll"), std::string::npos) << s.ToString();
  EXPECT_FALSE(server.running());

  ASSERT_TRUE(server.Start().ok());
  TcpCacheBackend backend("127.0.0.1", server.port());
  EXPECT_TRUE(backend.Ping().ok());
  backend.Disconnect();
  server.Stop();
}

TEST_F(TransportE2eTest, ManySequentialOpsOverOneConnection) {
  StartServer();
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(backend_
                    ->Set(kInternalCtx, key,
                          CacheValue::OfData(std::string(i % 64, 'x'),
                                             static_cast<Version>(i)))
                    .ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto got = backend_->Get(kInternalCtx, "key" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->version, static_cast<Version>(i));
  }
  EXPECT_EQ(instance_->stats().entry_count, 500u);
}

TEST_F(TransportE2eTest, ConcurrentBackendsSeeOneCoherentInstance) {
  StartServer();
  constexpr int kThreads = 4, kOps = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      TcpCacheBackend local("127.0.0.1", server_->port());
      for (int i = 0; i < kOps; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(
            local.Set(kInternalCtx, key, CacheValue::OfData("v")).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(instance_->stats().entry_count,
            static_cast<uint64_t>(kThreads * kOps));
}

// Opens a plain blocking TCP socket to the loopback port — a stand-in for a
// hostile or broken client the TcpCacheBackend API (deliberately) can't be.
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
  return fd;
}

// Sends `bytes`, then reports true iff the server closed the connection
// (recv sees EOF) instead of answering.
bool SendAndExpectEof(uint16_t port, const std::string& bytes) {
  int fd = RawConnect(port);
  if (fd < 0) return false;
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(bytes.size())) {
    ::close(fd);
    return false;
  }
  // Drain whatever the server sends until EOF; a server that keeps the
  // connection open would block here until the 5s receive timeout trips.
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  ::close(fd);
  return n == 0;
}

TEST_F(TransportE2eTest, GarbageFramesCloseConnectionServerSurvives) {
  StartServer();

  // An absurd frame length is a framing violation: drop the connection.
  std::string oversized;
  wire::PutU32(oversized, wire::kMaxFrameLen + 7);
  oversized += "XXXX";
  EXPECT_TRUE(SendAndExpectEof(server_->port(), oversized));

  // A well-formed non-HELLO first frame violates the handshake: drop.
  std::string ping_first;
  wire::AppendRequest(ping_first, wire::Op::kPing, "");
  EXPECT_TRUE(SendAndExpectEof(server_->port(), ping_first));

  EXPECT_GE(server_->stats().protocol_errors, 2u);
  // The well-behaved backend is unaffected throughout.
  ASSERT_TRUE(backend_->Ping().ok());
}

// ---- The tentpole promise: GeminiClient runs unchanged over TCP ------------

class RemoteClientTest : public ::testing::Test {
 protected:
  static constexpr size_t kInstances = 2;
  static constexpr size_t kFragments = 4;

  void SetUp() override {
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
      servers_.push_back(std::make_unique<TransportServer>(
          instances_.back().get(), TransportServer::Options{}));
      ASSERT_TRUE(servers_.back()->Start().ok());
      backends_.push_back(std::make_unique<TcpCacheBackend>(
          "127.0.0.1", servers_.back()->port()));
      // Connect eagerly so backend->id() reflects the remote instance before
      // the client starts routing.
      ASSERT_TRUE(backends_.back()->Connect().ok());
      remote_.push_back(backends_.back().get());
    }
    // The coordinator manages the *same* instances the servers host (it is
    // co-located with them in this process); the client reaches them only
    // through TCP.
    coordinator_ =
        std::make_unique<Coordinator>(&clock_, raw_, kFragments);
    client_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                             remote_, &store_);
    for (int i = 0; i < 50; ++i) {
      store_.Put("user" + std::to_string(i), "v" + std::to_string(i));
    }
  }

  void TearDown() override {
    for (auto& b : backends_) b->Disconnect();
    for (auto& s : servers_) s->Stop();
  }

  VirtualClock clock_;
  DataStore store_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::vector<std::unique_ptr<TransportServer>> servers_;
  std::vector<std::unique_ptr<TcpCacheBackend>> backends_;
  std::vector<CacheBackend*> remote_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  Session session_;
};

TEST_F(RemoteClientTest, ReadMissFillsRemoteCacheThenHits) {
  auto r1 = client_->Read(session_, "user1");
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->cache_hit);
  EXPECT_EQ(r1->value.data, "v1");

  auto r2 = client_->Read(session_, "user1");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->value.data, "v1");

  // The fill landed in whichever *server-side* instance owns the fragment.
  bool present = false;
  for (auto& inst : instances_) present |= inst->ContainsRaw("user1");
  EXPECT_TRUE(present);
}

TEST_F(RemoteClientTest, WriteInvalidatesThroughTheWire) {
  ASSERT_TRUE(client_->Read(session_, "user2").ok());
  ASSERT_TRUE(client_->Write(session_, "user2", std::string("v2b")).ok());
  // Write-around: the entry was deleted remotely; the next read refills.
  auto r = client_->Read(session_, "user2");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
  EXPECT_EQ(r->value.data, "v2b");
}

TEST_F(RemoteClientTest, FailoverToTransientModeOverTcp) {
  ASSERT_TRUE(client_->Read(session_, "user3").ok());
  // Kill the instance process state (not the server): remote ops now return
  // kUnavailable, the coordinator publishes a transient configuration, and
  // the client fails over — all through real sockets.
  auto cfg = coordinator_->GetConfiguration();
  const FragmentId f = cfg->FragmentOf("user3");
  const InstanceId primary = cfg->fragment(f).primary;
  instances_[primary]->Fail();
  coordinator_->OnInstanceFailed(primary);

  auto r = client_->Read(session_, "user3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value.data, "v3");
  ASSERT_TRUE(client_->Write(session_, "user3", std::string("v3b")).ok());
  // The transient write left the key on the fragment's dirty list in the
  // secondary replica, reachable over the wire.
  auto dl = backends_[1 - primary]->DirtyListGet(
      coordinator_->GetConfiguration()->id(), f);
  ASSERT_TRUE(dl.ok());
  EXPECT_NE(dl->data.find("user3"), std::string::npos);
}

}  // namespace
}  // namespace gemini
