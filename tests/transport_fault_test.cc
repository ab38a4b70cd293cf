// Fault-injection tests for the TCP transport: a FaultProxy between
// TcpCacheBackend and TransportServer executes seeded, deterministic fault
// schedules — delays, mid-frame stalls, cuts, truncation, resets at accept,
// hold/release bursts, throttling — and the client side must hold up its end
// of docs/PROTOCOL.md §11: send each request once, so a lost connection
// fails every unanswered request with kUnavailable and the next call
// redials; trip the circuit breaker on a dead endpoint so GeminiClient
// degrades to data-store reads; and never hang past the configured
// timeouts. The capstone runs the full failover → transient → recovery →
// normal cycle from transport_multi_instance_test through an adversarial
// schedule (seeded via GEMINI_FAULT_SEED, echoed so a failure replays) with
// zero stale reads, every lost request re-run by the application.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/client/gemini_client.h"
#include "src/common/clock.h"
#include "src/coordinator/coordinator.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/transport/fault_proxy.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

constexpr OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

Timestamp Mono() { return SystemClock::Global().Now(); }

void SleepFor(Duration d) {
  std::this_thread::sleep_for(std::chrono::microseconds(d));
}

/// Chaos seed: from GEMINI_FAULT_SEED when set (the CI chaos-smoke job
/// exports a random one per run), default 1. Echoed so a red run can be
/// replayed bit-identically.
uint64_t ChaosSeed() {
  uint64_t seed = 1;
  if (const char* env = std::getenv("GEMINI_FAULT_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[ chaos    ] GEMINI_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// Polls `cond` (a cheap lambda) until true or `budget` elapses.
template <typename F>
bool WaitFor(F cond, Duration budget = Seconds(5)) {
  const Timestamp start = Mono();
  while (!cond()) {
    if (Mono() - start > budget) return false;
    SleepFor(Millis(2));
  }
  return true;
}

// ---- Raw-socket helpers (v1 client, slowloris) ------------------------------

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

/// Reads one frame (blocking, 5 s cap); false on EOF/timeout/garbage.
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

// ---- Schedule determinism ---------------------------------------------------

FaultProxy::Options BusyOptions(uint64_t seed) {
  FaultProxy::Options o;
  o.seed = seed;
  o.reset_on_accept_prob = 0.3;
  for (FaultProxy::DirectionProfile* p :
       {&o.client_to_server, &o.server_to_client}) {
    p->skip_frames = 1;
    p->delay_prob = 0.3;
    p->delay_min = Millis(1);
    p->delay_max = Millis(4);
    p->stall_prob = 0.2;
    p->cut_prob = 0.1;
    p->truncate_prob = 0.1;
    p->hold_every = 7;
    p->hold_count = 2;
  }
  return o;
}

TEST(FaultSchedule, SameSeedSameScheduleDifferentSeedDiffers) {
  // PlanFor is a pure function of (seed, conn, direction, frame): two
  // proxies built from identical options must agree on every decision, and
  // a different seed must disagree somewhere.
  FaultProxy a("127.0.0.1", 1, BusyOptions(42));
  FaultProxy b("127.0.0.1", 1, BusyOptions(42));
  FaultProxy c("127.0.0.1", 1, BusyOptions(43));
  bool any_fault = false, any_difference = false;
  for (uint64_t conn = 0; conn < 6; ++conn) {
    EXPECT_EQ(a.ResetOnAccept(conn), b.ResetOnAccept(conn));
    for (auto dir : {FaultProxy::Direction::kClientToServer,
                     FaultProxy::Direction::kServerToClient}) {
      for (uint64_t frame = 0; frame < 100; ++frame) {
        const auto pa = a.PlanFor(conn, dir, frame);
        const auto pb = b.PlanFor(conn, dir, frame);
        const auto pc = c.PlanFor(conn, dir, frame);
        EXPECT_EQ(pa.kind, pb.kind);
        EXPECT_EQ(pa.delay, pb.delay);
        EXPECT_EQ(pa.split, pb.split);
        if (frame < 1) {
          // skip_frames: the handshake frame is never faulted.
          EXPECT_EQ(pa.kind, FaultProxy::FaultKind::kNone);
        }
        if (pa.kind != FaultProxy::FaultKind::kNone) any_fault = true;
        if (pa.kind != pc.kind || pa.delay != pc.delay) any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_difference);
}

// ---- One instance behind a proxy --------------------------------------------

class FaultProxyTest : public ::testing::Test {
 protected:
  void Start(FaultProxy::Options popts,
             TransportServer::Options sopts = TransportServer::Options{}) {
    instance_ = std::make_unique<CacheInstance>(0, &clock_);
    server_ = std::make_unique<TransportServer>(instance_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    proxy_ = std::make_unique<FaultProxy>("127.0.0.1", server_->port(),
                                          popts);
    ASSERT_TRUE(proxy_->Start().ok());
  }

  /// A backend dialing the proxy (not the server). One per test: the
  /// connection pool shares by (host, port, instance), so a second backend
  /// with different options would silently reuse the first one's.
  std::unique_ptr<TcpCacheBackend> Backend(
      TcpCacheBackend::Options copts = TcpCacheBackend::Options{}) {
    return std::make_unique<TcpCacheBackend>(
        "127.0.0.1", proxy_->port(), wire::kAnyInstance, copts);
  }

  void TearDown() override {
    if (proxy_ != nullptr) proxy_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  VirtualClock clock_;
  std::unique_ptr<CacheInstance> instance_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<FaultProxy> proxy_;
};

TEST_F(FaultProxyTest, CleanPassThrough) {
  Start(FaultProxy::Options{});  // no faults configured
  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());
  ASSERT_TRUE(backend->Ping().ok());
  ASSERT_TRUE(
      backend->Set(kInternalCtx, "k", CacheValue::OfData("v")).ok());
  auto got = backend->Get(kInternalCtx, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "v");
  EXPECT_TRUE(instance_->ContainsRaw("k"));

  // The relay counts a frame after forwarding it, so the last response can
  // reach the client a beat before the counter moves — poll briefly.
  EXPECT_TRUE(
      WaitFor([&] { return proxy_->stats().frames_forwarded >= 8; }));
  const FaultProxy::Stats stats = proxy_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GT(stats.bytes_forwarded, 0u);
  EXPECT_EQ(stats.delays + stats.stalls + stats.cuts + stats.truncations +
                stats.holds,
            0u);
}

TEST_F(FaultProxyTest, DelaysSlowTrafficButEverythingCompletes) {
  FaultProxy::Options popts;
  popts.seed = 7;
  for (auto* p : {&popts.client_to_server, &popts.server_to_client}) {
    p->delay_prob = 1.0;
    p->delay_min = 0;
    p->delay_max = Millis(2);
  }
  Start(popts);
  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(backend->Ping().ok());
  ASSERT_TRUE(
      backend->Set(kInternalCtx, "slow", CacheValue::OfData("x")).ok());
  auto got = backend->Get(kInternalCtx, "slow");
  ASSERT_TRUE(got.ok());
  EXPECT_GT(proxy_->stats().delays, 0u);
}

TEST_F(FaultProxyTest, HoldBurstsAndThrottleStillDeliver) {
  FaultProxy::Options popts;
  popts.seed = 11;
  popts.server_to_client.skip_frames = 1;
  popts.server_to_client.hold_every = 3;
  popts.server_to_client.hold_count = 1;
  popts.server_to_client.throttle_bytes_per_sec = 64 * 1024;
  Start(popts);
  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());
  ASSERT_TRUE(
      backend->Set(kInternalCtx, "h", CacheValue::OfData("held")).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(backend->Ping().ok());
  auto got = backend->Get(kInternalCtx, "h");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data, "held");
  EXPECT_GE(proxy_->stats().holds, 1u);
}

TEST_F(FaultProxyTest, TruncationWithoutRetryFailsWithUnavailable) {
  FaultProxy::Options popts;
  popts.seed = 9;
  popts.server_to_client.skip_frames = 1;
  popts.server_to_client.truncate_prob = 1.0;
  Start(popts);
  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());
  auto got = backend->Get(kInternalCtx, "whatever");
  EXPECT_EQ(got.status().code(), Code::kUnavailable);
  EXPECT_FALSE(backend->connected());
  EXPECT_TRUE(WaitFor([&] { return proxy_->stats().truncations >= 1; }));
}

TEST_F(FaultProxyTest, SetAndGetAreEachSentOnceAcrossACut) {
  // Every post-handshake response is cut, so each send costs exactly one
  // connection and one cut. A Set (not idempotent) and a Get (idempotent)
  // each fail kUnavailable after their one send: the client re-sends
  // neither, and the Get's call redials the connection the Set lost.
  FaultProxy::Options popts;
  popts.seed = 13;
  popts.server_to_client.skip_frames = 1;
  popts.server_to_client.cut_prob = 1.0;
  Start(popts);

  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());

  Status set = backend->Set(kInternalCtx, "k", CacheValue::OfData("v"));
  EXPECT_EQ(set.code(), Code::kUnavailable);
  ASSERT_TRUE(WaitFor([&] { return proxy_->stats().cuts >= 1; }));
  EXPECT_EQ(proxy_->stats().cuts, 1u);
  EXPECT_EQ(proxy_->stats().connections_accepted, 1u);

  auto got = backend->Get(kInternalCtx, "k");
  EXPECT_EQ(got.status().code(), Code::kUnavailable);
  ASSERT_TRUE(WaitFor([&] { return proxy_->stats().cuts >= 2; }));
  EXPECT_EQ(proxy_->stats().cuts, 2u);
  EXPECT_EQ(proxy_->stats().connections_accepted, 2u);
}

TEST_F(FaultProxyTest, MidBulkRequestCutFailsEverySlotWithNothingApplied) {
  // A kMultiSet request frame severed mid-flight: the server never sees a
  // complete frame, so it applies NOTHING, and the client fails every slot
  // kUnavailable. The batch is sent once, so it costs exactly one
  // connection and one cut.
  FaultProxy::Options popts;
  popts.seed = 21;
  popts.client_to_server.skip_frames = 1;  // HELLO passes untouched
  popts.client_to_server.cut_prob = 1.0;
  Start(popts);

  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());

  std::vector<SetRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back({kInternalCtx, "bulk" + std::to_string(i),
                    CacheValue::OfData("v" + std::to_string(i))});
  }
  auto out = backend->MultiSet(std::move(reqs));
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].code(), Code::kUnavailable) << "slot " << i;
  }
  // Zero partial application: the cut frame was discarded whole.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(instance_->ContainsRaw("bulk" + std::to_string(i)));
  }
  EXPECT_TRUE(WaitFor([&] { return proxy_->stats().cuts >= 1; }));
  EXPECT_EQ(proxy_->stats().cuts, 1u);
  EXPECT_EQ(proxy_->stats().connections_accepted, 1u);
}

TEST_F(FaultProxyTest, MidBulkResponseCutFailsEverySlotWithoutRetry) {
  // The batch reaches the server — the deletes apply — but the single bulk
  // response dies mid-frame. Every slot reports kUnavailable (never a mix
  // of ok and failed statuses), and with the writes possibly applied the
  // client must NOT retry: a fail-fast kUnavailable on all N slots is the
  // whole §10.3 contract.
  FaultProxy::Options popts;
  popts.seed = 23;
  popts.server_to_client.skip_frames = 1;  // HELLO response passes
  popts.server_to_client.cut_prob = 1.0;
  Start(popts);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(instance_
                    ->Set(kInternalCtx, "drop" + std::to_string(i),
                          CacheValue::OfData("x"))
                    .ok());
  }

  auto backend = Backend();
  ASSERT_TRUE(backend->Connect().ok());

  std::vector<DeleteRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back({kInternalCtx, "drop" + std::to_string(i)});
  }
  auto out = backend->MultiDelete(std::move(reqs));
  ASSERT_EQ(out.size(), 6u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].code(), Code::kUnavailable) << "slot " << i;
  }
  // The server-side state DID change — which is exactly why the client must
  // fail fast instead of re-applying the batch on a fresh connection.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(instance_->ContainsRaw("drop" + std::to_string(i)));
  }
  EXPECT_TRUE(WaitFor([&] { return proxy_->stats().cuts >= 1; }));
  EXPECT_EQ(proxy_->stats().cuts, 1u);
  EXPECT_EQ(proxy_->stats().connections_accepted, 1u);
}

// ---- Batched ops: one pipelined burst, never re-sent ------------------------

TEST_F(FaultProxyTest, MidBurstCutFailsEverySlotOfEachLeaseBurstWithoutResend) {
  // Each batched op — MultiGet and the four lease bursts — pipelines one
  // frame per key over one connection. The first response of the burst
  // dies mid-frame; with an in-flight window of 4 the 8-key burst is still
  // submitting when it does. Every slot must fail kUnavailable — the
  // in-flight ones through the cut, the rest because the burst's connection
  // is gone — and nothing may be redialed or re-sent, not even MultiGet's
  // retry-safe gets: one connection and one cut per burst.
  constexpr size_t kKeys = 8;
  std::vector<GetRequest> keys;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back({kInternalCtx, "lease" + std::to_string(i)});
  }
  using Burst = std::function<std::vector<Code>(TcpCacheBackend&)>;
  const std::vector<std::pair<const char*, Burst>> bursts = {
      {"MultiGet",
       [&](TcpCacheBackend& b) {
         std::vector<Code> codes;
         for (const auto& r : b.MultiGet(keys)) codes.push_back(r.code());
         return codes;
       }},
      {"MultiIqGet",
       [&](TcpCacheBackend& b) {
         std::vector<Code> codes;
         for (const auto& r : b.MultiIqGet(keys)) codes.push_back(r.code());
         return codes;
       }},
      {"MultiISet",
       [&](TcpCacheBackend& b) {
         std::vector<Code> codes;
         for (const auto& r : b.MultiISet(keys)) codes.push_back(r.code());
         return codes;
       }},
      {"MultiIqSet",
       [&](TcpCacheBackend& b) {
         std::vector<IqSetRequest> reqs;
         for (size_t i = 0; i < kKeys; ++i) {
           reqs.push_back({kInternalCtx, keys[i].key, CacheValue::OfData("v"),
                           static_cast<LeaseToken>(i + 1)});
         }
         std::vector<Code> codes;
         for (const auto& st : b.MultiIqSet(std::move(reqs))) {
           codes.push_back(st.code());
         }
         return codes;
       }},
      {"MultiIDelete",
       [&](TcpCacheBackend& b) {
         std::vector<IDeleteRequest> reqs;
         for (size_t i = 0; i < kKeys; ++i) {
           reqs.push_back(
               {kInternalCtx, keys[i].key, static_cast<LeaseToken>(i + 1)});
         }
         std::vector<Code> codes;
         for (const auto& st : b.MultiIDelete(reqs)) codes.push_back(st.code());
         return codes;
       }},
  };
  for (const auto& [name, burst] : bursts) {
    SCOPED_TRACE(name);
    FaultProxy::Options popts;
    popts.seed = 29;
    popts.server_to_client.skip_frames = 1;  // HELLO response passes
    popts.server_to_client.cut_prob = 1.0;
    Start(popts);

    TcpCacheBackend::Options copts;
    copts.max_inflight = 4;
    auto backend = Backend(copts);
    ASSERT_TRUE(backend->Connect().ok());

    const std::vector<Code> codes = burst(*backend);
    ASSERT_EQ(codes.size(), kKeys);
    for (size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(codes[i], Code::kUnavailable) << "slot " << i;
    }
    EXPECT_TRUE(WaitFor([&] { return proxy_->stats().cuts >= 1; }));
    EXPECT_EQ(proxy_->stats().cuts, 1u);
    EXPECT_EQ(proxy_->stats().connections_accepted, 1u);
    backend.reset();
    proxy_->Stop();
    server_->Stop();
  }
}

TEST(BurstCut, WorkerAbandonsAndSecondWorkerFinishesWithZeroStaleReads) {
  // A recovery worker whose path to the restarted primary is cut on the
  // first response of its arm burst (ISets of every dirty key of the
  // fragment). The server may have applied any prefix of the burst, so the
  // worker must abandon — Redlease released, nothing re-sent — and a second
  // worker on a clean path must finish the fragment: it backs off on the
  // keys whose orphaned I leases are still live, replays them once they
  // expire, and no read ever returns a stale value.
  constexpr size_t kFragments = 4;
  VirtualClock clock;
  DataStore store;
  InstanceRegistry registry;
  std::vector<std::unique_ptr<CacheInstance>> instances;
  std::vector<CacheInstance*> raw;
  for (InstanceId i = 0; i < 2; ++i) {
    instances.push_back(std::make_unique<CacheInstance>(i, &clock));
    raw.push_back(instances.back().get());
    ASSERT_TRUE(registry.Add(instances.back().get()).ok());
  }
  TransportServer::Options sopts;
  sopts.num_loops = 1;
  TransportServer server(std::move(registry), sopts);
  ASSERT_TRUE(server.Start().ok());
  FaultProxy::Options popts;
  popts.seed = 31;
  popts.server_to_client.skip_frames = 1;  // HELLO response passes
  popts.server_to_client.cut_prob = 1.0;
  FaultProxy proxy("127.0.0.1", server.port(), popts);
  ASSERT_TRUE(proxy.Start().ok());

  // Clean backends (client and second worker) dial the server directly;
  // the first worker reaches the primary through the proxy.
  std::vector<std::unique_ptr<TcpCacheBackend>> owned;
  std::vector<CacheBackend*> clean;
  for (InstanceId i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<TcpCacheBackend>("127.0.0.1",
                                                      server.port(), i));
    clean.push_back(owned.back().get());
  }
  owned.push_back(
      std::make_unique<TcpCacheBackend>("127.0.0.1", proxy.port(), 0));
  const std::vector<CacheBackend*> cut_primary = {owned.back().get(),
                                                  clean[1]};

  Coordinator::Options coord_opts;
  coord_opts.policy = RecoveryPolicy::GeminiO();
  Coordinator coordinator(&clock, raw, kFragments, coord_opts);
  GeminiClient client(&clock, &coordinator, clean, &store);
  Session session;
  std::vector<std::string> dirty;
  for (int i = 0; i < 50; ++i) {
    std::string key = "user" + std::to_string(i);
    store.Put(key, "v" + std::to_string(i));
    auto cfg = coordinator.GetConfiguration();
    if (cfg->fragment(cfg->FragmentOf(key)).primary == 0) {
      dirty.push_back(std::move(key));
    }
  }
  ASSERT_GE(dirty.size(), 4u);

  // Warm the primary, fail it, write every key of its fragments (dirty
  // lists on the secondary), refill the secondary, bring the primary back.
  for (const auto& k : dirty) ASSERT_TRUE(client.Read(session, k).ok());
  instances[0]->Fail();
  coordinator.OnInstanceFailed(0);
  for (const auto& k : dirty) {
    ASSERT_TRUE(client.Write(session, k, "fresh-" + k).ok()) << k;
  }
  for (const auto& k : dirty) ASSERT_TRUE(client.Read(session, k).ok());
  instances[0]->RecoverPersistent();
  coordinator.OnInstanceRecovered(0);
  ASSERT_FALSE(coordinator.FragmentsInMode(FragmentMode::kRecovery).empty());

  RecoveryWorker first(&clock, &coordinator, cut_primary);
  Session s1;
  ASSERT_TRUE(first.TryAdoptFragment(s1).has_value());
  EXPECT_TRUE(first.Step(s1));
  EXPECT_FALSE(first.has_work());
  EXPECT_EQ(first.stats().fragments_abandoned, 1u);
  EXPECT_EQ(first.stats().keys_overwritten, 0u);
  EXPECT_TRUE(WaitFor([&] { return proxy.stats().cuts >= 1; }));
  EXPECT_EQ(proxy.stats().cuts, 1u);
  EXPECT_EQ(proxy.stats().connections_accepted, 1u);

  RecoveryWorker second(&clock, &coordinator, clean);
  Session s2;
  for (int guard = 0; guard < 10000; ++guard) {
    if (!second.has_work() && !second.TryAdoptFragment(s2).has_value()) break;
    (void)second.Step(s2);
    clock.Advance(Millis(5));  // lets the orphaned I leases expire
  }
  EXPECT_TRUE(coordinator.FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_EQ(second.stats().fragments_abandoned, 0u);
  EXPECT_GE(second.stats().keys_overwritten, dirty.size());

  for (const auto& k : dirty) {
    if (auto v = raw[0]->RawGet(k); v.has_value()) {
      EXPECT_EQ(v->version, store.VersionOf(k)) << "stale entry for " << k;
    }
    auto r = client.Read(session, k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(r->value.version, store.VersionOf(k)) << "STALE read of " << k;
    EXPECT_EQ(r->value.data, "fresh-" + k);
  }
  for (auto& b : owned) b->Disconnect();
  proxy.Stop();
  server.Stop();
}

// ---- SO_RCVTIMEO mid-frame (the reader's slow-peer path) --------------------

TEST_F(FaultProxyTest, RecvTimeoutMidFrameIsConnectionFatal) {
  // The proxy forwards a prefix of the Get response, then stalls far past
  // the client's io_timeout. The reader cannot tell a stalled peer from a
  // dead one and must not resume a half-read stream later (it would desync
  // the FIFO), so the timeout kills the connection: prompt kUnavailable,
  // disconnected, clean redial after.
  FaultProxy::Options popts;
  popts.seed = 17;
  popts.server_to_client.skip_frames = 1;
  popts.server_to_client.stall_prob = 1.0;
  popts.server_to_client.stall = Seconds(2);
  Start(popts);

  TcpCacheBackend::Options copts;
  copts.io_timeout = Millis(200);
  auto backend = Backend(copts);
  ASSERT_TRUE(backend->Connect().ok());

  const Timestamp start = Mono();
  auto got = backend->Get(kInternalCtx, "k");
  const Duration elapsed = Mono() - start;
  EXPECT_EQ(got.status().code(), Code::kUnavailable);
  EXPECT_NE(got.status().message().find("timed out"), std::string::npos)
      << got.status().ToString();
  EXPECT_LT(elapsed, Millis(1500));  // ~io_timeout, nowhere near the stall
  EXPECT_FALSE(backend->connected());
  EXPECT_GE(proxy_->stats().stalls, 1u);

  // The drop is recoverable: a fresh connection's handshake frame is inside
  // the skip window and passes.
  EXPECT_TRUE(backend->Connect().ok());
  EXPECT_TRUE(backend->connected());
}

// ---- Handshake interruption -------------------------------------------------

TEST_F(FaultProxyTest, HandshakeCutMidHelloFailsPromptlyV2) {
  FaultProxy::Options popts;
  popts.seed = 19;
  popts.server_to_client.cut_prob = 1.0;  // skip 0: the HELLO response dies
  Start(popts);

  TcpCacheBackend::Options copts;
  copts.io_timeout = Seconds(10);  // must NOT take this long to notice
  auto backend = Backend(copts);

  const Timestamp start = Mono();
  Status s = backend->Connect();
  const Duration elapsed = Mono() - start;
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_LT(elapsed, Seconds(2));
  EXPECT_FALSE(backend->connected());
}

TEST_F(FaultProxyTest, ResetOnAcceptFailsPromptly) {
  FaultProxy::Options popts;
  popts.seed = 23;
  popts.reset_on_accept_prob = 1.0;
  Start(popts);

  auto backend = Backend();
  const Timestamp start = Mono();
  Status s = backend->Connect();
  const Duration elapsed = Mono() - start;
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_LT(elapsed, Seconds(2));
  EXPECT_TRUE(
      WaitFor([&] { return proxy_->stats().connections_reset_on_accept >= 1; }));
}

TEST_F(FaultProxyTest, HandshakeCutMidHelloFailsPromptlyV1) {
  // A v1 client (raw socket, bare `u32 version` HELLO) through the same
  // killer proxy: it must see EOF promptly, not hang awaiting the frame.
  FaultProxy::Options popts;
  popts.seed = 29;
  popts.server_to_client.cut_prob = 1.0;
  Start(popts);

  int fd = RawConnect(proxy_->port());
  ASSERT_GE(fd, 0);
  std::string hello_body;
  wire::PutU32(hello_body, 1);
  std::string out;
  wire::AppendRequest(out, wire::Op::kHello, hello_body);
  ASSERT_TRUE(SendAll(fd, out));

  const Timestamp start = Mono();
  uint8_t tag = 0xFF;
  std::string body;
  EXPECT_FALSE(ReadFrame(fd, &tag, &body));  // EOF mid-frame
  EXPECT_LT(Mono() - start, Seconds(3));
  ::close(fd);
}

// ---- Circuit breaker --------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveDialFailuresThenRecovers) {
  // Carve out a port with no listener, fail enough dials to open the
  // breaker, then start a real server on that exact port and watch the
  // half-open probe close it again.
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  uint16_t port = 0;
  {
    TransportServer placeholder(&instance, TransportServer::Options{});
    ASSERT_TRUE(placeholder.Start().ok());
    port = placeholder.port();
    placeholder.Stop();
  }

  TcpCacheBackend::Options copts;
  copts.connect_timeout = Millis(250);
  copts.breaker_failure_threshold = 3;
  copts.breaker_cooldown = Millis(400);
  TcpCacheBackend backend("127.0.0.1", port, wire::kAnyInstance, copts);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(backend.Connect().code(), Code::kUnavailable);
  }
  EXPECT_EQ(backend.breaker_state(), TcpConnection::BreakerState::kOpen);

  // While open: fail fast, no dial, no connect_timeout.
  const Timestamp start = Mono();
  Status s = backend.Ping();
  const Duration elapsed = Mono() - start;
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_NE(s.message().find("circuit breaker"), std::string::npos)
      << s.ToString();
  EXPECT_LT(elapsed, Millis(100));

  // The endpoint comes back; after the cooldown the next call is the
  // half-open probe, and its success closes the breaker.
  TransportServer::Options sopts;
  sopts.port = port;
  TransportServer server(&instance, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return backend.breaker_state() == TcpConnection::BreakerState::kHalfOpen;
  }));
  EXPECT_TRUE(backend.Connect().ok());
  EXPECT_EQ(backend.breaker_state(), TcpConnection::BreakerState::kClosed);
  EXPECT_TRUE(backend.Ping().ok());
  backend.Disconnect();
  server.Stop();
}

TEST(CircuitBreaker, GeminiClientDegradesToStoreReadsWhileOpen) {
  // One instance behind a real server; the coordinator still believes in it
  // (its failure detection is out of band), so when the server dies the
  // client sees kUnavailable with an unchanged configuration: reads fall
  // through to the data store, writes suspend. The breaker makes that
  // fallthrough cheap — after it opens, reads stop paying dial attempts.
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  auto server = std::make_unique<TransportServer>(&instance,
                                                  TransportServer::Options{});
  ASSERT_TRUE(server->Start().ok());

  TcpCacheBackend::Options copts;
  copts.connect_timeout = Millis(200);
  copts.breaker_failure_threshold = 2;
  copts.breaker_cooldown = Seconds(30);  // stays open for the whole test
  TcpCacheBackend backend("127.0.0.1", server->port(), wire::kAnyInstance,
                          copts);
  ASSERT_TRUE(backend.Connect().ok());

  DataStore store;
  for (int i = 0; i < 30; ++i) {
    store.Put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  Coordinator coordinator(&clock, {&instance}, 4, Coordinator::Options{});
  GeminiClient client(&clock, &coordinator, {&backend}, &store);
  Session session;

  auto r = client.Read(session, "key0");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);  // miss-filled over the wire

  server->Stop();
  server.reset();
  backend.Disconnect();

  // Every read keeps succeeding from the store; after
  // breaker_failure_threshold dials the breaker opens and they get cheap.
  for (int i = 0; i < 10; ++i) {
    auto fallback = client.Read(session, "key" + std::to_string(i));
    ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
    EXPECT_EQ(fallback->value.data, "v" + std::to_string(i));
    EXPECT_EQ(fallback->instance, kInvalidInstance);  // store, not cache
  }
  EXPECT_EQ(backend.breaker_state(), TcpConnection::BreakerState::kOpen);

  const Timestamp start = Mono();
  for (int i = 10; i < 30; ++i) {
    auto fallback = client.Read(session, "key" + std::to_string(i));
    ASSERT_TRUE(fallback.ok());
    EXPECT_EQ(fallback->value.data, "v" + std::to_string(i));
  }
  EXPECT_LT(Mono() - start, Seconds(2));  // fail-fast, not 20 dial timeouts

  EXPECT_EQ(client.Write(session, "key0", std::string("new")).code(),
            Code::kSuspended);
  EXPECT_GE(client.stats().store_reads, 30u);
}

// ---- Server hardening: slowloris reaping ------------------------------------

TEST(ServerHardening, SlowlorisConnectionsAreReapedEstablishedOnesAreNot) {
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.num_loops = 1;
  sopts.idle_timeout_ms = 100;
  TransportServer server(&instance, sopts);
  ASSERT_TRUE(server.Start().ok());

  // A healthy pipelined client, established (HELLO done, no partial frame).
  TcpCacheBackend backend("127.0.0.1", server.port());
  ASSERT_TRUE(backend.Connect().ok());
  ASSERT_TRUE(backend.Ping().ok());

  // A slowloris: 3 bytes of a frame header, then silence.
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string("\x10\x00\x00", 3)));

  // The server reaps it (EOF on our side) well inside a few timeouts...
  // EINTR is retried: a signal-interrupted recv is not the verdict.
  const Timestamp start = Mono();
  char byte;
  ssize_t n;
  do {
    n = ::recv(fd, &byte, 1, 0);  // 5 s SO_RCVTIMEO cap
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0) << "expected EOF, got n=" << n << " errno=" << errno;
  EXPECT_LT(Mono() - start, Seconds(3));
  ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return server.stats().connections_reaped >= 1; }));
  EXPECT_EQ(server.stats().connections_reaped, 1u);

  // ...while the established connection, idle far longer than
  // idle_timeout_ms between complete requests, is untouched.
  SleepFor(Millis(300));
  EXPECT_TRUE(backend.Ping().ok());
  EXPECT_EQ(server.stats().connections_reaped, 1u);
  backend.Disconnect();
  server.Stop();
}

// ---- The capstone: failover cycle through an adversarial schedule -----------

class ChaosClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kInstances = 2;
  static constexpr size_t kFragments = 4;

  void SetUp() override {
    seed_ = ChaosSeed();
    InstanceRegistry registry;
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
      ASSERT_TRUE(registry.Add(instances_.back().get()).ok());
    }
    TransportServer::Options sopts;
    sopts.num_loops = 1;
    server_ = std::make_unique<TransportServer>(std::move(registry), sopts);
    ASSERT_TRUE(server_->Start().ok());

    // The adversarial-but-survivable schedule: heavy reordering pressure
    // (delays, sub-timeout stalls, hold bursts) on every frame, plus a thin
    // tail of real connection loss. The client sends each request once, so
    // every loss surfaces as kUnavailable, and the harness re-runs the
    // operation at the application level, exactly as a real application
    // would.
    FaultProxy::Options popts;
    popts.seed = seed_;
    for (auto* p : {&popts.client_to_server, &popts.server_to_client}) {
      p->skip_frames = 1;
      p->delay_prob = 0.35;
      p->delay_min = 0;
      p->delay_max = Millis(3);
      p->stall_prob = 0.08;
      p->stall = Millis(15);
      p->hold_every = 6;
      p->hold_count = 2;
    }
    popts.client_to_server.cut_prob = 0.03;
    popts.server_to_client.cut_prob = 0.04;
    popts.server_to_client.truncate_prob = 0.01;
    proxy_ = std::make_unique<FaultProxy>("127.0.0.1", server_->port(),
                                          popts);
    ASSERT_TRUE(proxy_->Start().ok());

    TcpCacheBackend::Options copts;
    copts.io_timeout = Seconds(2);
    for (size_t i = 0; i < kInstances; ++i) {
      backends_.push_back(std::make_unique<TcpCacheBackend>(
          "127.0.0.1", proxy_->port(), static_cast<InstanceId>(i), copts));
      remote_.push_back(backends_.back().get());
    }

    Coordinator::Options copts2;
    copts2.policy = RecoveryPolicy::GeminiO();
    coordinator_ = std::make_unique<Coordinator>(&clock_, raw_, kFragments,
                                                 copts2);
    client_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                             remote_, &store_);
    for (int i = 0; i < 50; ++i) {
      store_.Put("user" + std::to_string(i), "v" + std::to_string(i));
    }
  }

  void TearDown() override {
    for (auto& b : backends_) b->Disconnect();
    if (proxy_ != nullptr) proxy_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  std::string KeyOnPrimary(InstanceId id) {
    auto cfg = coordinator_->GetConfiguration();
    for (int i = 0; i < 50; ++i) {
      std::string key = "user" + std::to_string(i);
      if (cfg->fragment(cfg->FragmentOf(key)).primary == id) return key;
    }
    ADD_FAILURE() << "no key with primary " << id;
    return "user0";
  }

  /// A read that must eventually succeed and must NEVER return a stale
  /// value. Individual attempts may fail when a chaos cut lands on a
  /// lease-bearing frame; the virtual clock advances between attempts so
  /// leases orphaned by a cut expire instead of wedging the key.
  GeminiClient::ReadResult MustRead(const std::string& key) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const Timestamp start = Mono();
      auto r = client_->Read(session_, key);
      EXPECT_LT(Mono() - start, Seconds(10)) << "hung read of " << key;
      if (r.ok()) {
        EXPECT_EQ(r->value.version, store_.VersionOf(key))
            << "STALE read of " << key;
        return *r;
      }
      clock_.Advance(Millis(5));
    }
    ADD_FAILURE() << "read of " << key << " never succeeded";
    return {};
  }

  void MustWrite(const std::string& key, const std::string& value) {
    for (int attempt = 0; attempt < 300; ++attempt) {
      const Timestamp start = Mono();
      Status s = client_->Write(session_, key, value);
      EXPECT_LT(Mono() - start, Seconds(10)) << "hung write of " << key;
      if (s.ok()) return;
      clock_.Advance(Millis(5));
    }
    FAIL() << "write of " << key << " never succeeded";
  }

  VirtualClock clock_;
  DataStore store_;
  uint64_t seed_ = 1;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<FaultProxy> proxy_;
  std::vector<std::unique_ptr<TcpCacheBackend>> backends_;
  std::vector<CacheBackend*> remote_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  Session session_;
};

TEST_F(ChaosClusterTest, FullFailoverAndRecoveryCycleSurvivesChaos) {
  const std::string key = KeyOnPrimary(0);
  const FragmentId f = coordinator_->GetConfiguration()->FragmentOf(key);

  // Warm the primary through the hostile wire.
  (void)MustRead(key);

  // Primary fails; the coordinator publishes the transient configuration.
  instances_[0]->Fail();
  coordinator_->OnInstanceFailed(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kTransient);
  const InstanceId secondary =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_NE(secondary, kInvalidInstance);

  // Transient traffic rides the secondary; the write must land on the
  // fragment's dirty list there, observable through the same chaos proxy
  // (DirtyListGet is idempotent, so the loop below may send it again).
  (void)MustRead(key);
  MustWrite(key, "fresh");
  Result<CacheValue> dl = Status(Code::kUnavailable, "unfetched");
  for (int i = 0; i < 50 && !dl.ok(); ++i) {
    dl = backends_[secondary]->DirtyListGet(
        coordinator_->GetConfiguration()->id(), f);
  }
  ASSERT_TRUE(dl.ok()) << dl.status().ToString();
  EXPECT_NE(dl->data.find(key), std::string::npos);
  (void)MustRead(key);  // refill the secondary for the recovery transfer

  // The primary restarts persistent; recovery mode begins.
  instances_[0]->RecoverPersistent();
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  // A recovery worker drains the dirty lists through the same proxied
  // backends. A chaos cut can make it abandon a fragment mid-drain; the
  // adoption loop picks it right back up, and the advancing virtual clock
  // expires any red lease a cut orphaned.
  RecoveryWorker::Options wopts;
  wopts.overwrite_dirty = true;
  RecoveryWorker worker(&clock_, coordinator_.get(), remote_, wopts);
  Session wsession;
  int idle_rounds = 0;
  for (int guard = 0; guard < 20000 && idle_rounds < 200; ++guard) {
    if (!worker.has_work() &&
        !worker.TryAdoptFragment(wsession).has_value()) {
      // Nothing adoptable right now — but a red lease orphaned by a cut
      // blocks adoption only until it expires (500 ms of virtual time), so
      // advance well past the lifetime and retry rather than concluding
      // recovery is done.
      ++idle_rounds;
      clock_.Advance(Millis(25));
      continue;
    }
    idle_rounds = 0;
    (void)worker.Step(wsession);
    clock_.Advance(Millis(1));
  }
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_GT(worker.stats().fragments_recovered, 0u);

  // Back to normal mode: the value must come back fresh and non-stale, and
  // (within a few attempts, since a cut can force a store fallthrough) as a
  // cache hit from the recovered primary. A cut IQSET leaves its I lease
  // behind, and every read then backs off and falls through to the store
  // until the lease expires, so the virtual clock advances between reads.
  GeminiClient::ReadResult r;
  for (int i = 0; i < 50; ++i) {
    r = MustRead(key);
    if (r.cache_hit) break;
    clock_.Advance(Millis(5));
  }
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.value.data, "fresh");
  EXPECT_EQ(r.value.version, store_.VersionOf(key));

  // The proxy really was hostile, and deterministically so: the schedule
  // replays from the seed alone.
  const FaultProxy::Stats stats = proxy_->stats();
  EXPECT_GT(stats.frames_forwarded, 0u);
  EXPECT_GT(stats.delays + stats.stalls + stats.holds + stats.cuts +
                stats.truncations,
            0u);
  std::printf("[ chaos    ] seed=%llu frames=%llu delays=%llu stalls=%llu "
              "cuts=%llu truncations=%llu holds=%llu\n",
              static_cast<unsigned long long>(seed_),
              static_cast<unsigned long long>(stats.frames_forwarded),
              static_cast<unsigned long long>(stats.delays),
              static_cast<unsigned long long>(stats.stalls),
              static_cast<unsigned long long>(stats.cuts),
              static_cast<unsigned long long>(stats.truncations),
              static_cast<unsigned long long>(stats.holds));
}

}  // namespace
}  // namespace gemini
