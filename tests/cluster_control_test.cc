// Networked control plane, end to end in one process: a coordinator-only
// TransportServer hosting CoordinatorControl, instance TransportServers each
// running a CacheInstance, CoordinatorLinks registering and heartbeating
// over real TCP, a RemoteCoordinator consuming config pushes, and the full
// failure-detection cycle — kill a link, watch the coordinator fail the
// instance over missed beats and push the transient configuration; bring it
// back and watch recovery complete. Also covers the kStats introspection op
// (including InstanceOptions::extra_stats passthrough), cumulative server
// stats across Stop()/Start(), and the refusal paths (coordinator-only
// server vs data ops, plain geminid vs kCoord* ops).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cluster/cluster_endpoint.h"
#include "src/cluster/coordinator_control.h"
#include "src/cluster/coordinator_link.h"
#include "src/cluster/remote_coordinator.h"
#include "src/common/clock.h"
#include "src/common/types.h"
#include "src/coordinator/configuration.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

/// Polls `pred` until it holds or `timeout` passes. Wall-clock based: the
/// cluster runs on SystemClock (real sockets, real threads).
bool WaitFor(const std::function<bool()>& pred,
             Duration timeout = Seconds(10)) {
  const Timestamp deadline = SystemClock::Global().Now() + timeout;
  while (SystemClock::Global().Now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One in-process "geminid": a CacheInstance behind its own TransportServer,
/// with a CoordinatorLink beating at the cluster's interval.
struct InstanceNode {
  InstanceNode(InstanceId id, const Clock* clock,
               std::vector<std::pair<std::string, uint64_t>> extra_stats = {}) {
    instance = std::make_unique<CacheInstance>(id, clock);
    InstanceRegistry registry;
    InstanceOptions iopts;
    if (!extra_stats.empty()) {
      iopts.extra_stats = [extra_stats] { return extra_stats; };
    }
    EXPECT_TRUE(registry.Add(instance.get(), iopts).ok());
    server = std::make_unique<TransportServer>(std::move(registry),
                                               TransportServer::Options{});
    EXPECT_TRUE(server->Start().ok());
  }

  void StartLink(uint16_t coordinator_port, Duration interval) {
    CoordinatorLink::Options lopts;
    lopts.coordinators = {{"127.0.0.1", coordinator_port}};
    lopts.instance = instance->id();
    lopts.advertise_host = "127.0.0.1";
    lopts.advertise_port = server->port();
    lopts.heartbeat_interval = interval;
    lopts.on_config_id = [this](ConfigId latest) {
      instance->ObserveConfigId(latest);
    };
    link = std::make_unique<CoordinatorLink>(std::move(lopts));
    link->Start();
  }

  ~InstanceNode() {
    if (link) link->Stop();
    if (server) server->Stop();
  }

  std::unique_ptr<CacheInstance> instance;
  std::unique_ptr<TransportServer> server;
  std::unique_ptr<CoordinatorLink> link;
};

class ClusterControlTest : public ::testing::Test {
 protected:
  static constexpr Duration kBeat = Millis(20);

  void StartCluster(size_t num_instances, size_t num_fragments) {
    for (InstanceId i = 0; i < num_instances; ++i) {
      nodes_.push_back(
          std::make_unique<InstanceNode>(i, &SystemClock::Global()));
    }
    CoordinatorControl::Options copts;
    copts.num_instances = num_instances;
    copts.num_fragments = num_fragments;
    copts.heartbeat.interval = kBeat;
    copts.heartbeat.miss_threshold = 3;
    control_ = std::make_unique<CoordinatorControl>(&SystemClock::Global(),
                                                    copts);
    TransportServer::Options sopts;
    sopts.control = control_.get();
    coord_server_ = std::make_unique<TransportServer>(InstanceRegistry{},
                                                      sopts);
    ASSERT_TRUE(coord_server_->Start().ok());
    control_->Start(coord_server_.get());
    for (auto& node : nodes_) {
      node->StartLink(coord_server_->port(), kBeat);
    }
  }

  void TearDown() override {
    nodes_.clear();  // links stop before the coordinator goes away
    if (control_) control_->Stop();
    if (coord_server_) coord_server_->Stop();
  }

  /// Latest mode of `fragment` as a client would see it via `remote`.
  static FragmentMode ModeSeenBy(const RemoteCoordinator& remote,
                                 FragmentId fragment) {
    ConfigurationPtr c = remote.GetConfiguration();
    if (!c || fragment >= c->num_fragments()) return FragmentMode::kNormal;
    return c->fragment(fragment).mode;
  }

  std::vector<std::unique_ptr<InstanceNode>> nodes_;
  std::unique_ptr<CoordinatorControl> control_;
  std::unique_ptr<TransportServer> coord_server_;
};

TEST_F(ClusterControlTest, RegistersInstancesAndDistributesConfig) {
  StartCluster(/*num_instances=*/2, /*num_fragments=*/4);

  // Links register over TCP; the coordinator's recovery cycle for the
  // initial attach inserts the serialized configuration into each instance.
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[0]->instance->ContainsRaw(ConfigKey()) &&
           nodes_[1]->instance->ContainsRaw(ConfigKey());
  }));
  EXPECT_TRUE(nodes_[0]->link->registered());
  EXPECT_TRUE(nodes_[1]->link->registered());

  // A remote client bootstraps the same configuration from the coordinator.
  RemoteCoordinator::Options ropts;
  ropts.rewatch_interval = 0;  // single explicit fetch
  RemoteCoordinator remote("127.0.0.1", coord_server_->port(), ropts);
  ASSERT_TRUE(remote.Refresh().ok());
  ConfigurationPtr config = remote.GetConfiguration();
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->num_fragments(), 4u);
  EXPECT_GE(config->id(), 1u);
  for (FragmentId f = 0; f < 4; ++f) {
    EXPECT_EQ(config->fragment(f).mode, FragmentMode::kNormal);
  }
}

TEST_F(ClusterControlTest, MissedBeatsFailOverAndPushesReachSubscribers) {
  StartCluster(/*num_instances=*/2, /*num_fragments=*/2);
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[0]->link->registered() && nodes_[1]->link->registered();
  }));

  // Subscribe once; every later advance must arrive by push alone.
  RemoteCoordinator::Options ropts;
  ropts.rewatch_interval = 0;
  RemoteCoordinator remote("127.0.0.1", coord_server_->port(), ropts);
  ASSERT_TRUE(remote.Refresh().ok());
  const ConfigId before = remote.latest_id();

  // Fragment 0 starts on instance 0 (f % M). Silence instance 0's link:
  // within interval * miss_threshold the coordinator must fail it over.
  nodes_[0]->link->Stop();
  ASSERT_TRUE(WaitFor([&] {
    return ModeSeenBy(remote, 0) == FragmentMode::kTransient;
  })) << "failover config never reached the subscribed client";
  EXPECT_GT(remote.latest_id(), before);
  ConfigurationPtr transient_config = remote.GetConfiguration();
  EXPECT_EQ(transient_config->fragment(0).secondary, 1u);

  // The secondary got the marker-bearing dirty list over the wire.
  EXPECT_TRUE(nodes_[1]->instance->ContainsRaw(DirtyListKey(0)));

  // The survivor keeps beating and stays untouched.
  EXPECT_EQ(transient_config->fragment(1).primary, 1u);
  EXPECT_EQ(transient_config->fragment(1).mode, FragmentMode::kNormal);

  // Bring instance 0 back: re-registration is the recovery edge. The dirty
  // list is intact, so the fragment enters recovery mode (transition (2)).
  nodes_[0]->link->Start();
  ASSERT_TRUE(WaitFor([&] {
    return ModeSeenBy(remote, 0) == FragmentMode::kRecovery;
  }));

  // Recovery-side reports travel as kCoordReport; the dirty-query answer
  // flips once the drain is recorded.
  EXPECT_FALSE(remote.DirtyProcessed(0));
  remote.OnDirtyListProcessed(0);
  ASSERT_TRUE(WaitFor([&] { return remote.DirtyProcessed(0); }));
  remote.OnWorkingSetTransferTerminated(0);
  ASSERT_TRUE(WaitFor([&] {
    return ModeSeenBy(remote, 0) == FragmentMode::kNormal;
  })) << "recovery never completed";
}

TEST_F(ClusterControlTest, HeartbeatRepliesCarryConfigIdAdvances) {
  StartCluster(/*num_instances=*/2, /*num_fragments=*/2);
  ASSERT_TRUE(WaitFor([&] {
    return nodes_[0]->link->registered() && nodes_[1]->link->registered();
  }));
  // Fail instance 0 -> the coordinator publishes a new id. Instance 1 must
  // observe the advance through its heartbeat replies alone (no push
  // subscription on the link path).
  const ConfigId before = control_->coordinator().latest_id();
  nodes_[0]->link->Stop();
  ASSERT_TRUE(WaitFor([&] {
    return control_->coordinator().latest_id() > before &&
           nodes_[1]->instance->latest_config_id() >
               before;
  }));
}

TEST(ClusterControlRefusalTest, CoordinatorOnlyServerRejectsDataOps) {
  CoordinatorControl::Options copts;
  copts.num_instances = 1;
  copts.num_fragments = 1;
  CoordinatorControl control(&SystemClock::Global(), copts);
  TransportServer::Options sopts;
  sopts.control = &control;
  TransportServer server(InstanceRegistry{}, sopts);
  ASSERT_TRUE(server.Start().ok());
  control.Start(&server);

  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string resp;
  EXPECT_TRUE(conn.Transact(wire::Op::kPing, "", &resp).ok());

  // Data ops have no instance to land on.
  std::string body;
  wire::PutContext(body, OpContext{kInternalConfigId, kInvalidFragment});
  wire::PutKey(body, "k");
  EXPECT_EQ(conn.Transact(wire::Op::kGet, body, &resp).code(),
            Code::kUnavailable);

  // But the control plane answers.
  EXPECT_EQ(conn.Transact(wire::Op::kCoordConfigGet, "", &resp).code(),
            Code::kOk);

  control.Stop();
  server.Stop();
}

TEST(ClusterControlRefusalTest, PlainGeminidRejectsCoordinatorOps) {
  InstanceNode node(0, &SystemClock::Global());
  TcpConnection conn("127.0.0.1", node.server->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string resp;
  EXPECT_EQ(conn.Transact(wire::Op::kCoordConfigGet, "", &resp).code(),
            Code::kInvalidArgument);
}

TEST(ClusterStatsTest, StatsOpReportsServerCacheAndExtraCounters) {
  InstanceNode node(0, &SystemClock::Global(),
                    {{"persist.journal_commits", 7},
                     {"persist.appended_bytes", 4096}});
  TcpConnection conn("127.0.0.1", node.server->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());

  std::string body;
  wire::PutContext(body, OpContext{kInternalConfigId, kInvalidFragment});
  wire::PutKey(body, "k");
  wire::PutValue(body, CacheValue::OfData("v"));
  std::string resp;
  ASSERT_TRUE(conn.Transact(wire::Op::kSet, body, &resp).ok());

  ASSERT_TRUE(conn.Transact(wire::Op::kStats, "", &resp).ok());
  wire::Reader r(resp);
  uint32_t count = 0;
  ASSERT_TRUE(r.GetU32(&count));
  std::map<std::string, uint64_t> stats;
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    uint64_t value = 0;
    ASSERT_TRUE(r.GetBlob(&name));
    ASSERT_TRUE(r.GetU64(&value));
    stats[std::string(name)] = value;
  }
  EXPECT_TRUE(r.Done());

  EXPECT_GE(stats["server.frames_handled"], 1u);
  EXPECT_EQ(stats["cache.inserts"], 1u);
  EXPECT_EQ(stats["cache.entry_count"], 1u);
  // InstanceOptions::extra_stats rides along — how geminid surfaces its
  // PersistentStore counters without a transport -> persist dependency.
  EXPECT_EQ(stats["persist.journal_commits"], 7u);
  EXPECT_EQ(stats["persist.appended_bytes"], 4096u);
}

TEST(ClusterStatsTest, ServerStatsAccumulateAcrossRestart) {
  SystemClock clock;
  CacheInstance instance(0, &clock);
  InstanceRegistry registry;
  ASSERT_TRUE(registry.Add(&instance, InstanceOptions{}).ok());
  TransportServer server(std::move(registry), TransportServer::Options{});
  ASSERT_TRUE(server.Start().ok());

  {
    TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance,
                       TcpConnection::Options{});
    ASSERT_TRUE(conn.Connect().ok());
    std::string resp;
    ASSERT_TRUE(conn.Transact(wire::Op::kPing, "", &resp).ok());
    ASSERT_TRUE(conn.Transact(wire::Op::kPing, "", &resp).ok());
    conn.Disconnect();
  }
  const TransportServer::Stats before = server.stats();
  EXPECT_GE(before.connections_accepted, 1u);
  EXPECT_GE(before.frames_handled, 2u);

  // Counters are cumulative across a restart: a monitoring scrape after a
  // rolling bounce must not watch the totals jump backwards.
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  TransportServer::Stats after = server.stats();
  EXPECT_GE(after.connections_accepted, before.connections_accepted);
  EXPECT_GE(after.frames_handled, before.frames_handled);

  // And they keep counting up from the preserved baseline.
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string resp;
  ASSERT_TRUE(conn.Transact(wire::Op::kPing, "", &resp).ok());
  conn.Disconnect();
  after = server.stats();
  EXPECT_GE(after.frames_handled, before.frames_handled + 1);
  server.Stop();
}

TEST(ClusterEndpointTest, UnattachedEndpointIsDownAndDropsOps) {
  ClusterEndpoint ep(0);
  EXPECT_FALSE(ep.available());
  ep.SetUp(true);
  EXPECT_FALSE(ep.available());  // gated up but no address yet
  auto got = ep.Get("k");
  EXPECT_EQ(got.code(), Code::kUnavailable);
  EXPECT_EQ(ep.Set("k", CacheValue::OfData("v")).code(), Code::kUnavailable);
  // Lease calls are fire-and-forget: they must not crash unattached.
  ep.GrantLease(0, 1, Seconds(1), 1);
  ep.RevokeLease(0, 1);
}

}  // namespace
}  // namespace gemini
