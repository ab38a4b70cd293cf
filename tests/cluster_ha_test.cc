// Coordinator high availability (docs/PROTOCOL.md §12.7): the replicated
// geminicoordd group in one process. Covers the CoordinatorState wire codec,
// shadow refusal (kNotMaster over real TCP), epoch fencing on
// kCoordShadowSync (a stale mastership claim is rejected; a newer claim
// demotes a serving master), promotion from *stale* replicated state (the
// master died mid-replication — the config-id floor keeps every new id
// above everything the dead master could have published), rank-staggered
// election with client and link failover across the endpoint list, and
// double failover (the promoted master dies too).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/cache/cache_instance.h"
#include "src/cluster/coordinator_link.h"
#include "src/cluster/coordinator_replica.h"
#include "src/cluster/remote_coordinator.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/configuration.h"
#include "src/coordinator/coordinator.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

constexpr Duration kBeat = Millis(20);
constexpr Duration kSync = Millis(20);
constexpr Duration kElection = Millis(100);

bool WaitFor(const std::function<bool()>& pred,
             Duration timeout = Seconds(10)) {
  const Timestamp deadline = SystemClock::Global().Now() + timeout;
  while (SystemClock::Global().Now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Binds an ephemeral loopback port and releases it. Replica groups need
/// their ports before any member exists (each member's peer list names the
/// others); the close-to-bind race is acceptable in a test.
uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  ::close(fd);
  return port;
}

/// One geminicoordd-shaped process slice: a CoordinatorReplica behind its
/// own coordinator-only TransportServer on a pre-picked port.
struct ReplicaNode {
  ReplicaNode(uint16_t port,
              std::vector<CoordinatorReplica::PeerEndpoint> peers,
              uint32_t rank, size_t instances, size_t fragments,
              Duration election_timeout = kElection) {
    CoordinatorReplica::Options ropts;
    ropts.control.num_instances = instances;
    ropts.control.num_fragments = fragments;
    ropts.control.heartbeat.interval = kBeat;
    ropts.control.heartbeat.miss_threshold = 3;
    ropts.peers = std::move(peers);
    ropts.election = {rank, kSync, election_timeout};
    replica = std::make_unique<CoordinatorReplica>(&SystemClock::Global(),
                                                   ropts);
    TransportServer::Options sopts;
    sopts.port = port;
    sopts.control = replica.get();
    server = std::make_unique<TransportServer>(InstanceRegistry{}, sopts);
    EXPECT_TRUE(server->Start().ok());
    replica->Start(server.get());
  }

  /// Graceful crash stand-in: the sync beat stops, so from the peers' point
  /// of view this member is dead.
  void Kill() {
    if (dead) return;
    dead = true;
    replica->Stop();
    server->Stop();
  }

  ~ReplicaNode() { Kill(); }

  std::unique_ptr<CoordinatorReplica> replica;
  std::unique_ptr<TransportServer> server;
  bool dead = false;
};

/// Pre-picks a port per member and builds each member's peer list (everyone
/// but itself), mirroring how geminicoordd --peers deployments are wired.
std::vector<std::unique_ptr<ReplicaNode>> StartGroup(size_t members,
                                                     size_t instances,
                                                     size_t fragments) {
  std::vector<uint16_t> ports(members);
  for (auto& p : ports) {
    p = PickFreePort();
    EXPECT_NE(p, 0);
  }
  std::vector<std::unique_ptr<ReplicaNode>> group;
  for (size_t i = 0; i < members; ++i) {
    std::vector<CoordinatorReplica::PeerEndpoint> peers;
    for (size_t j = 0; j < members; ++j) {
      if (j != i) peers.push_back({"127.0.0.1", ports[j]});
    }
    group.push_back(std::make_unique<ReplicaNode>(
        ports[i], std::move(peers), static_cast<uint32_t>(i), instances,
        fragments));
  }
  return group;
}

CoordinatorState SampleState() {
  CoordinatorState state;
  state.next_config_id = 42;
  state.round_robin_cursor = 3;
  state.discarded_fragments = 7;
  state.master_epoch = 5;
  state.believed_up = {true, false, true};
  CoordinatorState::FragmentEntry e0;
  e0.assignment = {0, 2, 17, FragmentMode::kTransient, 4};
  e0.prefailure_config_id = 11;
  e0.secondary_created_id = 12;
  e0.dirty_processed = true;
  CoordinatorState::FragmentEntry e1;
  e1.assignment = {2, kInvalidInstance, 9, FragmentMode::kNormal, 1};
  e1.wst_terminated = true;
  state.fragments = {e0, e1};
  return state;
}

TEST(CoordinatorStateCodecTest, RoundTripsAllFields) {
  const CoordinatorState in = SampleState();
  std::string bytes;
  EncodeCoordinatorState(bytes, in);

  CoordinatorState out;
  ASSERT_TRUE(DecodeCoordinatorState(bytes, &out));
  EXPECT_EQ(out.next_config_id, in.next_config_id);
  EXPECT_EQ(out.round_robin_cursor, in.round_robin_cursor);
  EXPECT_EQ(out.discarded_fragments, in.discarded_fragments);
  EXPECT_EQ(out.master_epoch, in.master_epoch);
  EXPECT_EQ(out.believed_up, in.believed_up);
  ASSERT_EQ(out.fragments.size(), in.fragments.size());
  for (size_t f = 0; f < in.fragments.size(); ++f) {
    EXPECT_EQ(out.fragments[f].assignment, in.fragments[f].assignment);
    EXPECT_EQ(out.fragments[f].prefailure_config_id,
              in.fragments[f].prefailure_config_id);
    EXPECT_EQ(out.fragments[f].secondary_created_id,
              in.fragments[f].secondary_created_id);
    EXPECT_EQ(out.fragments[f].dirty_processed,
              in.fragments[f].dirty_processed);
    EXPECT_EQ(out.fragments[f].wst_terminated,
              in.fragments[f].wst_terminated);
  }
}

TEST(CoordinatorStateCodecTest, RejectsMalformedInput) {
  std::string bytes;
  EncodeCoordinatorState(bytes, SampleState());
  CoordinatorState out;

  EXPECT_FALSE(DecodeCoordinatorState("", &out));
  // Truncated at every prefix length: no read past the end, no acceptance.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        DecodeCoordinatorState(std::string_view(bytes.data(), len), &out))
        << "accepted a " << len << "-byte prefix";
  }
  // Trailing garbage is not "just extra" — a sync frame is exact.
  EXPECT_FALSE(DecodeCoordinatorState(bytes + "x", &out));
  // Unknown future version: refuse rather than misparse.
  std::string reversioned = bytes;
  reversioned[0] = static_cast<char>(0xEE);
  EXPECT_FALSE(DecodeCoordinatorState(reversioned, &out));
}

/// A valid state blob whose fragment count (or, with `believed_up`, whose
/// believed_up count) claims 0xFFFFFFFF entries. Trusted, the fragment
/// count would reserve ~200 GB.
std::string OverclaimedStateBlob(bool believed_up = false) {
  const CoordinatorState state = SampleState();
  std::string bytes;
  EncodeCoordinatorState(bytes, state);
  // version | 4 x u64 | u32 believed_up count | bytes | u32 fragment count
  const size_t up_count = 4 + 4 * 8;
  const size_t at =
      believed_up ? up_count : up_count + 4 + state.believed_up.size();
  for (size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(0xFF);
  return bytes;
}

TEST(CoordinatorStateCodecTest, RejectsOverclaimedCountsWithoutAllocating) {
  CoordinatorState out;
  EXPECT_FALSE(DecodeCoordinatorState(OverclaimedStateBlob(), &out));
  EXPECT_FALSE(DecodeCoordinatorState(OverclaimedStateBlob(true), &out));
}

TEST(CoordinatorReplicaTest, SoloReplicaPromotesImmediately) {
  ReplicaNode node(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/2, /*fragments=*/2);
  EXPECT_TRUE(node.replica->is_master());
  EXPECT_EQ(node.replica->epoch(), 1u);
  EXPECT_EQ(node.replica->promotions(), 1u);

  TcpConnection conn("127.0.0.1", node.server->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string resp;
  EXPECT_TRUE(conn.Transact(wire::Op::kCoordConfigGet, "", &resp).ok());
}

TEST(CoordinatorReplicaTest, ShadowAnswersNotMasterOverTheWire) {
  // One (never-reachable) peer plus a long election timeout pins the
  // replica in its boot-time shadow role for the whole test.
  ReplicaNode node(PickFreePort(), {{"127.0.0.1", PickFreePort()}},
                   /*rank=*/1, /*instances=*/2, /*fragments=*/2,
                   /*election_timeout=*/Seconds(30));
  EXPECT_FALSE(node.replica->is_master());

  // kNotMaster must survive the status wire encoding round trip — it is
  // what tells clients "redial the next endpoint" (§12.7).
  TcpConnection conn("127.0.0.1", node.server->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string resp;
  EXPECT_EQ(conn.Transact(wire::Op::kCoordConfigGet, "", &resp).code(),
            Code::kNotMaster);
  std::string beat;
  wire::PutU32(beat, 1);
  wire::PutU32(beat, 0);
  EXPECT_EQ(conn.Transact(wire::Op::kCoordHeartbeat, beat, &resp).code(),
            Code::kNotMaster);
  // Introspection is role-independent: a shadow reports its own counters.
  EXPECT_TRUE(conn.Transact(wire::Op::kStats, "", &resp).ok());
}

/// Builds a kCoordShadowSync request body claiming mastership at
/// (epoch, rank) with the given replicated state.
std::string SyncBody(uint64_t epoch, uint32_t rank,
                     const CoordinatorState& state) {
  std::string blob;
  EncodeCoordinatorState(blob, state);
  std::string body;
  wire::PutU64(body, epoch);
  wire::PutU32(body, rank);
  wire::PutBlob(body, blob);
  return body;
}

TEST(CoordinatorReplicaTest, OverclaimedShadowSyncIsRefusedOverTheWire) {
  // A trusted count would reserve ~200 GB on a server shard thread and take
  // the process down; it must be an ordinary malformed request instead.
  ReplicaNode node(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/2, /*fragments=*/2);
  TcpConnection conn("127.0.0.1", node.server->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  ASSERT_TRUE(conn.Connect().ok());
  std::string body;
  wire::PutU64(body, 9);  // epoch
  wire::PutU32(body, 1);  // rank
  wire::PutBlob(body, OverclaimedStateBlob());
  std::string resp;
  const Status s = conn.Transact(wire::Op::kCoordShadowSync, body, &resp);
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  EXPECT_TRUE(conn.Transact(wire::Op::kPing, "", &resp).ok());
  EXPECT_TRUE(node.replica->is_master());
}

TEST(CoordinatorReplicaTest, SyncFencingRejectsStaleClaimAndDemotesOnNewer) {
  // Solo replica: promoted at epoch 1, rank 0.
  ReplicaNode node(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/2, /*fragments=*/2);
  ASSERT_TRUE(node.replica->is_master());

  CoordinatorState state;
  state.believed_up = {true, true};
  state.fragments.resize(2);

  // A fenced ex-master replays its old claim (same epoch, higher rank):
  // reject with kNotMaster so the sender demotes itself.
  state.master_epoch = 1;
  ControlPlane::Reply stale = node.replica->HandleControl(
      wire::Op::kCoordShadowSync, SyncBody(/*epoch=*/1, /*rank=*/7, state));
  EXPECT_EQ(stale.status.code(), Code::kNotMaster);
  EXPECT_TRUE(node.replica->is_master());

  // Garbage payloads are an error, never a role change.
  ControlPlane::Reply malformed =
      node.replica->HandleControl(wire::Op::kCoordShadowSync, "junk");
  EXPECT_EQ(malformed.status.code(), Code::kInvalidArgument);
  EXPECT_TRUE(node.replica->is_master());

  // A strictly newer claim wins: the serving master steps down and starts
  // answering kNotMaster itself.
  state.master_epoch = 3;
  state.next_config_id = (3ull << 32) + 9;
  ControlPlane::Reply newer = node.replica->HandleControl(
      wire::Op::kCoordShadowSync, SyncBody(/*epoch=*/3, /*rank=*/2, state));
  ASSERT_TRUE(newer.status.ok());
  wire::Reader r(newer.body);
  uint64_t acked_epoch = 0;
  ASSERT_TRUE(r.GetU64(&acked_epoch) && r.Done());
  EXPECT_EQ(acked_epoch, 3u);
  EXPECT_FALSE(node.replica->is_master());
  EXPECT_EQ(node.replica->epoch(), 3u);
  EXPECT_EQ(node.replica->demotions(), 1u);
  ControlPlane::Reply after =
      node.replica->HandleControl(wire::Op::kCoordConfigGet, "");
  EXPECT_EQ(after.status.code(), Code::kNotMaster);
}

TEST(CoordinatorReplicaTest, IgnoresItsOwnEchoedClaim) {
  // Operators may hand every member the identical full group list, so a
  // master's sync beat can reach its own server. The echoed claim carries
  // the replica's own rank and must be acked without applying — treating
  // it as foreign made a boot master demote itself forever (the claim
  // ordering accepts epoch == mine && rank <= master_rank).
  ReplicaNode node(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/2, /*fragments=*/2);
  ASSERT_TRUE(node.replica->is_master());
  ASSERT_EQ(node.replica->epoch(), 1u);

  CoordinatorState state;
  state.master_epoch = 1;
  state.believed_up = {true, true};
  state.fragments.resize(2);
  ControlPlane::Reply echo = node.replica->HandleControl(
      wire::Op::kCoordShadowSync, SyncBody(/*epoch=*/1, /*rank=*/0, state));
  ASSERT_TRUE(echo.status.ok());
  wire::Reader r(echo.body);
  uint64_t acked_epoch = 0;
  ASSERT_TRUE(r.GetU64(&acked_epoch) && r.Done());
  EXPECT_EQ(acked_epoch, 1u);
  EXPECT_TRUE(node.replica->is_master());
  EXPECT_EQ(node.replica->demotions(), 0u);
  // Still serving: the control plane answers, not kNotMaster.
  ControlPlane::Reply get =
      node.replica->HandleControl(wire::Op::kCoordConfigGet, "");
  EXPECT_TRUE(get.status.ok());
}

TEST(CoordinatorReplicaTest, PromotesFromStaleStateAboveConfigIdFloor) {
  // The master dies mid-replication: the shadow's last sync is *stale*
  // (small config ids), and later configs the dead master published never
  // arrived. The promotion floor must put every id the new master mints
  // above anything the old one could have handed out in its epoch.
  ReplicaNode node(PickFreePort(), {{"127.0.0.1", PickFreePort()}},
                   /*rank=*/0, /*instances=*/2, /*fragments=*/2);
  ASSERT_FALSE(node.replica->is_master());

  CoordinatorState state;
  state.master_epoch = 1;
  state.next_config_id = 5;  // stale: the master got to id 5, then kept going
  state.believed_up = {true, true};
  state.fragments.resize(2);
  state.fragments[0].assignment = {0, 1, 4, FragmentMode::kNormal, 0};
  state.fragments[1].assignment = {1, 0, 4, FragmentMode::kNormal, 0};
  ControlPlane::Reply ack = node.replica->HandleControl(
      wire::Op::kCoordShadowSync, SyncBody(/*epoch=*/1, /*rank=*/1, state));
  ASSERT_TRUE(ack.status.ok());
  EXPECT_FALSE(node.replica->is_master());
  EXPECT_EQ(node.replica->epoch(), 1u);

  // The claimed master never syncs again; rank 0's staggered deadline fires
  // and the shadow promotes itself with the replicated snapshot.
  ASSERT_TRUE(WaitFor([&] { return node.replica->is_master(); }));
  EXPECT_EQ(node.replica->epoch(), 2u);
  ASSERT_NE(node.replica->control(), nullptr);
  // The promotion re-publish carries (2 << 32) — the floor minus the mint
  // step — and every id minted afterwards exceeds it. Either way, strictly
  // above anything the epoch-1 master could have published.
  EXPECT_GE(node.replica->control()->coordinator().latest_id(),
            uint64_t{2} << 32);
  EXPECT_GT(node.replica->control()->coordinator().latest_id(),
            uint64_t{1} << 32);
}

/// One in-process geminid: CacheInstance + server + a CoordinatorLink that
/// carries the whole coordinator endpoint list.
struct InstanceNode {
  InstanceNode(InstanceId id,
               std::vector<CoordinatorLink::Endpoint> coordinators) {
    instance = std::make_unique<CacheInstance>(id, &SystemClock::Global());
    InstanceRegistry registry;
    EXPECT_TRUE(registry.Add(instance.get(), InstanceOptions{}).ok());
    server = std::make_unique<TransportServer>(std::move(registry),
                                               TransportServer::Options{});
    EXPECT_TRUE(server->Start().ok());
    CoordinatorLink::Options lopts;
    lopts.coordinators = std::move(coordinators);
    lopts.instance = id;
    lopts.advertise_host = "127.0.0.1";
    lopts.advertise_port = server->port();
    lopts.heartbeat_interval = kBeat;
    lopts.on_config_id = [this](ConfigId latest) {
      instance->ObserveConfigId(latest);
    };
    link = std::make_unique<CoordinatorLink>(std::move(lopts));
    link->Start();
  }

  ~InstanceNode() {
    link->Stop();
    server->Stop();
  }

  std::unique_ptr<CacheInstance> instance;
  std::unique_ptr<TransportServer> server;
  std::unique_ptr<CoordinatorLink> link;
};

TEST(CoordinatorReplicaTest, ElectionFailoverAndDoubleFailover) {
  auto group = StartGroup(/*members=*/3, /*instances=*/2, /*fragments=*/2);

  // Rank 0 has the shortest staggered election delay: it must win the boot
  // election, and its sync beats must keep ranks 1 and 2 shadows.
  ASSERT_TRUE(WaitFor([&] { return group[0]->replica->is_master(); }));
  EXPECT_EQ(group[0]->replica->epoch(), 1u);
  EXPECT_FALSE(group[1]->replica->is_master());
  EXPECT_FALSE(group[2]->replica->is_master());

  std::vector<CoordinatorLink::Endpoint> link_eps;
  std::vector<RemoteCoordinator::Endpoint> client_eps;
  for (const auto& node : group) {
    link_eps.push_back({"127.0.0.1", node->server->port()});
    client_eps.push_back({"127.0.0.1", node->server->port()});
  }
  InstanceNode i0(0, link_eps), i1(1, link_eps);
  ASSERT_TRUE(WaitFor([&] {
    return i0.link->registered() && i1.link->registered();
  }));

  RemoteCoordinator::Options ropts;
  ropts.rewatch_interval = 0;
  RemoteCoordinator remote(client_eps, ropts);
  ASSERT_TRUE(WaitFor([&] { return remote.Refresh().ok(); }));
  const ConfigId epoch1_id = remote.latest_id();
  EXPECT_LT(epoch1_id, uint64_t{1} << 32);  // first master: unfenced ids

  // ---- Failover 1: the master dies; rank 1 must promote. ----
  group[0]->Kill();
  ASSERT_TRUE(WaitFor([&] { return group[1]->replica->is_master(); }));
  EXPECT_GE(group[1]->replica->epoch(), 2u);
  EXPECT_FALSE(group[2]->replica->is_master());

  // Clients redial through the endpoint list and land on the new master;
  // everything it publishes is fenced above the old master's ids.
  ASSERT_TRUE(WaitFor([&] {
    return remote.Refresh().ok() && remote.latest_id() > (uint64_t{1} << 32);
  }));
  EXPECT_GE(remote.stats().endpoint_switches, 1u);

  // Geminid links re-register with the promoted master (its registration
  // grace window expects exactly that).
  ASSERT_TRUE(WaitFor([&] {
    return i0.link->registered() && i1.link->registered() &&
           i0.link->endpoint_switches() >= 1;
  }));

  // ---- Failover 2: the promoted master dies too. ----
  group[1]->Kill();
  ASSERT_TRUE(WaitFor([&] { return group[2]->replica->is_master(); }));
  EXPECT_GE(group[2]->replica->epoch(), 3u);
  ASSERT_TRUE(WaitFor([&] {
    return remote.Refresh().ok() && remote.latest_id() > (uint64_t{2} << 32);
  }));
  ASSERT_TRUE(WaitFor([&] {
    return i0.link->registered() && i1.link->registered();
  }));
}

TEST(CoordinatorReplicaTest, RemoteCoordinatorSkipsDeadEndpoint) {
  ReplicaNode solo(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/1, /*fragments=*/1);
  RemoteCoordinator::Options ropts;
  ropts.rewatch_interval = 0;
  // First endpoint is dead; the client must rotate and succeed anyway.
  RemoteCoordinator remote({{"127.0.0.1", PickFreePort()},
                            {"127.0.0.1", solo.server->port()}},
                           ropts);
  ASSERT_TRUE(WaitFor([&] { return remote.Refresh().ok(); }));
  EXPECT_EQ(remote.active_endpoint(), 1u);
  EXPECT_GE(remote.stats().endpoint_switches, 1u);
}

TEST(CoordinatorReplicaTest, RemoteCoordinatorRotatesOnlyRetrySafeOps) {
  // A report is fail-fast (§11.2): after kUnavailable it may have been
  // applied, so it must not go to the next endpoint. The watch is
  // retry-safe, so Refresh() rotates past the dead endpoint.
  ReplicaNode solo(PickFreePort(), /*peers=*/{}, /*rank=*/0,
                   /*instances=*/1, /*fragments=*/1);
  RemoteCoordinator::Options ropts;
  ropts.rewatch_interval = 0;
  RemoteCoordinator remote({{"127.0.0.1", PickFreePort()},
                            {"127.0.0.1", solo.server->port()}},
                           ropts);
  remote.OnDirtyListProcessed(0);
  EXPECT_EQ(remote.active_endpoint(), 0u);
  EXPECT_EQ(remote.stats().endpoint_switches, 0u);

  ASSERT_TRUE(WaitFor([&] { return remote.Refresh().ok(); }));
  EXPECT_EQ(remote.active_endpoint(), 1u);
  EXPECT_EQ(remote.stats().endpoint_switches, 1u);
}

}  // namespace
}  // namespace gemini
