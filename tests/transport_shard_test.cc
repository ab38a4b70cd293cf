// Sharded TransportServer tests, parameterized over {1 loop, 4 loops}:
// num_loops = 1 must behave like the historical single-threaded server.
// Distinct sockets (TcpConnection built directly, bypassing the backend's
// connection pool) land on different shards round-robin; each test asserts
// the properties sharding must not weaken — per-connection FIFO, instance
// routing, aggregated stats — plus clean shutdown and restart.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/clock.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

std::string SetBody(const std::string& key, const std::string& data) {
  std::string body;
  wire::PutContext(body, kCtx);
  wire::PutKey(body, key);
  wire::PutValue(body, CacheValue::OfData(data));
  return body;
}

std::string GetBody(const std::string& key) {
  std::string body;
  wire::PutContext(body, kCtx);
  wire::PutKey(body, key);
  return body;
}

std::string DecodeValue(const std::string& resp_body) {
  wire::Reader r(resp_body);
  CacheValue value;
  if (!r.GetValue(&value)) return "<undecodable>";
  return value.data;
}

/// Parameter: num_loops.
class ShardedServerTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void StartServer(size_t n_instances = 1) {
    InstanceRegistry registry;
    for (size_t i = 0; i < n_instances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i + 1), &clock_));
      ASSERT_TRUE(registry.Add(instances_.back().get()).ok());
    }
    TransportServer::Options opts;
    opts.num_loops = GetParam();
    server_ = std::make_unique<TransportServer>(std::move(registry), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// A fresh, un-pooled socket of its own (TcpCacheBackend would share one
  /// per endpoint+instance, defeating the round-robin shard assignment this
  /// suite exists to exercise).
  std::unique_ptr<TcpConnection> Dial(InstanceId id = 1) {
    return std::make_unique<TcpConnection>("127.0.0.1", server_->port(), id,
                                           TcpConnection::Options{});
  }

  void TearDown() override {
    connections_.clear();
    if (server_ != nullptr) server_->Stop();
  }

  SystemClock clock_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::unique_ptr<TransportServer> server_;
  std::vector<std::unique_ptr<TcpConnection>> connections_;
};

TEST_P(ShardedServerTest, LoopCountMatchesOption) {
  StartServer();
  EXPECT_EQ(server_->loop_count(), GetParam());
}

TEST_P(ShardedServerTest, DistinctConnectionsServeAcrossShards) {
  StartServer();
  constexpr size_t kConns = 8;
  for (size_t i = 0; i < kConns; ++i) connections_.push_back(Dial());

  // Every connection (round-robin across shards) serves reads and writes.
  for (size_t i = 0; i < kConns; ++i) {
    const std::string key = "conn" + std::to_string(i);
    std::string resp;
    ASSERT_TRUE(
        connections_[i]->Transact(wire::Op::kSet, SetBody(key, "v" + key),
                                  &resp)
            .ok());
    ASSERT_TRUE(connections_[i]->Transact(wire::Op::kGet, GetBody(key), &resp)
                    .ok());
    EXPECT_EQ(DecodeValue(resp), "v" + key);
  }
  // All shards serve the same instance: a write through one connection is
  // visible through every other.
  std::string resp;
  ASSERT_TRUE(connections_[0]
                  ->Transact(wire::Op::kSet, SetBody("shared", "everyone"),
                             &resp)
                  .ok());
  for (size_t i = 0; i < kConns; ++i) {
    ASSERT_TRUE(
        connections_[i]->Transact(wire::Op::kGet, GetBody("shared"), &resp)
            .ok());
    EXPECT_EQ(DecodeValue(resp), "everyone");
  }

  const auto stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, kConns);
  // Each connection did a HELLO plus its request traffic.
  EXPECT_GE(stats.frames_handled, kConns * 3);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_P(ShardedServerTest, PipelinedBatchKeepsPerConnectionFifo) {
  StartServer();
  connections_.push_back(Dial());

  // Alternating writes and reads of ONE key, submitted as a single
  // pipelined burst: response i must reflect exactly the writes before it
  // (docs/PROTOCOL.md §10.6 — FIFO per connection per shard). Any
  // reordering inside the server shows up as a stale or future value.
  constexpr int kRounds = 24;
  std::vector<TcpConnection::BatchRequest> reqs;
  for (int i = 0; i < kRounds; ++i) {
    reqs.push_back({wire::Op::kSet, SetBody("fifo", "v" + std::to_string(i))});
    reqs.push_back({wire::Op::kGet, GetBody("fifo")});
  }
  const auto resps = connections_[0]->TransactBatch(reqs);
  ASSERT_EQ(resps.size(), reqs.size());
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(resps[2 * i].status.ok()) << "set " << i;
    ASSERT_TRUE(resps[2 * i + 1].status.ok()) << "get " << i;
    EXPECT_EQ(DecodeValue(resps[2 * i + 1].body), "v" + std::to_string(i));
  }
}

TEST_P(ShardedServerTest, ConcurrentClientsHammerWithoutCrossTalk) {
  StartServer();
  constexpr int kClients = 6;
  constexpr int kRounds = 150;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      TcpConnection conn("127.0.0.1", server_->port(), 1,
                         TcpConnection::Options{});
      for (int i = 0; i < kRounds; ++i) {
        const std::string key = "c" + std::to_string(t);
        const std::string want = "v" + std::to_string(t) + ":" +
                                 std::to_string(i);
        std::string resp;
        if (!conn.Transact(wire::Op::kSet, SetBody(key, want), &resp).ok() ||
            !conn.Transact(wire::Op::kGet, GetBody(key), &resp).ok() ||
            DecodeValue(resp) != want) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);

  const auto stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.frames_handled,
            static_cast<uint64_t>(kClients) * kRounds * 2);
  ASSERT_EQ(stats.per_instance.count(1), 1u);
  EXPECT_GE(stats.per_instance.at(1).frames_handled,
            static_cast<uint64_t>(kClients) * kRounds * 2);
}

TEST_P(ShardedServerTest, RoutesInstancesIndependentlyOfShard) {
  StartServer(/*n_instances=*/2);
  // Four sockets, alternating target instances, so shard assignment and
  // instance binding cross: the bound instance must follow the HELLO, not
  // the shard.
  for (int i = 0; i < 4; ++i) {
    connections_.push_back(Dial(static_cast<InstanceId>(1 + i % 2)));
  }
  std::string resp;
  for (int i = 0; i < 4; ++i) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(
        connections_[i]->Transact(wire::Op::kSet, SetBody(key, "x"), &resp)
            .ok());
  }
  EXPECT_TRUE(instances_[0]->ContainsRaw("route0"));
  EXPECT_TRUE(instances_[0]->ContainsRaw("route2"));
  EXPECT_FALSE(instances_[0]->ContainsRaw("route1"));
  EXPECT_TRUE(instances_[1]->ContainsRaw("route1"));
  EXPECT_TRUE(instances_[1]->ContainsRaw("route3"));
  EXPECT_FALSE(instances_[1]->ContainsRaw("route2"));

  const auto stats = server_->stats();
  ASSERT_EQ(stats.per_instance.count(1), 1u);
  ASSERT_EQ(stats.per_instance.count(2), 1u);
  EXPECT_GE(stats.per_instance.at(1).frames_handled, 2u);
  EXPECT_GE(stats.per_instance.at(2).frames_handled, 2u);
}

TEST_P(ShardedServerTest, StopDrainsAndRestartServes) {
  StartServer();
  connections_.push_back(Dial());
  std::string resp;
  ASSERT_TRUE(
      connections_[0]->Transact(wire::Op::kPing, "", &resp).ok());

  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The dropped connection fails promptly instead of hanging.
  EXPECT_FALSE(
      connections_[0]->Transact(wire::Op::kPing, "", &resp).ok());
  connections_.clear();

  // The same server object restarts with a fresh set of shards (new
  // ephemeral port) and serves again.
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_EQ(server_->loop_count(), GetParam());
  TcpConnection again("127.0.0.1", server_->port(), 1,
                      TcpConnection::Options{});
  EXPECT_TRUE(again.Transact(wire::Op::kPing, "", &resp).ok());
  // Counters are cumulative across Stop()/Start(): the pre-restart accept
  // plus this one (see ServerStatsAccumulateAcrossRestart for the full
  // contract).
  EXPECT_EQ(server_->stats().connections_accepted, 2u);
}

INSTANTIATE_TEST_SUITE_P(Loops, ShardedServerTest, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return std::to_string(info.param) + "Loops";
                         });

}  // namespace
}  // namespace gemini
