// Network & service-time model.
//
// The paper's testbed is an 11-node Emulab cluster on 1 Gbps Ethernet
// (Section 5.2). This module replaces the physical network with an explicit
// cost model so that the discrete-event harness can replay multi-hundred-
// second experiments deterministically:
//
//  - Every remote touch (client->instance, client->store, client->coordinator)
//    costs a round-trip time.
//  - Every server (cache instance, data store) is a k-server queue with a
//    per-operation service time; waiting in that queue is what separates the
//    paper's low-load (40 YCSB threads) and high-load (200 threads) regimes
//    and what bounds how fast VolatileCache can re-materialize a cold
//    instance from the store.
//
// A Session accumulates the virtual-time cost of one application operation
// (the paper's "session": one cache entry + one data store transaction).
// Protocol code (client, recovery worker) bills each step as it performs it;
// in real-time deployments the session is simply null and wall-clock time
// elapses instead.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/clock.h"
#include "src/common/types.h"

namespace gemini {

/// A k-server queue modelled as a fluid backlog: Submit() adds one job of
/// length `service`, charges it the backlog already committed (divided over
/// the k servers), and returns its completion time. Committed work drains at
/// rate k. The fluid form is deliberately insensitive to submission order:
/// a session that books a step far in the future (e.g. the cache insert
/// after a slow store trip) must not block an earlier arrival that the
/// event loop merely processes later.
/// Not thread-safe (the DES is single-threaded); reset between runs.
class QueueingResource {
 public:
  explicit QueueingResource(int servers = 1) : servers_(servers) {}

  Timestamp Submit(Timestamp now, Duration service);

  void Reset();
  [[nodiscard]] int servers() const { return servers_; }
  /// Committed-but-undrained work at the last submission (diagnostics).
  [[nodiscard]] Duration backlog() const { return backlog_; }

 private:
  int servers_;
  Timestamp last_update_ = 0;
  Duration backlog_ = 0;
};

/// Calibration constants. Defaults approximate the paper's testbed: ~100 us
/// client<->memcached round trips on 1 Gbps, ~1-2 ms MongoDB operations on a
/// 1 KB document, per-instance service bound ~33k ops/s (1 Gbps of 1 KB
/// values plus CPU), store concurrency bounded by its connection pool.
struct NetParams {
  Duration client_instance_rtt = Micros(100);
  /// Per-operation client-side cost (YCSB client logic, JDBC layer, request
  /// marshalling). Applied by the closed-loop harness *between* operations,
  /// so per-op throughput matches the paper's YCSB clients (~1 ms/op, i.e.
  /// 40 threads ~ 40k ops/s) without inflating reported read latencies.
  Duration client_op_overhead = Micros(850);
  Duration client_store_rtt = Micros(300);
  Duration client_coordinator_rtt = Micros(500);

  Duration instance_service = Micros(30);
  int instance_servers = 1;

  Duration store_query_service = Micros(1500);
  Duration store_update_service = Micros(2000);
  int store_servers = 16;
};

/// Shared queueing state for one simulated cluster.
class CostModel {
 public:
  CostModel(const NetParams& params, size_t num_instances);

  [[nodiscard]] const NetParams& params() const { return params_; }

  QueueingResource& instance(InstanceId id) { return instances_.at(id); }
  QueueingResource& store() { return store_; }

  void Reset();

 private:
  NetParams params_;
  std::vector<QueueingResource> instances_;
  QueueingResource store_;
};

/// Accumulates the virtual cost of one session. `cursor` starts at the
/// session's start time and advances through each billed step; after the
/// protocol code returns, (cursor - start) is the session latency.
class Session {
 public:
  Session(CostModel* model, Timestamp start)
      : model_(model), start_(start), cursor_(start) {}

  /// Null session: billing is a no-op (real-time mode).
  Session() : model_(nullptr), start_(0), cursor_(0) {}

  void BillCacheOp(InstanceId id);
  void BillStoreQuery();
  void BillStoreUpdate();
  void BillCoordinatorOp();
  /// Client-side back-off before retrying a lease collision.
  void BillBackoff(Duration d);

  [[nodiscard]] Timestamp start() const { return start_; }
  [[nodiscard]] Timestamp cursor() const { return cursor_; }
  [[nodiscard]] Duration Elapsed() const { return cursor_ - start_; }

  // Step counters (observability; EXPERIMENTS.md worst-case overheads).
  struct Counts {
    uint32_t cache_ops = 0;
    uint32_t store_queries = 0;
    uint32_t store_updates = 0;
    uint32_t coordinator_ops = 0;
    uint32_t backoffs = 0;
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

 private:
  CostModel* model_;
  Timestamp start_;
  Timestamp cursor_;
  Counts counts_;
};

}  // namespace gemini
