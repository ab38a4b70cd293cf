// bench_transport: throughput and latency of the pipelined TCP transport,
// over loopback against a real TransportServer (the geminid event loops).
//
// Two modes:
//
//  Default — window sweep. One closed-loop submitter issues small GETs
//  through TcpConnection's async window: window=1 reproduces the old strict
//  request/response alternation (one frame in flight, one round trip per
//  op), larger windows let the writer coalesce frames into single send(2)
//  calls and the server answer whole bursts per epoll wakeup. The committed
//  BENCH_transport.json at the repo root is the loopback baseline backing
//  the ROADMAP pipelining claim.
//
//  --scaling — server scaling sweep. For each event-loop count in {1,2,4},
//  starts a fresh server with that many loops (and a lock-striped
//  CacheInstance), drives it with the same number of client connections —
//  one closed-loop submitter thread each at window 32 — and reports the
//  aggregate GET throughput. Baseline: BENCH_server_scaling.json; the params
//  record `cpus` (hardware threads of the machine that produced the file)
//  because the loops>1 rows can only beat the loops=1 row when the server
//  actually has cores to spread across.
//
//  --chaos — the same window sweep through a FaultProxy injecting mild,
//  seeded per-frame delays (plus hold bursts) on both directions. Results
//  carry their own suite name (transport_chaos) and have no committed
//  baseline, so tools/check_bench.py never compares them; the point is
//  a quick read on how much a lossy-ish network costs the pipeline. The
//  client sends each request once, so a dropped connection fails the op
//  rather than re-sending it.
//
//  --bulk — pipelined bulk-write comparison. Writes the same keys two ways:
//  32 individual kSet frames pipelined through a window-32 connection
//  (bulk=0, the anchor) versus one 32-key kMultiSet frame per burst
//  (bulk=1). One frame per burst beats 32 frames even when both ride one
//  sendmsg: the server decodes, executes, and answers once. Baseline:
//  BENCH_transport_bulk.json; tools/check_bench.py --min-point pins the
//  bulk=1 speedup floor in CI.
//
// Every mode's params record the kernel (major*1000+minor) that produced the
// numbers, so baselines can be compared like-for-like.
//
// Flags: --quick (CI smoke), --full, --scaling, --chaos, --chaos-seed=N,
//        --bulk, --ops=N (per connection), --value-bytes=B, --keys=K,
//        --json=PATH. Results go to a JSON file only when --json names one;
//        refreshing a committed baseline means passing its path.
#include <sys/utsname.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/cache_instance.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/transport/fault_proxy.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::string KeyName(size_t k) { return "key" + std::to_string(k); }

/// Kernel version as major*1000+minor (e.g. 6.18 -> 6018), 0 if unknown.
double KernelCode() {
  struct utsname u {};
  if (::uname(&u) != 0) return 0;
  int major = 0, minor = 0;
  if (std::sscanf(u.release, "%d.%d", &major, &minor) < 1) return 0;
  return static_cast<double>(major * 1000 + minor);
}

/// Issues `n` pipelined GETs closed-loop on `conn`, recording latencies and
/// errors when `record` is set. Returns when every response arrived.
void SubmitClosedLoop(TcpConnection& conn, size_t n,
                      const std::vector<std::string>& bodies, bool record,
                      Histogram& hist, uint64_t& errors) {
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto start = SteadyClock::now();
    // SubmitAsync blocks while the window is full, so the submitter is the
    // closed loop and the connection enforces the depth.
    conn.SubmitAsync(wire::Op::kGet, bodies[i % bodies.size()],
                     [&, start, record, n](Status s, std::string) {
                       const int64_t us =
                           std::chrono::duration_cast<
                               std::chrono::microseconds>(SteadyClock::now() -
                                                          start)
                               .count();
                       std::lock_guard<std::mutex> lock(mu);
                       if (record) {
                         hist.Record(us > 0 ? us : 1);
                         if (!s.ok()) ++errors;
                       }
                       if (++completed == n) cv.notify_one();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completed == n; });
}

struct WindowRun {
  size_t window = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t errors = 0;
};

/// Runs `ops` GETs closed-loop at in-flight depth `window` on a fresh
/// connection (constructed directly, not via the Acquire pool, so every
/// window size gets its own options).
WindowRun RunWindow(uint16_t port, size_t window, size_t ops,
                    const std::vector<std::string>& bodies) {
  TcpConnection::Options copts;
  copts.max_inflight = window;
  TcpConnection conn("127.0.0.1", port, wire::kAnyInstance, copts);

  Histogram hist;
  uint64_t errors = 0;
  SubmitClosedLoop(conn, std::min<size_t>(ops / 10 + 1, 2000), bodies,
                   /*record=*/false, hist, errors);
  const auto t0 = SteadyClock::now();
  SubmitClosedLoop(conn, ops, bodies, /*record=*/true, hist, errors);
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();

  WindowRun out;
  out.window = window;
  out.ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0;
  out.p50_us = hist.Percentile(0.50);
  out.p99_us = hist.Percentile(0.99);
  out.errors = errors;
  return out;
}

// ---- Server scaling mode ----------------------------------------------------

struct ScalingRun {
  size_t loops = 0;
  double ops_per_sec = 0;  // aggregate across all connections
  double p50_us = 0;
  double p99_us = 0;
  uint64_t errors = 0;
};

/// Starts a fresh `loops`-shard server over a striped instance, preloads the
/// working set, then drives it with `loops` connections (one submitter
/// thread each, window `window`, `ops` GETs per connection) released
/// together so the timed region measures concurrent load on every shard.
ScalingRun RunScalingPoint(size_t loops, size_t window, size_t ops,
                           size_t value_bytes, size_t num_keys,
                           uint32_t stripes,
                           const std::vector<std::string>& bodies) {
  SystemClock& clock = SystemClock::Global();
  CacheInstance::Options copts;
  copts.num_stripes = stripes;
  CacheInstance instance(0, &clock, copts);
  TransportServer::Options sopts;
  sopts.num_loops = static_cast<uint32_t>(loops);
  TransportServer server(&instance, sopts);
  ScalingRun out;
  out.loops = loops;
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    out.errors = 1;
    return out;
  }
  {
    TcpCacheBackend seeder("127.0.0.1", server.port());
    const OpContext ctx{kInternalConfigId, kInvalidFragment};
    const std::string payload(value_bytes, 'x');
    for (size_t k = 0; k < num_keys; ++k) {
      if (Status s = seeder.Set(ctx, KeyName(k), CacheValue::OfData(payload));
          !s.ok()) {
        std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
        out.errors = 1;
        return out;
      }
    }
  }

  std::vector<Histogram> hists(loops);
  std::vector<uint64_t> errors(loops, 0);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  size_t warmed = 0;
  bool go = false;

  std::vector<std::thread> clients;
  clients.reserve(loops);
  for (size_t c = 0; c < loops; ++c) {
    clients.emplace_back([&, c] {
      TcpConnection::Options copts2;
      copts2.max_inflight = window;
      TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance,
                         copts2);
      SubmitClosedLoop(conn, std::min<size_t>(ops / 10 + 1, 2000), bodies,
                       /*record=*/false, hists[c], errors[c]);
      {
        std::unique_lock<std::mutex> lock(gate_mu);
        if (++warmed == loops) gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return go; });
      }
      SubmitClosedLoop(conn, ops, bodies, /*record=*/true, hists[c],
                       errors[c]);
    });
  }

  // Release every warmed-up client at once and time the concurrent region.
  std::chrono::steady_clock::time_point t0;
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return warmed == loops; });
    go = true;
    t0 = SteadyClock::now();
    gate_cv.notify_all();
  }
  for (auto& t : clients) t.join();
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  server.Stop();

  Histogram merged;
  for (size_t c = 0; c < loops; ++c) {
    merged.Merge(hists[c]);
    out.errors += errors[c];
  }
  out.ops_per_sec =
      secs > 0 ? static_cast<double>(ops * loops) / secs : 0;
  out.p50_us = merged.Percentile(0.50);
  out.p99_us = merged.Percentile(0.99);
  return out;
}

int RunScaling(size_t ops, size_t value_bytes, size_t num_keys,
               const std::string& json_path) {
  constexpr size_t kWindow = 32;
  constexpr uint32_t kStripes = 16;
  bench::PrintHeader("bench_transport --scaling",
                     "sharded server: aggregate GET ops/sec vs event loops "
                     "(connections = loops, window 32, loopback geminid)");
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::printf("  ops/connection=%zu  value=%zuB  keys=%zu  stripes=%u  "
              "cpus=%u\n\n",
              ops, value_bytes, num_keys, kStripes, cpus);

  const OpContext ctx{kInternalConfigId, kInvalidFragment};
  std::vector<std::string> bodies(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    wire::PutContext(bodies[k], ctx);
    wire::PutKey(bodies[k], KeyName(k));
  }

  const std::vector<size_t> loop_counts = {1, 2, 4};
  std::vector<ScalingRun> runs;
  std::printf("  %6s %6s %12s %10s %10s\n", "loops", "conns", "ops/sec",
              "p50 us", "p99 us");
  uint64_t total_errors = 0;
  for (const size_t loops : loop_counts) {
    runs.push_back(RunScalingPoint(loops, kWindow, ops, value_bytes, num_keys,
                                   kStripes, bodies));
    const ScalingRun& r = runs.back();
    std::printf("  %6zu %6zu %12.0f %10.1f %10.1f\n", r.loops, r.loops,
                r.ops_per_sec, r.p50_us, r.p99_us);
    total_errors += r.errors;
  }
  if (total_errors > 0) {
    std::fprintf(stderr, "bench_transport: %llu ops failed\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }

  double base = 0, at4 = 0;
  std::vector<bench::BenchResult> results;
  for (const ScalingRun& r : runs) {
    if (r.loops == 1) base = r.ops_per_sec;
    if (r.loops == 4) at4 = r.ops_per_sec;
    bench::BenchResult br;
    br.name = "server_scaling";
    br.params = {{"loops", static_cast<double>(r.loops)},
                 {"connections", static_cast<double>(r.loops)},
                 {"window", static_cast<double>(kWindow)},
                 {"ops", static_cast<double>(ops)},
                 {"value_bytes", static_cast<double>(value_bytes)},
                 {"keys", static_cast<double>(num_keys)},
                 {"stripes", static_cast<double>(kStripes)},
                 {"cpus", static_cast<double>(cpus)},
                 {"kernel", KernelCode()}};
    br.ops_per_sec = r.ops_per_sec;
    br.p50_us = r.p50_us;
    br.p99_us = r.p99_us;
    results.push_back(std::move(br));
  }
  std::printf("\n  4 loops vs 1 loop aggregate speedup: %.2fx (on %u cpus)\n",
              base > 0 ? at4 / base : 0.0, cpus);
  if (!bench::WriteResultsJson(json_path, "server_scaling", results)) return 1;
  return 0;
}

// ---- Bulk write mode --------------------------------------------------------

struct BulkRun {
  bool bulk = false;
  double ops_per_sec = 0;  // keys written per second
  double p50_us = 0;       // per-burst latency
  double p99_us = 0;
  uint64_t errors = 0;
};

/// One client thread's share of a bulk-mode side: `bursts` bursts of `burst`
/// keys each against the server on `port`, submitted continuously through a
/// window-`window` connection (max_inflight counts frames, exactly as a real
/// client's). bulk=false ships each key as its own pipelined kSet frame —
/// the best a client without the bulk opcodes can do; bulk=true ships each
/// burst as one pipelined kMultiSet frame. Latency is per frame, so the
/// bulk=1 histogram reads per-burst.
void RunBulkClient(uint16_t port, bool bulk, size_t bursts, size_t burst,
                   size_t window, size_t value_bytes, size_t num_keys,
                   Histogram& hist, uint64_t& errors) {
  const OpContext ctx{kInternalConfigId, kInvalidFragment};
  const std::string payload(value_bytes, 'x');

  // Both sides pre-encode their request bodies so the timed loop measures
  // the transport, not the codec — mirroring the GET sweep.
  wire::Op op;
  std::vector<std::string> bodies;
  size_t frames = 0;
  if (bulk) {
    op = wire::Op::kMultiSet;
    frames = bursts;
    const size_t groups = std::max<size_t>(1, num_keys / burst);
    bodies.resize(groups);
    for (size_t g = 0; g < groups; ++g) {
      wire::PutU32(bodies[g], static_cast<uint32_t>(burst));
      for (size_t i = 0; i < burst; ++i) {
        wire::PutContext(bodies[g], ctx);
        wire::PutKey(bodies[g], KeyName((g * burst + i) % num_keys));
        wire::PutValue(bodies[g], CacheValue::OfData(payload));
      }
    }
  } else {
    op = wire::Op::kSet;
    frames = bursts * burst;
    bodies.resize(num_keys);
    for (size_t k = 0; k < num_keys; ++k) {
      wire::PutContext(bodies[k], ctx);
      wire::PutKey(bodies[k], KeyName(k));
      wire::PutValue(bodies[k], CacheValue::OfData(payload));
    }
  }

  TcpConnection::Options copts;
  copts.max_inflight = window;
  TcpConnection conn("127.0.0.1", port, wire::kAnyInstance, copts);
  std::mutex mu;
  std::condition_variable cv;
  const auto submit = [&](size_t n, bool record) {
    size_t completed = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto start = SteadyClock::now();
      conn.SubmitAsync(op, bodies[i % bodies.size()],
                       [&, start, record, n](Status s, std::string) {
                         const int64_t us =
                             std::chrono::duration_cast<
                                 std::chrono::microseconds>(
                                 SteadyClock::now() - start)
                                 .count();
                         std::lock_guard<std::mutex> lock(mu);
                         if (record) {
                           hist.Record(us > 0 ? us : 1);
                           if (!s.ok()) ++errors;
                         }
                         if (++completed == n) cv.notify_one();
                       });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  };
  submit(frames / 10 + 1, /*record=*/false);
  submit(frames, /*record=*/true);
}

/// Drives one side of the bulk comparison with `clients` concurrent
/// connections so the single server loop — not loopback round-trip
/// latency — is the bottleneck; that is where the per-frame overhead the
/// bulk opcodes remove actually lives.
BulkRun RunBulkSide(uint16_t port, bool bulk, size_t clients, size_t bursts,
                    size_t burst, size_t window, size_t value_bytes,
                    size_t num_keys) {
  BulkRun out;
  out.bulk = bulk;
  std::vector<Histogram> hists(clients);
  std::vector<uint64_t> errors(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = SteadyClock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      RunBulkClient(port, bulk, bursts, burst, window, value_bytes, num_keys,
                    hists[c], errors[c]);
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();

  Histogram merged;
  for (size_t c = 0; c < clients; ++c) {
    merged.Merge(hists[c]);
    out.errors += errors[c];
  }
  out.ops_per_sec =
      secs > 0 ? static_cast<double>(clients * bursts * burst) / secs : 0;
  out.p50_us = merged.Percentile(0.50);
  out.p99_us = merged.Percentile(0.99);
  return out;
}

int RunBulk(size_t ops, size_t value_bytes, size_t num_keys,
            const std::string& json_path) {
  constexpr size_t kBurst = 32;
  constexpr size_t kWindow = 32;
  constexpr size_t kClients = 1;
  const size_t bursts = ops / kBurst / kClients + 1;
  bench::PrintHeader(
      "bench_transport --bulk",
      "bulk writes: 32-key kMultiSet frames vs individual kSet frames, "
      "both pipelined through a window-32 connection (loopback geminid)");

  SystemClock& clock = SystemClock::Global();
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.num_loops = 1;
  TransportServer server(&instance, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  clients=%zu  bursts/client=%zu  burst=32  value=%zuB  "
              "keys=%zu\n\n",
              kClients, bursts, value_bytes, num_keys);

  std::vector<BulkRun> runs;
  std::printf("  %8s %14s %10s %10s\n", "bulk", "keys/sec", "p50 us",
              "p99 us");
  uint64_t total_errors = 0;
  for (const bool bulk : {false, true}) {
    runs.push_back(RunBulkSide(server.port(), bulk, kClients, bursts, kBurst,
                               kWindow, value_bytes, num_keys));
    const BulkRun& r = runs.back();
    std::printf("  %8d %14.0f %10.1f %10.1f\n", r.bulk ? 1 : 0, r.ops_per_sec,
                r.p50_us, r.p99_us);
    total_errors += r.errors;
  }
  server.Stop();
  if (total_errors > 0) {
    std::fprintf(stderr, "bench_transport: %llu ops failed\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }

  std::vector<bench::BenchResult> results;
  for (const BulkRun& r : runs) {
    bench::BenchResult br;
    br.name = "transport_bulk_set";
    br.params = {{"bulk", r.bulk ? 1.0 : 0.0},
                 {"burst", static_cast<double>(kBurst)},
                 {"window", static_cast<double>(kWindow)},
                 {"connections", static_cast<double>(kClients)},
                 {"ops", static_cast<double>(kClients * bursts * kBurst)},
                 {"value_bytes", static_cast<double>(value_bytes)},
                 {"keys", static_cast<double>(num_keys)},
                 {"kernel", KernelCode()}};
    br.ops_per_sec = r.ops_per_sec;
    br.p50_us = r.p50_us;
    br.p99_us = r.p99_us;
    results.push_back(std::move(br));
  }
  std::printf("\n  MultiSet vs pipelined Sets speedup: %.2fx\n",
              runs[0].ops_per_sec > 0
                  ? runs[1].ops_per_sec / runs[0].ops_per_sec
                  : 0.0);
  if (!bench::WriteResultsJson(json_path, "transport_bulk", results)) return 1;
  return 0;
}

int Run(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  size_t ops = flags.full ? 200'000 : 50'000;
  if (flags.quick) ops = 2'000;
  size_t value_bytes = 100;
  size_t num_keys = 1'000;
  bool scaling = false;
  bool chaos = false;
  bool bulk = false;
  uint64_t chaos_seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      ops = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strncmp(argv[i], "--value-bytes=", 14) == 0) {
      value_bytes = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      num_keys = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--chaos-seed=", 13) == 0) {
      chaos_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      scaling = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--bulk") == 0) {
      bulk = true;
    }
  }
  if (ops == 0 || num_keys == 0) {
    std::fprintf(stderr, "bench_transport: --ops and --keys must be > 0\n");
    return 2;
  }
  if (scaling) {
    return RunScaling(ops, value_bytes, num_keys, json_path);
  }
  if (bulk) {
    return RunBulk(ops, value_bytes, num_keys, json_path);
  }

  bench::PrintHeader(chaos ? "bench_transport --chaos" : "bench_transport",
                     chaos ? "pipelined TCP transport through a seeded "
                             "delay/hold FaultProxy: ops/sec vs window"
                           : "pipelined TCP transport: ops/sec vs in-flight "
                             "window (loopback geminid)");
  std::printf("  ops/window=%zu  value=%zuB  keys=%zu\n\n", ops, value_bytes,
              num_keys);

  SystemClock& clock = SystemClock::Global();
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.num_loops = 1;  // the window sweep isolates the client pipeline
  TransportServer server(&instance, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Preload the working set and pre-encode the GET request bodies so the
  // timed loop measures the transport, not the codec.
  const OpContext ctx{kInternalConfigId, kInvalidFragment};
  {
    TcpCacheBackend seeder("127.0.0.1", server.port());
    const std::string payload(value_bytes, 'x');
    for (size_t k = 0; k < num_keys; ++k) {
      if (Status s = seeder.Set(ctx, KeyName(k), CacheValue::OfData(payload));
          !s.ok()) {
        std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  std::vector<std::string> bodies(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    wire::PutContext(bodies[k], ctx);
    wire::PutKey(bodies[k], KeyName(k));
  }

  // Under --chaos, clients dial the proxy instead of the server. Mild,
  // purely additive-latency faults (no cuts): every op still completes, so
  // the sweep measures degradation rather than error handling.
  std::unique_ptr<FaultProxy> proxy;
  uint16_t target_port = server.port();
  if (chaos) {
    FaultProxy::Options popts;
    popts.seed = chaos_seed;
    for (auto* p : {&popts.client_to_server, &popts.server_to_client}) {
      p->skip_frames = 1;
      p->delay_prob = 0.2;
      p->delay_min = 0;
      p->delay_max = Millis(1);
      p->hold_every = 32;
      p->hold_count = 4;
    }
    proxy = std::make_unique<FaultProxy>("127.0.0.1", server.port(), popts);
    if (Status s = proxy->Start(); !s.ok()) {
      std::fprintf(stderr, "proxy start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    target_port = proxy->port();
    std::printf("  chaos seed=%llu (delays<=1ms p=0.2 both ways, hold 4/32)\n",
                static_cast<unsigned long long>(chaos_seed));
  }

  const std::vector<size_t> windows = {1, 2, 4, 8, 16, 32, 64};
  std::vector<WindowRun> runs;
  std::printf("  %8s %12s %10s %10s\n", "window", "ops/sec", "p50 us",
              "p99 us");
  uint64_t total_errors = 0;
  for (const size_t w : windows) {
    runs.push_back(RunWindow(target_port, w, ops, bodies));
    const WindowRun& r = runs.back();
    std::printf("  %8zu %12.0f %10.1f %10.1f\n", r.window, r.ops_per_sec,
                r.p50_us, r.p99_us);
    total_errors += r.errors;
  }
  if (proxy) proxy->Stop();
  server.Stop();
  if (total_errors > 0) {
    std::fprintf(stderr, "bench_transport: %llu ops failed\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }

  double base = 0, at32 = 0;
  std::vector<bench::BenchResult> results;
  for (const WindowRun& r : runs) {
    if (r.window == 1) base = r.ops_per_sec;
    if (r.window == 32) at32 = r.ops_per_sec;
    bench::BenchResult br;
    br.name = chaos ? "transport_get_chaos" : "transport_get";
    br.params = {{"window", static_cast<double>(r.window)},
                 {"ops", static_cast<double>(ops)},
                 {"value_bytes", static_cast<double>(value_bytes)},
                 {"keys", static_cast<double>(num_keys)},
                 {"kernel", KernelCode()}};
    if (chaos) br.params.push_back({"seed", static_cast<double>(chaos_seed)});
    br.ops_per_sec = r.ops_per_sec;
    br.p50_us = r.p50_us;
    br.p99_us = r.p99_us;
    results.push_back(std::move(br));
  }
  std::printf("\n  window 32 vs 1 speedup: %.1fx\n",
              base > 0 ? at32 / base : 0.0);
  const char* suite = chaos ? "transport_chaos" : "transport";
  if (!bench::WriteResultsJson(json_path, suite, results)) return 1;
  return 0;
}

}  // namespace
}  // namespace gemini

int main(int argc, char** argv) { return gemini::Run(argc, argv); }
