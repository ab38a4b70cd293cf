// bench_persistence: what durability costs on the write path, and what it
// buys back at restart.
//
// Four result groups, one JSON document (committed baseline:
// BENCH_persistence.json):
//
//  persist_set — closed-loop SETs at window 32 through a real loopback
//  TransportServer, once against a plain CacheInstance (wal=0) and once
//  against an instance recording through a PersistentStore (wal=1: its WAL
//  writer fsyncs the batched records at 1 MiB unsynced or 50 ms age; no
//  eager fsync fires because plain SETs are miss-on-loss records). The
//  wal=1/wal=0 ratio is the WAL overhead; tools/check_bench.py enforces a
//  floor on it in CI via --min-point persist_set:wal=1:FLOOR.
//
//  restore_warm — the payoff curve. For each working-set size, populate a
//  persistent instance, close the store (a graceful close syncs but does
//  not checkpoint, so restart replays the full WAL — the worst case), then
//  time PersistentStore::Open() into a fresh instance. Open returns when
//  replay ends; the checkpoint that folds the replayed log runs after it,
//  on the store's checkpoint thread, and is not timed. ops_per_sec is
//  entries restored per second; the first-pass hit ratio after Open() is
//  asserted to be 100%, which is the whole point: a warm restart reaches
//  hit-ratio 1.0 after Open() returns, with zero backend traffic.
//
//  restore_cold — the alternative a persistence-less restart faces: every
//  key must be re-fetched and re-filled over the network. Modeled as
//  pipelined bursts of 32 keys through the loopback transport, one MultiGet
//  (all misses) then one MultiSet per burst, the cheapest refill a client
//  can send. It is still a *lower bound* on real refill cost — an actual
//  backend adds its own storage and network latency on top, and the
//  paper's Figure 6 shows the hit-ratio dip lasting minutes at production
//  scale.
//
//  eager_contention — what eager records cost connections that write none.
//  A 1-loop loopback server over a PersistentStore; one
//  reader connection sends serial 32-key GET bursts while 0, 1 or 4 writer
//  connections each send serial Qareg+Dar pairs, the cache half of a
//  look-aside write, whose QBegin record is eager. ops_per_sec is the
//  reader's GET rate, so tools/check_bench.py normalizes it by writers=0:
//  a loop that waited out each fsync would halve it with one writer. The
//  eager_contention_writers rows carry the writers' pair rate (all writers
//  together), normalized by writers=1: group commit lets four writers share
//  fsyncs instead of queueing for them.
//
// Flags: --quick (CI smoke: shrinks persist_set ops only — restore sweeps
//        keep their sizes so curves stay comparable to the committed
//        baseline), --full, --ops=N, --keys=K, --value-bytes=B, --json=PATH.
//        Results go to a JSON file only when --json names one; refreshing
//        the committed baseline means passing its path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <ftw.h>
#include <sys/stat.h>
#include <unistd.h>

#include "bench/bench_common.h"
#include "src/cache/cache_instance.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/persist/persistent_store.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

std::string KeyName(size_t k) { return "key" + std::to_string(k); }

int RemoveVisit(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveVisit, 16, FTW_DEPTH | FTW_PHYS);
}

/// Issues `n` pipelined SETs closed-loop on `conn` (same shape as the
/// bench_transport submitter, but with kSet bodies).
void SubmitClosedLoop(TcpConnection& conn, size_t n,
                      const std::vector<std::string>& bodies, bool record,
                      Histogram& hist, uint64_t& errors) {
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto start = SteadyClock::now();
    conn.SubmitAsync(wire::Op::kSet, bodies[i % bodies.size()],
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

// ---- persist_set: write-path overhead ---------------------------------------

struct SetRun {
  bool wal = false;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t errors = 0;
  uint64_t fsyncs = 0;  // wal=1 only
};

/// Runs `ops` SETs at window 32 against a fresh loopback server; with `wal`
/// set, the instance records through a PersistentStore in `dir`.
SetRun RunSetPoint(bool wal, const std::string& dir, size_t ops,
                   size_t value_bytes, size_t num_keys,
                   const std::vector<std::string>& bodies) {
  constexpr size_t kWindow = 32;
  SetRun out;
  out.wal = wal;

  SystemClock& clock = SystemClock::Global();
  CacheInstance instance(0, &clock);
  // Declared after the instance, so it closes before the instance dies on
  // every return.
  std::unique_ptr<PersistentStore> store;
  if (wal) {
    RemoveTree(dir);
    store = std::make_unique<PersistentStore>(dir);
    instance.SetPersistenceSink(store.get());
    if (Status s = store->Open(instance); !s.ok()) {
      std::fprintf(stderr, "store open failed: %s\n", s.ToString().c_str());
      out.errors = 1;
      return out;
    }
  }
  TransportServer::Options sopts;
  sopts.num_loops = 1;  // one event loop: the sweep isolates the log cost
  TransportServer server(&instance, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    out.errors = 1;
    return out;
  }

  {
    TcpConnection::Options cc;
    cc.max_inflight = kWindow;
    TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, cc);
    Histogram hist;
    SubmitClosedLoop(conn, std::min<size_t>(ops / 10 + 1, 2000), bodies,
                     /*record=*/false, hist, out.errors);
    const auto t0 = SteadyClock::now();
    SubmitClosedLoop(conn, ops, bodies, /*record=*/true, hist, out.errors);
    const double secs =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    out.ops_per_sec = secs > 0 ? static_cast<double>(ops) / secs : 0;
    out.p50_us = hist.Percentile(0.50);
    out.p99_us = hist.Percentile(0.99);
  }
  server.Stop();
  if (wal) {
    if (!store->error().ok()) {
      std::fprintf(stderr, "wal error: %s\n",
                   store->error().ToString().c_str());
      ++out.errors;
    }
    out.fsyncs = store->stats().fsyncs;
    store->Close();
  }
  (void)value_bytes;
  (void)num_keys;
  return out;
}

// ---- eager_contention: writers vs an unrelated reader on one loop ------------

struct ContentionRun {
  double gets_per_sec = 0;   // reader keys/s
  Histogram burst_us;        // reader: one 32-key GET burst
  double pairs_per_sec = 0;  // all writers together
  Histogram pair_us;         // writer: one Qareg+Dar pair
  uint64_t errors = 0;
};

/// Runs the reader and `writers` writers against a fresh persistent 1-loop
/// server for `seconds` (after a short unmeasured warm-up).
ContentionRun RunContentionPoint(const std::string& dir, size_t writers,
                                 double seconds) {
  constexpr size_t kBurst = 32;
  constexpr size_t kReaderKeys = 1024;
  ContentionRun out;
  RemoveTree(dir);
  CacheInstance instance(0, &SystemClock::Global());
  PersistentStore store(dir);  // closes before the instance dies
  instance.SetPersistenceSink(&store);
  if (Status s = store.Open(instance); !s.ok()) {
    std::fprintf(stderr, "store open failed: %s\n", s.ToString().c_str());
    out.errors = 1;
    return out;
  }
  const std::string payload(100, 'r');
  for (size_t k = 0; k < kReaderKeys; ++k) {
    (void)instance.Set(kCtx, "r" + std::to_string(k),
                       CacheValue::OfData(payload));
  }
  TransportServer::Options sopts;
  sopts.num_loops = 1;
  TransportServer server(&instance, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    out.errors = 1;
    return out;
  }

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::mutex hist_mu;
  uint64_t bursts = 0;
  uint64_t pairs = 0;
  const auto connect = [&server, &errors] {
    auto conn = std::make_unique<TcpConnection>(
        "127.0.0.1", server.port(), wire::kAnyInstance,
        TcpConnection::Options());
    if (!conn->Connect().ok()) errors.fetch_add(1);
    return conn;
  };
  const auto elapsed_us = [](SteadyClock::time_point since) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               SteadyClock::now() - since)
        .count();
  };

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto conn = connect();
    std::vector<TcpConnection::BatchRequest> burst(kBurst);
    size_t next = 0;
    Histogram local;
    uint64_t done = 0;
    while (!stop.load()) {
      for (auto& req : burst) {
        req.op = wire::Op::kGet;
        req.body.clear();
        wire::PutContext(req.body, kCtx);
        wire::PutKey(req.body, "r" + std::to_string(next++ % kReaderKeys));
      }
      const bool record = measuring.load();
      const auto t0 = SteadyClock::now();
      for (const auto& resp : conn->TransactBatch(burst)) {
        if (!resp.status.ok()) errors.fetch_add(1);
      }
      if (record) {
        local.Record(std::max<int64_t>(1, elapsed_us(t0)));
        ++done;
      }
    }
    std::lock_guard<std::mutex> lock(hist_mu);
    out.burst_us.Merge(local);
    bursts += done;
  });
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto conn = connect();
      Histogram local;
      uint64_t done = 0;
      for (size_t i = 0; !stop.load(); ++i) {
        const std::string key =
            "w" + std::to_string(w) + "_" + std::to_string(i % 64);
        const bool record = measuring.load();
        const auto t0 = SteadyClock::now();
        auto token = conn->Call<wire::Op::kQareg>(kCtx, key);
        if (!token.ok() ||
            !conn->Call<wire::Op::kDar>(kCtx, key, *token).ok()) {
          errors.fetch_add(1);
        }
        if (record) {
          local.Record(std::max<int64_t>(1, elapsed_us(t0)));
          ++done;
        }
      }
      std::lock_guard<std::mutex> lock(hist_mu);
      out.pair_us.Merge(local);
      pairs += done;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  measuring.store(true);
  const auto t0 = SteadyClock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  measuring.store(false);
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  stop.store(true);
  for (auto& t : threads) t.join();
  server.Stop();
  out.gets_per_sec = static_cast<double>(bursts * kBurst) / secs;
  out.pairs_per_sec = static_cast<double>(pairs) / secs;
  out.errors = errors.load();
  if (!store.error().ok()) ++out.errors;
  store.Close();
  RemoveTree(dir);
  return out;
}

// ---- restore_warm / restore_cold: restart cost ------------------------------

struct RestoreRun {
  size_t entries = 0;
  double ops_per_sec = 0;  // entries re-resident per second
  double millis = 0;
  double hit_ratio = 0;  // first full pass over the working set, post-restart
  uint64_t errors = 0;
};

/// Populates a persistent instance with `n` entries, closes the store
/// (sync, no checkpoint — restart replays the whole WAL), then times
/// Open() into a fresh instance and takes a first-pass hit census.
RestoreRun RunWarmPoint(const std::string& dir, size_t n, size_t value_bytes) {
  RestoreRun out;
  out.entries = n;
  SystemClock& clock = SystemClock::Global();
  RemoveTree(dir);
  const std::string payload(value_bytes, 'w');
  {
    CacheInstance instance(0, &clock);
    PersistentStore store(dir);  // closes before the instance dies
    instance.SetPersistenceSink(&store);
    if (Status s = store.Open(instance); !s.ok()) {
      out.errors = 1;
      return out;
    }
    for (size_t k = 0; k < n; ++k) {
      if (!instance.Set(kCtx, KeyName(k), CacheValue::OfData(payload)).ok()) {
        ++out.errors;
      }
    }
  }

  CacheInstance instance(0, &clock);
  PersistentStore store(dir);  // closes before the instance dies
  instance.SetPersistenceSink(&store);
  const auto t0 = SteadyClock::now();
  if (Status s = store.Open(instance); !s.ok()) {
    std::fprintf(stderr, "warm reopen failed: %s\n", s.ToString().c_str());
    out.errors = 1;
    return out;
  }
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();

  size_t hits = 0;
  for (size_t k = 0; k < n; ++k) {
    if (instance.ContainsRaw(KeyName(k))) ++hits;
  }
  out.hit_ratio = n > 0 ? static_cast<double>(hits) / n : 0;
  out.millis = secs * 1e3;
  out.ops_per_sec = secs > 0 ? static_cast<double>(n) / secs : 0;
  if (hits != n) ++out.errors;
  store.Close();
  RemoveTree(dir);
  return out;
}

/// The persistence-less restart: an empty instance behind a loopback server,
/// re-warmed by a client in pipelined bursts of 32 keys, one MultiGet
/// (misses) then one MultiSet each — the cheapest stand-in for re-fetching
/// the working set.
RestoreRun RunColdPoint(size_t n, size_t value_bytes) {
  constexpr size_t kBurst = 32;
  RestoreRun out;
  out.entries = n;
  SystemClock& clock = SystemClock::Global();
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.num_loops = 1;
  TransportServer server(&instance, sopts);
  if (Status s = server.Start(); !s.ok()) {
    out.errors = 1;
    return out;
  }
  const std::string payload(value_bytes, 'c');
  {
    TcpCacheBackend client("127.0.0.1", server.port());
    std::vector<GetRequest> gets;
    std::vector<SetRequest> sets;
    const auto t0 = SteadyClock::now();
    for (size_t first = 0; first < n; first += kBurst) {
      gets.clear();
      sets.clear();
      for (size_t k = first; k < std::min(n, first + kBurst); ++k) {
        gets.push_back({kCtx, KeyName(k)});
        sets.push_back({kCtx, KeyName(k), CacheValue::OfData(payload)});
      }
      for (const Result<CacheValue>& got : client.MultiGet(gets)) {
        if (got.code() != Code::kNotFound) ++out.errors;  // must be a miss
      }
      for (const Status& set : client.MultiSet(std::move(sets))) {
        if (!set.ok()) ++out.errors;
      }
    }
    const double secs =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    out.millis = secs * 1e3;
    out.ops_per_sec = secs > 0 ? static_cast<double>(n) / secs : 0;
  }
  out.hit_ratio = 0;  // nothing was resident when the first pass began
  if (instance.stats().entry_count != n) ++out.errors;
  server.Stop();
  return out;
}

int Run(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseFlags(argc, argv);
  size_t ops = flags.full ? 200'000 : 50'000;
  if (flags.quick) ops = 2'000;
  size_t value_bytes = 100;
  size_t num_keys = 1'000;
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
    }
  }
  if (ops == 0 || num_keys == 0 || value_bytes == 0) {
    std::fprintf(stderr,
                 "bench_persistence: --ops, --keys, --value-bytes must be "
                 "> 0\n");
    return 2;
  }
  // The restore sweep is the same in every mode so fresh curves line up
  // point-for-point with the committed baseline (check_bench matches on the
  // entries value); --quick shrinks only the persist_set op count.
  const std::vector<size_t> restore_entries = {500, 2000, 8000};
  constexpr size_t kRestoreValueBytes = 256;
  constexpr size_t kWindow = 32;

  char scratch_template[] = "/tmp/bench_persist_XXXXXX";
  const char* scratch_c = ::mkdtemp(scratch_template);
  if (scratch_c == nullptr) {
    std::fprintf(stderr, "bench_persistence: mkdtemp failed\n");
    return 1;
  }
  const std::string scratch = scratch_c;

  bench::PrintHeader(
      "bench_persistence",
      "WAL overhead on the SET path (loopback geminid, window 32), "
      "warm-vs-cold restart (WAL replay vs pipelined network refill), and "
      "eager-record writers vs a reader on one event loop");
  std::printf("  ops=%zu  value=%zuB  keys=%zu  scratch=%s\n\n", ops,
              value_bytes, num_keys, scratch.c_str());

  // Pre-encode the SET bodies once; both sweeps replay the same byte
  // streams so the wal=0/wal=1 delta is exactly the persistence layer.
  std::vector<std::string> bodies(num_keys);
  {
    const std::string payload(value_bytes, 'x');
    for (size_t k = 0; k < num_keys; ++k) {
      wire::PutContext(bodies[k], kCtx);
      wire::PutKey(bodies[k], KeyName(k));
      wire::PutValue(bodies[k], CacheValue::OfData(payload));
    }
  }

  std::vector<bench::BenchResult> results;
  uint64_t total_errors = 0;

  std::printf("  persist_set (SETs, window %zu):\n", kWindow);
  std::printf("  %6s %12s %10s %10s %8s\n", "wal", "ops/sec", "p50 us",
              "p99 us", "fsyncs");
  double tput_off = 0, tput_on = 0;
  // Best of N: each point is a fresh server + client + (for wal=1) writer
  // and fsync threads time-slicing one core with the kernel's writeback
  // workers, so single runs swing by 2x on small machines. The fastest
  // repeat is the run least disturbed by scheduling noise — that is the
  // intrinsic speed of the configuration, which is what the wal=1/wal=0
  // ratio is meant to compare.
  constexpr int kSetRepeats = 5;
  for (const bool wal : {false, true}) {
    SetRun r;
    for (int rep = 0; rep < kSetRepeats; ++rep) {
      SetRun attempt = RunSetPoint(wal, scratch + "/set_wal", ops,
                                   value_bytes, num_keys, bodies);
      attempt.errors += r.errors;  // errors accumulate across repeats
      if (rep == 0 || attempt.ops_per_sec > r.ops_per_sec) {
        r = attempt;
      } else {
        r.errors = attempt.errors;
      }
    }
    std::printf("  %6d %12.0f %10.1f %10.1f %8llu\n", wal ? 1 : 0,
                r.ops_per_sec, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.fsyncs));
    (wal ? tput_on : tput_off) = r.ops_per_sec;
    total_errors += r.errors;
    bench::BenchResult br;
    br.name = "persist_set";
    br.params = {{"wal", wal ? 1.0 : 0.0},
                 {"window", static_cast<double>(kWindow)},
                 {"ops", static_cast<double>(ops)},
                 {"value_bytes", static_cast<double>(value_bytes)},
                 {"keys", static_cast<double>(num_keys)}};
    br.ops_per_sec = r.ops_per_sec;
    br.p50_us = r.p50_us;
    br.p99_us = r.p99_us;
    results.push_back(std::move(br));
  }
  if (tput_off > 0) {
    std::printf("  WAL overhead at window %zu: %.1f%% (wal=1 runs at %.2fx "
                "of wal=0)\n\n",
                kWindow, 100.0 * (1.0 - tput_on / tput_off),
                tput_on / tput_off);
  }

  std::printf("  restore (value %zuB; warm = WAL replay, cold = 32-key "
              "MultiGet+MultiSet refill over loopback):\n",
              kRestoreValueBytes);
  std::printf("  %6s %8s %12s %10s %10s\n", "mode", "entries", "entries/s",
              "millis", "hit%");
  for (const bool warm : {true, false}) {
    for (const size_t n : restore_entries) {
      // Best of kSetRepeats, same as persist_set: a restore point is dominated by
      // a fixed per-run cost (open + checkpoint + server setup), so one
      // descheduling blip early in the run swings entries/s wildly.
      RestoreRun r;
      for (int rep = 0; rep < kSetRepeats; ++rep) {
        RestoreRun attempt =
            warm ? RunWarmPoint(scratch + "/warm", n, kRestoreValueBytes)
                 : RunColdPoint(n, kRestoreValueBytes);
        attempt.errors += r.errors;
        if (rep == 0 || attempt.ops_per_sec > r.ops_per_sec) {
          r = attempt;
        } else {
          r.errors = attempt.errors;
        }
      }
      std::printf("  %6s %8zu %12.0f %10.2f %9.1f%%\n",
                  warm ? "warm" : "cold", r.entries, r.ops_per_sec, r.millis,
                  100.0 * r.hit_ratio);
      total_errors += r.errors;
      bench::BenchResult br;
      br.name = warm ? "restore_warm" : "restore_cold";
      br.params = {{"entries", static_cast<double>(n)},
                   {"value_bytes", static_cast<double>(kRestoreValueBytes)}};
      br.ops_per_sec = r.ops_per_sec;
      br.p50_us = r.millis * 1e3;  // total time-to-warm, in us
      br.p99_us = r.millis * 1e3;
      results.push_back(std::move(br));
    }
  }

  // Best of kSetRepeats per metric, as above: each point runs ~10 threads
  // (client connections, loop, WAL writer) on a few cores, so a single run
  // mostly measures its neighbours. Each round runs every point back to
  // back, so a drift in the machine's speed moves the points together
  // instead of skewing their ratios.
  const double contention_secs = flags.quick ? 0.5 : (flags.full ? 2.0 : 1.0);
  std::printf("\n  eager_contention (1 loop; reader: serial 32-key GET bursts; "
              "writers: serial Qareg+Dar pairs; %.1fs per run):\n",
              contention_secs);
  std::printf("  %8s %12s %12s %14s %12s\n", "writers", "GET/s",
              "burst p50 us", "writer pairs/s", "pair p50 us");
  const double cpus = static_cast<double>(std::thread::hardware_concurrency());
  const std::vector<size_t> writer_counts = {0, 1, 4};
  std::vector<ContentionRun> best_read(writer_counts.size());
  std::vector<ContentionRun> best_write(writer_counts.size());
  for (int rep = 0; rep < kSetRepeats; ++rep) {
    for (size_t p = 0; p < writer_counts.size(); ++p) {
      ContentionRun r = RunContentionPoint(scratch + "/contention",
                                           writer_counts[p], contention_secs);
      total_errors += r.errors;
      if (rep == 0 || r.gets_per_sec > best_read[p].gets_per_sec) {
        best_read[p] = r;
      }
      if (rep == 0 || r.pairs_per_sec > best_write[p].pairs_per_sec) {
        best_write[p] = r;
      }
    }
  }
  for (size_t p = 0; p < writer_counts.size(); ++p) {
    const size_t writers = writer_counts[p];
    std::printf("  %8zu %12.0f %12.1f %14.0f %12.1f\n", writers,
                best_read[p].gets_per_sec,
                best_read[p].burst_us.Percentile(0.50),
                best_write[p].pairs_per_sec,
                writers > 0 ? best_write[p].pair_us.Percentile(0.50) : 0.0);
    bench::BenchResult br;
    br.name = "eager_contention";
    br.params = {{"writers", static_cast<double>(writers)},
                 {"burst", 32},
                 {"cpus", cpus}};
    br.ops_per_sec = best_read[p].gets_per_sec;
    br.p50_us = best_read[p].burst_us.Percentile(0.50);
    br.p99_us = best_read[p].burst_us.Percentile(0.99);
    results.push_back(br);
    if (writers > 0) {
      br.name = "eager_contention_writers";
      br.ops_per_sec = best_write[p].pairs_per_sec;
      br.p50_us = best_write[p].pair_us.Percentile(0.50);
      br.p99_us = best_write[p].pair_us.Percentile(0.99);
      results.push_back(std::move(br));
    }
  }

  RemoveTree(scratch);
  if (total_errors > 0) {
    std::fprintf(stderr, "bench_persistence: %llu check(s) failed\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (!bench::WriteResultsJson(json_path, "persistence", results)) return 1;
  return 0;
}

}  // namespace
}  // namespace gemini

int main(int argc, char** argv) { return gemini::Run(argc, argv); }
