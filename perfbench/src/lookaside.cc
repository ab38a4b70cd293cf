// lookaside_disk_loss: the paper's look-aside deployment on live daemons.
//
// geminicoordd (its default policy, gemini-ow) and two geminids with WAL
// data dirs serve 16 fragments. This process runs one GeminiClient
// (following config pushes) driven by two client threads, and two
// RecoveryWorkers with working-set transfer (WST). The system of record is
// a DataStore of 150k keys x 64 B with a synthetic 500 us round trip.
//
// A cycle: steady load -> SIGKILL instance 0 -> load through the outage
// (its fragments fail over to instance 1, transient mode, dirty lists grow)
// -> wipe its data dir (disk loss: the WAL cannot help) -> restart -> load
// through recovery (dirty lists drain, WST streams the secondary's hot keys
// back) until every fragment is normal again. Load never stops; each client
// thread owns the keys of its partition, so StaleReadChecker audits every
// read exactly, and every value must be the one a write of that key stored.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/client/gemini_client.h"
#include "src/cluster/remote_coordinator.h"
#include "src/consistency/stale_read_checker.h"
#include "src/coordinator/configuration.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/trace.h"
#include "src/transport/tcp_backend.h"
#include "src/workload.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using gemini::Code;
using gemini::FragmentMode;
using gemini::Status;

constexpr size_t kInstances = 2;
constexpr size_t kFragments = 16;
constexpr uint32_t kClientThreads = 2;
constexpr size_t kWorkers = 2;
/// Set-up warms the cache from this many threads; nothing else issues
/// requests then.
constexpr uint32_t kWarmThreads = 4;
constexpr uint64_t kHeartbeatMs = 50;
constexpr int kSetups = 3;
/// Recovered = every fragment normal and a window of this many reads at or
/// above kTarget of the hit ratio the cluster served just before the
/// restart.
constexpr size_t kWindowReads = 200;
constexpr double kTarget = 0.9;
/// recovery_hit_ratio covers this many reads right after the restart.
constexpr size_t kFirstReads = 2000;
/// A fragment still not normal this long after the restart is a failure.
constexpr double kRecoveryTimeoutS = 60;

struct Params {
  uint64_t keys = 150'000;
  size_t value_bytes = 64;
  double theta = 0.9;
  double write_fraction = 0.05;
  gemini::Duration store_latency = gemini::Micros(500);
  uint64_t wst_bytes_per_sec = 32ull << 20;
  /// The cycle's phases are sized in ops, not seconds, so a phase does the
  /// same work whatever the machine's speed: a faster system finishes them
  /// sooner. nominal_ops_per_s (this workload's rate on a 4-CPU reference
  /// machine) converts --seconds into ops; the shares split them between
  /// steady load before the kill, load through the outage, and load after
  /// the restart (continued until every fragment is normal). A phase that
  /// takes more than three times its nominal length ends early, so a
  /// starved machine still finishes the run in bounded time.
  double steady_share = 0.15;
  double outage_share = 0.45;
  double recovery_share = 0.40;
  double nominal_ops_per_s = 9000;
  size_t stream_length = size_t{1} << 20;
};

Params ParamsFor(bool tiny) {
  Params p;
  if (tiny) {
    p.keys = 4'000;
    p.stream_length = size_t{1} << 16;
  }
  return p;
}

bool AllNormal(const gemini::ConfigurationPtr& config) {
  if (config == nullptr) return false;
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    const auto& a = config->fragment(f);
    if (a.mode != FragmentMode::kNormal || a.primary == gemini::kInvalidInstance) {
      return false;
    }
  }
  return true;
}

bool AnyRecovering(const gemini::ConfigurationPtr& config) {
  if (config == nullptr) return false;
  for (gemini::FragmentId f = 0; f < kFragments; ++f) {
    if (config->fragment(f).mode == FragmentMode::kRecovery) return true;
  }
  return false;
}

/// The daemons, the coordinator client, the backends and the store.
/// Members are destroyed in reverse order: clients of the daemons first.
struct Cluster {
  std::unique_ptr<Daemon> coordd;
  std::vector<std::unique_ptr<Daemon>> nodes;
  std::vector<std::string> data_dirs;
  gemini::DataStore store;
  std::unique_ptr<gemini::RemoteCoordinator> coordinator;
  std::vector<std::unique_ptr<gemini::TcpCacheBackend>> backends;
  std::vector<gemini::CacheBackend*> backend_ptrs;
};

void StartCluster(Cluster& c, const std::string& dir) {
  c.coordd = std::make_unique<Daemon>(
      "geminicoordd", PERFBENCH_GEMINICOORDD,
      std::vector<std::string>{
          "--port", "0", "--cluster-size", std::to_string(kInstances),
          "--fragments", std::to_string(kFragments),
          "--heartbeat-interval-ms", std::to_string(kHeartbeatMs),
          "--miss-threshold", "3", "--lease-ttl-ms", "3000"});
  c.coordd->Start("coordinating");
  const std::string coord = "127.0.0.1:" + std::to_string(c.coordd->port());
  for (size_t i = 0; i < kInstances; ++i) {
    c.data_dirs.push_back(dir + "/node_" + std::to_string(i));
    c.nodes.push_back(std::make_unique<Daemon>(
        "geminid " + std::to_string(i), PERFBENCH_GEMINID,
        std::vector<std::string>{
            "--port", "0", "--instance", std::to_string(i), "--data-dir",
            c.data_dirs.back(), "--coordinator", coord,
            "--heartbeat-interval-ms", std::to_string(kHeartbeatMs),
            "--threads", "2"}));
    c.nodes.back()->Start("serving on");
  }
  c.coordinator = std::make_unique<gemini::RemoteCoordinator>(
      "127.0.0.1", c.coordd->port(), gemini::RemoteCoordinator::Options());
  for (size_t i = 0; i < kInstances; ++i) {
    c.backends.push_back(std::make_unique<gemini::TcpCacheBackend>(
        "127.0.0.1", c.nodes[i]->port(), static_cast<gemini::InstanceId>(i),
        gemini::TcpCacheBackend::Options()));
    c.backend_ptrs.push_back(c.backends.back().get());
  }
  const int64_t deadline = NowNs() + 20'000'000'000LL;
  while (true) {
    (void)c.coordinator->Refresh();
    if (AllNormal(c.coordinator->GetConfiguration())) break;
    if (NowNs() > deadline) {
      throw BenchError("cluster never converged to all-normal at start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

struct ReadRec {
  int64_t t_ns = 0;  // Read() called
  float us = 0;
  bool hit = false;
};

/// One client thread's stream position, audit state and results.
struct ClientThread {
  ClientThread(const std::vector<uint32_t>* stream_in,
               const gemini::DataStore* store)
      : stream(stream_in), checker(store) {}

  const std::vector<uint32_t>* stream;
  size_t cursor = 0;
  gemini::StaleReadChecker checker;
  std::atomic<uint64_t> done{0};  // ops completed, for phase changes
  // Per cycle:
  std::vector<ReadRec> reads;
  Samples write_lat;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

/// Shared by every client thread; element k is touched only by the thread
/// owning key k.
struct KeyState {
  std::vector<uint32_t> acked;      // last write counter acknowledged
  std::vector<uint32_t> attempted;  // last write counter issued
};

void ClientLoop(ClientThread& ct, gemini::GeminiClient& client,
                KeyState& keys, const ValueCodec& codec,
                const std::atomic<bool>& stop, TraceLog* log) {
  if (log != nullptr) log->AttachThread();
  gemini::Session session;
  std::string key;
  std::string value;
  while (!stop.load(std::memory_order_acquire)) {
    const uint32_t op = (*ct.stream)[ct.cursor];
    if (++ct.cursor == ct.stream->size()) ct.cursor = 0;
    const uint32_t id = KeyOf(op);
    KeyName(id, &key);
    const int64_t t0 = NowNs();
    if (IsWrite(op)) {
      const uint32_t counter = ++keys.attempted[id];
      codec.Encode(id, counter, &value);
      Status s;
      {
        ScopedOp span(OpKind::kWrite);
        // A suspended write did not happen: retry it until a configuration
        // with a reachable replica appears.
        while (true) {
          s = client.Write(session, key, value);
          if (s.code() != Code::kSuspended ||
              NowNs() - t0 > 10'000'000'000LL) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (s.ok()) {
        keys.acked[id] = counter;
        ++ct.writes;
        ct.write_lat.Add(static_cast<double>(NowNs() - t0) * 1e-3);
      } else {
        ++ct.failed;
      }
      ct.done.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::optional<gemini::Result<gemini::GeminiClient::ReadResult>> r;
    {
      ScopedOp span(OpKind::kRead);
      r.emplace(client.Read(session, key));
    }
    const int64_t t1 = NowNs();
    ct.done.fetch_add(1, std::memory_order_relaxed);
    if (!r->ok()) {
      ++ct.failed;
      continue;
    }
    const auto& res = r->value();
    uint32_t counter = 0;
    const bool stale = ct.checker.OnRead(gemini::SystemClock::Global().Now(),
                                         key, res.value.version);
    if (stale || !codec.Decode(res.value.data, id, &counter) ||
        counter < keys.acked[id] || counter > keys.attempted[id]) {
      if (ct.wrong++ == 0) {
        std::fprintf(stderr,
                     "perfbench: read of key %u returned write %u (stale=%d); "
                     "acknowledged %u, issued %u\n",
                     id, counter, stale ? 1 : 0, keys.acked[id],
                     keys.attempted[id]);
      }
    }
    ct.reads.push_back(
        {t0, static_cast<float>(static_cast<double>(t1 - t0) * 1e-3),
         res.cache_hit});
  }
  if (log != nullptr) TraceLog::DetachThread();
}

void WorkerLoop(gemini::RecoveryWorker& worker, const std::atomic<bool>& stop,
                TraceLog* log, int64_t* busy_ns) {
  if (log != nullptr) log->AttachThread();
  gemini::Session session;
  while (!stop.load(std::memory_order_acquire)) {
    std::optional<gemini::FragmentId> adopted;
    {
      ScopedOp span(OpKind::kWorkerAdopt);
      adopted = worker.TryAdoptFragment(session);
    }
    if (!adopted.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    bool done = false;
    while (!done) {
      const int64_t t0 = NowNs();
      {
        ScopedOp span(OpKind::kWorkerStep);
        done = worker.Step(session);
      }
      *busy_ns += NowNs() - t0;
    }
  }
  if (log != nullptr) TraceLog::DetachThread();
}

/// Timestamps a cycle's monitor thread observes in the coordinator's
/// pushed configuration (0 = not observed).
struct Milestones {
  std::atomic<int64_t> restart_ns{0};  // set by the cycle: restart banner
  std::atomic<int64_t> failover_ns{0};
  std::atomic<int64_t> recovery_mode_ns{0};
  std::atomic<int64_t> normal_ns{0};
};

void MonitorLoop(const gemini::RemoteCoordinator& coordinator,
                 gemini::ConfigId before_kill, Milestones& m,
                 const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    const int64_t now = NowNs();
    if (m.failover_ns.load() == 0 && coordinator.latest_id() > before_kill) {
      m.failover_ns.store(now);
    }
    if (m.restart_ns.load() != 0) {
      const gemini::ConfigurationPtr config = coordinator.GetConfiguration();
      if (m.recovery_mode_ns.load() == 0 && AnyRecovering(config)) {
        m.recovery_mode_ns.store(now);
      }
      if (m.normal_ns.load() == 0 && AllNormal(config)) m.normal_ns.store(now);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// What one cycle measured.
struct CycleOut {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t hits = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  Samples read_lat;
  Samples write_lat;
  double steady_hit_ratio = 0;
  double pre_restart_hit_ratio = 0;
  double recovery_s = 0;
  bool recovered = false;
  double recovery_hit_ratio = 0;
  bool normal = false;
  double failover_s = 0;
  double restart_to_recovery_mode_s = 0;
  double restart_to_normal_s = 0;
  gemini::GeminiClient::Stats client_before;
  gemini::GeminiClient::Stats client_after;
  gemini::DataStore::Stats store_before;
  gemini::DataStore::Stats store_after;
  gemini::RecoveryWorker::Stats workers;
  int64_t step_busy_ns = 0;
  StatMap survivor_before;  // instance 1 (serves everything in the outage)
  StatMap survivor_after;
  StatMap coordd_before;
  StatMap coordd_after;
  uint64_t scan_keys = 0;  // working-set scan keys, both instances
  uint64_t disk_bytes = 0;
  uint64_t used_bytes = 0;
  double daemon_cpu_s = 0;
  double client_cpu_s = 0;
  // Traced cycles only.
  OpAggregate read_agg;
  OpAggregate write_agg;
  LayerAggregate coord_agg;
  uint64_t spans = 0;
};

using Threads = std::vector<std::unique_ptr<ClientThread>>;

/// Threads sharing a stop flag; the destructor stops and joins them, so an
/// exception mid-cycle cannot destroy a joinable thread.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { Join(); }

  template <typename Fn>
  void Start(Fn fn) {
    threads_.emplace_back(std::move(fn));
  }
  void Join() {
    stop.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::atomic<bool> stop{false};

 private:
  std::vector<std::thread> threads_;
};

CycleOut RunCycle(Cluster& c, Threads& threads,
                  KeyState& keys, const ValueCodec& codec, const Params& p,
                  double seconds, bool traced, const std::string& span_path) {
  CycleOut out;
  TraceLog log;
  TraceLog* tlog = traced ? &log : nullptr;
  TracingCoordinator traced_coord(c.coordinator.get());
  std::vector<std::unique_ptr<TracingBackend>> traced_backends;
  std::vector<gemini::CacheBackend*> backends = c.backend_ptrs;
  gemini::CoordinatorService* coord = c.coordinator.get();
  if (traced) {
    backends.clear();
    for (gemini::CacheBackend* b : c.backend_ptrs) {
      traced_backends.push_back(std::make_unique<TracingBackend>(b));
      backends.push_back(traced_backends.back().get());
    }
    coord = &traced_coord;
  }
  gemini::GeminiClient::Options copts;
  copts.follow_config_pushes = true;
  gemini::GeminiClient client(&gemini::SystemClock::Global(), coord, backends,
                              &c.store, copts);
  gemini::RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;
  // A scan page visits max_keys entries of the secondary's whole table and
  // returns ~1/16 of them, so bulk pages keep round trips proportional to
  // the data rather than the table.
  wopts.wst_page_keys = 2048;
  wopts.wst_bytes_per_sec = p.wst_bytes_per_sec;
  std::vector<std::unique_ptr<gemini::RecoveryWorker>> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<gemini::RecoveryWorker>(
        &gemini::SystemClock::Global(), coord, backends, wopts));
  }

  for (auto& ct : threads) {
    ct->reads.clear();
    ct->reads.reserve(static_cast<size_t>(seconds * p.nominal_ops_per_s * 2));
    ct->write_lat = Samples();
    ct->writes = ct->failed = ct->wrong = 0;
  }
  const auto ops_done = [&] {
    uint64_t n = 0;
    for (const auto& ct : threads) n += ct->done.load(std::memory_order_relaxed);
    return n;
  };
  const auto phase_ops = [&](double share) {
    return static_cast<uint64_t>(seconds * share * p.nominal_ops_per_s);
  };
  const auto wait_ops = [&](uint64_t target, double share) {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(3 * seconds * share * 1e9);
    while (ops_done() < target && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StatsClient survivor_stats(c.nodes[1]->port());
  StatsClient coordd_stats(c.coordd->port());
  out.survivor_before = survivor_stats.Query();
  out.coordd_before = coordd_stats.Query();
  out.client_before = client.stats();
  out.store_before = c.store.stats();
  const double self0 = SelfCpuSeconds();
  double cpu0 = c.coordd->CpuSeconds() + c.nodes[0]->CpuSeconds() +
                c.nodes[1]->CpuSeconds();

  std::vector<int64_t> busy(kWorkers, 0);
  Milestones m;
  ThreadGroup monitor;
  ThreadGroup worker_threads;
  ThreadGroup client_threads;
  const int64_t t_start = NowNs();
  const uint64_t ops0 = ops_done();
  for (auto& ct : threads) {
    client_threads.Start([&, ptr = ct.get()] {
      ClientLoop(*ptr, client, keys, codec, client_threads.stop, tlog);
    });
  }
  for (size_t w = 0; w < kWorkers; ++w) {
    worker_threads.Start([&, w] {
      WorkerLoop(*workers[w], worker_threads.stop, tlog, &busy[w]);
    });
  }

  // Steady -> kill -> outage.
  wait_ops(ops0 + phase_ops(p.steady_share), p.steady_share);
  const gemini::ConfigId before_kill = c.coordinator->latest_id();
  Daemon& victim = *c.nodes[0];
  victim.SetArg("--port", std::to_string(victim.port()));
  const double victim_cpu = victim.CpuSeconds();
  const int64_t t_kill = NowNs();
  victim.Stop(9);
  cpu0 -= victim_cpu;  // its CPU so far is counted; the restart starts at 0
  monitor.Start([&] {
    MonitorLoop(*c.coordinator, before_kill, m, monitor.stop);
  });
  wait_ops(ops0 + phase_ops(p.steady_share + p.outage_share), p.outage_share);

  // Disk loss, restart, recovery.
  const int64_t t_wipe = NowNs();
  RemoveTree(c.data_dirs[0]);
  // Clients know the victim by its port, so it must come back on the same
  // one; a SIGKILLed io_uring server can hold it for a while after it is
  // reaped, which the restarted daemon reports by exiting.
  for (int attempt = 0;; ++attempt) {
    try {
      victim.Start("serving on");
      break;
    } catch (const BenchError&) {
      if (attempt == 200) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  const int64_t t_restart = NowNs();
  m.restart_ns.store(t_restart);
  const uint64_t end_ops = ops_done() + phase_ops(p.recovery_share);
  const int64_t t_max_end =
      t_restart + static_cast<int64_t>(3 * seconds * p.recovery_share * 1e9);
  const int64_t t_timeout =
      t_restart + static_cast<int64_t>(kRecoveryTimeoutS * 1e9);
  while (NowNs() < t_timeout &&
         (m.normal_ns.load() == 0 ||
          (ops_done() < end_ops && NowNs() < t_max_end))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client_threads.Join();
  const int64_t t_end = NowNs();
  worker_threads.Join();
  monitor.Join();

  out.seconds = SecondsBetween(t_start, t_end);
  out.client_cpu_s = SelfCpuSeconds() - self0;
  out.daemon_cpu_s = c.coordd->CpuSeconds() + c.nodes[0]->CpuSeconds() +
                     c.nodes[1]->CpuSeconds() - cpu0;
  out.client_after = client.stats();
  out.store_after = c.store.stats();
  out.survivor_after = survivor_stats.Query();
  out.coordd_after = coordd_stats.Query();
  const StatMap victim_after = StatsClient(victim.port()).Query();
  out.scan_keys = Delta(out.survivor_before, out.survivor_after,
                        "recovery.scan_keys") +
                  Value(victim_after, "recovery.scan_keys");
  out.used_bytes = Value(out.survivor_after, "cache.used_bytes") +
                   Value(victim_after, "cache.used_bytes");
  out.disk_bytes = DirBytes(c.data_dirs[0]) + DirBytes(c.data_dirs[1]);
  for (size_t w = 0; w < kWorkers; ++w) {
    const gemini::RecoveryWorker::Stats& s = workers[w]->stats();
    out.workers.fragments_recovered += s.fragments_recovered;
    out.workers.fragments_abandoned += s.fragments_abandoned;
    out.workers.keys_overwritten += s.keys_overwritten;
    out.workers.wst_keys_copied += s.wst_keys_copied;
    out.workers.wst_keys_skipped += s.wst_keys_skipped;
    out.workers.wst_pages += s.wst_pages;
    out.workers.wst_aborts += s.wst_aborts;
    out.step_busy_ns += busy[w];
  }

  // ---- Post-process the reads ------------------------------------------------
  std::vector<ReadRec> reads;
  for (const auto& ct : threads) {
    reads.insert(reads.end(), ct->reads.begin(), ct->reads.end());
    out.write_lat.Append(ct->write_lat);
    out.writes += ct->writes;
    out.failed += ct->failed;
    out.wrong += ct->wrong;
  }
  std::sort(reads.begin(), reads.end(),
            [](const ReadRec& a, const ReadRec& b) { return a.t_ns < b.t_ns; });
  out.read_lat.Reserve(reads.size());
  for (const ReadRec& r : reads) {
    out.read_lat.Add(r.us);
    out.hits += r.hit ? 1 : 0;
  }
  out.reads = reads.size();
  out.ops = out.reads + out.writes + out.failed;
  auto ratio_between = [&](int64_t from, int64_t to) {
    uint64_t n = 0, h = 0;
    for (const ReadRec& r : reads) {
      if (r.t_ns >= from && r.t_ns < to) {
        ++n;
        h += r.hit ? 1 : 0;
      }
    }
    return n == 0 ? 0.0 : double(h) / double(n);
  };
  out.steady_hit_ratio = ratio_between(t_start, t_kill);
  out.pre_restart_hit_ratio =
      ratio_between(t_wipe - (t_wipe - t_kill) / 4, t_wipe);
  const auto first_after = [&](int64_t t) {
    return static_cast<size_t>(
        std::lower_bound(reads.begin(), reads.end(), t,
                         [](const ReadRec& r, int64_t v) { return r.t_ns < v; }) -
        reads.begin());
  };
  {
    const size_t i0 = first_after(t_restart);
    const size_t n = std::min(kFirstReads, reads.size() - i0);
    uint64_t h = 0;
    for (size_t i = i0; i < i0 + n; ++i) h += reads[i].hit ? 1 : 0;
    out.recovery_hit_ratio = n == 0 ? 0 : double(h) / double(n);
  }
  const int64_t t_normal = m.normal_ns.load();
  out.normal = t_normal != 0;
  out.failover_s =
      m.failover_ns.load() == 0 ? 0 : SecondsBetween(t_kill, m.failover_ns.load());
  out.restart_to_recovery_mode_s =
      m.recovery_mode_ns.load() == 0
          ? 0
          : SecondsBetween(t_restart, m.recovery_mode_ns.load());
  out.restart_to_normal_s = out.normal ? SecondsBetween(t_restart, t_normal) : 0;
  out.recovery_s = SecondsBetween(t_restart, t_end);
  if (out.normal) {
    const double target = kTarget * out.pre_restart_hit_ratio;
    for (size_t i = first_after(t_normal); i + kWindowReads <= reads.size();
         i += kWindowReads) {
      uint64_t h = 0;
      for (size_t j = i; j < i + kWindowReads; ++j) h += reads[j].hit ? 1 : 0;
      if (double(h) >= target * kWindowReads) {
        const ReadRec& last = reads[i + kWindowReads - 1];
        out.recovery_s = SecondsBetween(
            t_restart, last.t_ns + static_cast<int64_t>(last.us * 1e3));
        out.recovered = true;
        break;
      }
    }
  }
  if (traced) {
    out.read_agg = log.Op(OpKind::kRead);
    out.write_agg = log.Op(OpKind::kWrite);
    out.coord_agg = log.LayerTotal(Layer::kCoordinator);
    out.spans = log.span_count();
    log.WriteCsv(span_path);
  }
  return out;
}

/// Reads every key through a GeminiClient, as an application warming its
/// cache would. Call with the store's synthetic latency off.
void WarmAll(Cluster& c, uint64_t keys) {
  gemini::GeminiClient::Options copts;
  copts.follow_config_pushes = true;
  gemini::GeminiClient warm(&gemini::SystemClock::Global(),
                            c.coordinator.get(), c.backend_ptrs, &c.store,
                            copts);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> warmers;
  for (uint32_t t = 0; t < kWarmThreads; ++t) {
    warmers.emplace_back([&, t] {
      gemini::Session session;
      std::string k;
      for (uint32_t id = t; id < keys; id += kWarmThreads) {
        KeyName(id, &k);
        if (!warm.Read(session, k).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : warmers) t.join();
  if (errors.load() != 0) throw BenchError("warm-up reads failed");
}

void SetEndToEnd(Report& r, const std::string& prefix, const CycleOut& c,
                 double ok_frac) {
  r.Set(prefix + "ops_per_s", Ratio(double(c.ops), c.seconds), "ops/s");
  r.Set(prefix + "read_p50_us", c.read_lat.Percentile(0.50), "us");
  r.Set(prefix + "read_p90_us", c.read_lat.Percentile(0.90), "us");
  r.Set(prefix + "write_p50_us", c.write_lat.Percentile(0.50), "us");
  r.Set(prefix + "hit_ratio", Ratio(double(c.hits), double(c.reads)),
        "fraction");
  r.Set(prefix + "recovery_s", c.recovery_s, "s");
  r.Set(prefix + "recovery_hit_ratio", c.recovery_hit_ratio, "fraction");
  r.Set(prefix + "ok_frac", ok_frac, "fraction");
}

}  // namespace

std::vector<StreamSpec> LookasideStreamSpecs(const RunOptions& o) {
  const Params p = ParamsFor(o.tiny);
  std::vector<StreamSpec> specs;
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    StreamSpec spec;
    spec.seed = o.seed;
    spec.partition = t;
    spec.partitions = kClientThreads;
    spec.keys_per_partition = p.keys / kClientThreads;
    spec.theta = p.theta;
    spec.write_fraction = p.write_fraction;
    spec.length = p.stream_length;
    specs.push_back(spec);
  }
  return specs;
}

void RunLookaside(const RunOptions& o, RunResult* out) {
  const Params p = ParamsFor(o.tiny);
  const ValueCodec codec(p.value_bytes);
  Report& r = out->report;

  std::vector<std::vector<uint32_t>> streams;
  for (const StreamSpec& spec : LookasideStreamSpecs(o)) {
    streams.push_back(MakeOpStream(spec));
  }

  // ---- Set-up, several times; the last cluster stays up ----------------------
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetups; ++rep) {
    cluster.reset();
    RemoveTree(o.work_dir + "/cluster");
    const int64_t t0 = NowNs();
    cluster = std::make_unique<Cluster>();
    StartCluster(*cluster, o.work_dir + "/cluster");
    std::string key;
    std::string value;
    for (uint32_t id = 0; id < p.keys; ++id) {
      KeyName(id, &key);
      codec.Encode(id, 0, &value);
      cluster->store.Put(key, value);
    }
    WarmAll(*cluster, p.keys);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
  }
  Cluster& c = *cluster;
  c.store.set_synthetic_latency(p.store_latency);
  // Calibrates the store's round trip, to split a Read's time into client,
  // cache and store shares.
  Samples store_rt;
  {
    std::string k;
    KeyName(0, &k);
    for (int i = 0; i < 100; ++i) {
      const int64_t t0 = NowNs();
      (void)c.store.Query(k);
      store_rt.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    }
  }

  KeyState keys;
  keys.acked.assign(p.keys, 0);
  keys.attempted.assign(p.keys, 0);
  Threads threads;
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    threads.push_back(
        std::make_unique<ClientThread>(&streams[t], &c.store));
  }

  char config[768];
  std::snprintf(
      config, sizeof(config),
      "config workload=%s seed=%llu seconds=%g trace=%d %s io_backend=%s "
      "geminicoordd_flags='--cluster-size 2 --fragments 16 "
      "--heartbeat-interval-ms 50 --miss-threshold 3 --lease-ttl-ms 3000' "
      "policy=gemini-ow(default) geminid_flags='--instance I --data-dir DIR "
      "--coordinator C --heartbeat-interval-ms 50 --threads 2' fsync=default "
      "(WAL group commit: 1 MiB batches, 50 ms background fsync, eager for "
      "lease/config records; checkpoint every 8 MiB of log)",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, MachineDescription().c_str(),
      c.nodes[0]->io_backend().c_str());
  r.Note(config);
  char load[384];
  std::snprintf(load, sizeof(load),
                "load closed-loop, %u client threads, %zu recovery workers "
                "(WST %llu MiB/s), keys=%llu value=%zuB zipf=%.2f "
                "writes=%.0f%% store=%lldus",
                kClientThreads, kWorkers,
                static_cast<unsigned long long>(p.wst_bytes_per_sec >> 20),
                static_cast<unsigned long long>(p.keys), p.value_bytes,
                p.theta, p.write_fraction * 100,
                static_cast<long long>(p.store_latency));
  r.Note(load);

  // ---- Cycles: untraced; or untraced then traced --------------------------------
  const int cycles = o.trace ? 2 : 1;
  std::vector<CycleOut> outs;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  bool all_normal = true;
  for (int i = 0; i < cycles; ++i) {
    const bool traced = o.trace && i == 1;
    if (i > 0) {
      // Each cycle starts from the same state: every key cached.
      c.store.set_synthetic_latency(0);
      WarmAll(c, p.keys);
      c.store.set_synthetic_latency(p.store_latency);
    }
    outs.push_back(RunCycle(c, threads, keys, codec, p, o.seconds / cycles,
                            traced,
                            o.trace_dir + "/" + o.workload + "-seed" +
                                std::to_string(o.seed) + ".csv"));
    const CycleOut& x = outs.back();
    attempted += x.ops;
    failed += x.failed;
    wrong += x.wrong;
    all_normal = all_normal && x.normal;
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "cycle %d%s: steady hit %.4f, pre-restart hit %.4f, first %zu reads "
        "after restart hit %.4f, normal %.3f s after restart (%s), recovered "
        "%s; %llu reads, %llu writes, %llu failed, %llu wrong/stale",
        i, traced ? " (traced)" : "", x.steady_hit_ratio,
        x.pre_restart_hit_ratio, kFirstReads, x.recovery_hit_ratio,
        x.restart_to_normal_s, x.normal ? "ok" : "NEVER",
        x.recovered ? "yes" : "not within the run",
        static_cast<unsigned long long>(x.reads),
        static_cast<unsigned long long>(x.writes),
        static_cast<unsigned long long>(x.failed),
        static_cast<unsigned long long>(x.wrong));
    r.Note(line);
  }
  uint64_t stale = 0;
  for (const auto& ct : threads) stale += ct->checker.total_stale();
  out->attempted = attempted;
  out->failed = failed + wrong;
  out->correct = wrong == 0 && stale == 0 && all_normal;

  const CycleOut& main = outs.back();
  const double ok_frac = 1.0 - Ratio(double(out->failed), double(attempted));
  r.Timing("GeminiClient::Read", main.read_lat);
  r.Timing("GeminiClient::Write (with retries)", main.write_lat);
  r.Timing("DataStore::Query (calibration)", store_rt);
  {
    Samples setup_us;
    for (double x : setup_s) setup_us.Add(x * 1e6);
    r.Timing("set-up", setup_us);
  }
  SetEndToEnd(r, "", main, ok_frac);
  r.Set("setup_s", Median(setup_s), "s");

  if (!o.trace) return;

  SetEndToEnd(r, "untraced.", outs[0], ok_frac);
  for (const char* m : {"ops_per_s", "read_p50_us", "read_p90_us",
                        "write_p50_us", "hit_ratio", "recovery_s",
                        "recovery_hit_ratio", "ok_frac"}) {
    r.Set(std::string("trace_overhead.") + m,
          Overhead(r.Get(std::string("untraced.") + m), r.Get(m)), "fraction");
  }
  const double ops = double(main.ops);
  const auto sd = [&](const char* name) {
    return double(Delta(main.survivor_before, main.survivor_after, name));
  };
  const OpAggregate& rd = main.read_agg;
  const OpAggregate& wr = main.write_agg;
  const double reads = double(rd.count);
  const auto cache = static_cast<size_t>(Layer::kCache);
  const auto coordl = static_cast<size_t>(Layer::kCoordinator);
  const double store_reads = double(main.client_after.store_reads -
                                    main.client_before.store_reads);
  const double client_reads =
      double(main.client_after.reads - main.client_before.reads);
  const double store_us_per_read =
      Ratio(store_reads, client_reads) * store_rt.Percentile(0.5);
  const double read_us = Ratio(double(rd.total_ns) * 1e-3, reads);
  const double backend_us = Ratio(double(rd.child_ns[cache]) * 1e-3, reads);
  const double coord_us = Ratio(double(rd.child_ns[coordl]) * 1e-3, reads);
  r.Set("daemon.cpu_us_per_op", Ratio(main.daemon_cpu_s * 1e6, ops), "us");
  r.Set("client.cpu_us_per_op", Ratio(main.client_cpu_s * 1e6, ops), "us");
  r.Set("transport.frames_per_flush",
        Ratio(sd("transport.frames_flushed"), sd("transport.flush_calls")),
        "count");
  r.Set("transport.sendmsg_per_op", Ratio(sd("transport.sendmsg_calls"), ops),
        "count");
  r.Set("cache.hit_ratio",
        Ratio(sd("cache.hits"), sd("cache.hits") + sd("cache.misses")),
        "fraction");
  r.Set("cache.used_bytes", double(main.used_bytes), "bytes");
  r.Set("persist.records_per_commit",
        Ratio(sd("persist.appended_records"), sd("persist.journal_commits")),
        "count");
  r.Set("persist.checkpoints", sd("persist.checkpoints"), "count");
  r.Set("persist.checkpoint_lag_bytes",
        double(Value(main.survivor_after, "persist.checkpoint_lag_bytes")),
        "bytes");
  r.Set("persist.disk_bytes_per_live_byte",
        Ratio(double(main.disk_bytes), double(main.used_bytes)), "count");
  r.Set("client.backend_calls_per_read",
        Ratio(double(rd.child_calls[cache]), reads), "count");
  r.Set("client.backend_calls_per_write",
        Ratio(double(wr.child_calls[cache]), double(wr.count)), "count");
  r.Set("client.backend_us_per_read", backend_us, "us");
  r.Set("client.store_us_per_read", store_us_per_read, "us");
  r.Set("client.self_us_per_read",
        read_us - backend_us - coord_us - store_us_per_read, "us");
  r.Set("client.store_reads_per_read", Ratio(store_reads, client_reads),
        "count");
  r.Set("client.suspended_writes",
        double(main.client_after.suspended_writes -
               main.client_before.suspended_writes),
        "count");
  r.Set("store.queries",
        double(main.store_after.queries - main.store_before.queries), "count");
  r.Set("store.updates",
        double(main.store_after.updates - main.store_before.updates), "count");
  r.Set("lease.backoffs_per_op", Ratio(double(rd.backoffs + wr.backoffs), ops),
        "count");
  r.Set("cluster.failover_s", main.failover_s, "s");
  r.Set("cluster.config_changes",
        double(Delta(main.coordd_before, main.coordd_after,
                     "cluster.config_id")),
        "count");
  r.Set("coordinator.us_per_call",
        Ratio(double(main.coord_agg.total_ns) * 1e-3,
              double(main.coord_agg.calls)),
        "us");
  r.Set("cluster.restart_to_recovery_mode_s", main.restart_to_recovery_mode_s,
        "s");
  const gemini::RecoveryWorker::Stats& ws = main.workers;
  r.Set("recovery.step_busy_s", double(main.step_busy_ns) * 1e-9, "s");
  r.Set("recovery.adopt_success_ratio",
        Ratio(double(ws.fragments_recovered),
              double(ws.fragments_recovered + ws.fragments_abandoned)),
        "fraction");
  r.Set("recovery.wst_keys_copied", double(ws.wst_keys_copied), "count");
  r.Set("recovery.wst_copy_ratio",
        Ratio(double(ws.wst_keys_copied),
              double(ws.wst_keys_copied + ws.wst_keys_skipped)),
        "fraction");
  r.Set("recovery.wst_pages", double(ws.wst_pages), "count");
  r.Set("recovery.wst_aborts", double(ws.wst_aborts), "count");
  r.Set("recovery.scan_keys_per_copied",
        Ratio(double(main.scan_keys), double(ws.wst_keys_copied)), "count");
  r.Set("recovery.keys_overwritten", double(ws.keys_overwritten), "count");
  r.Set("trace.spans", double(main.spans), "count");
}

}  // namespace perfbench
