// gemini_cluster: a process-level crash/recovery harness for the networked
// control plane.
//
// Spawns a geminicoordd group (--coordinators: one master plus shadows,
// docs/PROTOCOL.md §12.7) and N geminids (each durably backed by a WAL data
// dir and heartbeating to the coordinator), fronts every geminid's data port
// with a seeded in-process FaultProxy, and drives foreground load through an
// unmodified GeminiClient + RemoteCoordinator — configurations arrive as
// kPushConfig frames, recovery notifications travel as kCoordReport. Each
// cycle it kill -9s a seeded victim mid-burst and asserts the paper's
// failover story end to end over real sockets:
//
//   missed heartbeats -> coordinator fails the instance over (config id
//   advances, pushed live to clients) -> transient writes append dirty
//   lists in the secondary -> the victim restarts on the same data dir,
//   replays its WAL, re-registers -> recovery workers drain dirty lists
//   over TCP -> fragments return to normal.
//
// With --coordinators > 1 every cycle also kill -9s the *master*
// geminicoordd mid-burst, before the geminid victim dies — so the shadow
// that promotes itself (from replicated state alone) is the coordinator
// that must detect the dead instance, run the recovery cycle, and publish
// fenced config ids, while geminids and clients redial through their
// endpoint lists. The run measures time-to-new-master per kill and fails
// unless every master kill produced an observed promotion and at least one
// client redial, and every converged cycle ends with exactly one master.
//
// A StaleReadChecker audits every foreground read against the data store;
// any read-after-write violation fails the run (exit 1). Each client thread
// owns a disjoint key range so the audit is exact under concurrency. All
// scheduling randomness derives from --seed: the same seed replays the same
// fault schedule, victim choices, and op mix.
//
// Usage:
//   gemini_cluster [--seed S] [--instances N] [--coordinators R]
//                  [--fragments M] [--cycles C] [--keys K] [--ops N]
//                  [--verbose]
//
// Exit codes: 0 clean sweep, 1 stale reads, a dead daemon, missing
// failover evidence, or a cycle that ends with no master or two, 2 bad
// flags, 3 recovery never converged.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/client/gemini_client.h"
#include "src/cluster/remote_coordinator.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/consistency/stale_read_checker.h"
#include "src/coordinator/configuration.h"
#include "src/recovery/recovery_worker.h"
#include "src/store/data_store.h"
#include "src/transport/fault_proxy.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"
#include "tools/child_process.h"
#include "tools/flags.h"

#ifndef GEMINID_PATH
#error "GEMINID_PATH must point at the geminid binary"
#endif
#ifndef GEMINICOORDD_PATH
#error "GEMINICOORDD_PATH must point at the geminicoordd binary"
#endif

namespace gemini {
namespace {

constexpr std::string_view kTool = "gemini_cluster";
using flags::ParseUint;
using proc::Child;
using proc::PortFromBanner;
using proc::ReadUntil;
using proc::Spawn;
using proc::WaitFor;

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [options]\n"
            << "  --seed S       fault/victim/op schedule seed (default 1)\n"
            << "  --instances N  geminid processes (default 3)\n"
            << "  --coordinators R  geminicoordd replicas (default 1); with\n"
               "                 R > 1 every cycle also kill -9s the master\n"
               "                 coordinator and asserts a shadow promotes\n"
            << "  --fragments M  fragment count (default 2*N)\n"
            << "  --cycles C     kill -9 / restart cycles (default 2)\n"
            << "  --keys K       keys per client thread (default 64)\n"
            << "  --ops N        foreground ops per thread per burst "
               "(default 400)\n"
            << "  --heartbeat-ms N  heartbeat cadence for coordinator and\n"
               "                 nodes; failover after 3 missed beats\n"
               "                 (default 50)\n"
            << "  --verbose      info-level logging\n";
}

struct Flags {
  uint64_t seed = 1;
  size_t instances = 3;
  size_t coordinators = 1;
  size_t fragments = 0;  // 0 = 2 * instances
  size_t cycles = 2;
  size_t keys = 64;
  size_t ops = 400;
  uint64_t heartbeat_ms = 50;
};

/// Binds an ephemeral 127.0.0.1 port and releases it. A replicated
/// coordinator group needs its ports picked *before* any member spawns
/// (each member's --peers list names the others), so banner parsing is too
/// late. The small close-to-bind race is acceptable in a test harness.
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

constexpr size_t kClientThreads = 2;
constexpr size_t kRecoveryWorkers = 2;
/// Heartbeat cadence handed to geminicoordd and every geminid (failover
/// fires after 3 missed beats). Set once from --heartbeat-ms before any
/// process spawns; deep CI rounds raise it so a sanitizer-slowed scheduler
/// stall does not read as an instance death.
uint64_t g_heartbeat_ms = 50;

/// One geminid process plus the seeded chaos proxy in front of its data
/// port. The proxy targets the *fixed* server port, so a restarted victim
/// (same --port) is reachable through the same proxy; the coordinator link
/// advertises the real port — control traffic bypasses the chaos.
struct Node {
  InstanceId id = 0;
  std::string data_dir;
  uint16_t port = 0;  // 0 = first spawn picks one; fixed afterwards
  Child child;
  std::unique_ptr<FaultProxy> proxy;
};

bool SpawnNode(Node& node, const std::string& coord_list) {
  std::vector<std::string> args = {
      "--port",        std::to_string(node.port),
      "--instance",    std::to_string(node.id),
      "--data-dir",    node.data_dir,
      "--coordinator", coord_list,
      "--heartbeat-interval-ms", std::to_string(g_heartbeat_ms),
      "--threads",     "2"};
  node.child = Spawn(GEMINID_PATH, args);
  if (node.child.pid <= 0) return false;
  const std::string banner = ReadUntil(node.child.stdout_fd, "serving on");
  const uint16_t port = PortFromBanner(banner);
  if (port == 0) {
    std::cerr << "gemini_cluster: geminid " << node.id
              << " printed no banner:\n"
              << banner;
    return false;
  }
  node.port = port;
  return true;
}

/// One member of the geminicoordd group. Ports are fixed up front
/// (PickFreePort) because every member's --peers list names the others, and
/// a killed member restarts on the same port so the survivors' peer
/// connections find it again.
struct Coord {
  uint32_t rank = 0;
  uint16_t port = 0;
  Child child;
  bool alive = false;
};

bool SpawnCoord(std::vector<Coord>& coords, size_t idx, size_t instances,
                size_t fragments) {
  Coord& c = coords[idx];
  std::vector<std::string> args = {
      "--port", std::to_string(c.port),
      "--cluster-size", std::to_string(instances),
      "--fragments", std::to_string(fragments),
      "--heartbeat-interval-ms", std::to_string(g_heartbeat_ms),
      "--miss-threshold", "3",
      "--lease-ttl-ms", "3000"};
  if (coords.size() > 1) {
    std::string peers;
    for (size_t i = 0; i < coords.size(); ++i) {
      if (i == idx) continue;
      if (!peers.empty()) peers += ",";
      peers += "127.0.0.1:" + std::to_string(coords[i].port);
    }
    args.insert(args.end(), {"--peers", peers, "--rank",
                             std::to_string(c.rank)});
  }
  c.child = Spawn(GEMINICOORDD_PATH, args);
  if (c.child.pid <= 0) return false;
  if (PortFromBanner(ReadUntil(c.child.stdout_fd, "coordinating")) == 0) {
    std::cerr << "gemini_cluster: geminicoordd rank " << c.rank
              << " printed no banner\n";
    return false;
  }
  c.alive = true;
  return true;
}

/// Fetches one counter from a daemon's kStats reply; false if the daemon is
/// unreachable or does not export `name`. Stats are instanceless, so this
/// works against coordinator-only servers — shadows included (only kCoord*
/// control ops answer kNotMaster on a shadow).
bool QueryStat(uint16_t port, const std::string& name, uint64_t* value) {
  TcpConnection::Options copts;
  copts.connect_timeout = Millis(250);
  copts.io_timeout = Millis(500);
  auto conn =
      TcpConnection::Acquire("127.0.0.1", port, wire::kAnyInstance, copts);
  const auto rows = conn->Call<wire::Op::kStats>();
  if (!rows.ok()) return false;
  for (const auto& [key, v] : *rows) {
    if (key == name) {
      *value = v;
      return true;
    }
  }
  return false;
}

/// Indices of the live group members answering as master.
std::vector<int> Masters(const std::vector<Coord>& coords) {
  std::vector<int> masters;
  for (size_t i = 0; i < coords.size(); ++i) {
    uint64_t is_master = 0;
    if (coords[i].alive &&
        QueryStat(coords[i].port, "cluster.is_master", &is_master) &&
        is_master != 0) {
      masters.push_back(static_cast<int>(i));
    }
  }
  return masters;
}

bool AllFragmentsNormal(const ConfigurationPtr& config, size_t fragments) {
  if (config == nullptr) return false;
  for (FragmentId f = 0; f < fragments; ++f) {
    const FragmentAssignment& a = config->fragment(f);
    if (a.mode != FragmentMode::kNormal || a.primary == kInvalidInstance) {
      return false;
    }
  }
  return true;
}

/// Polls until `pred` holds; false on timeout.
int Run(const Flags& flags) {
  g_heartbeat_ms = flags.heartbeat_ms;
  const size_t fragments =
      flags.fragments != 0 ? flags.fragments : 2 * flags.instances;

  char ws_template[] = "/tmp/gemini_cluster.XXXXXX";
  const char* workspace = ::mkdtemp(ws_template);
  if (workspace == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  std::cout << "gemini_cluster: seed " << flags.seed << ", " << flags.instances
            << " instances, " << fragments << " fragments, workspace "
            << workspace << std::endl;

  // ---- Control plane: a geminicoordd group on pre-picked ports --------------
  // Rank i gets its own fixed port; with --coordinators > 1 each member is
  // spawned with the others as --peers and boots as a shadow — rank 0 wins
  // the initial election (lowest rank, shortest staggered delay).
  std::vector<Coord> coords(flags.coordinators);
  for (size_t i = 0; i < coords.size(); ++i) {
    coords[i].rank = static_cast<uint32_t>(i);
    coords[i].port = PickFreePort();
    if (coords[i].port == 0) {
      std::cerr << "gemini_cluster: no free port for coordinator " << i
                << "\n";
      return 1;
    }
  }
  std::string coord_list;
  for (const Coord& c : coords) {
    if (!coord_list.empty()) coord_list += ",";
    coord_list += "127.0.0.1:" + std::to_string(c.port);
  }
  for (size_t i = 0; i < coords.size(); ++i) {
    if (!SpawnCoord(coords, i, flags.instances, fragments)) return 1;
  }

  // ---- Data plane: geminids behind seeded chaos proxies ---------------------
  std::vector<Node> nodes(flags.instances);
  for (size_t i = 0; i < flags.instances; ++i) {
    nodes[i].id = static_cast<InstanceId>(i);
    nodes[i].data_dir = std::string(workspace) + "/node_" + std::to_string(i);
    if (!SpawnNode(nodes[i], coord_list)) return 1;

    // Frame chaos on the client data path only: delays, mid-frame stalls,
    // held bursts, and occasional RST-on-accept. No cuts/truncations — the
    // kill -9s below provide the hard failures, and a cut mid-write would
    // make the audit ambiguous (an unacknowledged store update is not a
    // read-after-write violation).
    FaultProxy::Options popts;
    popts.seed = flags.seed * 1000 + i;
    popts.reset_on_accept_prob = 0.02;
    FaultProxy::DirectionProfile profile;
    profile.skip_frames = 1;
    profile.delay_prob = 0.05;
    profile.delay_min = 0;
    profile.delay_max = Millis(2);
    profile.stall_prob = 0.01;
    profile.stall = Millis(10);
    profile.hold_every = 64;
    profile.hold_count = 4;
    popts.client_to_server = profile;
    popts.server_to_client = profile;
    nodes[i].proxy =
        std::make_unique<FaultProxy>("127.0.0.1", nodes[i].port, popts);
    if (Status s = nodes[i].proxy->Start(); !s.ok()) {
      std::cerr << "gemini_cluster: proxy " << i << ": " << s.ToString()
                << "\n";
      return 1;
    }
  }

  // ---- Clients --------------------------------------------------------------
  DataStore store;
  std::vector<RemoteCoordinator::Endpoint> coord_endpoints;
  for (const Coord& c : coords) {
    coord_endpoints.push_back({"127.0.0.1", c.port});
  }
  RemoteCoordinator coordinator(coord_endpoints, RemoteCoordinator::Options());
  std::vector<std::unique_ptr<TcpCacheBackend>> backends;
  std::vector<CacheBackend*> backend_ptrs;
  for (const Node& node : nodes) {
    backends.push_back(std::make_unique<TcpCacheBackend>(
        "127.0.0.1", node.proxy->port(), node.id,
        TcpCacheBackend::Options()));
    backend_ptrs.push_back(backends.back().get());
  }

  // Wait for every instance to register: the bootstrap publishes converge
  // to an all-normal configuration that the watch connection then tracks.
  if (!WaitFor(
          [&] {
            (void)coordinator.Refresh();
            return AllFragmentsNormal(coordinator.GetConfiguration(),
                                      fragments);
          },
          Seconds(20))) {
    std::cerr << "gemini_cluster: cluster never converged at bootstrap\n";
    return 3;
  }
  const ConfigId boot_id = coordinator.latest_id();
  std::cout << "gemini_cluster: bootstrap complete, config id " << boot_id
            << std::endl;

  GeminiClient::Options copts;
  copts.follow_config_pushes = true;  // adopt kPushConfig frames eagerly
  GeminiClient client(&SystemClock::Global(), &coordinator, backend_ptrs,
                      &store, copts);

  // Seed the store: thread t owns keys "t<t>/k<j>" — disjoint ranges keep
  // the read-after-write audit exact under concurrency.
  auto key_of = [](size_t thread, size_t j) {
    return "t" + std::to_string(thread) + "/k" + std::to_string(j);
  };
  for (size_t t = 0; t < kClientThreads; ++t) {
    for (size_t j = 0; j < flags.keys; ++j) store.Put(key_of(t, j), "seed");
  }

  // ---- Recovery workers (drain dirty lists, then stream the working set) ----
  std::atomic<bool> workers_stop{false};
  std::vector<std::thread> workers;
  std::vector<RecoveryWorker::Stats> worker_stats(kRecoveryWorkers);
  for (size_t w = 0; w < kRecoveryWorkers; ++w) {
    workers.emplace_back([&, w] {
      // The coordinator runs its default gemini-o+W policy: after draining a
      // dirty list the worker keeps the fragment and streams the secondary's
      // hot keys back into the restarted primary (kWorkingSetScan pages),
      // reporting the transfer's termination itself — recovery mode does not
      // end until it does.
      RecoveryWorker::Options wopts;
      wopts.working_set_transfer = true;
      wopts.wst_page_keys = 128;
      RecoveryWorker worker(&SystemClock::Global(), &coordinator,
                            backend_ptrs, wopts);
      Session session;
      while (!workers_stop.load(std::memory_order_acquire)) {
        if (worker.TryAdoptFragment(session).has_value()) {
          while (!worker.Step(session)) {
          }
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      worker_stats[w] = worker.stats();
    });
  }

  // ---- Seeded kill/restart cycles under foreground load ---------------------
  std::mt19937_64 rng(flags.seed);
  std::vector<StaleReadChecker> checkers;
  checkers.reserve(kClientThreads);
  for (size_t t = 0; t < kClientThreads; ++t) checkers.emplace_back(&store);
  std::atomic<uint64_t> suspended_writes{0};

  auto burst = [&](size_t thread, uint64_t burst_seed) {
    std::mt19937_64 trng(burst_seed);
    Session session;
    uint64_t counter = 0;
    for (size_t i = 0; i < flags.ops; ++i) {
      const std::string key = key_of(thread, trng() % flags.keys);
      if (trng() % 4 == 0) {
        Status s =
            client.Write(session, key, "v" + std::to_string(++counter));
        if (s.code() == Code::kSuspended) {
          // Failover window: no reachable replica and no fresh
          // configuration yet. The write did not happen; back off.
          suspended_writes.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      } else {
        auto r = client.Read(session, key);
        if (r.ok()) {
          checkers[thread].OnRead(SystemClock::Global().Now(), key,
                                  r->value.version);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    }
  };

  auto run_bursts = [&](uint64_t tag) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back(burst, t, flags.seed * 7919 + tag * 104729 + t);
    }
    return threads;
  };

  int exit_code = 0;
  size_t master_kills = 0;
  size_t promotions_observed = 0;
  Duration ttnm_total = 0;
  Duration ttnm_max = 0;
  for (size_t cycle = 0; cycle < flags.cycles && exit_code == 0; ++cycle) {
    const size_t victim = rng() % flags.instances;
    const ConfigId before = coordinator.latest_id();
    std::vector<int> masters;
    if (flags.coordinators > 1 && (masters = Masters(coords)).empty()) {
      std::cerr << "gemini_cluster: no coordinator answers as master\n";
      exit_code = 3;
      break;
    }
    const int old_master = masters.empty() ? -1 : masters.front();

    // Phase A: load, then kill -9 mid-burst — no snapshot, no checkpoint,
    // no goodbye heartbeat. Detection must come from the missed-beat
    // deadline alone. With a coordinator group, the *master* geminicoordd
    // dies first: the shadow that promotes itself must detect the dead
    // instance from replicated registration state alone, while clients and
    // geminids redial through their endpoint lists mid-burst.
    std::vector<std::thread> threads = run_bursts(cycle * 2);
    std::thread promotion_watch;
    std::atomic<int> promoted_idx{-1};
    std::atomic<int64_t> ttnm_us{0};
    if (flags.coordinators > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(75));
      const pid_t master_pid = coords[old_master].child.pid;
      coords[old_master].child.Stop(SIGKILL);
      coords[old_master].alive = false;
      ++master_kills;
      const Timestamp killed_at = SystemClock::Global().Now();
      std::cout << "gemini_cluster: cycle " << cycle
                << ": killed master coordinator rank "
                << coords[old_master].rank << " (pid " << master_pid << ")"
                << std::endl;
      // Poll for the promotion concurrently with the burst so the measured
      // time-to-new-master is the election delay, not the burst length.
      promotion_watch = std::thread([&coords, &promoted_idx, &ttnm_us,
                                     killed_at] {
        while (SystemClock::Global().Now() - killed_at < Seconds(10)) {
          const std::vector<int> m = Masters(coords);
          if (!m.empty()) {
            ttnm_us.store(SystemClock::Global().Now() - killed_at,
                          std::memory_order_relaxed);
            promoted_idx.store(m.front(), std::memory_order_release);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(75));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    const pid_t victim_pid = nodes[victim].child.pid;
    nodes[victim].child.Stop(SIGKILL);
    std::cout << "gemini_cluster: cycle " << cycle << ": killed instance "
              << victim << " (pid " << victim_pid << ")" << std::endl;
    for (auto& th : threads) th.join();

    if (flags.coordinators > 1) {
      promotion_watch.join();
      const int promoted = promoted_idx.load(std::memory_order_acquire);
      if (promoted < 0) {
        std::cerr << "gemini_cluster: no shadow promoted itself within 10 s "
                     "of the master kill\n";
        exit_code = 3;
        break;
      }
      ++promotions_observed;
      const Duration ttnm = ttnm_us.load(std::memory_order_relaxed);
      ttnm_total += ttnm;
      ttnm_max = std::max(ttnm_max, ttnm);
      std::cout << "gemini_cluster: coordinator rank "
                << coords[promoted].rank << " promoted to master in "
                << ttnm / 1000 << " ms" << std::endl;
      // Restart the dead member on its old port: it boots as a shadow and
      // the new master's sync beat folds it back into the group.
      if (!SpawnCoord(coords, static_cast<size_t>(old_master),
                      flags.instances, fragments)) {
        exit_code = 1;
        break;
      }
    }

    // The coordinator must notice via heartbeats and advance the config;
    // the watch connection receives the push.
    if (!WaitFor([&] { return coordinator.latest_id() > before; },
                 Seconds(10))) {
      std::cerr << "gemini_cluster: coordinator never failed over instance "
                << victim << "\n";
      exit_code = 3;
      break;
    }
    std::cout << "gemini_cluster: failover push received, config id "
              << coordinator.latest_id() << std::endl;

    // Restart on the same data dir and (fixed) port: WAL replay restores
    // pre-crash state, the link re-registers, the coordinator runs its
    // recovery cycle, and the workers drain the dirty lists.
    if (!SpawnNode(nodes[victim], coord_list)) {
      exit_code = 1;
      break;
    }
    if (!WaitFor(
            [&] {
              return AllFragmentsNormal(coordinator.GetConfiguration(),
                                        fragments);
            },
            Seconds(30))) {
      std::cerr << "gemini_cluster: recovery never converged after "
                   "restarting instance "
                << victim << "\n";
      exit_code = 3;
      break;
    }
    std::cout << "gemini_cluster: cycle " << cycle
              << ": recovered to normal, config id "
              << coordinator.latest_id() << std::endl;

    // Phase B: audited load against the recovered cluster.
    threads = run_bursts(cycle * 2 + 1);
    for (auto& th : threads) th.join();

    // The election must settle on one master: none, or two that stay
    // masters (split brain), fails the run.
    if (flags.coordinators > 1) {
      if (!WaitFor([&] { return (masters = Masters(coords)).size() == 1; },
                   Seconds(2))) {
        std::cerr << "gemini_cluster: cycle " << cycle << " settled with "
                  << masters.size() << " live masters, want 1\n";
        exit_code = 1;
        break;
      }
      std::cout << "gemini_cluster: cycle " << cycle << ": one master, rank "
                << coords[masters.front()].rank << std::endl;
    }
  }

  workers_stop.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();

  uint64_t reads = 0, stale = 0;
  for (const StaleReadChecker& c : checkers) {
    reads += c.total_reads();
    stale += c.total_stale();
  }
  const GeminiClient::Stats cs = client.stats();
  std::cout << "gemini_cluster: " << reads << " audited reads, " << stale
            << " stale; client " << cs.reads << " reads / " << cs.writes
            << " writes (" << cs.cache_hits << " hits, " << cs.store_reads
            << " store fallthroughs, " << suspended_writes.load()
            << " suspended)" << std::endl;
  RecoveryWorker::Stats ws;
  for (const RecoveryWorker::Stats& s : worker_stats) {
    ws.fragments_recovered += s.fragments_recovered;
    ws.fragments_abandoned += s.fragments_abandoned;
    ws.keys_overwritten += s.keys_overwritten;
    ws.wst_keys_copied += s.wst_keys_copied;
    ws.wst_keys_skipped += s.wst_keys_skipped;
    ws.wst_bytes_copied += s.wst_bytes_copied;
    ws.wst_pages += s.wst_pages;
    ws.wst_completed += s.wst_completed;
    ws.wst_aborts += s.wst_aborts;
  }
  std::cout << "gemini_cluster: recovery " << ws.fragments_recovered
            << " fragments drained (" << ws.keys_overwritten
            << " dirty keys overwritten, " << ws.fragments_abandoned
            << " abandoned); working set " << ws.wst_completed
            << " transfers completed / " << ws.wst_aborts << " aborted, "
            << ws.wst_keys_copied << " keys copied ("
            << ws.wst_bytes_copied << " bytes, " << ws.wst_pages
            << " pages), " << ws.wst_keys_skipped << " skipped" << std::endl;
  // Every burst thread was joined above, so reaching this line is the
  // no-hung-calls proof; say so explicitly for log scrapers.
  std::cout << "gemini_cluster: all client bursts joined (0 hung client "
               "calls)" << std::endl;
  if (stale != 0 && exit_code == 0) exit_code = 1;

  // Coordinator failover evidence: every master kill must have produced an
  // observed promotion, and the clients must actually have redialed (their
  // first endpoint died at least once).
  const RemoteCoordinator::Stats coord_stats = coordinator.stats();
  if (flags.coordinators > 1) {
    std::cout << "gemini_cluster: coordinator failover: " << master_kills
              << " master kills, " << promotions_observed
              << " promotions observed, " << coord_stats.endpoint_switches
              << " client redials (" << coord_stats.not_master_bounces
              << " not-master bounces), time-to-new-master avg "
              << (master_kills != 0 ? ttnm_total / (1000 * master_kills) : 0)
              << " ms / max " << ttnm_max / 1000 << " ms" << std::endl;
    if (exit_code == 0 && promotions_observed < master_kills) exit_code = 1;
    if (exit_code == 0 && master_kills > 0 &&
        coord_stats.endpoint_switches == 0) {
      std::cerr << "gemini_cluster: master kills without a single client "
                   "redial — failover never exercised the endpoint list\n";
      exit_code = 1;
    }
  }

  // Coordinators first: once their tickers halt, the geminids going away
  // does not read as a cluster-wide failover (spurious missed-heartbeat
  // warnings).
  for (Coord& c : coords) {
    if (!c.alive) continue;
    if (c.child.Stop(SIGTERM) != 0 && exit_code == 0) exit_code = 1;
    c.alive = false;
  }
  for (Node& node : nodes) {
    node.proxy->Stop();
    if (node.child.Stop(SIGTERM) != 0 && exit_code == 0) exit_code = 1;
  }

  std::cout << (exit_code == 0 ? "gemini_cluster: PASS"
                               : "gemini_cluster: FAIL")
            << " (seed " << flags.seed << ")" << std::endl;
  return exit_code;
}

}  // namespace
}  // namespace gemini

int main(int argc, char** argv) {
  gemini::Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gemini_cluster: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      flags.seed =
          gemini::ParseUint(gemini::kTool, arg, next(), ~uint64_t{0} - 1);
    } else if (arg == "--instances") {
      flags.instances = gemini::ParseUint(gemini::kTool, arg, next(), 64);
    } else if (arg == "--coordinators") {
      flags.coordinators = gemini::ParseUint(gemini::kTool, arg, next(), 9);
      if (flags.coordinators == 0) {
        std::cerr << "gemini_cluster: --coordinators must be >= 1\n";
        return 2;
      }
    } else if (arg == "--fragments") {
      flags.fragments = gemini::ParseUint(gemini::kTool, arg, next(), 1 << 16);
    } else if (arg == "--cycles") {
      flags.cycles = gemini::ParseUint(gemini::kTool, arg, next(), 1 << 10);
    } else if (arg == "--keys") {
      flags.keys = gemini::ParseUint(gemini::kTool, arg, next(), 1 << 20);
    } else if (arg == "--ops") {
      flags.ops = gemini::ParseUint(gemini::kTool, arg, next(), 1 << 24);
    } else if (arg == "--heartbeat-ms") {
      flags.heartbeat_ms = gemini::ParseUint(gemini::kTool, arg, next(), 60000);
      if (flags.heartbeat_ms == 0) {
        std::cerr << "gemini_cluster: --heartbeat-ms must be > 0\n";
        return 2;
      }
    } else if (arg == "--verbose") {
      gemini::LogState::SetLevel(gemini::LogLevel::kInfo);
    } else if (arg == "--help" || arg == "-h") {
      gemini::Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "gemini_cluster: unknown option " << arg << "\n";
      gemini::Usage(argv[0]);
      return 2;
    }
  }
  if (flags.instances < 2) {
    std::cerr << "gemini_cluster: --instances must be >= 2 (failover needs "
                 "a secondary)\n";
    return 2;
  }
  return gemini::Run(flags);
}
