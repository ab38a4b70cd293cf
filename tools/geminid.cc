// geminid: a standalone Gemini cache server.
//
// Hosts one or more CacheInstances behind sharded event loops speaking the
// wire protocol (docs/PROTOCOL.md §10) so real clients — TcpCacheBackend,
// and through it an unmodified GeminiClient — can run the paper's protocol
// over actual sockets instead of the discrete-event cost model. A client
// names the instance it wants in its HELLO; one geminid can therefore stand
// in for a whole replica set (e.g. a fragment's primary and secondary) on a
// laptop.
//
// Usage:
//   geminid [--port N] [--bind ADDR] [--threads N] [--stripes S]
//           [--instance ID]...   (repeatable; default: instance 0)
//           [--capacity-mb N] [--data-dir DIR] [--verbose]
//
// --data-dir DIR makes the cache persistent, which is the premise Gemini's
// recovery protocol exists for: each instance logs every durable mutation
// to a WAL in DIR/instance_<id>/, and a geminid killed (even with kill -9)
// and restarted on the same directory replays itself back to the exact
// pre-crash state (entries, quarantine drops, config ids), and serves as
// soon as replay ends. The log is truncated by checkpoints of the whole
// cache, each taken once the log since the last one has grown as large as
// it (at least 8 MiB), so a boot replays at most about one checkpoint's
// worth of log and the directory holds about two (three while a checkpoint
// is written). A boot whose replay applied records checkpoints in the
// background after the banner; one that replayed nothing to fold (after a
// SIGTERM, say) writes none. kStats reports persist.replay_micros,
// persist.checkpoint_bytes (the next trigger), persist.checkpoints and
// persist.checkpoint_failures. Without --data-dir the cache is volatile.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain connections,
// and checkpoint every --data-dir instance so restart skips log replay.
// A WAL I/O error on any instance shuts geminid down with exit status 1:
// from the error on no eager op is acknowledged, and the coordinator fails
// the instance over (crash-stop).
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cluster/coordinator_link.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/persist/persistent_store.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "tools/flags.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --port N               TCP port (default 7311; 0 = ephemeral)\n"
      << "  --bind ADDR            bind address (default 127.0.0.1)\n"
      << "  --instance ID          host instance ID (default 0); repeatable,\n"
         "                         first one is the default for version-1\n"
         "                         clients\n"
      << "  --capacity-mb N        per-instance LRU byte budget in MiB\n"
         "                         (default 0 = unbounded)\n"
      << "  --threads N            event-loop shards (default 0 = one per\n"
         "                         hardware thread; 1 = single-threaded)\n"
      << "  --stripes S            lock stripes per instance (default 0 =\n"
         "                         auto: 1 for one loop, else 4x the loop\n"
         "                         count; rounded up to a power of two)\n"
      << "  --data-dir DIR         durable WAL + checkpoint engine: each\n"
         "                         instance persists to DIR/instance_<id>/\n"
         "                         and replays it on startup; survives\n"
         "                         kill -9 (default: volatile cache)\n"
      << "  --drain-timeout-ms N   how long a graceful shutdown waits for\n"
         "                         pending responses to drain (default "
      << gemini::TransportServer::Options().drain_timeout_ms << ")\n"
      << "  --idle-timeout-ms N    reap connections stuck before HELLO or\n"
         "                         mid-frame after N ms; 0 disables "
         "(default "
      << gemini::TransportServer::Options().idle_timeout_ms << ")\n"
      << "  --coordinator HOST:PORT[,HOST:PORT...]\n"
         "                         register with a geminicoordd control plane\n"
         "                         and stream heartbeats; one link per hosted\n"
         "                         instance. With a replicated coordinator\n"
         "                         group, list every endpoint (master and\n"
         "                         shadows) — the link rotates on failure\n"
      << "  --advertise HOST:PORT  data-plane address the coordinator should\n"
         "                         dial back (default: the bound address;\n"
         "                         set this when clients reach the server\n"
         "                         through a proxy but the coordinator must\n"
         "                         not)\n"
      << "  --heartbeat-interval-ms N  coordinator heartbeat cadence\n"
         "                         (default 100)\n"
      << "  --verbose              info-level logging\n";
}

constexpr std::string_view kTool = "geminid";
using gemini::flags::HostPort;
using gemini::flags::ParseHostPort;
using gemini::flags::ParseHostPorts;
using gemini::flags::ParseUint;

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7311;
  std::string bind_address = "127.0.0.1";
  uint64_t capacity_mb = 0;
  uint64_t threads = 0;  // 0 = auto (hardware_concurrency)
  uint64_t stripes = 0;  // 0 = auto (derived from the loop count)
  int64_t drain_timeout_ms = -1;  // -1 = server default
  int64_t idle_timeout_ms = -1;   // -1 = server default
  std::string data_dir;
  std::vector<gemini::CoordinatorLink::Endpoint> coordinators;
  std::string advertise_host;
  uint16_t advertise_port = 0;
  uint64_t heartbeat_interval_ms = 100;
  std::vector<gemini::InstanceId> ids;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "geminid: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(ParseUint(kTool, arg, next(), 65535));
    } else if (arg == "--bind") {
      bind_address = next();
    } else if (arg == "--instance") {
      ids.push_back(static_cast<gemini::InstanceId>(
          ParseUint(kTool, arg, next(), gemini::kInvalidInstance - 1)));
    } else if (arg == "--capacity-mb") {
      capacity_mb = ParseUint(kTool, arg, next(), uint64_t{1} << 40);
    } else if (arg == "--threads") {
      threads = ParseUint(kTool, arg, next(), 64);
    } else if (arg == "--stripes") {
      stripes = ParseUint(kTool, arg, next(), 256);
    } else if (arg == "--data-dir") {
      data_dir = next();
      if (data_dir.empty()) {
        std::cerr << "geminid: --data-dir requires a non-empty directory\n";
        return 2;
      }
    } else if (arg == "--coordinator") {
      coordinators = ParseHostPorts<gemini::CoordinatorLink::Endpoint>(
          kTool, arg, next());
    } else if (arg == "--advertise") {
      const HostPort advertise = ParseHostPort(kTool, arg, next());
      advertise_host = advertise.host;
      advertise_port = advertise.port;
    } else if (arg == "--heartbeat-interval-ms") {
      heartbeat_interval_ms = ParseUint(kTool, arg, next(), 60 * 1000);
      if (heartbeat_interval_ms == 0) {
        std::cerr << "geminid: --heartbeat-interval-ms must be positive\n";
        return 2;
      }
    } else if (arg == "--drain-timeout-ms") {
      drain_timeout_ms = static_cast<int64_t>(
          ParseUint(kTool, arg, next(), 10 * 60 * 1000));
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = static_cast<int64_t>(
          ParseUint(kTool, arg, next(), 24LL * 3600 * 1000));
    } else if (arg == "--verbose") {
      gemini::LogState::SetLevel(gemini::LogLevel::kInfo);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "geminid: unknown option " << arg << "\n";
      Usage(argv[0]);
      return 2;
    }
  }

  if (ids.empty()) ids.push_back(0);

  if (coordinators.empty() && !advertise_host.empty()) {
    std::cerr << "geminid: --advertise only makes sense with --coordinator\n";
    return 2;
  }

  // Resolve --threads 0 here (not in the server) because the stripe default
  // derives from it: roughly 4 stripes per event loop keeps concurrent
  // shards off each other's locks, while one loop keeps the historical
  // single-mutex, global-LRU behavior.
  uint32_t effective_loops = threads == 0
                                 ? std::max(1u, std::thread::hardware_concurrency())
                                 : static_cast<uint32_t>(threads);
  effective_loops = std::min(effective_loops, 64u);
  const uint32_t effective_stripes =
      stripes != 0 ? static_cast<uint32_t>(stripes)
                   : (effective_loops == 1 ? 1
                                           : std::min(64u, 4 * effective_loops));

  gemini::CacheInstance::Options cache_options;
  cache_options.capacity_bytes = capacity_mb << 20;
  cache_options.num_stripes = effective_stripes;
  std::vector<std::unique_ptr<gemini::CacheInstance>> instances;
  std::vector<std::unique_ptr<gemini::PersistentStore>> stores;
  gemini::InstanceRegistry registry;
  for (const gemini::InstanceId id : ids) {
    gemini::CacheInstance::Options instance_options = cache_options;
    gemini::PersistentStore* store = nullptr;
    if (!data_dir.empty()) {
      stores.push_back(std::make_unique<gemini::PersistentStore>(
          data_dir + "/instance_" + std::to_string(id)));
      store = stores.back().get();
      instance_options.persistence = store;
    }
    instances.push_back(std::make_unique<gemini::CacheInstance>(
        id, &gemini::SystemClock::Global(), instance_options));
    gemini::CacheInstance& instance = *instances.back();

    gemini::InstanceOptions iopts;
    if (store != nullptr) {
      // Replays checkpoint + WAL tail into the cold instance before the
      // server accepts a single request; the checkpoint that folds the
      // replayed log runs after, on the store's checkpoint thread. Fails
      // closed on damaged history. `stores` is declared after `instances`,
      // so each store closes before its instance is destroyed.
      if (gemini::Status s = store->Open(instance); !s.ok()) {
        std::cerr << "geminid: refusing damaged data dir " << store->dir()
                  << ": " << s.ToString() << "\n";
        return 1;
      }
      std::cout << "geminid: instance " << id << " restored "
                << store->stats().restored_entries << " entries ("
                << store->stats().replayed_records << " wal records, "
                << store->stats().quarantine_drops
                << " quarantine drops) from " << store->dir() << "\n";
      // Surface the durability engine's counters through kStats alongside
      // the server/cache gauges (all named persist.* to keep the namespace
      // flat). The lambda outlives the loop; `stores` outlives the server.
      iopts.extra_stats = [store] {
        const gemini::PersistentStore::Stats ps = store->stats();
        return std::vector<std::pair<std::string, uint64_t>>{
            {"persist.appended_records", ps.appended_records},
            {"persist.eager_records", ps.eager_records},
            {"persist.appended_bytes", ps.appended_bytes},
            {"persist.journal_commits", ps.fsyncs},
            {"persist.checkpoints", ps.checkpoints},
            {"persist.replayed_segments", ps.replayed_segments},
            {"persist.replayed_records", ps.replayed_records},
            {"persist.replay_micros", ps.replay_micros},
            {"persist.restored_entries", ps.restored_entries},
            {"persist.quarantine_drops", ps.quarantine_drops},
            {"persist.torn_tail_bytes", ps.torn_tail_bytes},
            {"persist.checkpoint_lag_bytes", ps.checkpoint_lag_bytes},
            {"persist.checkpoint_bytes", ps.checkpoint_bytes},
            {"persist.checkpoint_failures", ps.checkpoint_failures},
        };
      };
    }
    if (gemini::Status s = registry.Add(&instance, iopts); !s.ok()) {
      std::cerr << "geminid: " << s.ToString() << "\n";
      return 2;
    }
  }

  gemini::TransportServer::Options options;
  options.bind_address = bind_address;
  options.port = port;
  options.num_loops = effective_loops;
  if (drain_timeout_ms >= 0) {
    options.drain_timeout_ms = static_cast<int>(drain_timeout_ms);
  }
  if (idle_timeout_ms >= 0) {
    options.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
  }
  gemini::TransportServer server(std::move(registry), options);
  if (gemini::Status s = server.Start(); !s.ok()) {
    std::cerr << "geminid: " << s.ToString() << "\n";
    return 1;
  }
  // Install the handlers before announcing readiness: anything supervising
  // geminid (an init system, a test harness) may take the banner as its cue
  // to signal, and a SIGTERM landing in the gap would kill us un-drained.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  {
    std::string id_list;
    for (const gemini::InstanceId id : ids) {
      if (!id_list.empty()) id_list += ",";
      id_list += std::to_string(id);
    }
    // The "(io backend: ...)" suffix is parsed by perfbench's config line.
    std::cout << "geminid: instances " << id_list << " serving on "
              << bind_address << ":" << server.port()
              << " (io backend: epoll)" << std::endl;
  }

  // One coordinator link per hosted instance: the control plane tracks
  // instances, not processes, so a geminid standing in for several replicas
  // registers (and heartbeats) each of them independently. Created after
  // Start() because an ephemeral --port 0 advertise address needs the real
  // bound port.
  std::vector<std::unique_ptr<gemini::CoordinatorLink>> links;
  if (!coordinators.empty()) {
    for (const auto& instance : instances) {
      gemini::CacheInstance* cache = instance.get();
      gemini::CoordinatorLink::Options lopts;
      lopts.coordinators = coordinators;
      lopts.instance = cache->id();
      lopts.advertise_host =
          advertise_host.empty() ? bind_address : advertise_host;
      lopts.advertise_port =
          advertise_port != 0 ? advertise_port : server.port();
      lopts.heartbeat_interval =
          gemini::Millis(static_cast<double>(heartbeat_interval_ms));
      lopts.on_config_id = [cache](gemini::ConfigId latest) {
        cache->ObserveConfigId(latest);
      };
      links.push_back(std::make_unique<gemini::CoordinatorLink>(lopts));
      links.back()->Start();
    }
    std::string group;
    for (const auto& ep : coordinators) {
      if (!group.empty()) group += ",";
      group += ep.host + ":" + std::to_string(ep.port);
    }
    std::cout << "geminid: heartbeating to coordinator " << group
              << std::endl;
  }

  const auto any_store_failed = [&stores] {
    return std::any_of(stores.begin(), stores.end(), [](const auto& store) {
      return !store->error().ok();
    });
  };
  while (g_shutdown == 0 && !any_store_failed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::cout << "geminid: shutting down\n";
  // Order matters: silence the coordinator links (so the control plane sees
  // missed beats, not RSTs from a half-dead process), stop accepting work,
  // then checkpoint with everything quiesced.
  for (auto& link : links) link->Stop();
  server.Stop();
  // A shutdown checkpoint is an optimization, not a durability requirement
  // (the WAL already holds everything): it makes the next boot replay one
  // snapshot instead of the whole log. Still fail loudly if it breaks.
  for (size_t i = 0; i < stores.size(); ++i) {
    gemini::PersistentStore& store = *stores[i];
    if (gemini::Status s = store.error(); !s.ok()) {
      std::cerr << "geminid: instance " << instances[i]->id()
                << " wal error during serving: " << s.ToString() << "\n";
      return 1;
    }
    if (gemini::Status s = store.Checkpoint(); !s.ok()) {
      std::cerr << "geminid: final checkpoint failed: " << s.ToString()
                << "\n";
      return 1;
    }
    std::cout << "geminid: checkpointed "
              << instances[i]->stats().entry_count << " entries to "
              << store.dir() << "\n";
    store.Close();
  }
  return 0;
}
