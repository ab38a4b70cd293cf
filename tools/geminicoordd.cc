// geminicoordd: the Gemini coordinator as a standalone server.
//
// Hosts a CoordinatorReplica — one member of a replicated coordinator group
// (master + shadows, Section 2.1; docs/PROTOCOL.md §12.7) — behind a
// coordinator-only TransportServer (empty registry: data ops answer
// kUnavailable, kCoord* ops run the control plane; docs/PROTOCOL.md §12).
// geminids started with --coordinator HOST:PORT[,HOST:PORT...] register
// here and stream heartbeats; clients watch configurations with
// kCoordConfigWatch and receive kPushConfig frames on every Rejig.
//
// Run alone (no --peers) the process promotes itself immediately — the
// classic single-coordinator deployment. Run with --peers (the group's
// member list — including this process is harmless, its own echoed claim
// is ignored) and a unique --rank, it boots as a shadow: the master
// replicates its full CoordinatorState here after every mutation, and if
// the master's sync beat goes silent for the rank-staggered election delay,
// this replica promotes itself (ImportState + registration grace window)
// and answers kCoord* ops from then on; shadows answer kNotMaster, which
// tells geminids and clients to redial the next endpoint in their list.
//
// The cluster is sized up front (--cluster-size): instance ids [0, N) are
// the valid slots, fragment i starts on instance i % N. A slot that never
// registers simply stays down — the coordinator publishes nothing into it —
// so starting geminicoordd before any geminid is the normal boot order.
//
// Networked fragment leases default to seconds, not the in-process hour: a
// partitioned coordinator must fail safe, with instances refusing IQ traffic
// once their grants lapse (--lease-ttl-ms).
//
// Usage:
//   geminicoordd --cluster-size N [--fragments M] [--port P] [--bind ADDR]
//                [--peers HOST:PORT[,HOST:PORT...]] [--rank R]
//                [--sync-interval-ms N] [--election-timeout-ms N]
//                [--heartbeat-interval-ms N] [--miss-threshold K]
//                [--lease-ttl-ms N] [--policy NAME] [--threads N]
//                [--verbose]
//
// --policy defaults to gemini-ow (the library's default): recovery workers
// run the working set transfer themselves — streaming the secondary's hot
// keys back into the recovered primary via kWorkingSetScan — and report its
// termination, so a networked cluster needs no cooperating clients for +W to
// complete. Pass --policy gemini-o to fall back to dirty-list-only recovery.
//
// SIGINT/SIGTERM shut down gracefully: the ticker halts (no more failure
// verdicts or pushes), then the server drains.
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/coordinator_replica.h"
#include "src/common/clock.h"
#include "src/coordinator/policy.h"
#include "src/common/logging.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "tools/flags.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --cluster-size N [options]\n"
      << "  --cluster-size N       instance slots [0, N); required\n"
      << "  --fragments M          fragment count (default: cluster size)\n"
      << "  --port P               TCP port (default 7411; 0 = ephemeral)\n"
      << "  --bind ADDR            bind address (default 127.0.0.1)\n"
      << "  --heartbeat-interval-ms N  expected beat cadence (default 100)\n"
      << "  --miss-threshold K     consecutive missed beats before an\n"
         "                         instance is failed over (default 3)\n"
      << "  --lease-ttl-ms N       fragment lease lifetime granted to\n"
         "                         instances (default 5000; renewed at ~1/3)\n"
      << "  --peers LIST           comma-separated HOST:PORT of the\n"
         "                         coordinator group members (may include\n"
         "                         this process; self entries are ignored);\n"
         "                         boots this process as a shadow replica\n"
      << "  --rank R               election rank, unique per group member\n"
         "                         (default 0; lowest live rank wins)\n"
      << "  --sync-interval-ms N   master->shadow state sync beat\n"
         "                         (default: heartbeat interval)\n"
      << "  --election-timeout-ms N  base election delay; a shadow promotes\n"
         "                         after (rank+1) times this with no master\n"
         "                         sync (default: 6x sync interval)\n"
      << "  --policy NAME          recovery policy: gemini-ow (default),\n"
         "                         gemini-o, gemini-i, gemini-iw, stale,\n"
         "                         volatile; +W transfers are streamed by\n"
         "                         the recovery workers (gemini_cluster)\n"
      << "  --threads N            event-loop shards (default 1; the control\n"
         "                         plane is not the data path)\n"
      << "  --verbose              info-level logging\n";
}

constexpr std::string_view kTool = "geminicoordd";
using gemini::flags::ParseHostPorts;
using gemini::flags::ParseUint;

gemini::RecoveryPolicy ParsePolicy(const std::string& name) {
  if (name == "gemini-o") return gemini::RecoveryPolicy::GeminiO();
  if (name == "gemini-i") return gemini::RecoveryPolicy::GeminiI();
  if (name == "gemini-ow") return gemini::RecoveryPolicy::GeminiOW();
  if (name == "gemini-iw") return gemini::RecoveryPolicy::GeminiIW();
  if (name == "stale") return gemini::RecoveryPolicy::StaleCache();
  if (name == "volatile") return gemini::RecoveryPolicy::VolatileCache();
  std::cerr << "geminicoordd: unknown --policy '" << name
            << "' (expected gemini-o, gemini-i, gemini-ow, gemini-iw, "
               "stale or volatile)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7411;
  std::string bind_address = "127.0.0.1";
  uint64_t cluster_size = 0;
  uint64_t fragments = 0;
  uint64_t heartbeat_interval_ms = 100;
  uint64_t miss_threshold = 3;
  uint64_t lease_ttl_ms = 5000;
  uint64_t threads = 1;
  uint64_t rank = 0;
  uint64_t sync_interval_ms = 0;
  uint64_t election_timeout_ms = 0;
  std::vector<gemini::CoordinatorReplica::PeerEndpoint> peers;
  gemini::RecoveryPolicy policy = gemini::RecoveryPolicy::GeminiOW();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "geminicoordd: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(ParseUint(kTool, arg, next(), 65535));
    } else if (arg == "--bind") {
      bind_address = next();
    } else if (arg == "--cluster-size") {
      cluster_size = ParseUint(kTool, arg, next(), 1u << 20);
    } else if (arg == "--fragments") {
      fragments = ParseUint(kTool, arg, next(), 1u << 24);
    } else if (arg == "--heartbeat-interval-ms") {
      heartbeat_interval_ms = ParseUint(kTool, arg, next(), 60 * 1000);
    } else if (arg == "--miss-threshold") {
      miss_threshold = ParseUint(kTool, arg, next(), 1000);
    } else if (arg == "--lease-ttl-ms") {
      lease_ttl_ms = ParseUint(kTool, arg, next(), 24ull * 3600 * 1000);
    } else if (arg == "--peers") {
      peers = ParseHostPorts<gemini::CoordinatorReplica::PeerEndpoint>(
          kTool, arg, next());
    } else if (arg == "--rank") {
      rank = ParseUint(kTool, arg, next(), 1u << 20);
    } else if (arg == "--sync-interval-ms") {
      sync_interval_ms = ParseUint(kTool, arg, next(), 60 * 1000);
    } else if (arg == "--election-timeout-ms") {
      election_timeout_ms = ParseUint(kTool, arg, next(), 600 * 1000);
    } else if (arg == "--policy") {
      policy = ParsePolicy(next());
    } else if (arg == "--threads") {
      threads = ParseUint(kTool, arg, next(), 64);
    } else if (arg == "--verbose") {
      gemini::LogState::SetLevel(gemini::LogLevel::kInfo);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "geminicoordd: unknown option " << arg << "\n";
      Usage(argv[0]);
      return 2;
    }
  }

  if (cluster_size == 0) {
    std::cerr << "geminicoordd: --cluster-size is required (and positive)\n";
    Usage(argv[0]);
    return 2;
  }
  if (fragments == 0) fragments = cluster_size;
  if (heartbeat_interval_ms == 0 || miss_threshold == 0 || lease_ttl_ms == 0) {
    std::cerr << "geminicoordd: --heartbeat-interval-ms, --miss-threshold and "
                 "--lease-ttl-ms must be positive\n";
    return 2;
  }

  gemini::CoordinatorReplica::Options ropts;
  ropts.control.num_instances = cluster_size;
  ropts.control.num_fragments = fragments;
  ropts.control.coordinator.policy = policy;
  ropts.control.coordinator.fragment_lease_lifetime =
      gemini::Millis(static_cast<double>(lease_ttl_ms));
  ropts.control.heartbeat.interval =
      gemini::Millis(static_cast<double>(heartbeat_interval_ms));
  ropts.control.heartbeat.miss_threshold =
      static_cast<uint32_t>(miss_threshold);
  ropts.peers = peers;
  ropts.election = {static_cast<uint32_t>(rank),
                    gemini::Millis(sync_interval_ms),
                    gemini::Millis(election_timeout_ms)};
  gemini::CoordinatorReplica replica(&gemini::SystemClock::Global(), ropts);

  gemini::TransportServer::Options options;
  options.bind_address = bind_address;
  options.port = port;
  options.num_loops = std::max<uint32_t>(1, static_cast<uint32_t>(threads));
  options.control = &replica;
  gemini::TransportServer server(gemini::InstanceRegistry(), options);
  if (gemini::Status s = server.Start(); !s.ok()) {
    std::cerr << "geminicoordd: " << s.ToString() << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  replica.Start(&server);

  std::cout << "geminicoordd: coordinating " << cluster_size << " instances, "
            << fragments << " fragments (" << policy.Name() << ") on "
            << bind_address << ":" << server.port() << std::endl;
  if (!peers.empty()) {
    std::cout << "geminicoordd: replica rank " << rank << ", "
              << peers.size() << " peer(s); booting as shadow" << std::endl;
  }

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::cout << "geminicoordd: shutting down\n";
  // Replica first (halts the sync/election loop and the active control's
  // ticker — no further pushes), then the server: the order
  // PushConfigToSubscribers's contract requires.
  replica.Stop();
  server.Stop();
  return 0;
}
