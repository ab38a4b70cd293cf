// gemini_chaos: a standalone fault-injection proxy for a live geminid.
//
// Wraps src/transport/fault_proxy.h as a binary, so the seeded fault
// schedules the test suite runs in-process can also be pointed at a real
// deployment: start a geminid, start gemini_chaos in front of it, and aim
// TcpCacheBackend clients at the chaos port. Every scheduling decision is a
// pure function of (--seed, connection index, direction, frame index), so a
// failure observed behind the proxy replays bit-identically from the same
// seed and flags.
//
// Usage:
//   gemini_chaos --upstream HOST:PORT [--listen-port N] [--seed S]
//                [--delay-prob P --delay-ms-min A --delay-ms-max B]
//                [--stall-prob P --stall-ms N]
//                [--cut-prob P] [--truncate-prob P] [--reset-accept-prob P]
//                [--hold-every N --hold-count K] [--throttle-bps N]
//                [--skip-frames N] [--dir c2s|s2c|both]
//
// --dir selects which direction(s) the frame-fault flags apply to (default
// both); --skip-frames spares the first N frames of each faulted direction
// so the HELLO exchange can pass clean. SIGINT/SIGTERM print fault counters
// and exit.
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/transport/fault_proxy.h"
#include "tools/flags.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --upstream HOST:PORT [options]\n"
      << "  --listen-port N        proxy port (default 0 = ephemeral, "
         "printed)\n"
      << "  --seed S               schedule seed (default 1)\n"
      << "  --delay-prob P         per-frame delay probability [0,1]\n"
      << "  --delay-ms-min A       delay lower bound in ms (default 0)\n"
      << "  --delay-ms-max B       delay upper bound in ms (default 2)\n"
      << "  --stall-prob P         partial-frame write + stall probability\n"
      << "  --stall-ms N           mid-frame stall length (default 50)\n"
      << "  --cut-prob P           mid-frame disconnect probability\n"
      << "  --truncate-prob P      truncate-then-close probability\n"
      << "  --reset-accept-prob P  RST-on-accept probability (per "
         "connection)\n"
      << "  --hold-every N         of every N frames...\n"
      << "  --hold-count K         ...hold the last K, release as a burst\n"
      << "  --throttle-bps N       bandwidth cap in bytes/sec (0 = off)\n"
      << "  --skip-frames N        never fault the first N frames per\n"
         "                         direction (default 1: HELLO passes)\n"
      << "  --dir c2s|s2c|both     which direction the frame faults apply\n"
         "                         to (default both)\n";
}

constexpr std::string_view kTool = "gemini_chaos";
using gemini::flags::ParseHostPort;
using gemini::flags::ParseUint;

double ParseProb(const std::string& flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 0.0 ||
      parsed > 1.0) {
    gemini::flags::Invalid(kTool, flag, value, "a probability in [0, 1]");
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string upstream_host;
  uint16_t upstream_port = 0;
  uint16_t listen_port = 0;
  std::string dir = "both";
  gemini::FaultProxy::Options options;
  gemini::FaultProxy::DirectionProfile profile;
  profile.skip_frames = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gemini_chaos: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--upstream") {
      const gemini::flags::HostPort upstream =
          ParseHostPort(kTool, arg, next());
      upstream_host = upstream.host;
      upstream_port = upstream.port;
    } else if (arg == "--listen-port") {
      listen_port = static_cast<uint16_t>(ParseUint(kTool, arg, next(), 65535));
    } else if (arg == "--seed") {
      options.seed = ParseUint(kTool, arg, next(), ~uint64_t{0} - 1);
    } else if (arg == "--delay-prob") {
      profile.delay_prob = ParseProb(arg, next());
    } else if (arg == "--delay-ms-min") {
      profile.delay_min = gemini::Millis(
          static_cast<int64_t>(ParseUint(kTool, arg, next(), 60 * 1000)));
    } else if (arg == "--delay-ms-max") {
      profile.delay_max = gemini::Millis(
          static_cast<int64_t>(ParseUint(kTool, arg, next(), 60 * 1000)));
    } else if (arg == "--stall-prob") {
      profile.stall_prob = ParseProb(arg, next());
    } else if (arg == "--stall-ms") {
      profile.stall = gemini::Millis(
          static_cast<int64_t>(ParseUint(kTool, arg, next(), 10 * 60 * 1000)));
    } else if (arg == "--cut-prob") {
      profile.cut_prob = ParseProb(arg, next());
    } else if (arg == "--truncate-prob") {
      profile.truncate_prob = ParseProb(arg, next());
    } else if (arg == "--reset-accept-prob") {
      options.reset_on_accept_prob = ParseProb(arg, next());
    } else if (arg == "--hold-every") {
      profile.hold_every =
          static_cast<uint32_t>(ParseUint(kTool, arg, next(), 1 << 20));
    } else if (arg == "--hold-count") {
      profile.hold_count =
          static_cast<uint32_t>(ParseUint(kTool, arg, next(), 1 << 20));
    } else if (arg == "--throttle-bps") {
      profile.throttle_bytes_per_sec =
          ParseUint(kTool, arg, next(), uint64_t{1} << 40);
    } else if (arg == "--skip-frames") {
      profile.skip_frames =
          static_cast<uint32_t>(ParseUint(kTool, arg, next(), 1 << 20));
    } else if (arg == "--dir") {
      dir = next();
      if (dir != "c2s" && dir != "s2c" && dir != "both") {
        std::cerr << "gemini_chaos: --dir expects c2s, s2c, or both\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "gemini_chaos: unknown option " << arg << "\n";
      Usage(argv[0]);
      return 2;
    }
  }
  if (upstream_host.empty()) {
    std::cerr << "gemini_chaos: --upstream is required\n";
    Usage(argv[0]);
    return 2;
  }
  if (dir == "c2s" || dir == "both") options.client_to_server = profile;
  if (dir == "s2c" || dir == "both") options.server_to_client = profile;

  // The proxy always binds an ephemeral port; a fixed --listen-port is not
  // supported by FaultProxy (tests want collision-free ports), so reject a
  // non-zero request rather than silently ignoring it.
  if (listen_port != 0) {
    std::cerr << "gemini_chaos: --listen-port must be 0 (ephemeral; the "
                 "bound port is printed below)\n";
    return 2;
  }

  gemini::FaultProxy proxy(upstream_host, upstream_port, options);
  if (gemini::Status s = proxy.Start(); !s.ok()) {
    std::cerr << "gemini_chaos: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "gemini_chaos: seed " << options.seed << " proxying 127.0.0.1:"
            << proxy.port() << " -> " << upstream_host << ":" << upstream_port
            << " (dir " << dir << ")" << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const gemini::FaultProxy::Stats stats = proxy.stats();
  proxy.Stop();
  std::cout << "gemini_chaos: accepted " << stats.connections_accepted
            << " (reset " << stats.connections_reset_on_accept << "), frames "
            << stats.frames_forwarded << ", bytes " << stats.bytes_forwarded
            << ", delays " << stats.delays << ", stalls " << stats.stalls
            << ", cuts " << stats.cuts << ", truncations "
            << stats.truncations << ", holds " << stats.holds << "\n";
  return 0;
}
