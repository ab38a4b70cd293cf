// Process supervision, daemon introspection and result reporting shared by
// every perfbench workload.
//
// Every daemon the benchmark starts goes through Supervisor, which kills and
// reaps it and removes the run's work directory on every exit path: normal
// return, a thrown BenchError, SIGINT/SIGTERM/SIGHUP, and the run's own
// deadline. Children also get PR_SET_PDEATHSIG, so a SIGKILLed load
// generator cannot leave a daemon burning CPU during the next run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/transport/tcp_connection.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();
inline double SecondsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Aborts the run: main() reports it, tears down and exits non-zero.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Supervisor {
 public:
  static Supervisor& Get();

  /// Blocks SIGINT/SIGTERM/SIGHUP in the calling thread (call it from main()
  /// before any other thread exists, so every thread inherits the mask) and
  /// starts the thread that tears everything down on such a signal or once
  /// `deadline_s` seconds have passed.
  void Install(std::string work_dir, double deadline_s);
  /// Stops the signal thread; call after Cleanup() on the normal exit path.
  void Uninstall();

  /// fork/execs `path`; the child's stdout arrives on *stdout_fd.
  pid_t Spawn(const std::string& path, const std::vector<std::string>& args,
              int* stdout_fd);
  /// Signals `pid`, waits for it and forgets it.
  void Stop(pid_t pid, int sig);
  /// SIGKILLs and reaps every live child, then removes the work directory.
  void Cleanup();


 private:
  void SignalLoop(double deadline_s);

  std::mutex mu_;
  std::vector<pid_t> children_;
  bool dead_ = false;  // set once Cleanup() ran; Spawn() then refuses
  std::string work_dir_;
  struct Waiter;
  std::unique_ptr<Waiter> waiter_;
};

/// One daemon process. The destructor SIGKILLs it if it still runs.
class Daemon {
 public:
  Daemon(std::string name, std::string path, std::vector<std::string> args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the process and waits (up to 20 s) for a stdout line containing
  /// `marker`; parses the "on 127.0.0.1:PORT" part of it. Throws BenchError
  /// when the daemon exits or prints no banner.
  void Start(const std::string& marker);
  /// Signals the process (SIGKILL by default) and reaps it.
  void Stop(int sig = 9);
  /// Rewrites the value following `flag` in the argument list (e.g. to pin
  /// --port before a restart).
  void SetArg(const std::string& flag, const std::string& value);

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] uint16_t port() const { return port_; }
  /// The "io backend: NAME" the daemon announced, or "" if none.
  [[nodiscard]] std::string io_backend() const;
  /// user+system CPU seconds the live process has used.
  [[nodiscard]] double CpuSeconds() const;

 private:
  std::string name_;
  std::string path_;
  std::vector<std::string> args_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string banner_;
};

using StatMap = std::map<std::string, uint64_t>;

/// A dedicated connection for kStats polls (never shared with load).
class StatsClient {
 public:
  explicit StatsClient(uint16_t port);
  /// Throws BenchError when the daemon does not answer.
  StatMap Query();

 private:
  std::unique_ptr<gemini::TcpConnection> conn_;
};

uint64_t Delta(const StatMap& before, const StatMap& after,
               const std::string& name);
uint64_t Value(const StatMap& stats, const std::string& name);

/// user+system CPU seconds of this process (all threads).
double SelfCpuSeconds();
/// Total size of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);
void RemoveTree(const std::string& dir);
void MakeDirs(const std::string& dir);

/// Latency samples in microseconds; percentiles by nearest rank.
class Samples {
 public:
  /// Hot loops reserve up front so Add() never reallocates mid-measurement.
  void Reserve(size_t n) { v_.reserve(n); }
  void Add(double us) { v_.push_back(static_cast<float>(us)); }
  void Append(const Samples& other);
  [[nodiscard]] size_t count() const { return v_.size(); }
  /// q in (0, 1]; 0 when empty.
  [[nodiscard]] double Percentile(double q) const;

 private:
  std::vector<float> v_;
};

double Median(std::vector<double> v);
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
/// What tracing adds: (traced - untraced) / untraced, 0 when untraced is 0.
inline double Overhead(double untraced, double traced) {
  return untraced == 0 ? 0 : (traced - untraced) / untraced;
}

/// Metrics of one run, printed human-readably and as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool Has(const std::string& name) const;
  [[nodiscard]] double Get(const std::string& name) const;
  /// A "timing" line: median and p99 with the sample count.
  void Timing(const std::string& what, const Samples& s);
  /// A free-form line printed before the metrics (configuration, notes).
  void Note(const std::string& line);

  /// Prints every note, timing and metric, one per line.
  void PrintHuman() const;
  /// The final line: exactly correct/attempted/failed/metrics, with the
  /// metrics restricted to `names` (every one must have been Set).
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> lines_;
};

/// Shortest decimal text that reads back as `v` (JSON-safe: non-finite
/// values print as 0).
std::string FormatDouble(double v);

/// nproc, kernel release and build type, as one "key=value ..." string.
std::string MachineDescription();

}  // namespace perfbench
