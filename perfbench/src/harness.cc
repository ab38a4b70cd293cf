#include "src/harness.h"

#include <fcntl.h>
#include <ftw.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/transport/wire.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Supervisor ------------------------------------------------------------

struct Supervisor::Waiter {
  std::atomic<bool> stop{false};
  std::thread thread;
};

Supervisor& Supervisor::Get() {
  static Supervisor* instance = new Supervisor();
  return *instance;
}

void Supervisor::Install(std::string work_dir, double deadline_s) {
  work_dir_ = std::move(work_dir);
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  // A daemon that dies while we write to it must not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  waiter_ = std::make_unique<Waiter>();
  waiter_->thread = std::thread([this, deadline_s] { SignalLoop(deadline_s); });
}

void Supervisor::Uninstall() {
  if (waiter_ == nullptr) return;
  waiter_->stop.store(true);
  waiter_->thread.join();
  waiter_.reset();
}

void Supervisor::SignalLoop(double deadline_s) {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  const int64_t deadline = NowNs() + static_cast<int64_t>(deadline_s * 1e9);
  while (!waiter_->stop.load()) {
    timespec ts{0, 100 * 1000 * 1000};
    const int sig = sigtimedwait(&set, nullptr, &ts);
    if (sig > 0 || NowNs() > deadline) {
      std::fprintf(stderr, "perfbench: %s; tearing down\n",
                   sig > 0 ? strsignal(sig) : "run deadline passed");
      Cleanup();
      std::_Exit(sig > 0 ? 128 + sig : 124);
    }
  }
}

pid_t Supervisor::Spawn(const std::string& path,
                        const std::vector<std::string>& args, int* stdout_fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) throw BenchError("shutting down; refusing to spawn " + path);
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw BenchError("pipe failed");
  std::vector<std::string> owned;
  owned.push_back(path);
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Die with the load generator, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    sigset_t none;
    sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close_range(3, ~0U, 0);  // no load-generator socket leaks into a daemon
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  if (pid < 0) {
    ::close(pipefd[0]);
    throw BenchError("fork failed");
  }
  children_.push_back(pid);
  *stdout_fd = pipefd[0];
  return pid;
}

void Supervisor::Stop(pid_t pid, int sig) {
  ::kill(pid, sig);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::lock_guard<std::mutex> lock(mu_);
  children_.erase(std::remove(children_.begin(), children_.end(), pid),
                  children_.end());
}

void Supervisor::Cleanup() {
  std::vector<pid_t> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    victims.swap(children_);
  }
  for (pid_t pid : victims) ::kill(pid, SIGKILL);
  for (pid_t pid : victims) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (!work_dir_.empty()) RemoveTree(work_dir_);
}

// ---- Daemon ----------------------------------------------------------------

Daemon::Daemon(std::string name, std::string path,
               std::vector<std::string> args)
    : name_(std::move(name)), path_(std::move(path)), args_(std::move(args)) {}

Daemon::~Daemon() {
  if (running()) Stop(SIGKILL);
}

void Daemon::SetArg(const std::string& flag, const std::string& value) {
  for (size_t i = 0; i + 1 < args_.size(); ++i) {
    if (args_[i] == flag) {
      args_[i + 1] = value;
      return;
    }
  }
  args_.push_back(flag);
  args_.push_back(value);
}

void Daemon::Start(const std::string& marker) {
  if (running()) throw BenchError(name_ + " already running");
  pid_ = Supervisor::Get().Spawn(path_, args_, &stdout_fd_);
  banner_.clear();
  const int64_t deadline = NowNs() + 20'000'000'000LL;
  char buf[512];
  std::string failure;
  while (failure.empty()) {
    const size_t at = banner_.find(marker);
    if (at != std::string::npos && banner_.find('\n', at) != std::string::npos) {
      break;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      failure = " printed no '" + marker + "' banner";
      break;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      failure = " exited during start-up";
    } else {
      banner_.append(buf, static_cast<size_t>(n));
    }
  }
  const std::string host_marker = "on 127.0.0.1:";
  const size_t at = banner_.find(host_marker, banner_.find(marker));
  if (failure.empty() && at == std::string::npos) {
    failure = " banner names no port";
  }
  if (!failure.empty()) {
    Stop(SIGKILL);
    throw BenchError(name_ + failure + ":\n" + banner_);
  }
  port_ = static_cast<uint16_t>(
      std::atoi(banner_.c_str() + at + host_marker.size()));
}

void Daemon::Stop(int sig) {
  if (!running()) return;
  Supervisor::Get().Stop(pid_, sig);
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
}

std::string Daemon::io_backend() const {
  const std::string key = "(io backend: ";
  const size_t at = banner_.find(key);
  if (at == std::string::npos) return "";
  const size_t end = banner_.find(')', at);
  return banner_.substr(at + key.size(), end - at - key.size());
}

double Daemon::CpuSeconds() const {
  if (!running()) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- kStats -----------------------------------------------------------------

StatsClient::StatsClient(uint16_t port) {
  gemini::TcpConnection::Options opts;
  opts.connect_timeout = gemini::Seconds(2);
  opts.io_timeout = gemini::Seconds(5);
  conn_ = std::make_unique<gemini::TcpConnection>(
      "127.0.0.1", port, gemini::wire::kAnyInstance, opts);
}

StatMap StatsClient::Query() {
  std::string resp;
  gemini::Status s = conn_->Transact(gemini::wire::Op::kStats, "", &resp);
  if (!s.ok()) throw BenchError("kStats failed: " + s.ToString());
  gemini::wire::Reader r(resp);
  uint32_t count = 0;
  if (!r.GetU32(&count)) throw BenchError("malformed kStats reply");
  StatMap out;
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key;
    uint64_t v = 0;
    if (!r.GetBlob(&key) || !r.GetU64(&v)) {
      throw BenchError("malformed kStats reply");
    }
    out[std::string(key)] = v;
  }
  return out;
}

uint64_t Value(const StatMap& stats, const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second;
}

uint64_t Delta(const StatMap& before, const StatMap& after,
               const std::string& name) {
  const uint64_t a = Value(before, name);
  const uint64_t b = Value(after, name);
  return b >= a ? b - a : 0;
}

double SelfCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---- Files -------------------------------------------------------------------

namespace {

uint64_t g_dir_bytes = 0;

int SumVisit(const char*, const struct stat* st, int type, struct FTW*) {
  if (type == FTW_F) g_dir_bytes += static_cast<uint64_t>(st->st_size);
  return 0;
}

int RemoveVisit(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

}  // namespace

uint64_t DirBytes(const std::string& dir) {
  g_dir_bytes = 0;
  ::nftw(dir.c_str(), SumVisit, 16, FTW_PHYS);
  return g_dir_bytes;
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveVisit, 16, FTW_DEPTH | FTW_PHYS);
}

void MakeDirs(const std::string& dir) {
  for (size_t at = 1; at <= dir.size(); ++at) {
    if (at == dir.size() || dir[at] == '/') {
      const std::string prefix = dir.substr(0, at);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        throw BenchError("cannot create " + prefix);
      }
    }
  }
}

// ---- Samples and reporting -------------------------------------------------------

void Samples::Append(const Samples& other) {
  v_.reserve(v_.size() + other.v_.size());
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Samples::Percentile(double q) const {
  if (v_.empty()) return 0;
  std::vector<float> copy = v_;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(copy.size())));
  rank = std::clamp<size_t>(rank, 1, copy.size());
  std::nth_element(copy.begin(), copy.begin() + static_cast<long>(rank - 1),
                   copy.end());
  return copy[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{value, unit};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

void Report::Timing(const std::string& what, const Samples& s) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "timing %-28s n=%-9zu p50=%.2f us  p99=%.2f us", what.c_str(),
                s.count(), s.Percentile(0.50), s.Percentile(0.99));
  lines_.push_back(line);
}

void Report::Note(const std::string& line) { lines_.push_back(line); }

void Report::PrintHuman() const {
  for (const std::string& line : lines_) std::cout << line << "\n";
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::cout << "metric " << name << " = " << FormatDouble(e.value) << " "
              << e.unit << "\n";
  }
  std::cout.flush();
}

void Report::PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) throw BenchError("metric never set: " + name);
    out << (first ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << FormatDouble(it->second.value)
        << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::string MachineDescription() {
  utsname u{};
  ::uname(&u);
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency()
      << " kernel=" << u.release << " arch=" << u.machine
      << " build=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

}  // namespace perfbench
