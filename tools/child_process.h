// Daemon child processes for the programs that run a live cluster
// (tools/gemini_cluster, bench/bench_recovery): fork/exec a daemon with its
// stdout on a pipe, read the port out of its startup banner, poll for a
// condition, and reap every daemon on every exit path.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/common/clock.h"

namespace gemini::proc {

/// A spawned daemon and the read end of its stdout pipe. Move-only; going
/// out of scope SIGKILLs and reaps a child still running, so no return
/// path — an early failure included — leaves a daemon behind.
struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;

  Child() = default;
  Child(pid_t p, int fd) : pid(p), stdout_fd(fd) {}
  Child(Child&& other) noexcept
      : pid(std::exchange(other.pid, -1)),
        stdout_fd(std::exchange(other.stdout_fd, -1)) {}
  Child& operator=(Child&& other) noexcept {
    if (this != &other) {
      Stop(SIGKILL);
      pid = std::exchange(other.pid, -1);
      stdout_fd = std::exchange(other.stdout_fd, -1);
    }
    return *this;
  }
  ~Child() { Stop(SIGKILL); }

  /// Sends `sig` to a running child, reaps it, and closes its pipe. Returns
  /// the child's exit code, minus the signal number if a signal ended it,
  /// or -1 if no child was running.
  int Stop(int sig) {
    int status = -1;
    if (pid > 0) {
      ::kill(pid, sig);
      int wstatus = 0;
      if (::waitpid(pid, &wstatus, 0) == pid) {
        status = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -WTERMSIG(wstatus);
      }
      pid = -1;
    }
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
    return status;
  }
};

/// fork/execs `path` with `args`; the child's stdout arrives on stdout_fd.
inline Child Spawn(const char* path, const std::vector<std::string>& args) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    std::vector<char*> argv;
    std::string bin = path;
    argv.push_back(bin.data());
    std::vector<std::string> owned = args;
    for (auto& a : owned) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(path, argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(pipefd[1]);
  return {pid, pipefd[0]};
}

/// Reads the child's stdout until `needle` shows up (or ~15 s pass).
inline std::string ReadUntil(int fd, const std::string& needle) {
  std::string out;
  char buf[512];
  const Timestamp start = SystemClock::Global().Now();
  while (out.find(needle) == std::string::npos) {
    if (SystemClock::Global().Now() - start > Seconds(15)) break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// Parses "... on 127.0.0.1:PORT" out of a daemon's startup banner; 0 if
/// the banner has no port.
inline uint16_t PortFromBanner(const std::string& banner) {
  const std::string marker = "on 127.0.0.1:";
  const size_t at = banner.find(marker);
  if (at == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(banner.c_str() + at + marker.size()));
}

/// Polls `pred` every 10 ms until it holds (true) or `timeout` passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout) {
  const Timestamp start = SystemClock::Global().Now();
  while (!pred()) {
    if (SystemClock::Global().Now() - start > timeout) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

}  // namespace gemini::proc
