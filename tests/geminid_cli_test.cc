// Drives the geminid binary end to end: fork/exec with real flags, talk to
// it over TCP, then SIGTERM or SIGKILL it and assert that a restart on the
// same --data-dir serves everything that was acknowledged, checkpointing
// after its banner only when replay left something to fold (a restart
// after SIGTERM rewrites no checkpoint). Also pins the
// CLI's fail-closed flag validation (a typo'd number, or a flag of a removed
// mode, must exit 2 rather than boot something else), crash-stop on a WAL
// I/O error (no eager op is acknowledged after it, and geminid exits 1), a
// checkpoint that cannot land not being retried until the log regrows, and
// the refusal of a data dir that holds a write-back value.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/cache/cache_backend.h"
#include "src/common/clock.h"
#include "src/persist/wal.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

#ifndef GEMINID_PATH
#error "GEMINID_PATH must point at the geminid binary"
#endif

namespace gemini {
namespace {

constexpr OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;
};

/// fork/execs geminid with `args`; the child's stdout arrives on stdout_fd.
/// A nonzero `file_size_limit` caps RLIMIT_FSIZE with SIGXFSZ ignored (both
/// survive exec), so a write past it fails with EFBIG, like a full disk.
Child SpawnGeminid(const std::vector<std::string>& args,
                   rlim_t file_size_limit = 0) {
  int pipefd[2];
  EXPECT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (file_size_limit != 0) {
      std::signal(SIGXFSZ, SIG_IGN);
      const rlimit limit{file_size_limit, file_size_limit};
      ::setrlimit(RLIMIT_FSIZE, &limit);
    }
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    std::vector<char*> argv;
    std::string bin = GEMINID_PATH;
    argv.push_back(bin.data());
    std::vector<std::string> owned = args;
    for (auto& a : owned) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(GEMINID_PATH, argv.data());
    std::perror("execv geminid");
    ::_exit(127);
  }
  ::close(pipefd[1]);
  return {pid, pipefd[0]};
}

/// Reads the child's stdout until `needle` shows up (or ~10 s pass);
/// returns everything read so far.
std::string ReadUntil(int fd, const std::string& needle) {
  std::string out;
  char buf[512];
  const Timestamp start = SystemClock::Global().Now();
  // The pipe stays blocking; geminid prints its startup lines eagerly, so
  // each read returns quickly unless the server failed to launch.
  while (out.find(needle) == std::string::npos) {
    if (SystemClock::Global().Now() - start > Seconds(10)) break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// Parses "serving on 127.0.0.1:PORT" out of geminid's startup banner.
uint16_t PortFromBanner(const std::string& banner) {
  const std::string marker = "serving on 127.0.0.1:";
  const size_t at = banner.find(marker);
  if (at == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::atoi(banner.c_str() + at + marker.size()));
}

int WaitForExit(pid_t pid) {
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -WTERMSIG(wstatus);
}

/// WaitForExit for a child that must exit on its own: one still running
/// after ~5 s (say, a removed flag that booted a server) is killed and
/// reported as kStillRunning, so the test fails instead of hanging.
constexpr int kStillRunning = 256;
int ExitWithin5s(pid_t pid) {
  const Timestamp start = SystemClock::Global().Now();
  while (SystemClock::Global().Now() - start < Seconds(5)) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -WTERMSIG(wstatus);
    }
    ::usleep(10 * 1000);
  }
  ::kill(pid, SIGKILL);
  WaitForExit(pid);
  return kStillRunning;
}

/// Empties `dir` (and its instance_7 subdirectory) so leftover state from an
/// earlier run cannot mask a restore bug.
void WipeDataDir(const std::string& dir) {
  for (const char* sub : {"/instance_7", ""}) {
    const std::string d = dir + sub;
    DIR* dp = ::opendir(d.c_str());
    if (dp != nullptr) {
      while (struct dirent* e = ::readdir(dp)) {
        std::string name = e->d_name;
        if (name != "." && name != "..") std::remove((d + "/" + name).c_str());
      }
      ::closedir(dp);
      ::rmdir(d.c_str());
    }
  }
}

uint64_t StatValue(TcpConnection& conn, const std::string& name) {
  auto rows = conn.Call<wire::Op::kStats>();
  EXPECT_TRUE(rows.ok());
  if (!rows.ok()) return 0;
  for (const auto& [row_name, value] : *rows) {
    if (row_name == name) return value;
  }
  ADD_FAILURE() << "no stat " << name;
  return 0;
}

/// Polls kStats until `name` reads `want` (or ~5 s pass); returns the last
/// value read.
uint64_t AwaitStat(TcpConnection& conn, const std::string& name,
                   uint64_t want) {
  uint64_t value = StatValue(conn, name);
  for (int i = 0; i < 500 && value != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    value = StatValue(conn, name);
  }
  return value;
}

/// Every checkpoint-*.snap in `dir`, by name, with its bytes.
std::map<std::string, std::string> CheckpointFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  DIR* dp = ::opendir(dir.c_str());
  if (dp == nullptr) return files;
  while (struct dirent* e = ::readdir(dp)) {
    const std::string name = e->d_name;
    if (name.starts_with("checkpoint-") && name.ends_with(".snap")) {
      std::ifstream in(dir + "/" + name, std::ios::binary);
      files[name].assign(std::istreambuf_iterator<char>(in), {});
    }
  }
  ::closedir(dp);
  return files;
}

TEST(GeminidCli, SigtermDrainsCheckpointsAndRestartServesAcknowledgedWrites) {
  const std::string dir = ::testing::TempDir() + "/geminid_cli_sigterm";
  WipeDataDir(dir);

  {
    Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                                dir, "--threads", "1", "--drain-timeout-ms",
                                "2000", "--idle-timeout-ms", "5000"});
    ASSERT_GT(child.pid, 0);
    const std::string banner = ReadUntil(child.stdout_fd, "serving on");
    const uint16_t port = PortFromBanner(banner);
    ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;

    TcpCacheBackend backend("127.0.0.1", port);
    ASSERT_TRUE(backend.Connect().ok());
    EXPECT_EQ(backend.id(), 7u);
    ASSERT_TRUE(
        backend.Set(kInternalCtx, "durable", CacheValue::OfData("yes")).ok());
    ASSERT_TRUE(
        backend.Set(kInternalCtx, "also", CacheValue::OfData("this")).ok());
    backend.Disconnect();

    ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
    const std::string tail = ReadUntil(child.stdout_fd, "checkpointed");
    EXPECT_NE(tail.find("geminid: checkpointed"), std::string::npos) << tail;
    EXPECT_EQ(WaitForExit(child.pid), 0);
    ::close(child.stdout_fd);
  }

  // The SIGTERM's checkpoint holds everything: the log since it holds only
  // a segment head, so the restart has nothing to fold and rewrites nothing.
  const std::string instance_dir = dir + "/instance_7";
  const std::map<std::string, std::string> checkpoints =
      CheckpointFiles(instance_dir);
  ASSERT_EQ(checkpoints.size(), 1u);

  // Acknowledged before SIGTERM ⇒ served after restart on the same dir.
  Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                              dir, "--threads", "1"});
  ASSERT_GT(child.pid, 0);
  const std::string banner = ReadUntil(child.stdout_fd, "serving on");
  EXPECT_NE(banner.find("restored 2 entries"), std::string::npos) << banner;
  const uint16_t port = PortFromBanner(banner);
  ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;
  // EXPECT, not ASSERT, from here on: the child must always be stopped.
  TcpCacheBackend backend("127.0.0.1", port);
  auto durable = backend.Get(kInternalCtx, "durable");
  EXPECT_TRUE(durable.ok() && durable->data == "yes")
      << durable.status().ToString();
  auto also = backend.Get(kInternalCtx, "also");
  EXPECT_TRUE(also.ok() && also->data == "this") << also.status().ToString();
  backend.Disconnect();
  {
    TcpConnection conn("127.0.0.1", port, 7, TcpConnection::Options());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(StatValue(conn, "persist.checkpoints"), 0u);
    conn.Disconnect();
  }
  EXPECT_EQ(CheckpointFiles(instance_dir), checkpoints);
  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  EXPECT_EQ(WaitForExit(child.pid), 0);
  ::close(child.stdout_fd);
}

TEST(GeminidCli, WalWriteErrorRefusesEagerOpsAndExitsOne) {
  const std::string dir = ::testing::TempDir() + "/geminid_cli_walerr";
  WipeDataDir(dir);
  Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                              dir, "--threads", "1"},
                             /*file_size_limit=*/64 << 10);
  ASSERT_GT(child.pid, 0);
  const std::string banner = ReadUntil(child.stdout_fd, "serving on");
  const uint16_t port = PortFromBanner(banner);
  ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;

  TcpConnection conn("127.0.0.1", port, 7, TcpConnection::Options());
  // Before the error an eager op is acknowledged, and counted.
  auto token = conn.Call<wire::Op::kQareg>(kInternalCtx, "k");
  EXPECT_TRUE(token.ok()) << token.status().ToString();
  if (token.ok()) {
    EXPECT_TRUE(conn.Call<wire::Op::kDar>(kInternalCtx, "k", *token).ok());
  }
  EXPECT_GE(StatValue(conn, "persist.eager_records"), 1u);
  // A batched SET larger than the room left: the WAL writer's write fails.
  EXPECT_TRUE(conn.Call<wire::Op::kSet>(
                      kInternalCtx, "big",
                      CacheValue::OfData(std::string(128 << 10, 'b')))
                  .ok());
  // From the error on, no eager op is acknowledged: whether its record
  // shared the failed write or came after it, the reply is kUnavailable.
  EXPECT_EQ(conn.Call<wire::Op::kQareg>(kInternalCtx, "k").code(),
            Code::kUnavailable);
  conn.Disconnect();
  // And geminid stops, so the coordinator fails the instance over.
  EXPECT_EQ(ExitWithin5s(child.pid), 1);
  ::close(child.stdout_fd);
}

size_t SegmentCount(const std::string& dir) {
  size_t count = 0;
  DIR* dp = ::opendir(dir.c_str());
  if (dp == nullptr) return 0;
  while (struct dirent* e = ::readdir(dp)) {
    uint64_t seq = 0;
    if (Wal::ParseSegmentName(e->d_name, seq)) ++count;
  }
  ::closedir(dp);
  return count;
}

/// A checkpoint that cannot land (here the cache outgrows RLIMIT_FSIZE, as
/// on a full disk) is retried only once the log has grown to the trigger
/// again: with the load stopped, the log stops rotating and the cache is not
/// re-serialized over and over.
TEST(GeminidCli, FailedCheckpointWaitsForTheLogToRegrow) {
  const std::string dir = ::testing::TempDir() + "/geminid_cli_cpfail";
  WipeDataDir(dir);
  // Room for a checkpoint of two segments' worth of cache, but not for one
  // of the whole cache once it passes 2.5 segments. Segments close at one
  // segment's worth, well under the limit.
  Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                              dir, "--threads", "1"},
                             /*file_size_limit=*/Wal::kSegmentBytes * 5 / 2);
  ASSERT_GT(child.pid, 0);
  const std::string banner = ReadUntil(child.stdout_fd, "serving on");
  const uint16_t port = PortFromBanner(banner);
  ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;

  // 4.5 segments of distinct keys, paced so the log never outruns a
  // checkpoint in flight. Each checkpoint is due once the log since the
  // last one is as large as it: the one after the first segment (one
  // segment of cache) lands, and so does the one after the second (two);
  // the log then grows by two segments' worth, and the checkpoint it asks
  // for (four) cannot land.
  TcpConnection conn("127.0.0.1", port, 7, TcpConnection::Options());
  const std::string value(64 << 10, 'v');
  const uint64_t keys = Wal::kSegmentBytes * 9 / 2 / value.size();
  for (uint64_t i = 0; i < keys; ++i) {
    ASSERT_TRUE(conn.Call<wire::Op::kSet>(kInternalCtx,
                                          "k" + std::to_string(i),
                                          CacheValue::OfData(value))
                    .ok())
        << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Let the attempt the last segment started finish, then watch the log.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // The failed checkpoint left its rotated segment uncovered.
  EXPECT_GE(StatValue(conn, "persist.checkpoint_failures"), 1u);
  EXPECT_GT(StatValue(conn, "persist.checkpoint_lag_bytes"),
            StatValue(conn, "persist.checkpoint_bytes"));
  const std::string instance_dir = dir + "/instance_7";
  const size_t segments = SegmentCount(instance_dir);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_EQ(SegmentCount(instance_dir), segments);
  conn.Disconnect();
  ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
  EXPECT_EQ(WaitForExit(child.pid), -SIGKILL);
  ::close(child.stdout_fd);
  WipeDataDir(dir);
}

TEST(GeminidCli, InvalidTimeoutFlagsExitTwo) {
  for (const char* flag : {"--drain-timeout-ms", "--idle-timeout-ms"}) {
    Child child = SpawnGeminid({flag, "bogus"});
    ASSERT_GT(child.pid, 0);
    EXPECT_EQ(WaitForExit(child.pid), 2) << flag;
    ::close(child.stdout_fd);
  }
}

/// Flags of the removed snapshot-file mode and io-backend selectors. An old
/// deployment script must fail loudly rather than boot without what it
/// asked for — above all `--instance ID:FILE`, which would otherwise look
/// like instance ID with no persistence at all.
TEST(GeminidCli, RemovedFlagsExitTwo) {
  const std::string file = ::testing::TempDir() + "/geminid_cli_removed.bin";
  const std::vector<std::vector<std::string>> removed = {
      {"--poll"},
      {"--io-backend", "epoll"},
      {"--snapshot", file},
      {"--snapshot-interval-s", "5"},
      {"--id", "7"},
      {"--instance", "3:" + file},
  };
  for (const auto& args : removed) {
    std::vector<std::string> argv = {"--port", "0"};
    argv.insert(argv.end(), args.begin(), args.end());
    Child child = SpawnGeminid(argv);
    ASSERT_GT(child.pid, 0);
    EXPECT_EQ(ExitWithin5s(child.pid), 2) << args[0] << " " << args.back();
    ::close(child.stdout_fd);
  }
}

/// An upsert whose reserved pinned byte is set is a write-back value the
/// data store never saw, and nothing can flush it: geminid exits 1 rather
/// than serve the data dir.
TEST(GeminidCli, WriteBackRecordInDataDirRefusesToBoot) {
  const std::string dir = ::testing::TempDir() + "/geminid_cli_writeback";
  WipeDataDir(dir);
  const std::string instance_dir = dir + "/instance_7";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir(instance_dir.c_str(), 0755), 0);
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(instance_dir, 0).ok());
    WalRecord rec;
    rec.type = WalRecordType::kUpsert;
    rec.pinned = true;
    rec.key = "buffered";
    rec.data = "never flushed";
    ASSERT_TRUE(wal.Append(rec, /*sync_now=*/true).ok());
  }
  Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                              dir, "--threads", "1"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(ExitWithin5s(child.pid), 1);
  const std::string out = ReadUntil(child.stdout_fd, "serving on");
  EXPECT_EQ(out.find("serving on"), std::string::npos) << out;
  ::close(child.stdout_fd);
}

/// The acceptance test for the durable engine at the process level: kill -9
/// (never SIGTERM — no snapshot sweep, no checkpoint, no fsync courtesy)
/// and a restart on the same --data-dir must come back warm with exact
/// data, config-id metadata, and the crash-spanning quarantine rule applied.
TEST(GeminidCli, SigkillRestartRestoresWarmStateFromDataDir) {
  const std::string dir = ::testing::TempDir() + "/geminid_cli_data";
  WipeDataDir(dir);

  LeaseToken inflight_token = kNoLease;
  {
    Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                                dir, "--threads", "1", "--idle-timeout-ms",
                                "5000"});
    ASSERT_GT(child.pid, 0);
    const std::string banner = ReadUntil(child.stdout_fd, "serving on");
    EXPECT_NE(banner.find("restored 0 entries"), std::string::npos) << banner;
    const uint16_t port = PortFromBanner(banner);
    ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;

    TcpCacheBackend backend("127.0.0.1", port);
    ASSERT_TRUE(backend.Connect().ok());
    ASSERT_TRUE(backend.Set(kInternalCtx, "warm",
                            CacheValue::OfData("survives", 3)).ok());
    ASSERT_TRUE(backend.Set(kInternalCtx, "victim",
                            CacheValue::OfData("maybe-stale", 1)).ok());
    ASSERT_TRUE(backend.Set(kInternalCtx, "gone",
                            CacheValue::OfData("deleted")).ok());
    ASSERT_TRUE(backend.Delete(kInternalCtx, "gone").ok());
    // A completed write-through cycle: durable, clean.
    auto qt = backend.Qareg(kInternalCtx, "warm");
    ASSERT_TRUE(qt.ok());
    ASSERT_TRUE(backend.Rar(kInternalCtx, "warm",
                            CacheValue::OfData("survives-v4", 4), *qt).ok());
    // An *unreleased* Q lease over "victim": its writer is mid-flight at the
    // kill, so the cached value must not be served after restart.
    auto in_flight = backend.Qareg(kInternalCtx, "victim");
    ASSERT_TRUE(in_flight.ok());
    inflight_token = *in_flight;
    // Config-id metadata (byte-exact restore is part of the contract).
    ASSERT_TRUE(backend.BumpConfigId(29).ok());
    backend.Disconnect();

    ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
    EXPECT_EQ(WaitForExit(child.pid), -SIGKILL);
    ::close(child.stdout_fd);
  }

  {
    Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                                dir, "--threads", "1", "--idle-timeout-ms",
                                "5000"});
    ASSERT_GT(child.pid, 0);
    const std::string banner = ReadUntil(child.stdout_fd, "serving on");
    const uint16_t port = PortFromBanner(banner);
    ASSERT_NE(port, 0) << "no banner; geminid said:\n" << banner;
    // The boot line proves this came from WAL replay, not a lucky cache.
    EXPECT_NE(banner.find("restored 1 entries"), std::string::npos) << banner;
    EXPECT_NE(banner.find("1 quarantine drops"), std::string::npos) << banner;

    TcpCacheBackend backend("127.0.0.1", port);
    ASSERT_TRUE(backend.Connect().ok());
    // Warm restore, byte-exact including the version.
    auto warm = backend.Get(kInternalCtx, "warm");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->data, "survives-v4");
    EXPECT_EQ(warm->version, 4u);
    // The deleted key stayed deleted; the quarantined key failed to a miss.
    EXPECT_EQ(backend.Get(kInternalCtx, "gone").code(), Code::kNotFound);
    EXPECT_EQ(backend.Get(kInternalCtx, "victim").code(), Code::kNotFound);
    // The pre-crash Q lease token is dead process state: it must not be
    // honored by the restarted server.
    EXPECT_FALSE(backend.Rar(kInternalCtx, "victim",
                             CacheValue::OfData("zombie", 9),
                             inflight_token).ok());
    EXPECT_EQ(backend.Get(kInternalCtx, "victim").code(), Code::kNotFound);
    // Config-id metadata restored exactly.
    auto remote_config = backend.RemoteConfigId();
    ASSERT_TRUE(remote_config.ok());
    EXPECT_EQ(*remote_config, 29u);
    backend.Disconnect();
    // The replayed log held records to fold: its checkpoint lands in the
    // background, after the banner.
    TcpConnection conn("127.0.0.1", port, 7, TcpConnection::Options());
    EXPECT_EQ(AwaitStat(conn, "persist.checkpoints", 1), 1u);
    conn.Disconnect();

    // SIGTERM now: the graceful path checkpoints the data dir.
    ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
    const std::string tail = ReadUntil(child.stdout_fd, "checkpointed");
    EXPECT_NE(tail.find("geminid: checkpointed"), std::string::npos) << tail;
    EXPECT_EQ(WaitForExit(child.pid), 0);
    ::close(child.stdout_fd);
  }

  // Third boot: restart after the graceful checkpoint still restores the
  // same state (now from the checkpoint instead of log replay).
  {
    Child child = SpawnGeminid({"--port", "0", "--instance", "7", "--data-dir",
                                dir, "--threads", "1"});
    ASSERT_GT(child.pid, 0);
    const std::string banner = ReadUntil(child.stdout_fd, "serving on");
    EXPECT_NE(banner.find("restored 1 entries"), std::string::npos) << banner;
    const uint16_t port = PortFromBanner(banner);
    ASSERT_NE(port, 0);
    TcpCacheBackend backend("127.0.0.1", port);
    ASSERT_TRUE(backend.Connect().ok());
    auto warm = backend.Get(kInternalCtx, "warm");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->data, "survives-v4");
    ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
    EXPECT_EQ(WaitForExit(child.pid), 0);
    ::close(child.stdout_fd);
  }
}

}  // namespace
}  // namespace gemini
