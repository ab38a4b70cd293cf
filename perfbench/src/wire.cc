// wire_read_mostly and wire_write_heavy: pipelined GET/SET straight through
// TcpConnection::SubmitAsync against one geminid with a WAL data dir.
//
// Two connections at window 32, one submitter thread each. Connection c owns
// the key ids congruent to c modulo 2, and a geminid processes each
// connection's frames in order, so the value a GET must return is exactly
// the one the last SET submitted before it on the same connection wrote:
// every GET hit is checked byte for byte. After the load, the daemon is
// killed with SIGKILL and restarted on the same data dir: the time until it
// answers again, and the hit ratio right after, measure how well the
// persistent cache comes back.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"
#include "src/workload.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using gemini::Code;
using gemini::Status;
using gemini::TcpConnection;
namespace wire = gemini::wire;

constexpr uint32_t kConnections = 2;
constexpr size_t kWindow = 32;
/// Submission slots; the window keeps at most 32 ops in flight and
/// completions run in order, so a slot is never reused while pending.
constexpr size_t kRing = 128;
constexpr int kSetups = 3;
constexpr int kRestarts = 5;
/// The measured phase is split into this many windows; each end-to-end
/// metric is the median of its per-window values, so an interference burst
/// shorter than a few windows cannot move it.
constexpr int kWindows = 10;
/// Traced runs alternate untraced and traced slices of this length.
constexpr int64_t kSliceNs = 200'000'000;
/// Ops per connection whose spans go into the trace CSV.
constexpr size_t kSpansWritten = 20'000;
/// The WAL's background sync runs every 50 ms; waiting this long before a
/// SIGKILL lets every acknowledged SET reach the log, so the restarted
/// daemon must serve exactly the values last written.
constexpr int kQuiesceMs = 250;

struct WireParams {
  uint64_t keys = 0;
  size_t value_bytes = 0;
  uint64_t capacity_mb = 0;  // 0 = unbounded
  double theta = 0;
  double write_fraction = 0;
  uint64_t preload_keys = 0;  // the hottest ids, written during set-up
  uint64_t warm_ops = 0;      // per connection, during set-up
  uint64_t restart_gets = 0;  // per connection, right after each restart
  size_t stream_length = 0;   // per connection; wraps if exhausted
};

WireParams ParamsFor(bool write_heavy, bool tiny) {
  WireParams p;
  if (write_heavy) {
    // 1M keys x 200 B is ~5x the 32 MiB cache; the preload writes the
    // hottest 250k keys, more than the cache holds, so it already evicts.
    p.keys = 1'000'000;
    p.value_bytes = 200;
    p.capacity_mb = 32;
    p.theta = 0.9;
    p.write_fraction = 0.5;
    p.preload_keys = 250'000;
  } else {
    p.keys = 100'000;
    p.value_bytes = 100;
    p.theta = 0.99;
    p.write_fraction = 0.05;
    p.preload_keys = 100'000;
  }
  p.warm_ops = 50'000;
  p.restart_gets = 20'000;
  p.stream_length = size_t{1} << 22;
  if (tiny) {
    p.keys /= 100;
    p.preload_keys /= 100;
    p.capacity_mb = write_heavy ? 1 : 0;
    p.warm_ops = 2'000;
    p.restart_gets = 1'000;
    p.stream_length = size_t{1} << 16;
  }
  return p;
}

struct Counters {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t sets = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t set_bytes = 0;  // key + value bytes of acknowledged SETs

  void Add(const Counters& o) {
    gets += o.gets;
    hits += o.hits;
    misses += o.misses;
    sets += o.sets;
    failed += o.failed;
    wrong += o.wrong;
    set_bytes += o.set_bytes;
  }
  [[nodiscard]] uint64_t attempted() const { return gets + sets + failed; }
};

/// One load connection: its op stream, its submitter state and the results
/// its completions (on the connection's reader thread) record. Results are
/// read only after Pump() returned, i.e. after every completion ran.
class ConnLoad {
 public:
  enum class Source { kStream, kStreamGetsOnly, kPreload };

  ConnLoad(uint32_t partition, const WireParams& params,
           const ValueCodec& codec, const std::vector<uint32_t>& stream,
           std::vector<uint32_t>* key_counters)
      : partition_(partition),
        params_(params),
        codec_(codec),
        stream_(stream),
        key_counters_(key_counters) {}

  /// Dials a fresh connection, so nothing of a killed daemon's socket
  /// survives a restart.
  void Connect(uint16_t port) {
    TcpConnection::Options opts;
    opts.max_inflight = kWindow;
    opts.io_timeout = gemini::Seconds(20);
    conn_ = std::make_unique<TcpConnection>("127.0.0.1", port,
                                            wire::kAnyInstance, opts);
    if (Status s = conn_->Connect(); !s.ok()) {
      throw BenchError("connect to geminid failed: " + s.ToString());
    }
  }

  /// Resets the per-phase results; call only with nothing in flight. With
  /// `sliced_trace`, ops submitted in the odd kSliceNs slices after
  /// `start_ns` are traced and recorded apart from the others.
  void BeginPhase(bool record, bool sliced_trace, size_t reserve_ops,
                  int64_t start_ns) {
    for (Mode& m : modes) m = Mode();
    record_ = record;
    sliced_ = sliced_trace;
    start_ns_ = start_ns;
    if (record) {
      const double wf = params_.write_fraction;
      const auto gets = static_cast<size_t>(reserve_ops * (1.1 - wf));
      const auto sets = static_cast<size_t>(reserve_ops * (wf + 0.1));
      for (Mode& m : modes) {
        m.get_lat.Reserve(sliced_trace ? gets / 2 : gets);
        m.set_lat.Reserve(sliced_trace ? sets / 2 : sets);
        if (!sliced_trace) break;
      }
    }
    n_traced_ = 0;
    wait_ns.assign(sliced_trace ? reserve_ops / 2 : 0, 0);
    total_ns.assign(wait_ns.size(), 0);
    call_ns.assign(std::min(wait_ns.size(), kSpansWritten), 0);
  }

  /// Submits ops until `deadline_ns` passes or `max_ops` were submitted,
  /// then waits for every completion.
  void Pump(Source source, int64_t deadline_ns, uint64_t max_ops) {
    std::string key;
    std::string body;
    gemini::CacheValue value;
    const gemini::OpContext ctx;
    for (uint64_t n = 0; n < max_ops; ++n) {
      if ((n & 63) == 0 && NowNs() >= deadline_ns) break;
      uint32_t id = 0;
      bool write = false;
      if (source == Source::kPreload) {
        id = static_cast<uint32_t>(partition_ + kConnections * preload_next_++);
        write = true;
      } else {
        const uint32_t op = stream_[cursor_];
        if (++cursor_ == stream_.size()) cursor_ = 0;
        id = KeyOf(op);
        write = IsWrite(op) && source == Source::kStream;
      }
      KeyName(id, &key);
      body.clear();
      wire::PutContext(body, ctx);
      wire::PutKey(body, key);
      const uint64_t i = submitted_++;
      Slot& slot = ring_[i % kRing];
      slot.key = id;
      slot.key_bytes = static_cast<uint8_t>(key.size());
      slot.write = write;
      if (write) {
        slot.expected = ++(*key_counters_)[id];
        codec_.Encode(id, slot.expected, &value.data);
        value.charged_bytes = static_cast<uint32_t>(value.data.size());
        wire::PutValue(body, value);
      } else {
        slot.expected = (*key_counters_)[id];
      }
      const int64_t t0 = NowNs();
      slot.t0 = t0;
      slot.traced = sliced_ && ((t0 - start_ns_) / kSliceNs) % 2 == 1 &&
                    n_traced_ < wait_ns.size();
      const size_t trace_idx = n_traced_;
      if (slot.traced) {
        slot.trace_idx = static_cast<uint32_t>(n_traced_++);
        if (trace_idx < call_ns.size()) call_ns[trace_idx] = t0;
      }
      ++modes[slot.traced].ops;
      conn_->SubmitAsync(write ? wire::Op::kSet : wire::Op::kGet, body,
                         [this, i](Status s, std::string resp) {
                           OnComplete(i, s, resp);
                         });
      if (slot.traced) {
        wait_ns[trace_idx] = static_cast<uint32_t>(NowNs() - t0);
      }
    }
    while (completed_.load(std::memory_order_acquire) < submitted_) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Results of the ops of one kind of slice: [0] untraced (every op when
  /// the phase is not sliced), [1] traced.
  struct Mode {
    uint64_t ops = 0;
    Counters c;
    Samples get_lat;
    Samples set_lat;
  };
  std::array<Mode, 2> modes;
  /// Traced ops, by trace index: how long SubmitAsync blocked, and how long
  /// until the completion ran; when SubmitAsync was called for the first
  /// kSpansWritten of them.
  std::vector<uint32_t> wait_ns;
  std::vector<uint32_t> total_ns;
  std::vector<int64_t> call_ns;
  int64_t last_done_ns = 0;

  [[nodiscard]] Counters counters() const {
    Counters c = modes[0].c;
    c.Add(modes[1].c);
    return c;
  }
  [[nodiscard]] uint64_t phase_ops() const {
    return modes[0].ops + modes[1].ops;
  }
  [[nodiscard]] size_t traced_ops() const { return n_traced_; }

 private:
  struct Slot {
    int64_t t0 = 0;
    uint32_t key = 0;
    uint32_t expected = 0;  // write counter the op wrote / must read back
    uint32_t trace_idx = 0;
    uint8_t key_bytes = 0;
    bool write = false;
    bool traced = false;
  };

  void OnComplete(uint64_t i, const Status& s, const std::string& resp) {
    const int64_t now = NowNs();
    const Slot& slot = ring_[i % kRing];
    Mode& m = modes[slot.traced];
    const double us = static_cast<double>(now - slot.t0) * 1e-3;
    if (slot.write) {
      if (s.ok()) {
        ++m.c.sets;
        m.c.set_bytes += slot.key_bytes + codec_.bytes();
        if (record_) m.set_lat.Add(us);
      } else {
        ++m.c.failed;
      }
    } else if (s.ok()) {
      ++m.c.gets;
      ++m.c.hits;
      wire::Reader r(resp);
      gemini::CacheValue v;
      uint32_t counter = 0;
      if (!r.GetValue(&v) || !codec_.Decode(v.data, slot.key, &counter) ||
          counter != slot.expected) {
        if (m.c.wrong++ == 0) {
          std::fprintf(stderr,
                       "perfbench: GET key %u returned write %u, the last "
                       "SET wrote %u\n",
                       slot.key, counter, slot.expected);
        }
      }
      if (record_) m.get_lat.Add(us);
    } else if (s.code() == Code::kNotFound) {
      ++m.c.gets;
      ++m.c.misses;
      if (record_) m.get_lat.Add(us);
    } else {
      ++m.c.failed;
    }
    if (slot.traced) {
      total_ns[slot.trace_idx] =
          static_cast<uint32_t>(std::min<int64_t>(now - slot.t0, UINT32_MAX));
    }
    last_done_ns = now;
    completed_.fetch_add(1, std::memory_order_release);
  }

  const uint32_t partition_;
  const WireParams& params_;
  const ValueCodec& codec_;
  const std::vector<uint32_t>& stream_;
  std::vector<uint32_t>* key_counters_;
  std::unique_ptr<TcpConnection> conn_;
  std::array<Slot, kRing> ring_{};
  uint64_t submitted_ = 0;
  std::atomic<uint64_t> completed_{0};
  size_t cursor_ = 0;
  uint64_t preload_next_ = 0;
  bool record_ = false;
  bool sliced_ = false;
  int64_t start_ns_ = 0;
  size_t n_traced_ = 0;
};

using Conns = std::vector<std::unique_ptr<ConnLoad>>;

/// Runs `fn(conn)` on one thread per connection and joins them.
template <typename Fn>
void OnEachConn(Conns& conns, Fn fn) {
  std::vector<std::thread> threads;
  for (auto& c : conns) threads.emplace_back([&fn, &c] { fn(*c); });
  for (auto& t : threads) t.join();
}

Counters Sum(const Conns& conns) {
  Counters s;
  for (const auto& c : conns) s.Add(c->counters());
  return s;
}

/// The ops of one kind of slice of a measured phase.
struct Load {
  double seconds = 0;
  uint64_t ops = 0;
  Counters c;
  Samples get;
  Samples set;
};

/// One measured load phase: load[0] untraced, load[1] traced slices.
struct Phase {
  /// Per kind of slice ([0] untraced, [1] traced), one Load per window.
  std::array<std::vector<Load>, 2> windows;
  std::array<Counters, 2> c;  // summed over the windows
  uint64_t ops = 0;
  Samples window_wait;
  Samples inflight;
  StatMap before;
  StatMap after;
  double daemon_cpu_s = 0;
  double client_cpu_s = 0;
};

/// One SIGKILL + restart on the same data dir.
struct Restart {
  double recovery_s = 0;
  double hit_ratio = 0;
  Counters c;
  uint64_t disk_bytes = 0;  // data dir size before the kill
  uint64_t used_bytes = 0;  // cache.used_bytes before the kill
};

void WriteSpans(const Conns& conns, const std::string& path) {
  std::ofstream out(path);
  out << "id,parent,thread,layer,what,start_ns,end_ns\n";
  uint64_t id = 1;
  for (size_t t = 0; t < conns.size(); ++t) {
    const ConnLoad& c = *conns[t];
    const size_t n = std::min(c.traced_ops(), c.call_ns.size());
    for (size_t i = 0; i < n; ++i) {
      const int64_t call = c.call_ns[i];
      const int64_t done = call + c.total_ns[i];
      const int64_t ret = call + std::min(c.wait_ns[i], c.total_ns[i]);
      const uint64_t op = id++;
      out << op << ",0," << t << ",op,op," << call << ',' << done << '\n';
      out << id++ << ',' << op << ',' << t << ",transport,SubmitAsync,"
          << call << ',' << ret << '\n';
      out << id++ << ',' << op << ',' << t << ",transport,inflight," << ret
          << ',' << done << '\n';
    }
  }
}

Phase Measure(Daemon& daemon, StatsClient& stats, Conns& conns,
              double seconds, bool sliced_trace, size_t reserve_ops,
              const std::string& span_path) {
  Phase out;
  out.before = stats.Query();
  const double cpu0 = daemon.CpuSeconds();
  const double self0 = SelfCpuSeconds();
  for (int w = 0; w < kWindows; ++w) {
    const int64_t t0 = NowNs();
    for (auto& c : conns) {
      c->BeginPhase(true, sliced_trace, reserve_ops / kWindows, t0);
    }
    const int64_t deadline =
        t0 + static_cast<int64_t>(seconds / kWindows * 1e9);
    OnEachConn(conns, [&](ConnLoad& c) {
      c.Pump(ConnLoad::Source::kStream, deadline, ~uint64_t{0});
    });
    int64_t t1 = t0;
    for (auto& c : conns) t1 = std::max(t1, c->last_done_ns);
    for (int m = 0; m < 2; ++m) {
      Load l;
      // Slices alternate, so each kind covers half of a sliced window.
      l.seconds = SecondsBetween(t0, t1) / (sliced_trace ? 2 : 1);
      for (auto& c : conns) {
        const ConnLoad::Mode& cm = c->modes[m];
        l.ops += cm.ops;
        l.c.Add(cm.c);
        l.get.Append(cm.get_lat);
        l.set.Append(cm.set_lat);
      }
      out.ops += l.ops;
      out.c[m].Add(l.c);
      out.windows[m].push_back(std::move(l));
    }
    for (auto& c : conns) {
      for (size_t i = 0; i < c->traced_ops(); ++i) {
        // The completion can run before SubmitAsync has returned.
        const uint32_t wait = std::min(c->wait_ns[i], c->total_ns[i]);
        out.window_wait.Add(wait * 1e-3);
        out.inflight.Add((c->total_ns[i] - wait) * 1e-3);
      }
    }
    if (w == 0 && !span_path.empty()) WriteSpans(conns, span_path);
  }
  out.daemon_cpu_s = daemon.CpuSeconds() - cpu0;
  out.client_cpu_s = SelfCpuSeconds() - self0;
  out.after = stats.Query();
  return out;
}

Restart KillAndRestart(Daemon& daemon, std::unique_ptr<StatsClient>& stats,
                       Conns& conns, const WireParams& p,
                       const std::string& data_dir) {
  Restart out;
  std::this_thread::sleep_for(std::chrono::milliseconds(kQuiesceMs));
  out.used_bytes = Value(stats->Query(), "cache.used_bytes");
  out.disk_bytes = DirBytes(data_dir);
  // The restart takes a fresh port: a SIGKILLed io_uring server can hold
  // its old listening port for a while after it is reaped.
  daemon.Stop(9);

  const int64_t t0 = NowNs();
  daemon.Start("serving on");
  for (auto& c : conns) c->Connect(daemon.port());
  for (auto& c : conns) c->BeginPhase(false, false, 0, t0);
  conns[0]->Pump(ConnLoad::Source::kStreamGetsOnly, ~uint64_t{0} >> 1, 1);
  out.recovery_s = SecondsBetween(t0, NowNs());

  OnEachConn(conns, [&](ConnLoad& c) {
    c.Pump(ConnLoad::Source::kStreamGetsOnly, ~uint64_t{0} >> 1,
           c.phase_ops() == 0 ? p.restart_gets : p.restart_gets - 1);
  });
  out.c = Sum(conns);
  out.hit_ratio = out.c.gets == 0 ? 0 : double(out.c.hits) / double(out.c.gets);
  stats = std::make_unique<StatsClient>(daemon.port());
  return out;
}

/// End-to-end metrics of one kind of slice: the median over the windows of
/// each window's value, and the median over the restarts.
void SetEndToEnd(Report& r, const std::string& prefix,
                 const std::vector<Load>& windows,
                 const std::vector<Restart>& restarts) {
  const auto median = [&](auto value) {
    std::vector<double> v;
    for (const Load& l : windows) v.push_back(value(l));
    return Median(v);
  };
  r.Set(prefix + "ops_per_s",
        median([](const Load& l) { return Ratio(double(l.ops), l.seconds); }),
        "ops/s");
  r.Set(prefix + "read_p50_us",
        median([](const Load& l) { return l.get.Percentile(0.50); }), "us");
  r.Set(prefix + "read_p90_us",
        median([](const Load& l) { return l.get.Percentile(0.90); }), "us");
  r.Set(prefix + "write_p50_us",
        median([](const Load& l) { return l.set.Percentile(0.50); }), "us");
  r.Set(prefix + "hit_ratio", median([](const Load& l) {
          return Ratio(double(l.c.hits), double(l.c.gets));
        }),
        "fraction");
  std::vector<double> rec_s;
  std::vector<double> rec_hit;
  for (const Restart& x : restarts) {
    rec_s.push_back(x.recovery_s);
    rec_hit.push_back(x.hit_ratio);
  }
  r.Set(prefix + "recovery_s", Median(rec_s), "s");
  r.Set(prefix + "recovery_hit_ratio", Median(rec_hit), "fraction");
  Counters c;
  for (const Load& l : windows) c.Add(l.c);
  r.Set(prefix + "ok_frac",
        1.0 - Ratio(double(c.failed + c.wrong), double(c.attempted())),
        "fraction");
}

bool IsWriteHeavy(const RunOptions& o) {
  return o.workload == "wire_write_heavy";
}

}  // namespace

std::vector<StreamSpec> WireStreamSpecs(const RunOptions& o) {
  const WireParams p = ParamsFor(IsWriteHeavy(o), o.tiny);
  std::vector<StreamSpec> specs;
  for (uint32_t c = 0; c < kConnections; ++c) {
    StreamSpec spec;
    spec.seed = o.seed;
    spec.partition = c;
    spec.partitions = kConnections;
    spec.keys_per_partition = p.keys / kConnections;
    spec.theta = p.theta;
    spec.write_fraction = p.write_fraction;
    spec.length = p.stream_length;
    specs.push_back(spec);
  }
  return specs;
}

void RunWire(const RunOptions& o, RunResult* out) {
  const WireParams p = ParamsFor(IsWriteHeavy(o), o.tiny);
  const ValueCodec codec(p.value_bytes);
  Report& r = out->report;

  // Inputs first: nothing below this block generates keys or ops.
  std::vector<std::vector<uint32_t>> streams;
  for (const StreamSpec& spec : WireStreamSpecs(o)) {
    streams.push_back(MakeOpStream(spec));
  }
  std::vector<uint32_t> key_counters(p.keys, 0);

  std::vector<std::string> flags = {"--threads", "2"};
  if (p.capacity_mb != 0) {
    flags.insert(flags.end(), {"--capacity-mb", std::to_string(p.capacity_mb)});
  }

  // ---- Set-up, several times; the last one stays up ------------------------
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<StatsClient> stats;
  Conns conns;
  std::string data_dir;
  std::vector<double> setup_s;
  double warm_rate = 0;  // ops/s per connection during the warm-up
  Counters totals;  // every op the run issued, set-up included
  for (int rep = 0; rep < kSetups; ++rep) {
    conns.clear();
    stats.reset();
    if (daemon != nullptr) {
      daemon->Stop(9);
      RemoveTree(data_dir);
    }
    std::fill(key_counters.begin(), key_counters.end(), 0);
    data_dir = o.work_dir + "/geminid-" + std::to_string(rep);
    std::vector<std::string> args = {"--port", "0", "--data-dir", data_dir};
    args.insert(args.end(), flags.begin(), flags.end());

    const int64_t t0 = NowNs();
    daemon = std::make_unique<Daemon>("geminid", PERFBENCH_GEMINID, args);
    daemon->Start("serving on");
    for (uint32_t c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<ConnLoad>(c, p, codec, streams[c],
                                                 &key_counters));
      conns.back()->Connect(daemon->port());
      conns.back()->BeginPhase(false, false, 0, t0);
    }
    OnEachConn(conns, [&](ConnLoad& c) {
      c.Pump(ConnLoad::Source::kPreload, ~uint64_t{0} >> 1,
             p.preload_keys / kConnections);
    });
    const int64_t warm0 = NowNs();
    OnEachConn(conns, [&](ConnLoad& c) {
      c.Pump(ConnLoad::Source::kStream, ~uint64_t{0} >> 1, p.warm_ops);
    });
    warm_rate = p.warm_ops / SecondsBetween(warm0, NowNs());
    setup_s.push_back(SecondsBetween(t0, NowNs()));
    totals.Add(Sum(conns));
  }
  stats = std::make_unique<StatsClient>(daemon->port());

  char config[512];
  std::snprintf(
      config, sizeof(config),
      "config workload=%s seed=%llu seconds=%g trace=%d %s io_backend=%s "
      "geminid_flags='--threads 2 --data-dir DIR%s' fsync=default "
      "(WAL group commit: 1 MiB batches, 50 ms background fsync, eager for "
      "lease/config records; checkpoint every 8 MiB of log)",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, MachineDescription().c_str(),
      daemon->io_backend().c_str(),
      p.capacity_mb != 0
          ? (" --capacity-mb " + std::to_string(p.capacity_mb)).c_str()
          : "");
  r.Note(config);
  char load[256];
  std::snprintf(load, sizeof(load),
                "load closed-loop, %u connections x window %zu, keys=%llu "
                "value=%zuB zipf=%.2f writes=%.0f%% preload=%llu",
                kConnections, kWindow, static_cast<unsigned long long>(p.keys),
                p.value_bytes, p.theta, p.write_fraction * 100,
                static_cast<unsigned long long>(p.preload_keys));
  r.Note(load);

  // ---- Measured phase, then restarts ------------------------------------------
  // A traced run alternates untraced and traced slices of kSliceNs through
  // one phase, so machine-speed drift during the run cancels out of the
  // tracing overhead. Restarts are never traced.
  const auto reserve =
      static_cast<size_t>(warm_rate * o.seconds * 1.3) + 100'000;
  const Phase main = Measure(
      *daemon, *stats, conns, o.seconds, o.trace, reserve,
      o.trace ? o.trace_dir + "/" + o.workload + "-seed" +
                    std::to_string(o.seed) + ".csv"
              : "");
  totals.Add(main.c[0]);
  totals.Add(main.c[1]);
  std::vector<Restart> restarts;
  for (int i = 0; i < kRestarts; ++i) {
    restarts.push_back(KillAndRestart(*daemon, stats, conns, p, data_dir));
    totals.Add(restarts.back().c);
  }

  out->attempted = totals.attempted();
  out->failed = totals.failed + totals.wrong;
  out->correct = totals.wrong == 0;

  {
    Samples get;
    Samples set;
    for (const Load& l : main.windows[0]) {
      get.Append(l.get);
      set.Append(l.set);
    }
    r.Timing("GET (submit to completion)", get);
    r.Timing("SET (submit to completion)", set);
  }
  {
    Samples restart_us;
    Samples setup_us;
    for (const Restart& x : restarts) restart_us.Add(x.recovery_s * 1e6);
    for (double x : setup_s) setup_us.Add(x * 1e6);
    r.Timing("SIGKILL restart to first GET", restart_us);
    r.Timing("set-up", setup_us);
  }
  SetEndToEnd(r, "", main.windows[0], restarts);
  r.Set("setup_s", Median(setup_s), "s");
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "medians over %d windows of %.1f s, %zu restarts and %zu "
                  "set-ups; %llu ops measured",
                  kWindows, o.seconds / kWindows, restarts.size(),
                  setup_s.size(), static_cast<unsigned long long>(main.ops));
    r.Note(line);
  }

  if (!o.trace) return;

  // ---- Per-layer metrics (kStats and CPU cover the whole phase) -----------
  SetEndToEnd(r, "traced.", main.windows[1], restarts);
  for (const char* m : {"ops_per_s", "read_p50_us", "read_p90_us",
                        "write_p50_us", "hit_ratio", "recovery_s",
                        "recovery_hit_ratio", "ok_frac"}) {
    r.Set(std::string("trace_overhead.") + m,
          Overhead(r.Get(m), r.Get(std::string("traced.") + m)), "fraction");
  }
  r.Timing("SubmitAsync blocked (window wait)", main.window_wait);
  r.Timing("SubmitAsync return to completion", main.inflight);
  const double ops = double(main.ops);
  const double sets = double(main.c[0].sets + main.c[1].sets);
  const double set_bytes = double(main.c[0].set_bytes + main.c[1].set_bytes);
  const auto d = [&](const char* name) {
    return double(Delta(main.before, main.after, name));
  };
  r.Set("transport.window_wait_p50_us", main.window_wait.Percentile(0.5), "us");
  r.Set("transport.window_wait_p99_us", main.window_wait.Percentile(0.99), "us");
  r.Set("transport.inflight_p50_us", main.inflight.Percentile(0.5), "us");
  r.Set("transport.inflight_p99_us", main.inflight.Percentile(0.99), "us");
  r.Set("transport.frames_per_flush",
        Ratio(d("transport.frames_flushed"), d("transport.flush_calls")),
        "count");
  r.Set("transport.sendmsg_per_op", Ratio(d("transport.sendmsg_calls"), ops),
        "count");
  r.Set("daemon.cpu_us_per_op", Ratio(main.daemon_cpu_s * 1e6, ops), "us");
  r.Set("client.cpu_us_per_op", Ratio(main.client_cpu_s * 1e6, ops), "us");
  r.Set("cache.hit_ratio",
        Ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")),
        "fraction");
  r.Set("cache.evictions_per_set", Ratio(d("cache.evictions"), sets), "count");
  r.Set("cache.used_bytes", double(Value(main.after, "cache.used_bytes")),
        "bytes");
  r.Set("persist.wal_bytes_per_user_byte",
        Ratio(d("persist.appended_bytes"), set_bytes), "count");
  r.Set("persist.records_per_commit",
        Ratio(d("persist.appended_records"), d("persist.journal_commits")),
        "count");
  r.Set("persist.checkpoints", d("persist.checkpoints"), "count");
  r.Set("persist.checkpoint_lag_bytes",
        double(Value(main.after, "persist.checkpoint_lag_bytes")), "bytes");
  const Restart& last = restarts.back();
  r.Set("persist.disk_bytes_per_live_byte",
        Ratio(double(last.disk_bytes), double(last.used_bytes)), "count");
  r.Set("trace.spans", double(main.window_wait.count() * 3), "count");
}

}  // namespace perfbench
