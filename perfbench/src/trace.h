// Benchmark-owned tracing: spans recorded around calls into the program's
// public interfaces, never inside the program.
//
// A traced thread attaches a ThreadTrace; from then on every ScopedSpan it
// opens records (id, parent, layer, what, start, end) into that thread's
// in-memory buffer, and per-op aggregates (count, total time, time and calls
// spent in each child layer) accumulate alongside. Spans are written out
// once, when the run ends. Threads that never attach pay one thread-local
// load per decorated call and record nothing.
//
// TracingBackend wraps a CacheBackend (the TcpCacheBackends handed to
// GeminiClient and RecoveryWorker), TracingCoordinator wraps the
// CoordinatorService (RemoteCoordinator). Both forward every call unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/coordinator/coordinator_service.h"

namespace perfbench {

enum class Layer : uint8_t {
  kOp = 0,           // a benchmark-issued client op or worker call
  kCache = 1,        // a CacheBackend call (cache + transport + daemon)
  kCoordinator = 2,  // a CoordinatorService call
  kCount = 3,
};

/// What an op-level span is; child spans use their call names.
enum class OpKind : uint8_t {
  kRead = 0,
  kWrite = 1,
  kWorkerAdopt = 2,
  kWorkerStep = 3,
  kCount = 4,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  Layer layer = Layer::kOp;
  const char* what = "";
};

/// Per-op-kind aggregates.
struct OpAggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> child_ns{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> child_calls{};
  uint64_t backoffs = 0;  // kBackoff answers among the child calls
};

/// Per-layer aggregates of decorated calls (whatever their parent).
struct LayerAggregate {
  uint64_t calls = 0;
  int64_t total_ns = 0;
};

class ThreadTrace {
 public:
  /// Spans kept in memory per thread; aggregates keep counting past it.
  static constexpr size_t kMaxSpans = 1 << 20;

  explicit ThreadTrace(uint32_t index) : index_(index) {}

  std::vector<Span> spans;
  std::array<OpAggregate, static_cast<size_t>(OpKind::kCount)> ops{};
  std::array<LayerAggregate, static_cast<size_t>(Layer::kCount)> layers{};

 private:
  friend class ScopedSpan;
  friend class ScopedOp;
  uint32_t index_;
  uint64_t next_id_ = 1;
  uint64_t current_op_ = 0;  // id of the open op span, 0 if none
  OpAggregate* open_op_ = nullptr;
};

/// Owns every thread's trace buffer for one traced phase.
class TraceLog {
 public:
  /// Attaches the calling thread (until DetachThread or thread exit).
  void AttachThread();
  static void DetachThread();

  [[nodiscard]] OpAggregate Op(OpKind kind) const;
  [[nodiscard]] LayerAggregate LayerTotal(Layer layer) const;
  [[nodiscard]] uint64_t span_count() const;
  /// Writes every kept span as CSV (id,parent,thread,layer,what,start,end).
  void WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// An op-level span (no-op unless the thread is attached).
class ScopedOp {
 public:
  explicit ScopedOp(OpKind kind);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  ThreadTrace* t_;
  OpKind kind_;
  Span span_;
  OpAggregate scratch_;  // child time of this op, folded in at the end
  OpAggregate* saved_ = nullptr;
  uint64_t saved_op_ = 0;
};

/// A child span around one decorated call.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, const char* what);
  ~ScopedSpan();
  void set_backoff() { backoff_ = true; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* t_;
  Span span_;
  bool backoff_ = false;
};

class TracingBackend final : public gemini::CacheBackend {
 public:
  explicit TracingBackend(gemini::CacheBackend* inner) : inner_(inner) {}

  [[nodiscard]] gemini::InstanceId id() const override { return inner_->id(); }
  gemini::Result<gemini::CacheValue> Get(const gemini::OpContext& ctx,
                                         std::string_view key) override;
  std::vector<gemini::Result<gemini::CacheValue>> MultiGet(
      const std::vector<gemini::GetRequest>& reqs) override;
  gemini::Result<gemini::IqGetResult> IqGet(const gemini::OpContext& ctx,
                                            std::string_view key) override;
  gemini::Status IqSet(const gemini::OpContext& ctx, std::string_view key,
                       gemini::CacheValue value,
                       gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> Qareg(const gemini::OpContext& ctx,
                                           std::string_view key) override;
  gemini::Status Dar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::LeaseToken token) override;
  gemini::Status Rar(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value,
                     gemini::LeaseToken token) override;
  gemini::Result<gemini::LeaseToken> ISet(const gemini::OpContext& ctx,
                                          std::string_view key) override;
  gemini::Status IDelete(const gemini::OpContext& ctx, std::string_view key,
                         gemini::LeaseToken token) override;
  gemini::Status Delete(const gemini::OpContext& ctx,
                        std::string_view key) override;
  gemini::Status Set(const gemini::OpContext& ctx, std::string_view key,
                     gemini::CacheValue value) override;
  std::vector<gemini::Status> MultiSet(
      std::vector<gemini::SetRequest> reqs) override;
  std::vector<gemini::Status> MultiDelete(
      const std::vector<gemini::DeleteRequest>& reqs) override;
  gemini::Status Cas(const gemini::OpContext& ctx, std::string_view key,
                     gemini::Version expected,
                     gemini::CacheValue value) override;
  gemini::Status WriteBackInstall(const gemini::OpContext& ctx,
                                  std::string_view key,
                                  gemini::CacheValue value,
                                  gemini::LeaseToken token) override;
  gemini::Status Append(const gemini::OpContext& ctx, std::string_view key,
                        std::string_view data) override;
  gemini::Result<gemini::WorkingSetPage> WorkingSetScan(
      const gemini::OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
      uint32_t max_keys) override;
  gemini::Result<gemini::LeaseToken> AcquireRed(std::string_view key) override;
  gemini::Status ReleaseRed(std::string_view key,
                            gemini::LeaseToken token) override;
  gemini::Status RenewRed(std::string_view key,
                          gemini::LeaseToken token) override;

 private:
  gemini::CacheBackend* inner_;
};

class TracingCoordinator final : public gemini::CoordinatorService {
 public:
  explicit TracingCoordinator(gemini::CoordinatorService* inner)
      : inner_(inner) {}

  [[nodiscard]] gemini::ConfigurationPtr GetConfiguration() const override;
  [[nodiscard]] gemini::ConfigId latest_id() const override;
  void OnDirtyListProcessed(gemini::FragmentId fragment) override;
  void OnWorkingSetTransferTerminated(gemini::FragmentId fragment) override;
  void OnDirtyListUnavailable(gemini::FragmentId fragment) override;
  [[nodiscard]] bool DirtyProcessed(gemini::FragmentId fragment) const override;

 private:
  gemini::CoordinatorService* inner_;
};

}  // namespace perfbench
