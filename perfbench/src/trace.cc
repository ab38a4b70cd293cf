#include "src/trace.h"

#include <fstream>
#include <utility>

#include "src/harness.h"

namespace perfbench {

namespace {

thread_local ThreadTrace* tls_trace = nullptr;

template <typename F>
auto Traced(Layer layer, const char* what, F&& call) {
  ScopedSpan span(layer, what);
  auto result = call();
  if (result.code() == gemini::Code::kBackoff) span.set_backoff();
  return result;
}

template <typename F>
auto TracedBatch(const char* what, F&& call) {
  ScopedSpan span(Layer::kCache, what);
  return call();
}

}  // namespace

// ---- TraceLog ----------------------------------------------------------------

void TraceLog::AttachThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(
      std::make_unique<ThreadTrace>(static_cast<uint32_t>(threads_.size())));
  threads_.back()->spans.reserve(1 << 14);
  tls_trace = threads_.back().get();
}

void TraceLog::DetachThread() { tls_trace = nullptr; }

OpAggregate TraceLog::Op(OpKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  OpAggregate out;
  for (const auto& t : threads_) {
    const OpAggregate& a = t->ops[static_cast<size_t>(kind)];
    out.count += a.count;
    out.total_ns += a.total_ns;
    out.backoffs += a.backoffs;
    for (size_t l = 0; l < out.child_ns.size(); ++l) {
      out.child_ns[l] += a.child_ns[l];
      out.child_calls[l] += a.child_calls[l];
    }
  }
  return out;
}

LayerAggregate TraceLog::LayerTotal(Layer layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerAggregate out;
  for (const auto& t : threads_) {
    out.calls += t->layers[static_cast<size_t>(layer)].calls;
    out.total_ns += t->layers[static_cast<size_t>(layer)].total_ns;
  }
  return out;
}

uint64_t TraceLog::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) n += t->spans.size();
  return n;
}

void TraceLog::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "id,parent,thread,layer,what,start_ns,end_ns\n";
  static const char* const kLayerNames[] = {"op", "cache", "coordinator"};
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      out << s.id << ',' << s.parent << ',' << s.thread << ','
          << kLayerNames[static_cast<size_t>(s.layer)] << ',' << s.what << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

// ---- Spans -------------------------------------------------------------------

ScopedOp::ScopedOp(OpKind kind) : t_(tls_trace), kind_(kind) {
  if (t_ == nullptr) return;
  static const char* const kOpNames[] = {"Read", "Write", "TryAdoptFragment",
                                         "Step"};
  span_.id = (uint64_t{t_->index_} << 40) | t_->next_id_++;
  span_.thread = t_->index_;
  span_.layer = Layer::kOp;
  span_.what = kOpNames[static_cast<size_t>(kind)];
  saved_ = t_->open_op_;
  saved_op_ = t_->current_op_;
  t_->open_op_ = &scratch_;
  t_->current_op_ = span_.id;
  span_.start_ns = NowNs();
}

ScopedOp::~ScopedOp() {
  if (t_ == nullptr) return;
  span_.end_ns = NowNs();
  OpAggregate& agg = t_->ops[static_cast<size_t>(kind_)];
  ++agg.count;
  agg.total_ns += span_.end_ns - span_.start_ns;
  agg.backoffs += scratch_.backoffs;
  for (size_t l = 0; l < agg.child_ns.size(); ++l) {
    agg.child_ns[l] += scratch_.child_ns[l];
    agg.child_calls[l] += scratch_.child_calls[l];
  }
  if (t_->spans.size() < ThreadTrace::kMaxSpans) t_->spans.push_back(span_);
  t_->open_op_ = saved_;
  t_->current_op_ = saved_op_;
}

ScopedSpan::ScopedSpan(Layer layer, const char* what) : t_(tls_trace) {
  if (t_ == nullptr) return;
  span_.id = (uint64_t{t_->index_} << 40) | t_->next_id_++;
  span_.parent = t_->current_op_;
  span_.thread = t_->index_;
  span_.layer = layer;
  span_.what = what;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (t_ == nullptr) return;
  span_.end_ns = NowNs();
  const int64_t ns = span_.end_ns - span_.start_ns;
  const size_t l = static_cast<size_t>(span_.layer);
  ++t_->layers[l].calls;
  t_->layers[l].total_ns += ns;
  if (t_->open_op_ != nullptr) {
    t_->open_op_->child_ns[l] += ns;
    ++t_->open_op_->child_calls[l];
    if (backoff_) ++t_->open_op_->backoffs;
  }
  if (t_->spans.size() < ThreadTrace::kMaxSpans) t_->spans.push_back(span_);
}

// ---- TracingBackend ------------------------------------------------------------

using gemini::CacheValue;
using gemini::LeaseToken;
using gemini::OpContext;
using gemini::Result;
using gemini::Status;

Result<CacheValue> TracingBackend::Get(const OpContext& ctx,
                                       std::string_view key) {
  return Traced(Layer::kCache, "Get", [&] { return inner_->Get(ctx, key); });
}

std::vector<Result<CacheValue>> TracingBackend::MultiGet(
    const std::vector<gemini::GetRequest>& reqs) {
  return TracedBatch("MultiGet", [&] { return inner_->MultiGet(reqs); });
}

Result<gemini::IqGetResult> TracingBackend::IqGet(const OpContext& ctx,
                                                  std::string_view key) {
  return Traced(Layer::kCache, "IqGet",
                [&] { return inner_->IqGet(ctx, key); });
}

Status TracingBackend::IqSet(const OpContext& ctx, std::string_view key,
                             CacheValue value, LeaseToken token) {
  return Traced(Layer::kCache, "IqSet", [&] {
    return inner_->IqSet(ctx, key, std::move(value), token);
  });
}

Result<LeaseToken> TracingBackend::Qareg(const OpContext& ctx,
                                         std::string_view key) {
  return Traced(Layer::kCache, "Qareg",
                [&] { return inner_->Qareg(ctx, key); });
}

Status TracingBackend::Dar(const OpContext& ctx, std::string_view key,
                           LeaseToken token) {
  return Traced(Layer::kCache, "Dar",
                [&] { return inner_->Dar(ctx, key, token); });
}

Status TracingBackend::Rar(const OpContext& ctx, std::string_view key,
                           CacheValue value, LeaseToken token) {
  return Traced(Layer::kCache, "Rar", [&] {
    return inner_->Rar(ctx, key, std::move(value), token);
  });
}

Result<LeaseToken> TracingBackend::ISet(const OpContext& ctx,
                                        std::string_view key) {
  return Traced(Layer::kCache, "ISet", [&] { return inner_->ISet(ctx, key); });
}

Status TracingBackend::IDelete(const OpContext& ctx, std::string_view key,
                               LeaseToken token) {
  return Traced(Layer::kCache, "IDelete",
                [&] { return inner_->IDelete(ctx, key, token); });
}

Status TracingBackend::Delete(const OpContext& ctx, std::string_view key) {
  return Traced(Layer::kCache, "Delete",
                [&] { return inner_->Delete(ctx, key); });
}

Status TracingBackend::Set(const OpContext& ctx, std::string_view key,
                           CacheValue value) {
  return Traced(Layer::kCache, "Set",
                [&] { return inner_->Set(ctx, key, std::move(value)); });
}

std::vector<Status> TracingBackend::MultiSet(
    std::vector<gemini::SetRequest> reqs) {
  return TracedBatch("MultiSet",
                     [&] { return inner_->MultiSet(std::move(reqs)); });
}

std::vector<Status> TracingBackend::MultiDelete(
    const std::vector<gemini::DeleteRequest>& reqs) {
  return TracedBatch("MultiDelete", [&] { return inner_->MultiDelete(reqs); });
}

Status TracingBackend::Cas(const OpContext& ctx, std::string_view key,
                           gemini::Version expected, CacheValue value) {
  return Traced(Layer::kCache, "Cas", [&] {
    return inner_->Cas(ctx, key, expected, std::move(value));
  });
}

Status TracingBackend::WriteBackInstall(const OpContext& ctx,
                                        std::string_view key, CacheValue value,
                                        LeaseToken token) {
  return Traced(Layer::kCache, "WriteBackInstall", [&] {
    return inner_->WriteBackInstall(ctx, key, std::move(value), token);
  });
}

Status TracingBackend::Append(const OpContext& ctx, std::string_view key,
                              std::string_view data) {
  return Traced(Layer::kCache, "Append",
                [&] { return inner_->Append(ctx, key, data); });
}

Result<gemini::WorkingSetPage> TracingBackend::WorkingSetScan(
    const OpContext& ctx, uint32_t num_fragments, uint64_t cursor,
    uint32_t max_keys) {
  return Traced(Layer::kCache, "WorkingSetScan", [&] {
    return inner_->WorkingSetScan(ctx, num_fragments, cursor, max_keys);
  });
}

Result<LeaseToken> TracingBackend::AcquireRed(std::string_view key) {
  return Traced(Layer::kCache, "AcquireRed",
                [&] { return inner_->AcquireRed(key); });
}

Status TracingBackend::ReleaseRed(std::string_view key, LeaseToken token) {
  return Traced(Layer::kCache, "ReleaseRed",
                [&] { return inner_->ReleaseRed(key, token); });
}

Status TracingBackend::RenewRed(std::string_view key, LeaseToken token) {
  return Traced(Layer::kCache, "RenewRed",
                [&] { return inner_->RenewRed(key, token); });
}

// ---- TracingCoordinator ----------------------------------------------------------

gemini::ConfigurationPtr TracingCoordinator::GetConfiguration() const {
  ScopedSpan span(Layer::kCoordinator, "GetConfiguration");
  return inner_->GetConfiguration();
}

gemini::ConfigId TracingCoordinator::latest_id() const {
  ScopedSpan span(Layer::kCoordinator, "latest_id");
  return inner_->latest_id();
}

void TracingCoordinator::OnDirtyListProcessed(gemini::FragmentId fragment) {
  ScopedSpan span(Layer::kCoordinator, "OnDirtyListProcessed");
  inner_->OnDirtyListProcessed(fragment);
}

void TracingCoordinator::OnWorkingSetTransferTerminated(
    gemini::FragmentId fragment) {
  ScopedSpan span(Layer::kCoordinator, "OnWorkingSetTransferTerminated");
  inner_->OnWorkingSetTransferTerminated(fragment);
}

void TracingCoordinator::OnDirtyListUnavailable(gemini::FragmentId fragment) {
  ScopedSpan span(Layer::kCoordinator, "OnDirtyListUnavailable");
  inner_->OnDirtyListUnavailable(fragment);
}

bool TracingCoordinator::DirtyProcessed(gemini::FragmentId fragment) const {
  ScopedSpan span(Layer::kCoordinator, "DirtyProcessed");
  return inner_->DirtyProcessed(fragment);
}

}  // namespace perfbench
