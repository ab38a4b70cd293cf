#include "src/transport/tcp_backend.h"

namespace gemini {

TcpCacheBackend::TcpCacheBackend(std::string host, uint16_t port,
                                 InstanceId target_instance, Options options)
    : conn_(TcpConnection::Acquire(host, port, target_instance, options)) {}

TcpCacheBackend::~TcpCacheBackend() = default;

bool TcpCacheBackend::connected() const { return conn_->connected(); }

InstanceId TcpCacheBackend::id() const { return conn_->remote_id(); }

TcpConnection::BreakerState TcpCacheBackend::breaker_state() const {
  return conn_->breaker_state();
}

Status TcpCacheBackend::Connect() { return conn_->Connect(); }

void TcpCacheBackend::Disconnect() { conn_->Disconnect(); }

// ---- Op wrappers ------------------------------------------------------------

namespace {

using wire::Op;

/// The request fields of a `ctx | key` op.
auto CtxKey(const GetRequest& req) { return std::tie(req.ctx, req.key); }

}  // namespace

template <wire::Op op, typename Target, typename Req, typename Fields>
std::vector<wire::CallResult<op, Target>> TcpCacheBackend::Burst(
    const std::vector<Req>& reqs, Fields fields) {
  std::vector<wire::CallResult<op, Target>> out;
  out.reserve(reqs.size());
  std::vector<TcpConnection::BatchRequest> batch;
  batch.reserve(reqs.size());
  std::vector<size_t> slot_of;  // out index of each submitted request
  for (const Req& req : reqs) {
    std::string body;
    if (Status s = wire::EncodeRequest<op>(body, fields(req)); !s.ok()) {
      // Oversized requests never leave the client; their slots fail locally
      // and the rest of the burst still ships.
      out.push_back(std::move(s));
      continue;
    }
    out.push_back(Status(Code::kInternal, "no response"));
    slot_of.push_back(out.size() - 1);
    batch.push_back({op, std::move(body)});
  }
  std::vector<TcpConnection::BatchResponse> resps = conn_->TransactBatch(batch);
  for (size_t i = 0; i < resps.size(); ++i) {
    if (resps[i].status.ok()) {
      out[slot_of[i]] = wire::DecodeResponse<op, Target>(resps[i].body);
    } else {
      out[slot_of[i]] = std::move(resps[i].status);
    }
  }
  return out;
}

template <wire::Op op, typename Req, typename Fields>
std::vector<Status> TcpCacheBackend::Bulk(const std::vector<Req>& reqs,
                                          Fields fields) {
  std::vector<Status> out(reqs.size(), Status::Ok());
  std::vector<size_t> slot_of;  // out index of each shipped entry
  std::vector<decltype(fields(reqs.front()))> entries;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].key.size() > wire::kMaxKeyLen) {
      // Oversized keys never leave the client; their slots fail locally and
      // the rest of the batch still ships (mirrors MultiGet).
      out[i] = Status(Code::kInvalidArgument, "key exceeds wire limit");
      continue;
    }
    slot_of.push_back(i);
    entries.push_back(fields(reqs[i]));
  }
  if (slot_of.empty()) return out;
  // ONE frame, one response, sent once: the batch is non-idempotent (a
  // replay would re-apply N writes), so transport loss fails every shipped
  // slot, and so does a batch over the frame limit, before it is sent. A
  // server that answered kOk but miscounted is a protocol bug, not a
  // partial success.
  Result<std::vector<uint8_t>> codes = conn_->Call<op>(entries);
  if (codes.ok() && codes->size() != slot_of.size()) {
    codes = Status(Code::kInternal, "malformed " +
                                        std::string(wire::OpName(op)) +
                                        " response");
  }
  for (size_t j = 0; j < slot_of.size(); ++j) {
    if (!codes.ok()) {
      out[slot_of[j]] = codes.status();
      continue;
    }
    const Code c = wire::CodeFromWire((*codes)[j]);
    if (c != Code::kOk) out[slot_of[j]] = Status(c, "bulk slot failed");
  }
  return out;
}

Result<CacheValue> TcpCacheBackend::Get(const OpContext& ctx,
                                        std::string_view key) {
  return conn_->Call<Op::kGet>(ctx, key);
}

std::vector<Result<CacheValue>> TcpCacheBackend::MultiGet(
    const std::vector<GetRequest>& reqs) {
  return Burst<Op::kGet>(reqs, CtxKey);
}

Result<IqGetResult> TcpCacheBackend::IqGet(const OpContext& ctx,
                                           std::string_view key) {
  return conn_->Call<Op::kIqGet, IqGetResult>(ctx, key);
}

std::vector<Result<IqGetResult>> TcpCacheBackend::MultiIqGet(
    const std::vector<GetRequest>& reqs) {
  return Burst<Op::kIqGet, IqGetResult>(reqs, CtxKey);
}

Status TcpCacheBackend::IqSet(const OpContext& ctx, std::string_view key,
                              CacheValue value, LeaseToken token) {
  return conn_->Call<Op::kIqSet>(ctx, key, token, value);
}

std::vector<Status> TcpCacheBackend::MultiIqSet(
    std::vector<IqSetRequest> reqs) {
  return Burst<Op::kIqSet>(reqs, [](const IqSetRequest& req) {
    return std::tie(req.ctx, req.key, req.token, req.value);
  });
}

Result<LeaseToken> TcpCacheBackend::Qareg(const OpContext& ctx,
                                          std::string_view key) {
  return conn_->Call<Op::kQareg>(ctx, key);
}

Status TcpCacheBackend::Dar(const OpContext& ctx, std::string_view key,
                            LeaseToken token) {
  return conn_->Call<Op::kDar>(ctx, key, token);
}

Status TcpCacheBackend::Rar(const OpContext& ctx, std::string_view key,
                            CacheValue value, LeaseToken token) {
  return conn_->Call<Op::kRar>(ctx, key, token, value);
}

Result<LeaseToken> TcpCacheBackend::ISet(const OpContext& ctx,
                                         std::string_view key) {
  return conn_->Call<Op::kISet>(ctx, key);
}

std::vector<Result<LeaseToken>> TcpCacheBackend::MultiISet(
    const std::vector<GetRequest>& reqs) {
  return Burst<Op::kISet>(reqs, CtxKey);
}

Status TcpCacheBackend::IDelete(const OpContext& ctx, std::string_view key,
                                LeaseToken token) {
  return conn_->Call<Op::kIDelete>(ctx, key, token);
}

std::vector<Status> TcpCacheBackend::MultiIDelete(
    const std::vector<IDeleteRequest>& reqs) {
  return Burst<Op::kIDelete>(reqs, [](const IDeleteRequest& req) {
    return std::tie(req.ctx, req.key, req.token);
  });
}

Status TcpCacheBackend::Delete(const OpContext& ctx, std::string_view key) {
  return conn_->Call<Op::kDelete>(ctx, key);
}

Status TcpCacheBackend::Set(const OpContext& ctx, std::string_view key,
                            CacheValue value) {
  return conn_->Call<Op::kSet>(ctx, key, value);
}

std::vector<Status> TcpCacheBackend::MultiSet(std::vector<SetRequest> reqs) {
  return Bulk<Op::kMultiSet>(reqs, [](const SetRequest& req) {
    return std::tie(req.ctx, req.key, req.value);
  });
}

std::vector<Status> TcpCacheBackend::MultiDelete(
    const std::vector<DeleteRequest>& reqs) {
  return Bulk<Op::kMultiDelete>(reqs, [](const DeleteRequest& req) {
    return std::tie(req.ctx, req.key);
  });
}

Status TcpCacheBackend::Cas(const OpContext& ctx, std::string_view key,
                            Version expected, CacheValue value) {
  return conn_->Call<Op::kCas>(ctx, key, expected, value);
}

Status TcpCacheBackend::Append(const OpContext& ctx, std::string_view key,
                               std::string_view data) {
  return conn_->Call<Op::kAppend>(ctx, key, data);
}

Result<LeaseToken> TcpCacheBackend::AcquireRed(std::string_view key) {
  return conn_->Call<Op::kRedAcquire>(key);
}

Status TcpCacheBackend::ReleaseRed(std::string_view key, LeaseToken token) {
  return conn_->Call<Op::kRedRelease>(key, token);
}

Status TcpCacheBackend::RenewRed(std::string_view key, LeaseToken token) {
  return conn_->Call<Op::kRedRenew>(key, token);
}

Result<WorkingSetPage> TcpCacheBackend::WorkingSetScan(const OpContext& ctx,
                                                       uint32_t num_fragments,
                                                       uint64_t cursor,
                                                       uint32_t max_keys) {
  return conn_->Call<Op::kWorkingSetScan, WorkingSetPage>(ctx, num_fragments,
                                                          cursor, max_keys);
}

Status TcpCacheBackend::Ping() { return conn_->Call<Op::kPing>(); }

Result<std::vector<InstanceId>> TcpCacheBackend::ListInstances() {
  return conn_->Call<Op::kInstanceList>();
}

Result<ConfigId> TcpCacheBackend::RemoteConfigId() {
  return conn_->Call<Op::kConfigIdGet>();
}

Status TcpCacheBackend::BumpConfigId(ConfigId latest) {
  return conn_->Call<Op::kConfigIdBump>(latest);
}

Result<CacheValue> TcpCacheBackend::DirtyListGet(ConfigId config_id,
                                                 FragmentId fragment) {
  return conn_->Call<Op::kDirtyListGet>(config_id, fragment);
}

Status TcpCacheBackend::DirtyListAppend(ConfigId config_id,
                                        FragmentId fragment,
                                        std::string_view record) {
  return conn_->Call<Op::kDirtyListAppend>(config_id, fragment, record);
}

}  // namespace gemini
