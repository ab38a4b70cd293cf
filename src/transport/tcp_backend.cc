#include "src/transport/tcp_backend.h"

#include <thread>

#include "src/common/hash.h"

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

const TcpCacheBackend::Options& TcpCacheBackend::options() const {
  return conn_->options();
}

Status TcpCacheBackend::Connect() { return conn_->Connect(); }

void TcpCacheBackend::Disconnect() { conn_->Disconnect(); }

Status TcpCacheBackend::Transact(wire::Op op, std::string_view body,
                                 std::string* resp_body) {
  return conn_->Transact(op, body, resp_body);
}

Status TcpCacheBackend::CheckKey(std::string_view key) {
  if (key.size() > wire::kMaxKeyLen) {
    return Status(Code::kInvalidArgument, "key exceeds wire limit");
  }
  return Status::Ok();
}

// ---- Op wrappers ------------------------------------------------------------

namespace {

/// Requests that carry `ctx | key` and nothing else.
std::string CtxKeyBody(const OpContext& ctx, std::string_view key) {
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  return body;
}

std::string KeyRequestBody(const GetRequest& req) {
  return CtxKeyBody(req.ctx, req.key);
}

/// Requests that carry `ctx | key | token` (DAR, IDELETE).
std::string CtxKeyTokenBody(const OpContext& ctx, std::string_view key,
                            LeaseToken token) {
  std::string body = CtxKeyBody(ctx, key);
  wire::PutU64(body, token);
  return body;
}

/// Requests that carry `ctx | key | token | value` (IQSET, RAR, WB_INSTALL).
std::string CtxKeyTokenValueBody(const OpContext& ctx, std::string_view key,
                                 LeaseToken token, const CacheValue& value) {
  std::string body = CtxKeyTokenBody(ctx, key, token);
  wire::PutValue(body, value);
  return body;
}

Result<CacheValue> DecodeValue(std::string_view resp) {
  wire::Reader r(resp);
  CacheValue value;
  if (!r.GetValue(&value) || !r.Done()) {
    return Status(Code::kInternal, "malformed GET response");
  }
  return value;
}

Result<IqGetResult> DecodeIqGet(std::string_view resp) {
  wire::Reader r(resp);
  uint8_t hit = 0;
  IqGetResult out;
  if (!r.GetU8(&hit)) return Status(Code::kInternal, "malformed IQGET");
  if (hit != 0) {
    CacheValue value;
    if (!r.GetValue(&value)) return Status(Code::kInternal, "malformed IQGET");
    out.value = std::move(value);
  }
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, "malformed IQGET");
  }
  out.i_token = token;
  return out;
}

/// Responses whose status is the whole answer (IQSET, IDELETE).
Status DecodeNothing(std::string_view) { return Status::Ok(); }

Result<LeaseToken> DecodeToken(std::string_view resp, const char* what) {
  wire::Reader r(resp);
  uint64_t token = 0;
  if (!r.GetU64(&token) || !r.Done()) {
    return Status(Code::kInternal, std::string("malformed ") + what);
  }
  return static_cast<LeaseToken>(token);
}

}  // namespace

template <typename Slot, typename Req, typename Encode, typename Decode>
std::vector<Slot> TcpCacheBackend::Burst(wire::Op op,
                                         const std::vector<Req>& reqs,
                                         Encode encode, Decode decode) {
  std::vector<Slot> out;
  out.reserve(reqs.size());
  std::vector<TcpConnection::BatchRequest> batch;
  batch.reserve(reqs.size());
  std::vector<size_t> slot_of;  // out index of each submitted request
  for (const Req& req : reqs) {
    if (Status s = CheckKey(req.key); !s.ok()) {
      // Oversized keys never leave the client; their slots fail locally and
      // the rest of the burst still ships.
      out.push_back(std::move(s));
      continue;
    }
    out.push_back(Status(Code::kInternal, "no response"));
    slot_of.push_back(out.size() - 1);
    batch.push_back({op, encode(req)});
  }
  std::vector<TcpConnection::BatchResponse> resps = conn_->TransactBatch(batch);
  for (size_t i = 0; i < resps.size(); ++i) {
    Slot& slot = out[slot_of[i]];
    if (resps[i].status.ok()) {
      slot = decode(resps[i].body);
    } else {
      slot = std::move(resps[i].status);
    }
  }
  return out;
}

Result<CacheValue> TcpCacheBackend::Get(const OpContext& ctx,
                                        std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kGet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeValue(resp);
}

std::vector<Result<CacheValue>> TcpCacheBackend::MultiGet(
    const std::vector<GetRequest>& reqs) {
  const RetryPolicy& policy = options().retry;
  const Timestamp start = SystemClock::Global().Now();
  std::vector<Result<CacheValue>> out =
      Burst<Result<CacheValue>>(wire::Op::kGet, reqs, KeyRequestBody,
                                DecodeValue);

  // Gets are idempotent, so kUnavailable slots (a connection drop failed
  // part or all of the burst) are re-batched together and retried under the
  // same attempt/backoff/deadline budget a single Get would get.
  for (int attempt = 2; attempt <= policy.max_attempts; ++attempt) {
    std::vector<size_t> failed;  // indices into reqs/out
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].code() == Code::kUnavailable) failed.push_back(i);
    }
    if (failed.empty()) break;
    const Duration elapsed = SystemClock::Global().Now() - start;
    const Duration sleep = TcpConnection::BackoffBeforeAttempt(
        policy, attempt, elapsed, Fnv1a64("multiget") ^ failed.size());
    if (sleep < 0) break;  // deadline budget exhausted
    if (sleep > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep));
    }
    std::vector<GetRequest> again;
    again.reserve(failed.size());
    for (size_t i : failed) again.push_back(reqs[i]);
    std::vector<Result<CacheValue>> redone =
        Burst<Result<CacheValue>>(wire::Op::kGet, again, KeyRequestBody,
                                  DecodeValue);
    for (size_t j = 0; j < redone.size(); ++j) {
      out[failed[j]] = std::move(redone[j]);
    }
  }
  return out;
}

Result<IqGetResult> TcpCacheBackend::IqGet(const OpContext& ctx,
                                           std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kIqGet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeIqGet(resp);
}

std::vector<Result<IqGetResult>> TcpCacheBackend::MultiIqGet(
    const std::vector<GetRequest>& reqs) {
  return Burst<Result<IqGetResult>>(wire::Op::kIqGet, reqs, KeyRequestBody,
                                    DecodeIqGet);
}

Status TcpCacheBackend::IqSet(const OpContext& ctx, std::string_view key,
                              CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kIqSet,
                  CtxKeyTokenValueBody(ctx, key, token, value), &resp);
}

std::vector<Status> TcpCacheBackend::MultiIqSet(
    std::vector<IqSetRequest> reqs) {
  return Burst<Status>(
      wire::Op::kIqSet, reqs,
      [](const IqSetRequest& req) {
        return CtxKeyTokenValueBody(req.ctx, req.key, req.token, req.value);
      },
      DecodeNothing);
}

Result<LeaseToken> TcpCacheBackend::Qareg(const OpContext& ctx,
                                          std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kQareg, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeToken(resp, "QAREG response");
}

Status TcpCacheBackend::Dar(const OpContext& ctx, std::string_view key,
                            LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kDar, CtxKeyTokenBody(ctx, key, token), &resp);
}

Status TcpCacheBackend::Rar(const OpContext& ctx, std::string_view key,
                            CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kRar,
                  CtxKeyTokenValueBody(ctx, key, token, value), &resp);
}

Result<LeaseToken> TcpCacheBackend::ISet(const OpContext& ctx,
                                         std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  if (Status s = Transact(wire::Op::kISet, CtxKeyBody(ctx, key), &resp);
      !s.ok()) {
    return s;
  }
  return DecodeToken(resp, "ISET response");
}

std::vector<Result<LeaseToken>> TcpCacheBackend::MultiISet(
    const std::vector<GetRequest>& reqs) {
  return Burst<Result<LeaseToken>>(
      wire::Op::kISet, reqs, KeyRequestBody,
      [](std::string_view resp) { return DecodeToken(resp, "ISET response"); });
}

Status TcpCacheBackend::IDelete(const OpContext& ctx, std::string_view key,
                                LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kIDelete, CtxKeyTokenBody(ctx, key, token),
                  &resp);
}

std::vector<Status> TcpCacheBackend::MultiIDelete(
    const std::vector<IDeleteRequest>& reqs) {
  return Burst<Status>(
      wire::Op::kIDelete, reqs,
      [](const IDeleteRequest& req) {
        return CtxKeyTokenBody(req.ctx, req.key, req.token);
      },
      DecodeNothing);
}

Status TcpCacheBackend::Delete(const OpContext& ctx, std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kDelete, CtxKeyBody(ctx, key), &resp);
}

Status TcpCacheBackend::Set(const OpContext& ctx, std::string_view key,
                            CacheValue value) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kSet, body, &resp);
}

namespace {

/// Decodes a bulk response (`u32 count | count * u8 code`) into the `out`
/// slots named by `slot_of`. Any shape mismatch fails every shipped slot
/// kInternal — a server that answered kOk but miscounted is a protocol bug,
/// not a partial success.
void FillBulkSlots(std::string_view resp, const std::vector<size_t>& slot_of,
                   std::vector<Status>& out) {
  wire::Reader r(resp);
  uint32_t got = 0;
  const bool shape_ok =
      r.GetU32(&got) && got == slot_of.size() && r.remaining() == got;
  if (!shape_ok) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInternal, "malformed bulk response");
    }
    return;
  }
  for (size_t i : slot_of) {
    uint8_t code = 0;
    r.GetU8(&code);
    const Code c = wire::CodeFromWire(code);
    out[i] = c == Code::kOk ? Status::Ok() : Status(c, "bulk slot failed");
  }
}

}  // namespace

std::vector<Status> TcpCacheBackend::MultiSet(std::vector<SetRequest> reqs) {
  std::vector<Status> out(reqs.size(), Status::Ok());
  std::string body;
  std::vector<size_t> slot_of;  // out index of each shipped entry
  std::string entries;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (Status s = CheckKey(reqs[i].key); !s.ok()) {
      // Oversized keys never leave the client; their slots fail locally and
      // the rest of the batch still ships (mirrors MultiGet).
      out[i] = std::move(s);
      continue;
    }
    slot_of.push_back(i);
    wire::PutContext(entries, reqs[i].ctx);
    wire::PutKey(entries, reqs[i].key);
    wire::PutValue(entries, reqs[i].value);
  }
  if (slot_of.empty()) return out;
  wire::PutU32(body, static_cast<uint32_t>(slot_of.size()));
  body += entries;
  if (1 + body.size() > wire::kMaxFrameLen) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInvalidArgument, "batch exceeds frame limit");
    }
    return out;
  }
  // ONE frame, one response. The batch is non-idempotent (a replay would
  // re-apply N writes), so Transact's retry loop — gated on IsIdempotentOp —
  // never re-sends it: transport loss fails every shipped slot fast.
  std::string resp;
  if (Status s = Transact(wire::Op::kMultiSet, body, &resp); !s.ok()) {
    for (size_t i : slot_of) out[i] = s;
    return out;
  }
  FillBulkSlots(resp, slot_of, out);
  return out;
}

std::vector<Status> TcpCacheBackend::MultiDelete(
    const std::vector<DeleteRequest>& reqs) {
  std::vector<Status> out(reqs.size(), Status::Ok());
  std::string body;
  std::vector<size_t> slot_of;
  std::string entries;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (Status s = CheckKey(reqs[i].key); !s.ok()) {
      out[i] = std::move(s);
      continue;
    }
    slot_of.push_back(i);
    wire::PutContext(entries, reqs[i].ctx);
    wire::PutKey(entries, reqs[i].key);
  }
  if (slot_of.empty()) return out;
  wire::PutU32(body, static_cast<uint32_t>(slot_of.size()));
  body += entries;
  if (1 + body.size() > wire::kMaxFrameLen) {
    for (size_t i : slot_of) {
      out[i] = Status(Code::kInvalidArgument, "batch exceeds frame limit");
    }
    return out;
  }
  std::string resp;
  if (Status s = Transact(wire::Op::kMultiDelete, body, &resp); !s.ok()) {
    for (size_t i : slot_of) out[i] = s;
    return out;
  }
  FillBulkSlots(resp, slot_of, out);
  return out;
}

Status TcpCacheBackend::Cas(const OpContext& ctx, std::string_view key,
                            Version expected, CacheValue value) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutU64(body, expected);
  wire::PutValue(body, value);
  std::string resp;
  return Transact(wire::Op::kCas, body, &resp);
}

Status TcpCacheBackend::WriteBackInstall(const OpContext& ctx,
                                         std::string_view key,
                                         CacheValue value, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string resp;
  return Transact(wire::Op::kWriteBackInstall,
                  CtxKeyTokenValueBody(ctx, key, token, value), &resp);
}

Status TcpCacheBackend::Append(const OpContext& ctx, std::string_view key,
                               std::string_view data) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutKey(body, key);
  wire::PutBlob(body, data);
  std::string resp;
  return Transact(wire::Op::kAppend, body, &resp);
}

Result<LeaseToken> TcpCacheBackend::AcquireRed(std::string_view key) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  std::string resp;
  if (Status s = Transact(wire::Op::kRedAcquire, body, &resp); !s.ok()) {
    return s;
  }
  return DecodeToken(resp, "RED response");
}

Status TcpCacheBackend::ReleaseRed(std::string_view key, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  wire::PutU64(body, token);
  std::string resp;
  return Transact(wire::Op::kRedRelease, body, &resp);
}

Status TcpCacheBackend::RenewRed(std::string_view key, LeaseToken token) {
  if (Status s = CheckKey(key); !s.ok()) return s;
  std::string body;
  wire::PutKey(body, key);
  wire::PutU64(body, token);
  std::string resp;
  return Transact(wire::Op::kRedRenew, body, &resp);
}

Result<WorkingSetPage> TcpCacheBackend::WorkingSetScan(const OpContext& ctx,
                                                       uint32_t num_fragments,
                                                       uint64_t cursor,
                                                       uint32_t max_keys) {
  std::string body;
  wire::PutContext(body, ctx);
  wire::PutU32(body, num_fragments);
  wire::PutU64(body, cursor);
  wire::PutU32(body, max_keys);
  std::string resp;
  if (Status s = Transact(wire::Op::kWorkingSetScan, body, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  WorkingSetPage page;
  uint32_t count = 0;
  if (!r.GetU64(&page.next_cursor) || !r.GetU32(&count) ||
      static_cast<uint64_t>(count) * 6 > r.remaining()) {
    // Each item is >= 6 wire bytes (key len 2 | charged 4).
    return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
  }
  page.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key;
    uint32_t charged = 0;
    if (!r.GetKey(&key) || !r.GetU32(&charged)) {
      return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
    }
    page.items.push_back(WorkingSetItem{std::string(key), charged});
  }
  if (!r.Done()) {
    return Status(Code::kInternal, "malformed WORKING_SET_SCAN response");
  }
  return page;
}

Status TcpCacheBackend::Ping() {
  std::string resp;
  return Transact(wire::Op::kPing, {}, &resp);
}

Result<std::vector<InstanceId>> TcpCacheBackend::ListInstances() {
  return conn_->ListInstances();
}

Result<ConfigId> TcpCacheBackend::RemoteConfigId() {
  std::string resp;
  if (Status s = Transact(wire::Op::kConfigIdGet, {}, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  uint64_t id = 0;
  if (!r.GetU64(&id) || !r.Done()) {
    return Status(Code::kInternal, "malformed CONFIG_ID response");
  }
  return static_cast<ConfigId>(id);
}

Status TcpCacheBackend::BumpConfigId(ConfigId latest) {
  std::string body;
  wire::PutU64(body, latest);
  std::string resp;
  return Transact(wire::Op::kConfigIdBump, body, &resp);
}

Result<CacheValue> TcpCacheBackend::DirtyListGet(ConfigId config_id,
                                                 FragmentId fragment) {
  std::string body;
  wire::PutU64(body, config_id);
  wire::PutU32(body, fragment);
  std::string resp;
  if (Status s = Transact(wire::Op::kDirtyListGet, body, &resp); !s.ok()) {
    return s;
  }
  wire::Reader r(resp);
  CacheValue value;
  if (!r.GetValue(&value) || !r.Done()) {
    return Status(Code::kInternal, "malformed DIRTY_GET response");
  }
  return value;
}

Status TcpCacheBackend::DirtyListAppend(ConfigId config_id,
                                        FragmentId fragment,
                                        std::string_view record) {
  std::string body;
  wire::PutU64(body, config_id);
  wire::PutU32(body, fragment);
  wire::PutBlob(body, record);
  std::string resp;
  return Transact(wire::Op::kDirtyListAppend, body, &resp);
}

}  // namespace gemini
