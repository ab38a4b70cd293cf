// The geminid wire protocol: framing and body codecs.
//
// Everything that crosses a socket between TcpCacheBackend and a geminid
// server is a *frame*:
//
//   u32 len | u8 tag | payload            (len = 1 + payload size)
//
// all integers little-endian. For a request the tag is an opcode (Op below);
// for a response it is a status code (the wire value of gemini::Code — the
// enum's numeric values are frozen by this protocol, append-only). A
// connection starts with a HELLO exchange carrying the protocol version and,
// since v2, the instance the client wants to talk to (a geminid hosts many
// CacheInstances behind one event loop); the server answers with the bound
// instance's id. After that, requests may be pipelined: a client may have
// several frames in flight, and the server answers them strictly in arrival
// order — responses carry no correlation id, so FIFO-per-connection ordering
// (docs/PROTOCOL.md §10.6) is the matching rule.
//
// Bodies follow the op table below (GEMINI_WIRE_OPS), which implements
// docs/PROTOCOL.md §10, the normative spec: one row per opcode, read by the
// server dispatch and every client stub alike.
//
// Decoding never over-reads: every Get* checks the remaining span first, a
// vector count is checked against the bytes left before anything is
// allocated for it, and DecodeFrame refuses to consume bytes until the full
// frame has arrived.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/common/codec.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {
namespace wire {

/// Bumped on any incompatible change; HELLO negotiates it. The HELLO body is
/// append-only across versions (like the status-code space): v1 carries
/// `u32 version`, v2 appends `u32 instance_id`. A v2 server recognizes a v1
/// HELLO by its announced version, binds the connection to its default
/// instance, and answers with version 1, so pre-refactor clients keep
/// working unchanged.
inline constexpr uint32_t kProtocolVersion = 2;

/// The lowest HELLO version a server still accepts.
inline constexpr uint32_t kMinProtocolVersion = 1;

/// Sentinel instance id in a v2 HELLO: "bind me to the server's default
/// instance" (whatever a v1 client would have gotten).
inline constexpr InstanceId kAnyInstance = kInvalidInstance;

/// Upper bound on `len`; a peer announcing more is malformed and the
/// connection is dropped (protects the read buffer from hostile frames).
inline constexpr uint32_t kMaxFrameLen = 16u << 20;

/// Keys are length-prefixed with a u16.
inline constexpr size_t kMaxKeyLen = 0xFFFF;

/// Frame header: u32 len + u8 tag.
inline constexpr size_t kFrameHeaderLen = 5;

// ---- The op table ----------------------------------------------------------
//
// Every opcode is one row of GEMINI_WIRE_OPS: its enumerator and value, its
// docs/PROTOCOL.md §10.3 name, its retry class (§11.2), its scope, and its
// request and ok-response fields in wire order. The enum, the server
// dispatch, every client stub, IsKnownOp/IsIdempotentOp and the codec all
// read the row, so adding an op is one row, one server case and one client
// stub. Each field type has one encoding (src/common/codec.h):
//   u8/u16/u32/u64             little-endian
//   OpContext                  u64 config_id | u32 fragment
//   CacheValue                 Blob data | u32 charged_bytes | u64 version
//   Key, Blob                  u16 / u32 len | bytes (a key is < 64 KiB)
//   std::optional<CacheValue>  u8 hit | [value]
//   std::vector<T>             u32 count | count * T
//   std::tuple<Ts...>          the Ts in order (a multi-field vector element)
//
// Reasons the rows do not show:
// - COORD_REPORT fails fast: recovery transitions are mode-guarded, but a
//   report duplicated after the mode advanced would be indistinguishable
//   from a stale straggler.
// - MULTI_SET/MULTI_DELETE carry N independent writes (each with its own
//   ctx: a batch may span fragments), answered by one status code per entry
//   in order. They fail fast like their strictest member: a replayed batch
//   re-executes N writes, any one of which can resurrect a concurrently
//   deleted value, so a client fails the whole frame with kUnavailable on
//   transport loss — never retry, never split.
// - HELLO's row is the v2 body; both ends parse it by hand because a v1
//   peer sends only the version (§10.5).

using codec::Blob;
using codec::u16;
using codec::u32;
using codec::u64;
using codec::u8;

/// A `u16 len | bytes` field. A view, like Blob: decoding aliases the frame
/// body, encoding the caller's bytes, so whatever backs it must outlive the
/// call.
struct Key : std::string_view {
  using std::string_view::string_view;
  Key(std::string_view v) : std::string_view(v) {}  // NOLINT
};

using SetEntry = std::tuple<OpContext, Key, CacheValue>;  // MULTI_SET entry
using DeleteEntry = std::tuple<OpContext, Key>;           // MULTI_DELETE entry
using ScanItem = std::tuple<Key, u32>;  // WORKING_SET_SCAN: key | charged
using StatRow = std::tuple<Blob, u64>;  // STATS: name | value

/// Which connections an op is served on: kSession on any past HELLO;
/// kInstance by the connection's bound instance (a coordinator-only server
/// binds none and answers kUnavailable); kControl by the server's
/// ControlPlane (§12), without which it answers kInvalidArgument.
enum class Scope : uint8_t { kSession, kInstance, kControl };

/// Retry classes: a kRetrySafe op may be re-sent after an ambiguous failure
/// (the connection dropped with the response unread).
inline constexpr bool kRetrySafe = true;
inline constexpr bool kFailFast = false;

// clang-format off
#define GEMINI_WIRE_OPS(X)                                                                                                                     \
  X(kHello,            0x01, "HELLO",              kFailFast,  kSession,  (u32, u32),                        (u32, u32))                       \
  X(kPing,             0x02, "PING",               kRetrySafe, kSession,  (),                                ())                               \
  X(kInstanceList,     0x03, "INSTANCE_LIST",      kRetrySafe, kSession,  (),                                (std::vector<u32>))               \
  X(kGet,              0x10, "GET",                kRetrySafe, kInstance, (OpContext, Key),                  (CacheValue))                     \
  X(kSet,              0x11, "SET",                kFailFast,  kInstance, (OpContext, Key, CacheValue),      ())                               \
  X(kDelete,           0x12, "DELETE",             kFailFast,  kInstance, (OpContext, Key),                  ())                               \
  X(kCas,              0x13, "CAS",                kFailFast,  kInstance, (OpContext, Key, u64, CacheValue), ())                               \
  X(kAppend,           0x14, "APPEND",             kFailFast,  kInstance, (OpContext, Key, Blob),            ())                               \
  X(kMultiSet,         0x15, "MULTI_SET",          kFailFast,  kInstance, (std::vector<SetEntry>),           (std::vector<u8>))                \
  X(kMultiDelete,      0x16, "MULTI_DELETE",       kFailFast,  kInstance, (std::vector<DeleteEntry>),        (std::vector<u8>))                \
  X(kIqGet,            0x20, "IQGET",              kFailFast,  kInstance, (OpContext, Key),                  (std::optional<CacheValue>, u64)) \
  X(kIqSet,            0x21, "IQSET",              kFailFast,  kInstance, (OpContext, Key, u64, CacheValue), ())                               \
  X(kQareg,            0x22, "QAREG",              kFailFast,  kInstance, (OpContext, Key),                  (u64))                            \
  X(kDar,              0x23, "DAR",                kFailFast,  kInstance, (OpContext, Key, u64),             ())                               \
  X(kRar,              0x24, "RAR",                kFailFast,  kInstance, (OpContext, Key, u64, CacheValue), ())                               \
  X(kISet,             0x25, "ISET",               kFailFast,  kInstance, (OpContext, Key),                  (u64))                            \
  X(kIDelete,          0x26, "IDELETE",            kFailFast,  kInstance, (OpContext, Key, u64),             ())                               \
  X(kWriteBackInstall, 0x27, "WRITEBACK_INSTALL",  kFailFast,  kInstance, (OpContext, Key, u64, CacheValue), ())                               \
  X(kRedAcquire,       0x30, "RED_ACQUIRE",        kFailFast,  kInstance, (Key),                             (u64))                            \
  X(kRedRelease,       0x31, "RED_RELEASE",        kFailFast,  kInstance, (Key, u64),                        ())                               \
  X(kRedRenew,         0x32, "RED_RENEW",          kFailFast,  kInstance, (Key, u64),                        ())                               \
  X(kDirtyListGet,     0x40, "DIRTYLIST_GET",      kRetrySafe, kInstance, (u64, u32),                        (CacheValue))                     \
  X(kDirtyListAppend,  0x41, "DIRTYLIST_APPEND",   kFailFast,  kInstance, (u64, u32, Blob),                  ())                               \
  X(kWorkingSetScan,   0x42, "WORKING_SET_SCAN",   kRetrySafe, kInstance, (OpContext, u32, u64, u32),        (u64, std::vector<ScanItem>))     \
  X(kConfigIdGet,      0x50, "CONFIGID_GET",       kRetrySafe, kInstance, (),                                (u64))                            \
  X(kConfigIdBump,     0x51, "CONFIGID_BUMP",      kRetrySafe, kInstance, (u64),                             ())                               \
  X(kSnapshot,         0x60, "SNAPSHOT",           kFailFast,  kInstance, (Blob),                            ())                               \
  X(kStats,            0x61, "STATS",              kRetrySafe, kSession,  (),                                (std::vector<StatRow>))           \
  X(kLeaseGrant,       0x62, "LEASE_GRANT",        kRetrySafe, kInstance, (u32, u64, u64, u64),              ())                               \
  X(kLeaseRevoke,      0x63, "LEASE_REVOKE",       kRetrySafe, kInstance, (u32, u64),                        ())                               \
  X(kCoordRegister,    0x70, "COORD_REGISTER",     kRetrySafe, kControl,  (u32, Blob, u16),                  (u64))                            \
  X(kCoordHeartbeat,   0x71, "COORD_HEARTBEAT",    kRetrySafe, kControl,  (std::vector<u32>),                (u64, u8))                        \
  X(kCoordConfigGet,   0x72, "COORD_CONFIG_GET",   kRetrySafe, kControl,  (),                                (Blob))                           \
  X(kCoordConfigWatch, 0x73, "COORD_CONFIG_WATCH", kRetrySafe, kControl,  (u64),                             (Blob))                           \
  X(kCoordReport,      0x74, "COORD_REPORT",       kFailFast,  kControl,  (u8, u32),                         ())                               \
  X(kCoordDirtyQuery,  0x75, "COORD_DIRTY_QUERY",  kRetrySafe, kControl,  (u32),                             (u8))                             \
  X(kCoordShadowSync,  0x76, "COORD_SHADOW_SYNC",  kRetrySafe, kControl,  (u64, u32, Blob),                  (u64))
// clang-format on

enum class Op : uint8_t {
#define GEMINI_WIRE_OP_ENUM(op, code, ...) op = code,
  GEMINI_WIRE_OPS(GEMINI_WIRE_OP_ENUM)
#undef GEMINI_WIRE_OP_ENUM
};

/// One row's fields: `Request` and `Response` are tuples of the request and
/// ok-response field types, in wire order.
template <Op op>
struct OpSpec;

#define GEMINI_WIRE_FIELDS(...) std::tuple<__VA_ARGS__>
#define GEMINI_WIRE_OP_SPEC(op, code, name, retry, scope, request, response) \
  template <>                                                                \
  struct OpSpec<Op::op> {                                                    \
    using Request = GEMINI_WIRE_FIELDS request;                              \
    using Response = GEMINI_WIRE_FIELDS response;                            \
  };
GEMINI_WIRE_OPS(GEMINI_WIRE_OP_SPEC)
#undef GEMINI_WIRE_OP_SPEC
#undef GEMINI_WIRE_FIELDS

/// Events a recovery-side client reports to the coordinator (kCoordReport).
enum class CoordEvent : uint8_t {
  kDirtyListProcessed = 0,
  kWorkingSetTransferTerminated = 1,
  kDirtyListUnavailable = 2,
};

/// True iff `v` names a defined CoordEvent.
inline bool IsKnownCoordEvent(uint8_t v) { return v <= 2; }

// ---- Server pushes ---------------------------------------------------------
//
// Tags >= kMinPushTag are reserved for unsolicited server->client frames.
// They are disjoint from the status-code space (Code values are small), so a
// client reader can route them out of band without disturbing the
// FIFO-per-connection response matching rule (§10.6): a push frame is not a
// response and does not consume a pending request slot.

inline constexpr uint8_t kMinPushTag = 0xF0;

/// Configuration push: body = blob serialized_configuration
/// (Configuration::Serialize). Sent to connections subscribed via
/// kCoordConfigWatch whenever the coordinator publishes.
inline constexpr uint8_t kPushConfigTag = 0xF0;

/// True iff `tag` is an unsolicited push frame, not a response.
inline bool IsPushTag(uint8_t tag) { return tag >= kMinPushTag; }

/// The runtime facts of one table row.
struct OpRow {
  std::string_view name;  // docs/PROTOCOL.md §10.3
  bool retry_safe = false;
  Scope scope = Scope::kSession;
};

/// The row defining opcode `op`, or nullptr when no row does.
const OpRow* FindOp(uint8_t op);

/// True iff `op` is a defined opcode (decode-side validation).
inline bool IsKnownOp(uint8_t op) { return FindOp(op) != nullptr; }

/// True iff a caller may send `op` again after an ambiguous failure
/// (docs/PROTOCOL.md §11.2; the reasons sit above GEMINI_WIRE_OPS).
inline bool IsIdempotentOp(Op op) {
  return FindOp(static_cast<uint8_t>(op))->retry_safe;
}

/// The op's docs/PROTOCOL.md name, as client errors report it.
inline std::string_view OpName(Op op) {
  return FindOp(static_cast<uint8_t>(op))->name;
}

// ---- Frames ----------------------------------------------------------------

/// Appends `u32 len | u8 tag | body` to `out`.
void AppendFrame(std::string& out, uint8_t tag, std::string_view body);

inline void AppendRequest(std::string& out, Op op, std::string_view body) {
  AppendFrame(out, static_cast<uint8_t>(op), body);
}
inline void AppendResponse(std::string& out, Code code,
                           std::string_view body) {
  AppendFrame(out, static_cast<uint8_t>(code), body);
}

enum class DecodeResult : uint8_t {
  /// A complete frame was decoded; *consumed bytes were used.
  kFrame,
  /// The buffer holds a prefix of a frame; read more and retry.
  kNeedMore,
  /// The peer is speaking garbage (oversized or undersized frame); the
  /// connection must be closed.
  kMalformed,
};

/// Decodes one frame from the front of `buf`. On kFrame, `*tag` and `*body`
/// alias `buf` (valid until the buffer is mutated) and `*consumed` is the
/// total frame size in bytes.
DecodeResult DecodeFrame(std::string_view buf, size_t* consumed, uint8_t* tag,
                         std::string_view* body);

/// Status-code <-> wire tag mapping. Unknown tags map to kInternal so a
/// newer peer cannot make an older client misbehave.
Code CodeFromWire(uint8_t tag);

// ---- The field codec -------------------------------------------------------
//
// src/common/codec.h encodes the integers, Blob, vectors and tuples; the
// protocol adds its own field types: Key, OpContext, CacheValue and
// std::optional<CacheValue>. On the client a row decodes into the row's
// types, into owning ones (Field<T>::Owned: a Key or Blob as std::string),
// or into a struct that AsFields ties in wire order.

using codec::Decode;
using codec::Encode;
using codec::Field;
using codec::PutBlob;
using codec::PutU16;
using codec::PutU32;
using codec::PutU64;
using codec::PutU8;
using codec::TupleLike;

}  // namespace wire

// The protocol's structs as their fields in wire order. The codec finds
// AsFields by argument-dependent lookup, so they live in the structs'
// namespace.
inline auto AsFields(OpContext& c) { return std::tie(c.config_id, c.fragment); }
inline auto AsFields(const OpContext& c) {
  return std::tie(c.config_id, c.fragment);
}
inline auto AsFields(CacheValue& v) {
  return std::tie(v.data, v.charged_bytes, v.version);
}
inline auto AsFields(const CacheValue& v) {
  return std::tie(v.data, v.charged_bytes, v.version);
}
inline auto AsFields(IqGetResult& r) { return std::tie(r.value, r.i_token); }
inline auto AsFields(WorkingSetPage& p) {
  return std::tie(p.next_cursor, p.items);
}
inline auto AsFields(WorkingSetItem& i) {
  return std::tie(i.key, i.charged_bytes);
}
inline auto AsFields(const WorkingSetItem& i) {
  return std::tie(i.key, i.charged_bytes);
}

namespace codec {

template <>
struct Field<wire::Key> : BytesField<u16> {};
template <>
struct Field<OpContext> : StructField<OpContext, std::tuple<u64, u32>> {};
template <>
struct Field<CacheValue>
    : StructField<CacheValue, std::tuple<Blob, u32, u64>> {};

/// `u8 hit | [value]`.
template <>
struct Field<std::optional<CacheValue>> {
  using Owned = std::optional<CacheValue>;
  static constexpr size_t kMinSize = 1;
  static bool Put(std::string& out, const std::optional<CacheValue>& value) {
    PutU8(out, value.has_value() ? 1 : 0);
    return !value.has_value() || Field<CacheValue>::Put(out, *value);
  }
  static bool Get(Reader& r, std::optional<CacheValue>* value) {
    uint8_t hit = 0;
    if (!r.GetU8(&hit)) return false;
    value->reset();
    return hit == 0 || Field<CacheValue>::Get(r, &value->emplace());
  }
};

}  // namespace codec

namespace wire {

/// key: u16 length prefix. The caller must have checked kMaxKeyLen; a
/// longer key writes nothing.
inline void PutKey(std::string& out, std::string_view key) {
  (void)Field<Key>::Put(out, key);
}
inline void PutValue(std::string& out, const CacheValue& value) {
  Field<CacheValue>::Put(out, value);
}
inline void PutContext(std::string& out, const OpContext& ctx) {
  Field<OpContext>::Put(out, ctx);
}

/// codec::Reader over a frame body, plus the protocol's own field types.
class Reader : public codec::Reader {
 public:
  using codec::Reader::Reader;

  bool GetKey(std::string_view* key) { return Field<Key>::Get(*this, key); }
  bool GetValue(CacheValue* value) {
    return Field<CacheValue>::Get(*this, value);
  }
  bool GetContext(OpContext* ctx) {
    return Field<OpContext>::Get(*this, ctx);
  }
};

/// A row's fields as one codec type: the only field of a one-field row,
/// else the tuple of all of them.
template <typename Fields>
struct Unwrap {
  using type = Fields;
};
template <typename T>
struct Unwrap<std::tuple<T>> {
  using type = T;
};
template <Op op>
using RequestOf = typename OpSpec<op>::Request;
template <Op op>
using ResponseFieldsOf = typename Unwrap<typename OpSpec<op>::Response>::type;

// ---- Client side of a row --------------------------------------------------

/// What a client decodes `op`'s ok-response into by default: the row's
/// types, owning their bytes (a Key or Blob as std::string).
template <Op op>
using ResponseOf = typename Field<ResponseFieldsOf<op>>::Owned;

/// A client call's outcome: Status for an op whose ok-response is empty,
/// else Result<Target>.
template <Op op, typename Target = ResponseOf<op>>
using CallResult =
    std::conditional_t<std::tuple_size_v<typename OpSpec<op>::Response> == 0,
                       Status, Result<Target>>;

/// Encodes `fields` (tuple-like, in row order) as `op`'s request body. A key
/// over kMaxKeyLen or a body over the frame limit is kInvalidArgument: such
/// a request must not be sent.
template <Op op, typename Fields>
Status EncodeRequest(std::string& body, const Fields& fields) {
  if (!Encode<RequestOf<op>>(body, fields)) {
    return Status(Code::kInvalidArgument, "key exceeds wire limit");
  }
  if (1 + body.size() > kMaxFrameLen) {
    return Status(Code::kInvalidArgument,
                  std::string(OpName(op)) + " request exceeds frame limit");
  }
  return Status::Ok();
}

/// Decodes `op`'s ok-response body into `Target`; a body that does not
/// match the row is kInternal, naming the op.
template <Op op, typename Target = ResponseOf<op>>
CallResult<op, Target> DecodeResponse(std::string_view body) {
  if constexpr (std::is_same_v<CallResult<op, Target>, Status>) {
    if (body.empty()) return Status::Ok();
  } else {
    Target out{};
    if (Decode<ResponseFieldsOf<op>>(body, &out)) return out;
  }
  return Status(Code::kInternal,
                "malformed " + std::string(OpName(op)) + " response");
}

// ---- Server side of a row --------------------------------------------------

template <typename T>
inline constexpr bool kIsResult = false;
template <typename T>
inline constexpr bool kIsResult<Result<T>> = true;

/// Serves one `op` request: decodes `body` into the row's request fields,
/// calls `handle(fields...)`, and passes its ok value to `respond` as a
/// non-const lvalue (the encoder may move payload bytes out of it).
/// `handle` returns Status for an empty ok-response, else Result<V> or V,
/// where V is the response's only field or a tuple-like (or AsFields
/// struct) of all of them. A Key or Blob in V is encoded from a view, so
/// whatever backs it must live in V or outlive this call. Returns
/// kInvalidArgument "malformed request body" when the body does not parse,
/// else the handler's status.
template <Op op, typename Handler, typename Respond>
Status Serve(std::string_view body, Handler&& handle, Respond&& respond) {
  RequestOf<op> request;
  if (!Decode<RequestOf<op>>(body, &request)) {
    return Status(Code::kInvalidArgument, "malformed request body");
  }
  auto result = std::apply(std::forward<Handler>(handle), std::move(request));
  if constexpr (std::is_same_v<decltype(result), Status>) {
    static_assert(std::tuple_size_v<typename OpSpec<op>::Response> == 0,
                  "only an op with an empty ok-response may return Status");
    if (!result.ok()) return result;
    std::tuple<> none;
    respond(none);
  } else if constexpr (kIsResult<decltype(result)>) {
    if (!result.ok()) return result.status();
    respond(*result);
  } else {
    respond(result);
  }
  return Status::Ok();
}

/// An ok-response body split around its first CacheValue's data, so a
/// server can send those bytes from where they lie instead of copying them
/// into a contiguous frame: `head` holds the fields before the data's u32
/// length prefix, `post` the fields after the data. Without a value
/// (`split` false) the whole body is `head`.
struct SplitBody {
  std::string head;
  std::string payload;
  std::string post;
  bool split = false;
};

template <typename T, typename V>
void PutSplit(SplitBody& body, V& value) {
  std::string& out = body.split ? body.post : body.head;
  if constexpr (std::is_same_v<T, std::optional<CacheValue>>) {
    PutU8(out, value.has_value() ? 1 : 0);
    if (value.has_value()) PutSplit<CacheValue>(body, *value);
  } else if constexpr (std::is_same_v<T, CacheValue>) {
    if (body.split) {
      PutValue(out, value);
      return;
    }
    body.split = true;
    body.payload = std::move(value.data);
    PutU32(body.post, value.charged_bytes);
    PutU64(body.post, value.version);
  } else {
    Field<T>::Put(out, value);
  }
}

/// Encodes a Serve handler's ok value as `op`'s ok-response body, split
/// around the first CacheValue, whose data it moves out of `value`.
template <Op op, typename V>
SplitBody EncodeResponseSplit(V& value) {
  using Response = typename OpSpec<op>::Response;
  SplitBody body;
  if constexpr (std::tuple_size_v<Response> == 1) {
    PutSplit<std::tuple_element_t<0, Response>>(body, value);
  } else if constexpr (TupleLike<V>) {
    [&]<size_t... I>(std::index_sequence<I...>) {
      (PutSplit<std::tuple_element_t<I, Response>>(body, std::get<I>(value)),
       ...);
    }(std::make_index_sequence<std::tuple_size_v<Response>>());
  } else {
    auto fields = AsFields(value);
    return EncodeResponseSplit<op>(fields);
  }
  return body;
}

}  // namespace wire
}  // namespace gemini
