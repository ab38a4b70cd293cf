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
// Body grammar (docs/PROTOCOL.md §10 is the normative spec):
//   key   = u16 len | bytes               (max 64 KiB - 1)
//   blob  = u32 len | bytes
//   value = blob data | u32 charged_bytes | u64 version
//   ctx   = u64 config_id | u32 fragment
//
// Decoding never over-reads: every Get* checks the remaining span first, and
// DecodeFrame refuses to consume bytes until the full frame has arrived.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/cache/cache_backend.h"
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

enum class Op : uint8_t {
  // Session management.
  kHello = 0x01,  // u32 version [| u32 instance_id (v2)]
                  //                        -> u32 version | u32 instance_id
  kPing = 0x02,   // empty                  -> empty
  kInstanceList = 0x03,  // empty           -> u32 count | count * u32 id

  // Plain data ops.
  kGet = 0x10,     // ctx | key              -> value
  kSet = 0x11,     // ctx | key | value      -> empty
  kDelete = 0x12,  // ctx | key              -> empty
  kCas = 0x13,     // ctx | key | u64 expected | value -> empty
  kAppend = 0x14,  // ctx | key | blob       -> empty

  // Pipelined bulk writes: one frame carries N independent single-key ops,
  // executed sequentially under the §10.6 FIFO contract, answered by ONE
  // kOk frame carrying a per-key status slot for each op:
  //   u32 count | count * u8 code
  // The frame-level tag reports only whether the batch parsed and ran; the
  // per-key outcome (kOk/kNotFound/kStaleConfig/...) lives in the slots.
  // Each entry carries its own ctx because a batch may span fragments,
  // exactly like MultiGet. Both ops are non-idempotent (a replayed batch
  // re-applies N writes), so clients fail the whole batch fast with
  // kUnavailable on transport loss — never retry, never split.
  kMultiSet = 0x15,     // u32 count | count * (ctx | key | value)
                        //                       -> u32 count | count * u8 code
  kMultiDelete = 0x16,  // u32 count | count * (ctx | key)
                        //                       -> u32 count | count * u8 code

  // IQ lease ops (Section 2.3) and recovery primitives (Algorithms 1-3).
  kIqGet = 0x20,    // ctx | key                    -> u8 hit | [value] | u64 token
  kIqSet = 0x21,    // ctx | key | u64 token | value -> empty
  kQareg = 0x22,    // ctx | key                    -> u64 token
  kDar = 0x23,      // ctx | key | u64 token        -> empty
  kRar = 0x24,      // ctx | key | u64 token | value -> empty
  kISet = 0x25,     // ctx | key                    -> u64 token
  kIDelete = 0x26,  // ctx | key | u64 token        -> empty
  kWriteBackInstall = 0x27,  // ctx | key | u64 token | value -> empty

  // Redleases (recovery workers).
  kRedAcquire = 0x30,  // key             -> u64 token
  kRedRelease = 0x31,  // key | u64 token -> empty
  kRedRenew = 0x32,    // key | u64 token -> empty

  // Dirty lists (Section 3.1): server-side aliases for get/append on
  // DirtyListKey(fragment), so remote clients need not know the key scheme.
  kDirtyListGet = 0x40,     // u64 config_id | u32 fragment        -> value
  kDirtyListAppend = 0x41,  // u64 config_id | u32 fragment | blob -> empty

  // Working-set scan (Section 3.2.2, docs/PROTOCOL.md §13): paginated,
  // priority-ordered enumeration of a fragment's hot keys on this instance.
  // The request carries the cluster's fragment count because the instance
  // does not know the fragment table — the server filters keys by
  // Fnv1a64(key) % num_fragments == ctx.fragment. Earlier pages are hotter
  // (approximate LRU priority bands); cursor 0 starts a scan, next_cursor 0
  // means done. Pure read — idempotent, resumable from any returned cursor.
  kWorkingSetScan = 0x42,  // ctx | u32 num_fragments | u64 cursor
                           //     | u32 max_keys
                           //     -> u64 next_cursor | u32 count
                           //        | count * (key | u32 charged_bytes)

  // Configuration ids (Rejig, Section 3.2.4).
  kConfigIdGet = 0x50,   // empty     -> u64 latest_config_id
  kConfigIdBump = 0x51,  // u64 latest -> empty

  // Retired: durability is the WAL engine's (--data-dir). Kept so the
  // opcode space stays append-only; always answers kInvalidArgument.
  kSnapshot = 0x60,  // blob path -> kInvalidArgument

  // Introspection.
  kStats = 0x61,  // empty -> u32 count | count * (blob name | u64 value)

  // Fragment leases (coordinator -> instance control ops; docs/PROTOCOL.md
  // §12.3). Lease lifetimes cross the wire as TTLs relative to the
  // receiver's clock — processes do not share a clock, so an absolute
  // expiry would be meaningless on arrival.
  kLeaseGrant = 0x62,   // u32 fragment | u64 min_valid_config | u64 ttl_us
                        //                | u64 latest_config -> empty
  kLeaseRevoke = 0x63,  // u32 fragment | u64 latest_config -> empty

  // Coordinator control plane (docs/PROTOCOL.md §12). Served only by a
  // server with a coordinator attached; a plain geminid answers
  // kInvalidArgument.
  kCoordRegister = 0x70,   // u32 instance | blob host | u16 port
                           //                         -> u64 latest_config_id
  kCoordHeartbeat = 0x71,  // u32 count | count * u32 instance
                           //         -> u64 latest_config_id | u8 registered
                           // registered=0: some beaten instance is unknown
                           // or failed — the sender must re-register (a beat
                           // never revives a failed instance by itself).
  kCoordConfigGet = 0x72,  // empty -> blob serialized_configuration
  kCoordConfigWatch = 0x73,  // u64 known_config_id
                             //       -> blob serialized_configuration;
                             // also subscribes this connection to
                             // kPushConfig frames.
  kCoordReport = 0x74,      // u8 event (CoordEvent) | u32 fragment -> empty
  kCoordDirtyQuery = 0x75,  // u32 fragment -> u8 processed

  // Coordinator replication (docs/PROTOCOL.md §12.7): the master pushes its
  // full CoordinatorState to each shadow after every state-mutating event
  // and on a periodic beat. The frame carries the sender's master epoch and
  // election rank so the receiver can fence stale ex-masters: a receiver
  // that has seen a strictly newer claim answers kNotMaster, and the sender
  // must demote itself to shadow. A sync doubles as the master's liveness
  // beat for the shadows' election timers. Idempotent: re-applying the same
  // state is a no-op.
  kCoordShadowSync = 0x76,  // u64 epoch | u32 rank | blob state
                            //                       -> u64 acked_epoch
};

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

/// True iff `op` is a defined opcode (decode-side validation).
bool IsKnownOp(uint8_t op);

/// True iff re-sending `op` after an ambiguous failure (connection dropped
/// with the response unread — the server may or may not have executed it)
/// cannot change the outcome. These are the only ops a client-side retry
/// layer may resend automatically (docs/PROTOCOL.md §11): pure reads (kGet,
/// kDirtyListGet, kWorkingSetScan, kConfigIdGet, kPing, kInstanceList, kStats,
/// kCoordConfigGet, kCoordConfigWatch, kCoordDirtyQuery), kConfigIdBump
/// (a max-merge into the instance's observed configuration id), and the
/// coordinator control ops whose state is level- rather than edge-triggered:
/// kCoordRegister (re-registering re-installs the same endpoint),
/// kCoordHeartbeat (a duplicate beat only refreshes a deadline),
/// kCoordShadowSync (re-applying a full-state sync is a no-op), and the
/// lease ops kLeaseGrant/kLeaseRevoke (the coordinator serializes publishes,
/// so a duplicate re-applies the same lease state; latest-config ids are
/// max-merged). kCoordReport stays fail-fast: the coordinator's recovery
/// transitions are mode-guarded, but a duplicated report after the mode
/// advanced would be indistinguishable from a stale straggler.
/// Everything that touches data-plane leases, versions, or dirty lists stays
/// fail-fast — a duplicated kIqSet/kDar/kAppend could double-apply or
/// resurrect a lease the protocol already voided. The bulk write ops
/// (kMultiSet/kMultiDelete) inherit the strictest member of their batch:
/// a replayed batch re-executes N writes, any one of which can resurrect a
/// concurrently deleted value, so the whole frame fails fast.
bool IsIdempotentOp(Op op);

// ---- Primitive writers (append to `out`) ----------------------------------

void PutU8(std::string& out, uint8_t v);
void PutU16(std::string& out, uint16_t v);
void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);
/// key: u16 length prefix. The caller must have checked kMaxKeyLen.
void PutKey(std::string& out, std::string_view key);
/// blob: u32 length prefix.
void PutBlob(std::string& out, std::string_view bytes);
void PutValue(std::string& out, const CacheValue& value);
void PutContext(std::string& out, const OpContext& ctx);

// ---- Primitive reader ------------------------------------------------------

/// Cursor over a decoded frame body. Every accessor returns false (and
/// consumes nothing) when fewer bytes remain than requested; once the body
/// is parsed, callers check Done() to reject trailing garbage.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetKey(std::string_view* key);
  bool GetBlob(std::string_view* bytes);
  bool GetValue(CacheValue* value);
  bool GetContext(OpContext* ctx);

  [[nodiscard]] size_t remaining() const { return data_.size(); }
  [[nodiscard]] bool Done() const { return data_.empty(); }

 private:
  bool GetRaw(void* out, size_t n);
  std::string_view data_;
};

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

}  // namespace wire
}  // namespace gemini
