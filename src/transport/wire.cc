#include "src/transport/wire.h"

#include <array>
#include <cstring>

namespace gemini {
namespace wire {

namespace {

/// GEMINI_WIRE_OPS indexed by opcode byte; an empty name marks no row. (An
/// opcode on two rows does not compile: OpSpec would be defined twice.)
constexpr std::array<OpRow, 256> kRows = [] {
  std::array<OpRow, 256> rows{};
#define GEMINI_WIRE_OP_ROW(op, code, name, retry, scope, request, response) \
  rows[code] = OpRow{name, retry, Scope::scope};
  GEMINI_WIRE_OPS(GEMINI_WIRE_OP_ROW)
#undef GEMINI_WIRE_OP_ROW
  return rows;
}();

}  // namespace

const OpRow* FindOp(uint8_t op) {
  return kRows[op].name.empty() ? nullptr : &kRows[op];
}

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutKey(std::string& out, std::string_view key) {
  PutU16(out, static_cast<uint16_t>(key.size()));
  out.append(key);
}

void PutBlob(std::string& out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out.append(bytes);
}

void PutValue(std::string& out, const CacheValue& value) {
  PutBlob(out, value.data);
  PutU32(out, value.charged_bytes);
  PutU64(out, value.version);
}

void PutContext(std::string& out, const OpContext& ctx) {
  PutU64(out, ctx.config_id);
  PutU32(out, ctx.fragment);
}

bool Reader::GetRaw(void* out, size_t n) {
  if (data_.size() < n) return false;
  std::memcpy(out, data_.data(), n);
  data_.remove_prefix(n);
  return true;
}

bool Reader::GetU8(uint8_t* v) { return GetRaw(v, 1); }

bool Reader::GetU16(uint16_t* v) {
  uint8_t b[2];
  if (!GetRaw(b, 2)) return false;
  *v = static_cast<uint16_t>(b[0] | (b[1] << 8));
  return true;
}

bool Reader::GetU32(uint32_t* v) {
  uint8_t b[4];
  if (!GetRaw(b, 4)) return false;
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

bool Reader::GetU64(uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!GetU32(&lo) || !GetU32(&hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool Reader::GetKey(std::string_view* key) {
  uint16_t len = 0;
  if (!GetU16(&len)) return false;
  if (data_.size() < len) return false;
  *key = data_.substr(0, len);
  data_.remove_prefix(len);
  return true;
}

bool Reader::GetBlob(std::string_view* bytes) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (data_.size() < len) return false;
  *bytes = data_.substr(0, len);
  data_.remove_prefix(len);
  return true;
}

bool Reader::GetValue(CacheValue* value) {
  std::string_view data;
  uint32_t charged = 0;
  uint64_t version = 0;
  if (!GetBlob(&data) || !GetU32(&charged) || !GetU64(&version)) return false;
  value->data.assign(data);
  value->charged_bytes = charged;
  value->version = version;
  return true;
}

bool Reader::GetContext(OpContext* ctx) {
  uint64_t config_id = 0;
  uint32_t fragment = 0;
  if (!GetU64(&config_id) || !GetU32(&fragment)) return false;
  ctx->config_id = config_id;
  ctx->fragment = fragment;
  return true;
}

void AppendFrame(std::string& out, uint8_t tag, std::string_view body) {
  PutU32(out, static_cast<uint32_t>(1 + body.size()));
  PutU8(out, tag);
  out.append(body);
}

DecodeResult DecodeFrame(std::string_view buf, size_t* consumed, uint8_t* tag,
                         std::string_view* body) {
  if (buf.size() < 4) return DecodeResult::kNeedMore;
  Reader header(buf);
  uint32_t len = 0;
  header.GetU32(&len);
  if (len < 1 || len > kMaxFrameLen) return DecodeResult::kMalformed;
  if (buf.size() < 4 + static_cast<size_t>(len)) return DecodeResult::kNeedMore;
  *tag = static_cast<uint8_t>(buf[4]);
  *body = buf.substr(kFrameHeaderLen, len - 1);
  *consumed = 4 + static_cast<size_t>(len);
  return DecodeResult::kFrame;
}

Code CodeFromWire(uint8_t tag) {
  if (tag > static_cast<uint8_t>(Code::kNotMaster)) return Code::kInternal;
  return static_cast<Code>(tag);
}

}  // namespace wire
}  // namespace gemini
