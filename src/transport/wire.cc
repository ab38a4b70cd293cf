#include "src/transport/wire.h"

#include <array>

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
