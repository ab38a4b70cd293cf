// The op table (GEMINI_WIRE_OPS in src/transport/wire.h) checked against
// the two things it must agree with.
//
// The bytes: for every row, the table codec encodes sample request and
// ok-response fields to exactly the bytes a hand-written Put* sequence for
// that op's docs/PROTOCOL.md §10.3 grammar produces. Server and client both
// read the row, so a symmetric mistake in a row would pass every end-to-end
// test while changing the wire; these goldens catch it.
//
// The spec: §10.3's (opcode, name) rows and §11.2's retry-safe names equal
// the table's.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/transport/wire.h"

namespace gemini {
namespace wire {
namespace {

// ---- Sample field values ----------------------------------------------------

constexpr uint8_t kU8 = 0xA1;
constexpr uint16_t kU16 = 0xB2C3;
constexpr uint32_t kU32 = 0xD4E5F607;
constexpr uint64_t kU64 = 0x1122334455667788ull;
const OpContext kCtx{7, 2};
const CacheValue kValue = CacheValue::OfData("v", 3);

/// Sample<T>::Get(): the sample value of row type T. A vector holds two.
template <typename T>
struct Sample;
template <>
struct Sample<uint8_t> {
  static uint8_t Get() { return kU8; }
};
template <>
struct Sample<uint16_t> {
  static uint16_t Get() { return kU16; }
};
template <>
struct Sample<uint32_t> {
  static uint32_t Get() { return kU32; }
};
template <>
struct Sample<uint64_t> {
  static uint64_t Get() { return kU64; }
};
template <>
struct Sample<OpContext> {
  static OpContext Get() { return kCtx; }
};
template <>
struct Sample<CacheValue> {
  static CacheValue Get() { return kValue; }
};
template <>
struct Sample<std::optional<CacheValue>> {
  static std::optional<CacheValue> Get() { return kValue; }
};
template <>
struct Sample<Key> {
  static Key Get() { return Key("key"); }
};
template <>
struct Sample<Blob> {
  static Blob Get() { return Blob("blob"); }
};
template <typename T>
struct Sample<std::vector<T>> {
  static std::vector<T> Get() { return {Sample<T>::Get(), Sample<T>::Get()}; }
};
template <typename... Ts>
struct Sample<std::tuple<Ts...>> {
  static std::tuple<Ts...> Get() { return {Sample<Ts>::Get()...}; }
};

// ---- Hand-written §10.3 bodies of the same samples -------------------------

std::string U8() {
  std::string b;
  PutU8(b, kU8);
  return b;
}
std::string U16() {
  std::string b;
  PutU16(b, kU16);
  return b;
}
std::string U32() {
  std::string b;
  PutU32(b, kU32);
  return b;
}
std::string U64() {
  std::string b;
  PutU64(b, kU64);
  return b;
}
std::string Count2() {
  std::string b;
  PutU32(b, 2);
  return b;
}
std::string Ctx() {
  std::string b;
  PutContext(b, kCtx);
  return b;
}
std::string KeyBytes() {
  std::string b;
  PutKey(b, "key");
  return b;
}
std::string BlobBytes() {
  std::string b;
  PutBlob(b, "blob");
  return b;
}
std::string Value() {
  std::string b;
  PutValue(b, kValue);
  return b;
}
std::string Hit() { return std::string(1, '\x01') + Value(); }

struct Golden {
  std::string request;
  std::string response;
};

std::map<Op, Golden> HandWritten() {
  const std::string ctx_key = Ctx() + KeyBytes();
  const std::string set_entry = Ctx() + KeyBytes() + Value();
  return {
      {Op::kHello, {U32() + U32(), U32() + U32()}},
      {Op::kPing, {"", ""}},
      {Op::kInstanceList, {"", Count2() + U32() + U32()}},
      {Op::kGet, {ctx_key, Value()}},
      {Op::kSet, {ctx_key + Value(), ""}},
      {Op::kDelete, {ctx_key, ""}},
      {Op::kCas, {ctx_key + U64() + Value(), ""}},
      {Op::kAppend, {ctx_key + BlobBytes(), ""}},
      {Op::kMultiSet,
       {Count2() + set_entry + set_entry, Count2() + U8() + U8()}},
      {Op::kMultiDelete,
       {Count2() + ctx_key + ctx_key, Count2() + U8() + U8()}},
      {Op::kIqGet, {ctx_key, Hit() + U64()}},
      {Op::kIqSet, {ctx_key + U64() + Value(), ""}},
      {Op::kQareg, {ctx_key, U64()}},
      {Op::kDar, {ctx_key + U64(), ""}},
      {Op::kRar, {ctx_key + U64() + Value(), ""}},
      {Op::kISet, {ctx_key, U64()}},
      {Op::kIDelete, {ctx_key + U64(), ""}},
      {Op::kWriteBackInstall, {ctx_key + U64() + Value(), ""}},
      {Op::kRedAcquire, {KeyBytes(), U64()}},
      {Op::kRedRelease, {KeyBytes() + U64(), ""}},
      {Op::kRedRenew, {KeyBytes() + U64(), ""}},
      {Op::kDirtyListGet, {U64() + U32(), Value()}},
      {Op::kDirtyListAppend, {U64() + U32() + BlobBytes(), ""}},
      {Op::kWorkingSetScan,
       {Ctx() + U32() + U64() + U32(),
        U64() + Count2() + KeyBytes() + U32() + KeyBytes() + U32()}},
      {Op::kConfigIdGet, {"", U64()}},
      {Op::kConfigIdBump, {U64(), ""}},
      {Op::kSnapshot, {BlobBytes(), ""}},
      {Op::kStats,
       {"", Count2() + BlobBytes() + U64() + BlobBytes() + U64()}},
      {Op::kLeaseGrant, {U32() + U64() + U64() + U64(), ""}},
      {Op::kLeaseRevoke, {U32() + U64(), ""}},
      {Op::kCoordRegister, {U32() + BlobBytes() + U16(), U64()}},
      {Op::kCoordHeartbeat, {Count2() + U32() + U32(), U64() + U8()}},
      {Op::kCoordConfigGet, {"", BlobBytes()}},
      {Op::kCoordConfigWatch, {U64(), BlobBytes()}},
      {Op::kCoordReport, {U8() + U32(), ""}},
      {Op::kCoordDirtyQuery, {U32(), U8()}},
      {Op::kCoordShadowSync, {U64() + U32() + BlobBytes(), U64()}},
  };
}

// ---- What the table makes of the same samples ------------------------------

struct TableRow {
  Op op;
  std::string name;
  bool retry_safe;
  std::string request;
  std::string response;
  /// The server's zero-copy split of the response, reassembled.
  std::string split_response;
  /// Each body decodes back through the row and re-encodes identically.
  bool round_trips;
};

template <Op op>
TableRow Encoded(std::string name, bool retry_safe) {
  using Request = typename OpSpec<op>::Request;
  using Response = ResponseFieldsOf<op>;
  TableRow row{op, std::move(name), retry_safe, {}, {}, {}, false};
  EXPECT_TRUE(Encode<Request>(row.request, Sample<Request>::Get()));
  Response response = Sample<Response>::Get();
  EXPECT_TRUE(Encode<Response>(row.response, response));
  SplitBody split = EncodeResponseSplit<op>(response);
  row.split_response = split.head;
  if (split.split) {
    PutU32(row.split_response, static_cast<uint32_t>(split.payload.size()));
    row.split_response += split.payload + split.post;
  }

  Request request_back;
  std::string request_again;
  const bool request_ok = Decode<Request>(row.request, &request_back) &&
                          Encode<Request>(request_again, request_back) &&
                          request_again == row.request;
  bool response_ok = false;
  if constexpr (std::is_same_v<CallResult<op>, Status>) {
    response_ok = DecodeResponse<op>(row.response).ok();
  } else {
    auto back = DecodeResponse<op>(row.response);
    std::string response_again;
    response_ok = back.ok() && Encode<Response>(response_again, *back) &&
                  response_again == row.response;
  }
  row.round_trips = request_ok && response_ok;
  return row;
}

std::vector<TableRow> TableRows() {
  return {
#define GEMINI_TEST_ROW(op, code, name, retry, scope, request, response) \
  Encoded<Op::op>(name, retry),
      GEMINI_WIRE_OPS(GEMINI_TEST_ROW)
#undef GEMINI_TEST_ROW
  };
}

std::string Hex(std::string_view bytes) {
  std::ostringstream out;
  for (unsigned char c : bytes) {
    out << "0123456789abcdef"[c >> 4] << "0123456789abcdef"[c & 15];
  }
  return out.str();
}

TEST(OpTableTest, EveryRowEncodesItsProtocolGrammar) {
  const std::map<Op, Golden> golden = HandWritten();
  const std::vector<TableRow> rows = TableRows();
  ASSERT_EQ(rows.size(), golden.size()) << "every row needs a golden body";
  for (const TableRow& row : rows) {
    SCOPED_TRACE(row.name);
    const auto it = golden.find(row.op);
    ASSERT_NE(it, golden.end());
    EXPECT_EQ(Hex(row.request), Hex(it->second.request)) << "request";
    EXPECT_EQ(Hex(row.response), Hex(it->second.response)) << "response";
    EXPECT_EQ(Hex(row.split_response), Hex(it->second.response))
        << "zero-copy response split";
    EXPECT_TRUE(row.round_trips);
  }
}

TEST(OpTableTest, EveryOpcodeIsOnExactlyOneRow) {
  std::set<uint8_t> codes;
  for (const TableRow& row : TableRows()) {
    EXPECT_TRUE(codes.insert(static_cast<uint8_t>(row.op)).second);
    const OpRow* found = FindOp(static_cast<uint8_t>(row.op));
    ASSERT_NE(found, nullptr) << row.name;
    EXPECT_EQ(found->name, row.name);
    EXPECT_EQ(IsIdempotentOp(row.op), row.retry_safe) << row.name;
  }
  for (int code = 0; code < 256; ++code) {
    EXPECT_EQ(IsKnownOp(static_cast<uint8_t>(code)),
              codes.count(static_cast<uint8_t>(code)) == 1)
        << "opcode " << code;
  }
}

// ---- Against docs/PROTOCOL.md ---------------------------------------------

std::vector<std::string> ProtocolLines() {
  std::ifstream in(PROTOCOL_MD_PATH);
  EXPECT_TRUE(in.good()) << "cannot read " << PROTOCOL_MD_PATH;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The `|`-separated cells of a markdown table row, trimmed.
std::vector<std::string> Cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (size_t i = 1; i < line.size(); ++i) {
    if (line[i] == '|' && line[i - 1] != '\\') {
      const size_t b = cell.find_first_not_of(' ');
      const size_t e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
      cell.clear();
    } else {
      cell += line[i];
    }
  }
  return cells;
}

/// The table rows between heading `section` and the next heading.
std::vector<std::vector<std::string>> SectionTable(const std::string& section) {
  std::vector<std::vector<std::string>> rows;
  bool inside = false;
  for (const std::string& line : ProtocolLines()) {
    if (line.rfind("### ", 0) == 0 || line.rfind("## ", 0) == 0) {
      inside = line.rfind("### " + section + " ", 0) == 0;
      continue;
    }
    if (inside && line.rfind("|", 0) == 0 && line.rfind("|---", 0) != 0) {
      rows.push_back(Cells(line));
    }
  }
  if (!rows.empty()) rows.erase(rows.begin());  // the header row
  return rows;
}

TEST(OpTableTest, OpcodesMatchProtocolSection10_3) {
  std::map<int, std::string> spec;
  for (const auto& cells : SectionTable("10.3")) {
    ASSERT_GE(cells.size(), 2u);
    spec[std::stoi(cells[0], nullptr, 16)] = cells[1];
  }
  std::map<int, std::string> table;
  for (const TableRow& row : TableRows()) {
    table[static_cast<int>(row.op)] = row.name;
  }
  EXPECT_EQ(spec, table);
}

TEST(OpTableTest, RetrySafeOpsMatchProtocolSection11_2) {
  std::set<std::string> spec;
  for (const auto& cells : SectionTable("11.2")) {
    ASSERT_FALSE(cells.empty());
    std::stringstream names(cells[0]);
    for (std::string name; std::getline(names, name, ',');) {
      spec.insert(name.substr(name.find_first_not_of(' ')));
    }
  }
  std::set<std::string> table;
  for (const TableRow& row : TableRows()) {
    if (row.retry_safe) table.insert(row.name);
  }
  EXPECT_EQ(spec, table);
}

// ---- Hostile responses ----------------------------------------------------

TEST(OpTableTest, OverclaimedResponseCountIsMalformedBeforeAllocating) {
  // An INSTANCE_LIST response claiming 2^32-1 ids in a 4-byte body would
  // reserve 16 GiB if the count were trusted; the row's codec refuses it.
  std::string body;
  PutU32(body, 0xFFFFFFFFu);
  const auto ids = DecodeResponse<Op::kInstanceList>(body);
  EXPECT_EQ(ids.code(), Code::kInternal);
  EXPECT_EQ(ids.status().message(), "malformed INSTANCE_LIST response");

  // One id short, and one trailing byte, are refused the same way.
  std::string short_body;
  PutU32(short_body, 3);
  PutU32(short_body, 1);
  PutU32(short_body, 2);
  EXPECT_EQ(DecodeResponse<Op::kInstanceList>(short_body).code(),
            Code::kInternal);
  std::string trailing;
  PutU32(trailing, 1);
  PutU32(trailing, 1);
  trailing += 'x';
  EXPECT_EQ(DecodeResponse<Op::kInstanceList>(trailing).code(),
            Code::kInternal);

  // A status-only op must answer an empty body.
  EXPECT_EQ(DecodeResponse<Op::kSet>("x").code(), Code::kInternal);
}

TEST(OpTableTest, OversizedRequestsFailBeforeEncodingCompletes) {
  std::string body;
  EXPECT_EQ(EncodeRequest<Op::kGet>(
                body, std::forward_as_tuple(
                          kCtx, std::string(kMaxKeyLen + 1, 'k')))
                .code(),
            Code::kInvalidArgument);
  body.clear();
  const CacheValue huge = CacheValue::OfData(std::string(kMaxFrameLen, 'v'));
  const Status s = EncodeRequest<Op::kSet>(
      body, std::forward_as_tuple(kCtx, std::string_view("k"), huge));
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "SET request exceeds frame limit");
}

}  // namespace
}  // namespace wire
}  // namespace gemini
