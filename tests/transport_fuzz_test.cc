// A seeded, structure-aware frame fuzzer driven by the wire op table
// (GEMINI_WIRE_OPS, src/transport/wire.h). No libFuzzer: the mutations are
// enumerated and drawn from an Rng seeded by GEMINI_FAULT_SEED (echoed, so
// a red run replays bit-identically).
//
// For every row it builds a valid request from the row's field types and
// sends it, every truncation of it, it with one trailing byte, it with each
// vector count raised to 0xFFFFFFFF, and seeded byte flips of it. The
// COORD_SHADOW_SYNC request carries a valid CoordinatorState blob, whose two
// inner counts are inflated too. The target is an in-process TransportServer
// with one CacheInstance and a single-replica CoordinatorReplica as its
// control plane. After every frame a PING on the same connection must come
// back kOk, in order, so the response FIFO stays aligned; a body that does
// not parse must get kInvalidArgument; only framing violations may close
// the connection, and the server survives every frame.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cluster/coordinator_replica.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/transport/instance_registry.h"
#include "src/transport/server.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using wire::Op;

/// Fuzz seed: from GEMINI_FAULT_SEED when set (the CI chaos-smoke job
/// exports a random one per run), default 1.
uint64_t FuzzSeed() {
  uint64_t seed = 1;
  if (const char* env = std::getenv("GEMINI_FAULT_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[ fuzz     ] GEMINI_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

// ---- Valid requests, built from the row's field types ----------------------

/// Sample<T>::Get(): a value of row type T the server accepts as valid.
template <typename T>
struct Sample {
  static T Get() { return T{1}; }  // u8/u16/u32/u64: instance, fragment, ...
};
template <>
struct Sample<OpContext> {
  static OpContext Get() { return {kInternalConfigId, kInvalidFragment}; }
};
template <>
struct Sample<CacheValue> {
  static CacheValue Get() { return CacheValue::OfData("fuzz-value", 1); }
};
template <>
struct Sample<wire::Key> {
  static wire::Key Get() { return wire::Key("fuzz-key"); }
};
template <>
struct Sample<wire::Blob> {
  static wire::Blob Get() { return wire::Blob("127.0.0.1"); }
};
template <typename T>
struct Sample<std::vector<T>> {
  static std::vector<T> Get() { return {Sample<T>::Get(), Sample<T>::Get()}; }
};
template <typename... Ts>
struct Sample<std::tuple<Ts...>> {
  static std::tuple<Ts...> Get() { return {Sample<Ts>::Get()...}; }
};

/// Counts<T>::Walk(): advances `pos` past the encoding of `v` and records
/// the offset of every vector count in it.
template <typename T>
struct Counts {
  static void Walk(const T&, size_t& pos, std::vector<size_t>&) {
    pos += wire::Field<T>::kMinSize;  // fixed-size fields
  }
};
template <>
struct Counts<CacheValue> {
  static void Walk(const CacheValue& v, size_t& pos, std::vector<size_t>&) {
    pos += 16 + v.data.size();
  }
};
template <>
struct Counts<wire::Key> {
  static void Walk(const wire::Key& k, size_t& pos, std::vector<size_t>&) {
    pos += 2 + k.size();
  }
};
template <>
struct Counts<wire::Blob> {
  static void Walk(const wire::Blob& b, size_t& pos, std::vector<size_t>&) {
    pos += 4 + b.size();
  }
};
template <typename T>
struct Counts<std::vector<T>> {
  static void Walk(const std::vector<T>& v, size_t& pos,
                   std::vector<size_t>& counts) {
    counts.push_back(pos);
    pos += 4;
    for (const T& item : v) Counts<T>::Walk(item, pos, counts);
  }
};
template <typename... Ts>
struct Counts<std::tuple<Ts...>> {
  static void Walk(const std::tuple<Ts...>& t, size_t& pos,
                   std::vector<size_t>& counts) {
    std::apply([&](const Ts&... f) { (Counts<Ts>::Walk(f, pos, counts), ...); },
               t);
  }
};

struct Row {
  Op op;
  std::string name;
  std::string valid;
  std::vector<size_t> counts;  // offsets of the vector counts in `valid`
  std::function<bool(std::string_view)> parses;
};

template <Op op>
Row MakeRow(std::string name) {
  using Request = wire::RequestOf<op>;
  const Request request = Sample<Request>::Get();
  Row row{op, std::move(name), {}, {}, [](std::string_view body) {
            Request r;
            return wire::Decode<Request>(body, &r);
          }};
  EXPECT_TRUE(wire::Encode<Request>(row.valid, request));
  size_t pos = 0;
  Counts<Request>::Walk(request, pos, row.counts);
  EXPECT_EQ(pos, row.valid.size()) << row.name;
  return row;
}

std::vector<Row> Rows() {
  std::vector<Row> rows = {
#define GEMINI_FUZZ_ROW(op, code, name, ...) MakeRow<Op::op>(name),
      GEMINI_WIRE_OPS(GEMINI_FUZZ_ROW)
#undef GEMINI_FUZZ_ROW
  };
  // COORD_SHADOW_SYNC carries a real CoordinatorState blob. Epoch 5 beats
  // the replica's own claim (epoch 1), so from here on it is a shadow; the
  // row comes last, so every other control row met a master.
  CoordinatorState state;
  state.believed_up = {true, false};
  state.fragments.resize(2);
  std::string blob;
  EncodeCoordinatorState(blob, state);
  Row& sync = rows.back();
  EXPECT_EQ(sync.op, Op::kCoordShadowSync);
  sync.valid.clear();
  EXPECT_TRUE(wire::Encode<wire::RequestOf<Op::kCoordShadowSync>>(
      sync.valid, std::make_tuple(uint64_t{5}, uint32_t{1}, blob)));
  // The blob starts after epoch, rank and its own length (16 bytes); its
  // counts follow its version and four u64s, and the believed_up bytes.
  const size_t up_count = 16 + 4 + 4 * 8;
  sync.counts = {up_count, up_count + 4 + state.believed_up.size()};
  return rows;
}

// ---- The target and a raw client ------------------------------------------

struct Target {
  Target() {
    CoordinatorReplica::Options ropts;
    ropts.control.num_instances = 2;
    ropts.control.num_fragments = 2;
    ropts.control.heartbeat.interval = Millis(20);
    replica = std::make_unique<CoordinatorReplica>(&SystemClock::Global(),
                                                   ropts);
    instance = std::make_unique<CacheInstance>(0, &SystemClock::Global());
    InstanceRegistry registry;
    EXPECT_TRUE(registry.Add(instance.get()).ok());
    TransportServer::Options sopts;
    sopts.num_loops = 1;
    sopts.control = replica.get();
    server = std::make_unique<TransportServer>(std::move(registry), sopts);
    EXPECT_TRUE(server->Start().ok());
    replica->Start(server.get());
  }
  ~Target() {
    replica->Stop();
    server->Stop();
  }

  std::unique_ptr<CoordinatorReplica> replica;
  std::unique_ptr<CacheInstance> instance;
  std::unique_ptr<TransportServer> server;
};

std::string Frame(uint8_t tag, std::string_view body) {
  std::string out;
  wire::AppendFrame(out, tag, body);
  return out;
}

/// A blocking socket speaking raw frames, so the test controls every byte.
class RawClient {
 public:
  explicit RawClient(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string hello;
    wire::PutU32(hello, wire::kProtocolVersion);
    wire::PutU32(hello, wire::kAnyInstance);
    uint8_t tag = 0;
    std::string body;
    connected_ = connected_ && Send(Frame(0x01, hello)) && Next(&tag, &body) &&
                 tag == static_cast<uint8_t>(Code::kOk);
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// The next response frame, skipping config pushes; false once the
  /// server closed the connection (or went 5 s without answering).
  bool Next(uint8_t* tag, std::string* body) {
    for (;;) {
      size_t consumed = 0;
      std::string_view view;
      if (wire::DecodeFrame(buf_, &consumed, tag, &view) ==
          wire::DecodeResult::kFrame) {
        body->assign(view);
        buf_.erase(0, consumed);
        if (wire::IsPushTag(*tag)) continue;
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buf_;
};

// ---- The fuzzer -------------------------------------------------------------

/// Mutations of `row.valid`: the body itself, every truncation, one
/// trailing byte, each count raised to 0xFFFFFFFF, and seeded byte flips.
std::vector<std::string> Mutations(const Row& row, Rng& rng) {
  std::vector<std::string> out = {row.valid};
  for (size_t len = 0; len < row.valid.size(); ++len) {
    out.push_back(row.valid.substr(0, len));
  }
  out.push_back(row.valid + '\x5a');
  for (size_t at : row.counts) {
    std::string inflated = row.valid;
    std::memset(inflated.data() + at, 0xFF, 4);
    out.push_back(inflated);
  }
  for (int i = 0; i < 48 && !row.valid.empty(); ++i) {
    std::string flipped = row.valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      flipped[rng.NextBounded(flipped.size())] ^=
          static_cast<char>(1 + rng.NextBounded(255));
    }
    out.push_back(flipped);
  }
  return out;
}

TEST(TransportFuzzTest, EveryRowSurvivesMutatedFramesAndKeepsTheFifo) {
  Rng rng(FuzzSeed());
  Target target;
  const uint16_t port = target.server->port();
  auto client = std::make_unique<RawClient>(port);
  ASSERT_TRUE(client->connected());
  const std::string ping = Frame(static_cast<uint8_t>(Op::kPing), "");
  size_t frames = 0;

  for (const Row& row : Rows()) {
    SCOPED_TRACE(row.name);
    if (row.op == Op::kHello) {
      // A second HELLO is a framing violation: the connection closes, and
      // the server keeps serving new ones.
      ASSERT_TRUE(client->Send(Frame(0x01, row.valid) + ping));
      uint8_t tag = 0;
      std::string body;
      EXPECT_FALSE(client->Next(&tag, &body));
      client = std::make_unique<RawClient>(port);
      ASSERT_TRUE(client->connected());
      continue;
    }
    for (const std::string& mutated : Mutations(row, rng)) {
      ++frames;
      ASSERT_TRUE(client->Send(Frame(static_cast<uint8_t>(row.op), mutated) +
                               ping));
      uint8_t tag = 0;
      std::string body;
      ASSERT_TRUE(client->Next(&tag, &body))
          << "connection closed on a " << mutated.size() << "-byte body";
      if (!row.parses(mutated)) {
        EXPECT_EQ(tag, static_cast<uint8_t>(Code::kInvalidArgument))
            << "unparsable " << mutated.size() << "-byte body";
      }
      ASSERT_TRUE(client->Next(&tag, &body)) << "PING after the frame";
      ASSERT_EQ(tag, static_cast<uint8_t>(Code::kOk)) << "FIFO misaligned";
      ASSERT_TRUE(body.empty()) << "FIFO misaligned";
    }
  }
  std::printf("[ fuzz     ] %zu mutated frames\n", frames);

  // An unknown opcode is a framing violation too.
  ASSERT_TRUE(client->Send(Frame(0x3F, "") + ping));
  uint8_t tag = 0;
  std::string body;
  EXPECT_FALSE(client->Next(&tag, &body));
  RawClient after(port);
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.Send(ping));
  ASSERT_TRUE(after.Next(&tag, &body));
  EXPECT_EQ(tag, static_cast<uint8_t>(Code::kOk));
  EXPECT_EQ(target.server->stats().protocol_errors, 2u);
}

}  // namespace
}  // namespace gemini
