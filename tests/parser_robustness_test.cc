// Parser robustness: the formats parsed from cache-resident or on-disk bytes
// that an operator, an eviction, or a torn write can mangle (configuration
// entries, dirty lists, snapshots, WAL records). Deterministic fuzz-like
// sweeps assert "never crash, fail closed".
//
// SnapshotStructureMutations and WalRecordStructureMutations are the seeded
// sweeps: GEMINI_FAULT_SEED picks their mutations (echoed so a CI failure
// replays exactly).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/cache/dirty_list.h"
#include "src/cache/snapshot.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/coordinator/configuration.h"
#include "src/persist/wal.h"

namespace gemini {
namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  return out;
}

TEST(ParserRobustness, ConfigurationRandomBytes) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const size_t len = rng.NextBounded(200);
    (void)Configuration::Deserialize(RandomBytes(rng, len));
  }
  SUCCEED();
}

TEST(ParserRobustness, ConfigurationMutatedValidPayload) {
  std::vector<FragmentAssignment> frags(4);
  for (FragmentId f = 0; f < 4; ++f) {
    frags[f] = {f, kInvalidInstance, 3, FragmentMode::kNormal, 1};
  }
  const std::string valid = Configuration(9, std::move(frags)).Serialize();
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBounded(256));
    auto parsed = Configuration::Deserialize(mutated);
    if (parsed.has_value()) {
      // If it still parses, it must be structurally sane.
      EXPECT_LE(parsed->num_fragments(), 1u << 31);
      for (const auto& a : parsed->fragments()) {
        EXPECT_LE(static_cast<uint8_t>(a.mode),
                  static_cast<uint8_t>(FragmentMode::kRecovery));
      }
    }
  }
}

TEST(ParserRobustness, ConfigurationCountBeyondItsTextFailsClosed) {
  // 2^31 fragments in a 16-byte payload: the parse must fail, not reserve
  // 48 GiB for entries the text cannot hold.
  EXPECT_FALSE(Configuration::Deserialize("v2 1 2147483648 ").has_value());
  EXPECT_FALSE(Configuration::Deserialize("v2 1 3 0 0 1 0 1").has_value());
}

TEST(ParserRobustness, DirtyListRandomBytes) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const size_t len = rng.NextBounded(300);
    auto parsed = DirtyList::Parse(RandomBytes(rng, len));
    // Random bytes virtually never begin with the marker; when they do the
    // parse must still terminate with sane contents.
    if (parsed.has_value()) {
      EXPECT_LE(parsed->size(), len);
    }
  }
  SUCCEED();
}

TEST(ParserRobustness, DirtyListTruncations) {
  std::string payload = DirtyList::InitialPayload();
  for (int i = 0; i < 50; ++i) {
    payload += DirtyList::EncodeRecord("user" + std::to_string(i));
  }
  for (size_t cut = 0; cut <= payload.size(); ++cut) {
    auto parsed = DirtyList::Parse(std::string_view(payload).substr(0, cut));
    if (parsed.has_value()) {
      EXPECT_LE(parsed->size(), 50u);
    }
  }
}

TEST(ParserRobustness, SnapshotRandomBytes) {
  VirtualClock clock;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    CacheInstance scratch(0, &clock);
    const size_t len = rng.NextBounded(400);
    Status s = Snapshot::Load(scratch, RandomBytes(rng, len));
    EXPECT_FALSE(s.ok());  // random bytes never form a valid snapshot
    EXPECT_EQ(scratch.stats().entry_count, 0u);  // fail closed
  }
}

TEST(ParserRobustness, SnapshotEveryByteFlipped) {
  VirtualClock clock;
  CacheInstance inst(0, &clock);
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);
  OpContext ctx{1, 0};
  for (int i = 0; i < 5; ++i) {
    (void)inst.Set(ctx, "k" + std::to_string(i), CacheValue::OfData("v"));
  }
  const std::string valid = Snapshot::Serialize(inst);
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string mutated = valid;
    mutated[pos] ^= 0x40;
    CacheInstance scratch(1, &clock);
    Status s = Snapshot::Load(scratch, mutated);
    // The checksum covers everything, so any single flip fails closed.
    EXPECT_FALSE(s.ok()) << "flip at " << pos;
    EXPECT_EQ(scratch.stats().entry_count, 0u);
  }
}

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

uint64_t FuzzSeed(const char* sweep) {
  uint64_t seed = 1;
  if (const char* env = std::getenv("GEMINI_FAULT_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[ %s ] GEMINI_FAULT_SEED=%llu\n", sweep,
              static_cast<unsigned long long>(seed));
  return seed;
}

/// One structural field of a snapshot or WAL record: where it lies and how
/// wide it is.
struct Field {
  enum Kind { kCount, kLength, kFlags };
  Kind kind;
  size_t offset;
  size_t width;  // 1, 4 or 8
};

uint64_t ReadField(std::string_view snap, const Field& f) {
  uint64_t v = 0;
  std::memcpy(&v, snap.data() + f.offset, f.width);
  return v;
}

/// Walks a valid snapshot and lists its two header counts, every length
/// prefix (entry keys and values, quarantined keys) and every flags word.
std::vector<Field> FieldsOf(std::string_view snap) {
  std::vector<Field> fields = {{Field::kCount, 8, 8}, {Field::kCount, 16, 8}};
  const uint64_t entries = ReadField(snap, fields[0]);
  const uint64_t quarantined = ReadField(snap, fields[1]);
  size_t at = 24;
  const auto length_prefixed = [&] {
    fields.push_back({Field::kLength, at, 4});
    at += 4 + ReadField(snap, fields.back());
  };
  for (uint64_t i = 0; i < entries; ++i) {
    length_prefixed();  // key
    length_prefixed();  // data
    at += 4 + 8 + 8;    // charged_bytes, version, config_id
    fields.push_back({Field::kFlags, at, 4});
    at += 4;
  }
  for (uint64_t i = 0; i < quarantined; ++i) length_prefixed();
  EXPECT_EQ(at + 8, snap.size()) << "the walk must end at the trailer";
  return fields;
}

/// A replacement value aimed at the parser's edges: zero, just past or
/// short of the old value, all ones, random bits, or one flipped bit (a
/// flags word gets a single set bit, bit 0 being the retired write-back pin).
uint64_t Mutate(Rng& rng, const Field& f, uint64_t old) {
  uint64_t v = 0;
  switch (rng.NextBounded(6)) {
    case 0:
      v = 0;
      break;
    case 1:
      v = old + 1 + rng.NextBounded(4);
      break;
    case 2:
      v = old - 1 - rng.NextBounded(4);  // wraps below zero
      break;
    case 3:
      v = ~uint64_t{0};
      break;
    case 4:
      v = rng.Next();
      break;
    default: {
      const uint64_t bit = uint64_t{1} << rng.NextBounded(f.width * 8);
      v = f.kind == Field::kFlags ? bit : old ^ bit;
      break;
    }
  }
  return f.width == 4 ? v & 0xFFFFFFFFu : v;
}

/// Recomputes a GEMSNAP2 snapshot's trailer: CRC-32C, zero-extended.
void ResealChecksum(std::string& snap) {
  const uint64_t sum =
      Crc32c(std::string_view(snap).substr(0, snap.size() - 8));
  std::memcpy(snap.data() + snap.size() - 8, &sum, 8);
}

// Each round takes a valid snapshot, rewrites one to three of its counts,
// length prefixes and flags words, and recomputes the CRC-32C trailer, so the
// load gets past the checksum and into the parser (the two sweeps above
// only ever fail the checksum). Every load must either succeed or fail
// closed with nothing installed: a loader that installed entries before it
// had validated the whole file would serve part of a damaged one.
TEST(ParserRobustness, SnapshotStructureMutations) {
  VirtualClock clock;
  CacheInstance source(0, &clock);
  for (int i = 0; i < 24; ++i) {
    const std::string value(static_cast<size_t>(i * 7 % 50),
                            static_cast<char>('a' + i % 26));
    ASSERT_TRUE(source
                    .Set(kCtx, "key" + std::to_string(i),
                         CacheValue::OfData(value, static_cast<Version>(i)))
                    .ok());
  }
  // Outstanding Q leases put keys in the quarantine list at the very end of
  // the file: a mutation there fails the load after every entry parsed.
  for (const char* key : {"key3", "key11", "ghost"}) {
    ASSERT_TRUE(source.Qareg(kCtx, key).ok());
  }
  const std::string valid = Snapshot::Serialize(source);
  const std::vector<Field> fields = FieldsOf(valid);
  {
    CacheInstance restored(1, &clock);
    ASSERT_TRUE(Snapshot::Load(restored, valid).ok());
    ASSERT_EQ(restored.stats().entry_count, 22u);  // 24 minus 2 quarantined
  }

  Rng rng(FuzzSeed("snapshot"));
  int loaded = 0;
  int failed = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = valid;
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) {
      const Field& f = fields[rng.NextBounded(fields.size())];
      const uint64_t v = Mutate(rng, f, ReadField(mutated, f));
      std::memcpy(mutated.data() + f.offset, &v, f.width);
    }
    ResealChecksum(mutated);
    CacheInstance scratch(1, &clock);
    const Status s = Snapshot::Load(scratch, mutated);
    if (s.ok()) {
      // A mutation can leave a parseable snapshot (say, it rewrote a field
      // with its own value); then only what the file lists is installed.
      ++loaded;
      EXPECT_LE(scratch.stats().entry_count, ReadField(mutated, fields[0]))
          << "round " << round;
      continue;
    }
    ++failed;
    EXPECT_EQ(s.code(), Code::kInternal) << "round " << round;
    EXPECT_NE(s.message(), "snapshot checksum mismatch") << "round " << round;
    EXPECT_EQ(scratch.stats().entry_count, 0u)
        << "round " << round << ": " << s.ToString();
  }
  std::printf("[ snapshot ] %d mutated snapshots failed closed, %d loaded\n",
              failed, loaded);
  EXPECT_GT(failed, 2000);
}

/// Lists a valid WAL record payload's structural bytes (PROTOCOL.md §9):
/// its type byte, an upsert's reserved pinned byte, and every u32 length
/// prefix.
std::vector<Field> WalFieldsOf(WalRecordType type, std::string_view payload) {
  std::vector<Field> fields = {{Field::kCount, 0, 1}};  // type
  size_t at = 1;
  const auto length_prefixed = [&] {
    fields.push_back({Field::kLength, at, 4});
    at += 4 + ReadField(payload, fields.back());
  };
  switch (type) {
    case WalRecordType::kUpsert:
      fields.push_back({Field::kFlags, 2, 1});  // pinned
      at += 1 + 1 + 8 + 8 + 4;  // origin, pinned, config_id, version, charged
      length_prefixed();        // key
      length_prefixed();        // data
      break;
    case WalRecordType::kDelete:
      at += 1;  // origin
      length_prefixed();
      break;
    case WalRecordType::kQBegin:
    case WalRecordType::kQEnd:
      length_prefixed();
      break;
    case WalRecordType::kConfigId:
      at += 8;
      break;
    case WalRecordType::kQClear:
    case WalRecordType::kWipe:
      break;
  }
  EXPECT_EQ(at, payload.size()) << "the walk must end at the payload's end";
  return fields;
}

// Each round takes a valid frame of one record type, rewrites one or two of
// its payload's type byte, reserved pinned byte and length prefixes, and
// reseals the CRC, so the scan gets past the checksum and into the decoder.
// A valid frame follows it. The mutated frame must either decode, and the
// scan go on to the next frame, or end the scan as an undecodable record:
// a complete frame is never a torn tail. The ASan build checks that the
// decoder never allocates for a length the bytes do not back.
TEST(ParserRobustness, WalRecordStructureMutations) {
  const std::string dir = ::testing::TempDir() + "/parser_robustness_wal";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = Wal::SegmentPath(dir, 0);
  std::vector<std::string> frames;
  for (WalRecordType type :
       {WalRecordType::kUpsert, WalRecordType::kDelete, WalRecordType::kQBegin,
        WalRecordType::kQEnd, WalRecordType::kConfigId, WalRecordType::kQClear,
        WalRecordType::kWipe}) {
    WalRecord rec;
    rec.type = type;
    rec.origin = 3;
    rec.key = "user42";
    rec.data = "payload bytes";
    rec.charged_bytes = 13;
    rec.version = 5;
    rec.config_id = 9;
    Wal::EncodeFrame(frames.emplace_back(), rec);
  }
  constexpr size_t kHeader = 8;  // u32 len | u32 crc32c
  const std::string& next = frames.back();

  Rng rng(FuzzSeed("wal"));
  int decoded = 0;
  int failed = 0;
  for (int round = 0; round < 3000; ++round) {
    const size_t pick = rng.NextBounded(frames.size());
    std::string frame = frames[pick];
    const std::string_view valid = std::string_view(frame).substr(kHeader);
    const std::vector<Field> fields = WalFieldsOf(
        static_cast<WalRecordType>(static_cast<uint8_t>(valid[0])), valid);
    const uint64_t mutations = 1 + rng.NextBounded(2);
    for (uint64_t m = 0; m < mutations; ++m) {
      const Field& f = fields[rng.NextBounded(fields.size())];
      const uint64_t v =
          Mutate(rng, f, ReadField(std::string_view(frame).substr(kHeader), f));
      std::memcpy(frame.data() + kHeader + f.offset, &v, f.width);
    }
    const std::string payload = frame.substr(kHeader);
    const uint32_t crc = Crc32c(payload);
    std::memcpy(frame.data() + 4, &crc, 4);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    const std::string file = frame + next;
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), out), file.size());
    ASSERT_EQ(std::fclose(out), 0);

    const WalScanResult scan = Wal::ScanFile(path);
    EXPECT_FALSE(scan.torn_tail) << "round " << round;
    if (scan.error.ok()) {
      ++decoded;
      ASSERT_EQ(scan.records.size(), 2u) << "round " << round;
      // What decodes re-encodes to its own bytes, except that any nonzero
      // pinned byte decodes as pinned (and replay refuses it).
      const WalRecord& got = scan.records[0];
      if (!got.pinned) {
        std::string again;
        got.EncodeTo(again);
        EXPECT_EQ(again, payload) << "round " << round;
      }
      continue;
    }
    ++failed;
    EXPECT_NE(scan.error.message().find("undecodable record at offset 0"),
              std::string::npos)
        << "round " << round << ": " << scan.error.ToString();
    EXPECT_TRUE(scan.records.empty()) << "round " << round;
  }
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
  std::printf("[ wal ] %d mutated records failed closed, %d decoded\n",
              failed, decoded);
  EXPECT_GT(failed, 2000);
  EXPECT_GT(decoded, 30);
}

}  // namespace
}  // namespace gemini
