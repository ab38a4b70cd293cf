// Parser robustness: the three wire formats (configuration entries, dirty
// lists, snapshots) are parsed from cache-resident or on-disk bytes that an
// operator, an eviction, or a torn write can mangle. Deterministic
// fuzz-like sweeps assert "never crash, fail closed".
#include <gtest/gtest.h>

#include <string>

#include "src/cache/dirty_list.h"
#include "src/cache/snapshot.h"
#include "src/common/rng.h"
#include "src/coordinator/configuration.h"

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

}  // namespace
}  // namespace gemini
