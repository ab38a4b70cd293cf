// On-disk snapshot tests: round trips, LRU-order preservation, the
// crash-spanning quarantine rule, and fail-closed corruption handling.
#include "src/cache/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/hash.h"

namespace gemini {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : inst_(0, &clock_), restored_(1, &clock_) {
    for (auto* i : {&inst_, &restored_}) {
      i->GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);
    }
  }
  OpContext Ctx(ConfigId id = 1) { return OpContext{id, 0}; }

  VirtualClock clock_;
  CacheInstance inst_;
  CacheInstance restored_;
};

TEST_F(SnapshotTest, EmptyInstanceRoundTrips) {
  const std::string payload = Snapshot::Serialize(inst_);
  ASSERT_TRUE(Snapshot::Load(restored_, payload).ok());
  EXPECT_EQ(restored_.stats().entry_count, 0u);
}

TEST_F(SnapshotTest, EntriesRoundTripWithVersionsAndConfigIds) {
  ASSERT_TRUE(inst_.Set(Ctx(1), "a", CacheValue::OfData("va", 3)).ok());
  ASSERT_TRUE(inst_.Set(Ctx(5), "b", CacheValue::OfData("vb", 7)).ok());
  ASSERT_TRUE(inst_.Set(Ctx(5), "c", CacheValue::OfSize(512, 9)).ok());

  ASSERT_TRUE(Snapshot::Load(restored_, Snapshot::Serialize(inst_)).ok());
  auto a = restored_.Get(OpContext{5, 0}, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->data, "va");
  EXPECT_EQ(a->version, 3u);
  EXPECT_EQ(*restored_.RawConfigIdOf("a"), 1u);
  EXPECT_EQ(*restored_.RawConfigIdOf("b"), 5u);
  auto c = restored_.Get(OpContext{5, 0}, "c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->charged_bytes, 512u);
  EXPECT_EQ(c->version, 9u);
}

TEST_F(SnapshotTest, LruOrderSurvivesRestore) {
  // Restore into a bounded cache and check the eviction order matches the
  // original recency order.
  CacheInstance::Options small;
  small.capacity_bytes = 2 * (1 + 10 + small.per_entry_overhead);
  CacheInstance bounded(2, &clock_, small);
  bounded.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 1);

  ASSERT_TRUE(inst_.Set(Ctx(), "a", CacheValue::OfSize(10)).ok());
  ASSERT_TRUE(inst_.Set(Ctx(), "b", CacheValue::OfSize(10)).ok());
  ASSERT_TRUE(inst_.Set(Ctx(), "c", CacheValue::OfSize(10)).ok());
  ASSERT_TRUE(inst_.Get(Ctx(), "a").ok());  // recency: a, c, b

  ASSERT_TRUE(Snapshot::Load(bounded, Snapshot::Serialize(inst_)).ok());
  // Capacity of 2: the coldest ("b") must be the one evicted.
  EXPECT_TRUE(bounded.ContainsRaw("a"));
  EXPECT_TRUE(bounded.ContainsRaw("c"));
  EXPECT_FALSE(bounded.ContainsRaw("b"));
}

TEST_F(SnapshotTest, QuarantinedKeysAreNotRestored) {
  // The writer updated the store but never completed its delete: the entry
  // must not survive into the restored instance.
  ASSERT_TRUE(inst_.Set(Ctx(), "clean", CacheValue::OfData("v")).ok());
  ASSERT_TRUE(inst_.Set(Ctx(), "dirty", CacheValue::OfData("old")).ok());
  ASSERT_TRUE(inst_.Qareg(Ctx(), "dirty").ok());

  ASSERT_TRUE(Snapshot::Load(restored_, Snapshot::Serialize(inst_)).ok());
  EXPECT_TRUE(restored_.ContainsRaw("clean"));
  EXPECT_FALSE(restored_.ContainsRaw("dirty"));
}

TEST_F(SnapshotTest, CorruptionFailsClosed) {
  ASSERT_TRUE(inst_.Set(Ctx(), "a", CacheValue::OfData("va")).ok());
  std::string payload = Snapshot::Serialize(inst_);

  // Flip a byte in the middle: checksum mismatch.
  std::string corrupted = payload;
  corrupted[payload.size() / 2] ^= 0x5a;
  EXPECT_EQ(Snapshot::Load(restored_, corrupted).code(), Code::kInternal);

  // Truncation.
  EXPECT_EQ(
      Snapshot::Load(restored_, payload.substr(0, payload.size() - 3)).code(),
      Code::kInternal);

  // Wrong magic.
  std::string wrong = payload;
  wrong[0] = 'X';
  EXPECT_EQ(Snapshot::Load(restored_, wrong).code(), Code::kInternal);

  // Nothing was partially installed from the corrupt payloads.
  EXPECT_EQ(restored_.stats().entry_count, 0u);
}

TEST_F(SnapshotTest, HugeEntryCountFailsClosedWithoutAllocating) {
  // A well-formed 32-byte checkpoint (valid checksum) whose header claims
  // 2^40 entries: the loader must report damage, not reserve 2^40 slots.
  // Both versions: GEMSNAP2 sums with CRC-32C, GEMSNAP1 with FNV-1a.
  for (const std::string_view magic : {"GEMSNAP2", "GEMSNAP1"}) {
    std::string payload(magic);
    for (const uint64_t field : {uint64_t{1} << 40, uint64_t{0}}) {
      payload.append(reinterpret_cast<const char*>(&field), sizeof(field));
    }
    const uint64_t sum =
        magic == "GEMSNAP2" ? uint64_t{Crc32c(payload)} : Fnv1a64(payload);
    payload.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
    ASSERT_EQ(payload.size(), 32u);
    const Status s = Snapshot::Load(restored_, payload);
    EXPECT_EQ(s.code(), Code::kInternal) << magic;
    EXPECT_EQ(s.message(), "snapshot entry corrupt") << magic;
    EXPECT_EQ(restored_.stats().entry_count, 0u);
  }
}

TEST_F(SnapshotTest, FileRoundTrip) {
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("file-v", 2)).ok());
  const std::string path = ::testing::TempDir() + "/gemini_snapshot_test.bin";
  ASSERT_TRUE(Snapshot::WriteToFile(inst_, path).ok());
  ASSERT_TRUE(Snapshot::LoadFromFile(restored_, path).ok());
  auto v = restored_.Get(Ctx(), "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, "file-v");
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, OnDiskCorruptionFailsClosed) {
  // File-level fail-closed check: a snapshot torn *on disk* (bit rot, a
  // crash mid-write that fsync ordering did not cover) must be rejected by
  // LoadFromFile, never partially installed.
  ASSERT_TRUE(inst_.Set(Ctx(), "k", CacheValue::OfData("payload", 4)).ok());
  const std::string path = ::testing::TempDir() + "/gemini_corrupt_test.bin";
  ASSERT_TRUE(Snapshot::WriteToFile(inst_, path).ok());

  // Flip one byte in the middle of the file.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_GT(size, 0);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, size / 2, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0x5a, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);

  EXPECT_EQ(Snapshot::LoadFromFile(restored_, path).code(), Code::kInternal);
  EXPECT_EQ(restored_.stats().entry_count, 0u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(
      Snapshot::LoadFromFile(restored_, "/nonexistent/gemini.snap").code(),
      Code::kNotFound);
}

TEST_F(SnapshotTest, CrashRestartRecoveryEndToEnd) {
  // Full durability cycle: snapshot, destroy the process state, restore
  // into a brand-new instance, and verify Gemini-relevant state (config-id
  // stamps) is intact for the Rejig validity rule.
  ASSERT_TRUE(inst_.Set(Ctx(1), "old-epoch", CacheValue::OfData("v1")).ok());
  inst_.GrantFragmentLease(0, 1, clock_.Now() + Seconds(3600), 4);
  ASSERT_TRUE(
      inst_.Set(OpContext{4, 0}, "new-epoch", CacheValue::OfData("v4")).ok());
  const std::string path = ::testing::TempDir() + "/gemini_crash_test.bin";
  ASSERT_TRUE(Snapshot::WriteToFile(inst_, path).ok());

  CacheInstance reborn(7, &clock_);
  ASSERT_TRUE(Snapshot::LoadFromFile(reborn, path).ok());
  // A fragment lease with min-valid 3 must accept the new-epoch entry and
  // lazily discard the old-epoch one — stamps survived the restart.
  reborn.GrantFragmentLease(0, 3, clock_.Now() + Seconds(3600), 4);
  EXPECT_TRUE(reborn.Get(OpContext{4, 0}, "new-epoch").ok());
  EXPECT_EQ(reborn.Get(OpContext{4, 0}, "old-epoch").code(),
            Code::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gemini
