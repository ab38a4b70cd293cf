// WAL unit tests: record encode/decode roundtrips, the torn-tail vs
// corruption classification that recovery's fail-closed rule hangs on,
// fsync on request, segment rotation and reservation, and
// checkpoint-directory listing/GC.
// Golden bytes lock one WAL upsert frame and one checkpoint, so an encoder
// change that would strand existing data dirs fails here first; a data dir
// built from them must keep booting, and one whose reserved write-back bits
// are set must be refused by name.
#include "src/persist/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <ftw.h>
#include <sys/stat.h>

#include "src/cache/snapshot.h"
#include "src/common/hash.h"
#include "src/persist/checkpoint.h"
#include "src/persist/persistent_store.h"

namespace gemini {
namespace {

int RemoveEntry(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class WalTest : public ::testing::Test {
 protected:
  std::string TempDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/wal_" + name;
    RemoveTree(dir);
    ::mkdir(dir.c_str(), 0755);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const auto& d : dirs_) RemoveTree(d);
  }

  static WalRecord FullUpsert() {
    WalRecord rec;
    rec.type = WalRecordType::kUpsert;
    rec.origin = 2;
    rec.key = "user42";
    rec.data = std::string("payload\0with\xff" "bytes", 18);
    rec.charged_bytes = 329;
    rec.version = 0x1122334455667788ull;
    rec.config_id = 7;
    return rec;
  }

  std::vector<std::string> dirs_;
};

TEST_F(WalTest, Crc32cMatchesKnownVector) {
  // The canonical CRC-32C check vector (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Incremental seeding composes.
  const uint32_t partial = Crc32c("12345");
  EXPECT_EQ(Crc32c("6789", partial), Crc32c("123456789"));

  // The dispatched implementation (hardware crc32 where the CPU has it)
  // must match the table reference bit for bit at every length, or logs
  // written on one machine would fail CRC on another.
  std::string buf;
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(Crc32c(buf), Crc32cSoftware(buf)) << "len " << i;
    buf.push_back(static_cast<char>(i * 131 + 17));
  }
}

TEST_F(WalTest, RecordRoundTripsEveryType) {
  for (WalRecordType type :
       {WalRecordType::kUpsert, WalRecordType::kDelete, WalRecordType::kQBegin,
        WalRecordType::kQEnd, WalRecordType::kConfigId, WalRecordType::kQClear,
        WalRecordType::kWipe}) {
    WalRecord rec = FullUpsert();
    rec.type = type;
    std::string payload;
    rec.EncodeTo(payload);
    WalRecord out;
    ASSERT_TRUE(WalRecord::Decode(payload, out))
        << "type " << static_cast<int>(type);
    EXPECT_EQ(out.type, rec.type);
    switch (type) {
      case WalRecordType::kUpsert:
        EXPECT_EQ(out.origin, rec.origin);
        EXPECT_EQ(out.key, rec.key);
        EXPECT_EQ(out.data, rec.data);
        EXPECT_EQ(out.charged_bytes, rec.charged_bytes);
        EXPECT_EQ(out.version, rec.version);
        EXPECT_EQ(out.config_id, rec.config_id);
        break;
      case WalRecordType::kDelete:
      case WalRecordType::kQBegin:
      case WalRecordType::kQEnd:
        EXPECT_EQ(out.key, rec.key);
        EXPECT_TRUE(out.data.empty());
        break;
      case WalRecordType::kConfigId:
        EXPECT_EQ(out.config_id, rec.config_id);
        EXPECT_TRUE(out.key.empty());
        break;
      case WalRecordType::kQClear:
      case WalRecordType::kWipe:
        EXPECT_TRUE(out.key.empty());
        break;
    }
  }
}

TEST_F(WalTest, DecodeRejectsMalformedPayloads) {
  WalRecord out;
  // Empty, unknown type, truncated fields, and trailing garbage all fail.
  EXPECT_FALSE(WalRecord::Decode("", out));
  EXPECT_FALSE(WalRecord::Decode(std::string(1, '\xff'), out));
  std::string payload;
  FullUpsert().EncodeTo(payload);
  for (size_t len = 1; len < payload.size(); ++len) {
    EXPECT_FALSE(WalRecord::Decode(payload.substr(0, len), out))
        << "prefix of length " << len << " decoded";
  }
  EXPECT_FALSE(WalRecord::Decode(payload + "x", out));
}

TEST_F(WalTest, AppendScanRoundTrip) {
  const std::string dir = TempDir("roundtrip");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  std::vector<WalRecord> written;
  for (int i = 0; i < 20; ++i) {
    WalRecord rec = FullUpsert();
    rec.key = "k" + std::to_string(i);
    rec.version = static_cast<Version>(i);
    written.push_back(rec);
    ASSERT_TRUE(wal.Append(rec, /*sync_now=*/false).ok());
  }
  wal.Close();

  WalScanResult scan = Wal::ScanFile(Wal::SegmentPath(dir, 0));
  ASSERT_TRUE(scan.error.ok()) << scan.error.ToString();
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  ASSERT_EQ(scan.records.size(), written.size());
  ASSERT_EQ(scan.record_ends.size(), written.size());
  EXPECT_EQ(scan.record_ends.back(), scan.valid_bytes);
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(scan.records[i].key, written[i].key);
    EXPECT_EQ(scan.records[i].data, written[i].data);
    EXPECT_EQ(scan.records[i].version, written[i].version);
  }
}

TEST_F(WalTest, EagerSyncBypassesBatchAndBatchedSyncAccumulates) {
  const std::string dir = TempDir("sync");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  const uint64_t base = wal.fsync_count();

  WalRecord rec = FullUpsert();
  ASSERT_TRUE(wal.Append(rec, /*sync_now=*/false).ok());
  ASSERT_TRUE(wal.Append(rec, /*sync_now=*/false).ok());
  EXPECT_EQ(wal.fsync_count(), base);  // still inside the batch

  ASSERT_TRUE(wal.Append(rec, /*sync_now=*/true).ok());
  EXPECT_EQ(wal.fsync_count(), base + 1);  // eager record paid one fsync

  ASSERT_TRUE(wal.Sync().ok());  // nothing unsynced: no extra fsync
  EXPECT_EQ(wal.fsync_count(), base + 1);

  ASSERT_TRUE(wal.Append(rec, /*sync_now=*/false).ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.fsync_count(), base + 2);
  wal.Close();
}

TEST_F(WalTest, TruncationMidFrameIsATornTailNotCorruption) {
  const std::string dir = TempDir("torn");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  for (int i = 0; i < 5; ++i) {
    WalRecord rec = FullUpsert();
    rec.key = "k" + std::to_string(i);
    ASSERT_TRUE(wal.Append(rec, false).ok());
  }
  wal.Close();
  const std::string path = Wal::SegmentPath(dir, 0);
  WalScanResult intact = Wal::ScanFile(path);
  ASSERT_TRUE(intact.error.ok());
  ASSERT_EQ(intact.records.size(), 5u);

  // Cut inside the last frame: payload claims bytes past EOF.
  const std::string bytes = ReadFileBytes(path);
  const uint64_t third_end = intact.record_ends[2];
  WriteFileBytes(path, bytes.substr(0, third_end + 10));

  WalScanResult scan = Wal::ScanFile(path);
  EXPECT_TRUE(scan.error.ok()) << scan.error.ToString();
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.valid_bytes, third_end);

  // Cut inside the frame *header* (fewer than 8 bytes left): still torn.
  WriteFileBytes(path, bytes.substr(0, third_end + 3));
  scan = Wal::ScanFile(path);
  EXPECT_TRUE(scan.error.ok());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 3u);

  // Cut exactly at a record boundary: clean, no torn tail.
  WriteFileBytes(path, bytes.substr(0, third_end));
  scan = Wal::ScanFile(path);
  EXPECT_TRUE(scan.error.ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 3u);
}

TEST_F(WalTest, BitFlipInACompleteFrameIsCorruptionAndFailsClosed) {
  const std::string dir = TempDir("corrupt");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  for (int i = 0; i < 4; ++i) {
    WalRecord rec = FullUpsert();
    rec.key = "k" + std::to_string(i);
    ASSERT_TRUE(wal.Append(rec, false).ok());
  }
  wal.Close();
  const std::string path = Wal::SegmentPath(dir, 0);
  WalScanResult intact = Wal::ScanFile(path);
  ASSERT_EQ(intact.records.size(), 4u);

  // Flip one payload byte of the second record: the frame is fully present,
  // so this is rot/overwrite damage — never a legal crash shape.
  std::string bytes = ReadFileBytes(path);
  bytes[intact.record_ends[0] + 8] ^= 0x01;
  WriteFileBytes(path, bytes);

  WalScanResult scan = Wal::ScanFile(path);
  EXPECT_FALSE(scan.error.ok());
  EXPECT_EQ(scan.error.code(), Code::kInternal);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);  // the prefix before the damage
}

TEST_F(WalTest, UndecodablePayloadWithValidCrcIsCorruption) {
  const std::string dir = TempDir("undecodable");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  ASSERT_TRUE(wal.Append(FullUpsert(), false).ok());
  wal.Close();
  const std::string path = Wal::SegmentPath(dir, 0);

  // Craft a frame whose CRC is right but whose payload has an unknown type:
  // a complete frame that cannot decode must fail closed, not be skipped.
  const std::string payload(1, '\xfe');
  const uint32_t crc = Crc32c(payload);
  std::string frame;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame += payload;
  WriteFileBytes(path, ReadFileBytes(path) + frame);

  WalScanResult scan = Wal::ScanFile(path);
  EXPECT_FALSE(scan.error.ok());
  EXPECT_EQ(scan.error.code(), Code::kInternal);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST_F(WalTest, OversizedLengthClaimingPastEofIsTorn) {
  const std::string dir = TempDir("oversized");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  ASSERT_TRUE(wal.Append(FullUpsert(), false).ok());
  wal.Close();
  const std::string path = Wal::SegmentPath(dir, 0);

  // A garbage header whose length field claims far past EOF reads as a torn
  // append, because a real torn header is indistinguishable from it.
  std::string tail(8, '\0');
  const uint32_t huge = 0x7fffffffu;
  std::memcpy(tail.data(), &huge, 4);
  WriteFileBytes(path, ReadFileBytes(path) + tail);

  WalScanResult scan = Wal::ScanFile(path);
  EXPECT_TRUE(scan.error.ok()) << scan.error.ToString();
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST_F(WalTest, RotateAdvancesSegmentsAndNamesParse) {
  const std::string dir = TempDir("rotate");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 3).ok());
  EXPECT_EQ(wal.seq(), 3u);
  ASSERT_TRUE(wal.Append(FullUpsert(), false).ok());
  ASSERT_TRUE(wal.Rotate().ok());
  EXPECT_EQ(wal.seq(), 4u);
  EXPECT_EQ(wal.segment_bytes(), 0u);
  ASSERT_TRUE(wal.Append(FullUpsert(), false).ok());
  ASSERT_TRUE(wal.Append(FullUpsert(), false).ok());
  wal.Close();

  EXPECT_EQ(Wal::ScanFile(Wal::SegmentPath(dir, 3)).records.size(), 1u);
  EXPECT_EQ(Wal::ScanFile(Wal::SegmentPath(dir, 4)).records.size(), 2u);

  uint64_t seq = 0;
  ASSERT_TRUE(Wal::ParseSegmentName("wal-0000000000000004.log", seq));
  EXPECT_EQ(seq, 4u);
  EXPECT_FALSE(Wal::ParseSegmentName("wal-xyz.log", seq));
  EXPECT_FALSE(Wal::ParseSegmentName("checkpoint-0000000000000004.snap", seq));

  DirListing listing;
  CheckpointManager manager(dir);
  ASSERT_TRUE(manager.List(listing).ok());
  // Segment 5 is the empty one segment 4 reserved.
  EXPECT_EQ(listing.wal_seqs, (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_TRUE(listing.checkpoint_seqs.empty());
}

TEST_F(WalTest, PreallocateCreatesEmptyNextSegmentWithReservedBlocks) {
  const std::string dir = TempDir("prealloc");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());

  // The next segment exists, is zero-length (KEEP_SIZE), and scans as an
  // empty segment — the crash-after-rotation shape replay accepts.
  const std::string next = Wal::SegmentPath(dir, 1);
  struct stat st {};
  ASSERT_EQ(::stat(next.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 0);
  WalScanResult scan = Wal::ScanFile(next);
  EXPECT_TRUE(scan.error.ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());

  // Rotation lands on the reserved file, appends normally, and reserves the
  // one after — the preallocation keeps running ahead of the writer.
  ASSERT_TRUE(wal.Append(FullUpsert(), true).ok());
  ASSERT_TRUE(wal.Rotate().ok());
  EXPECT_EQ(wal.seq(), 1u);
  ASSERT_TRUE(wal.Append(FullUpsert(), true).ok());
  wal.Close();
  ASSERT_EQ(::stat(Wal::SegmentPath(dir, 2).c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 0);
  EXPECT_EQ(Wal::ScanFile(Wal::SegmentPath(dir, 1)).records.size(), 1u);
}

TEST_F(WalTest, GarbageCollectDropsCoveredFilesOnly) {
  const std::string dir = TempDir("gc");
  Wal wal;
  ASSERT_TRUE(wal.Open(dir, 0).ok());
  ASSERT_TRUE(wal.Rotate().ok());
  ASSERT_TRUE(wal.Rotate().ok());
  wal.Close();

  CheckpointManager manager(dir);
  ASSERT_TRUE(manager.GarbageCollect(2).ok());
  DirListing listing;
  ASSERT_TRUE(manager.List(listing).ok());
  EXPECT_EQ(listing.wal_seqs, (std::vector<uint64_t>{2, 3}));
}

TEST_F(WalTest, EmptyAndMissingFilesScanClean) {
  const std::string dir = TempDir("empty");
  WriteFileBytes(dir + "/wal-0000000000000000.log", "");
  WalScanResult scan = Wal::ScanFile(Wal::SegmentPath(dir, 0));
  EXPECT_TRUE(scan.error.ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());

  scan = Wal::ScanFile(dir + "/no-such-file.log");
  EXPECT_FALSE(scan.error.ok());
}

// ---- On-disk golden bytes ---------------------------------------------------

// frame: u32 len 36 | u32 crc32c | payload: u8 type 1 (kUpsert) | u8 origin
// 0 (kSet) | u8 pinned 0 | u64 config_id 7 | u64 version 5 | u32 charged 3 |
// u32 2 "k2" | u32 3 "val".
constexpr char kGoldenUpsertFrame[] =
    "24000000" "b5d94c5c"
    "01" "00" "00" "0700000000000000" "0500000000000000" "03000000"
    "02000000" "6b32" "03000000" "76616c";
constexpr size_t kUpsertPinnedOffset = 8 + 2;

// magic "GEMSNAP2" | u64 1 entry | u64 1 quarantined key | entry: u32 2 "k1"
// | u32 3 "val" | u32 charged 3 | u64 version 5 | u64 config_id 7 | u32
// flags 0 | quarantined: u32 2 "q1" | u64 CRC-32C of everything before it,
// zero-extended.
constexpr char kGoldenCheckpoint[] =
    "47454d534e415032" "0100000000000000" "0100000000000000"
    "02000000" "6b31" "03000000" "76616c" "03000000" "0500000000000000"
    "0700000000000000" "00000000"
    "02000000" "7131"
    "16e0573100000000";
// The same checkpoint as version 1 wrote it, which boot still reads: magic
// "GEMSNAP1" and a u64 FNV-1a trailer.
constexpr char kGoldenCheckpointV1[] =
    "47454d534e415031" "0100000000000000" "0100000000000000"
    "02000000" "6b31" "03000000" "76616c" "03000000" "0500000000000000"
    "0700000000000000" "00000000"
    "02000000" "7131"
    "2477d488d813a10e";
constexpr size_t kCheckpointFlagsOffset = 8 + 8 + 8 + 6 + 7 + 4 + 8 + 8;

/// Rewrites a checkpoint's trailer with `sum` of everything before it.
void SetTrailer(std::string& checkpoint, uint64_t sum) {
  std::memcpy(checkpoint.data() + checkpoint.size() - 8, &sum, 8);
}

/// The trailer a checkpoint's magic names: CRC-32C for GEMSNAP2, FNV-1a for
/// GEMSNAP1.
uint64_t TrailerOf(std::string_view checkpoint, bool v2) {
  const std::string_view checked = checkpoint.substr(0, checkpoint.size() - 8);
  return v2 ? uint64_t{Crc32c(checked)} : Fnv1a64(checked);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// A store booted from checkpoint 1 plus WAL segment 1 holding one frame:
/// the shape a killed geminid leaves. The store is declared after the
/// instance, so it closes before the instance its checkpoint thread walks
/// is destroyed.
struct BootedDir {
  VirtualClock clock;
  std::unique_ptr<CacheInstance> instance;
  std::unique_ptr<PersistentStore> store;
  Status opened;

  BootedDir(const std::string& dir, const std::string& checkpoint,
            const std::string& frame) {
    WriteFileBytes(CheckpointManager(dir).CheckpointPath(1), checkpoint);
    WriteFileBytes(Wal::SegmentPath(dir, 1), frame);
    store = std::make_unique<PersistentStore>(dir);
    CacheInstance::Options opts;
    opts.persistence = store.get();
    instance = std::make_unique<CacheInstance>(1, &clock, opts);
    opened = store->Open(*instance);
  }
};

/// A refusal names write-back and is not reported as corruption.
void ExpectWriteBackRefusal(const Status& s) {
  EXPECT_EQ(s.code(), Code::kInternal);
  EXPECT_NE(s.message().find("write-back"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(s.message().find("corrupt"), std::string::npos) << s.ToString();
}

TEST_F(WalTest, UpsertFrameGoldenBytes) {
  WalUpsertRef view;  // the live path's encoder
  view.key = "k2";
  view.data = "val";
  view.charged_bytes = 3;
  view.version = 5;
  view.config_id = 7;
  std::string frame;
  Wal::EncodeFrame(frame, view);
  EXPECT_EQ(Hex(frame), kGoldenUpsertFrame);

  // Replay decodes both through WalRecord, which encodes the same bytes.
  WalRecord rec;
  rec.type = WalRecordType::kUpsert;
  rec.key = "k2";
  rec.data = "val";
  rec.charged_bytes = 3;
  rec.version = 5;
  rec.config_id = 7;
  std::string owned;
  Wal::EncodeFrame(owned, rec);
  EXPECT_EQ(Hex(owned), kGoldenUpsertFrame);
}

TEST_F(WalTest, CheckpointGoldenBytes) {
  VirtualClock clock;
  CacheInstance instance(1, &clock);
  ASSERT_TRUE(
      instance.RestoreEntry("k1", CacheValue::OfData("val", 5), 7).ok());
  // An outstanding Q lease: the checkpoint lists the key as quarantined.
  ASSERT_TRUE(
      instance.Qareg(OpContext{kInternalConfigId, kInvalidFragment}, "q1")
          .ok());
  EXPECT_EQ(Hex(Snapshot::Serialize(instance)), kGoldenCheckpoint);
}

TEST_F(WalTest, GoldenDataDirBoots) {
  for (const char* golden : {kGoldenCheckpoint, kGoldenCheckpointV1}) {
    const bool v2 = golden == kGoldenCheckpoint;
    SCOPED_TRACE(v2 ? "GEMSNAP2" : "GEMSNAP1");
    BootedDir booted(TempDir(v2 ? "golden2" : "golden1"), Unhex(golden),
                     Unhex(kGoldenUpsertFrame));
    ASSERT_TRUE(booted.opened.ok()) << booted.opened.ToString();
    EXPECT_EQ(booted.store->stats().restored_entries, 2u);
    for (const char* key : {"k1", "k2"}) {
      auto v = booted.instance->RawGet(key);
      ASSERT_TRUE(v.has_value()) << key;
      EXPECT_EQ(v->data, "val");
      EXPECT_EQ(v->version, 5u);
      EXPECT_EQ(booted.instance->RawConfigIdOf(key).value_or(0), 7u);
    }
    EXPECT_FALSE(booted.instance->ContainsRaw("q1"));
  }
}

// Each version's magic names its checksum: a trailer computed the other
// version's way is damage, and fails closed.
TEST_F(WalTest, CheckpointTrailerMustBeTheOneItsMagicNames) {
  for (const char* golden : {kGoldenCheckpoint, kGoldenCheckpointV1}) {
    const bool v2 = golden == kGoldenCheckpoint;
    SCOPED_TRACE(v2 ? "GEMSNAP2" : "GEMSNAP1");
    std::string checkpoint = Unhex(golden);
    SetTrailer(checkpoint, TrailerOf(checkpoint, !v2));
    VirtualClock clock;
    CacheInstance instance(1, &clock);
    const Status s = Snapshot::Load(instance, checkpoint);
    EXPECT_EQ(s.code(), Code::kInternal);
    EXPECT_EQ(s.message(), "snapshot checksum mismatch");
    EXPECT_EQ(instance.stats().entry_count, 0u);
    EXPECT_FALSE(BootedDir(TempDir(v2 ? "swapped2" : "swapped1"), checkpoint,
                           Unhex(kGoldenUpsertFrame))
                     .opened.ok());
  }
}

// The checksums are recomputed: a valid frame and file, not corruption.
TEST_F(WalTest, UpsertWithPinnedByteRefusesToBoot) {
  std::string frame = Unhex(kGoldenUpsertFrame);
  frame[kUpsertPinnedOffset] = 1;
  const uint32_t crc = Crc32c(std::string_view(frame).substr(8));
  std::memcpy(frame.data() + 4, &crc, 4);
  ExpectWriteBackRefusal(
      BootedDir(TempDir("pinned"), Unhex(kGoldenCheckpoint), frame).opened);
}

TEST_F(WalTest, CheckpointEntryWithWriteBackFlagRefusesToBoot) {
  for (const char* golden : {kGoldenCheckpoint, kGoldenCheckpointV1}) {
    const bool v2 = golden == kGoldenCheckpoint;
    SCOPED_TRACE(v2 ? "GEMSNAP2" : "GEMSNAP1");
    std::string checkpoint = Unhex(golden);
    checkpoint[kCheckpointFlagsOffset] = 1;
    SetTrailer(checkpoint, TrailerOf(checkpoint, v2));
    ExpectWriteBackRefusal(BootedDir(TempDir(v2 ? "flagged2" : "flagged1"),
                                     checkpoint, Unhex(kGoldenUpsertFrame))
                               .opened);
  }
}

}  // namespace
}  // namespace gemini
