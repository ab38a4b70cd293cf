// ALICE-style crash-point matrix: a seeded FaultFile schedule cuts,
// record-truncates, or torn-writes the WAL a killed process left behind,
// and recovery must — for EVERY mutation — either restore a consistent
// prefix of history or fail closed. The oracle is an independent test-local
// replay of the scanned records; silently divergent state (the one true
// failure: a stale lease or value nobody can detect) fails the test.
//
// Seeded via GEMINI_FAULT_SEED (echoed below so CI failures replay exactly);
// each base seed expands to a 21-seed x 3-kind matrix.
//
// The crash-window cases at the end cover the eager records geminid does not
// wait for under its locks (QBegin, the recovery-mode ISet/IDelete deletes,
// the config-id advance): another client sees the op's in-memory effect
// before the record is durable, the log is cut just before the record, and
// the restart must lose no acknowledged op and serve no stale value.
#include "src/persist/fault_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <ftw.h>
#include <sys/stat.h>

#include "src/cache/cache_instance.h"
#include "src/cache/persistence_sink.h"
#include "src/persist/checkpoint.h"
#include "src/persist/persistent_store.h"
#include "src/persist/wal.h"

namespace gemini {
namespace {

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

int RemoveEntry(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

void CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  ASSERT_TRUE(in.good()) << from;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  // operator<<(streambuf*) sets failbit when zero characters transfer, but
  // an empty segment is a legal crash shape (killed right after rotation
  // opened — or preallocated — the next segment).
  ASSERT_TRUE(out.good() || in.peek() == std::ifstream::traits_type::eof())
      << to;
}

uint64_t BaseSeed() {
  uint64_t seed = 1;
  if (const char* env = std::getenv("GEMINI_FAULT_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[ crashpt  ] GEMINI_FAULT_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// What the durable medium restored for one key.
struct EntryImage {
  std::string data;
  Version version = 0;
  ConfigId config_id = 0;

  bool operator==(const EntryImage& o) const {
    return data == o.data && version == o.version &&
           config_id == o.config_id;
  }
};

/// Independent replay of a scanned record sequence: last-writer-wins per
/// key, QBegin/QEnd counting with the crash-spanning drop rule, config-id
/// max. Deliberately re-implemented here (not shared with PersistentStore)
/// so the test checks the recovery code against a second opinion.
struct OracleState {
  std::map<std::string, EntryImage> entries;
  std::map<std::string, int64_t> qcount;
  ConfigId max_config = 0;

  void Apply(const WalRecord& rec) {
    switch (rec.type) {
      case WalRecordType::kUpsert:
        entries[rec.key] = EntryImage{rec.data, rec.version, rec.config_id};
        break;
      case WalRecordType::kDelete:
        entries.erase(rec.key);
        break;
      case WalRecordType::kQBegin:
        ++qcount[rec.key];
        break;
      case WalRecordType::kQEnd:
        if (qcount[rec.key] > 0) --qcount[rec.key];
        break;
      case WalRecordType::kConfigId:
        max_config = std::max(max_config, rec.config_id);
        break;
      case WalRecordType::kQClear:
        qcount.clear();
        break;
      case WalRecordType::kWipe:
        entries.clear();
        qcount.clear();
        break;
    }
  }

  void Finish() {
    for (const auto& [key, count] : qcount) {
      if (count > 0) entries.erase(key);
    }
    for (const auto& [key, image] : entries) {
      max_config = std::max(max_config, image.config_id);
    }
  }
};

class CrashPointTest : public ::testing::Test {
 protected:
  std::string TempDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/crashpt_" + name;
    RemoveTree(dir);
    ::mkdir(dir.c_str(), 0755);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const auto& d : dirs_) RemoveTree(d);
  }

  /// Builds the base image a kill -9 would leave behind: no checkpoint (an
  /// empty dir boots without one) and one WAL segment holding a workload
  /// with every record type, including two quarantines still in flight at
  /// the "crash", then the empty segment its boot reserved.
  void BuildBaseImage(const std::string& dir) {
    auto store = std::make_unique<PersistentStore>(dir);
    CacheInstance::Options opts;
    opts.persistence = store.get();
    CacheInstance instance(1, &clock_, opts);
    ASSERT_TRUE(store->Open(instance).ok());
    wal_seq_ = store->wal_seq();

    // Q-protected overwrite cycles with increasing versions.
    for (int i = 0; i < 6; ++i) {
      const std::string key = "q" + std::to_string(i);
      for (Version v = 1; v <= 3; ++v) {
        auto t = instance.Qareg(kCtx, key);
        ASSERT_TRUE(t.ok());
        ASSERT_TRUE(instance
                        .Rar(kCtx, key,
                             CacheValue::OfData(
                                 key + "#" + std::to_string(v), v),
                             *t)
                        .ok());
      }
    }
    // Plain sets, an append chain, deletes, a config bump.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(instance
                      .Set(kCtx, "s" + std::to_string(i),
                           CacheValue::OfData("sv" + std::to_string(i),
                                              static_cast<Version>(i)))
                      .ok());
    }
    ASSERT_TRUE(instance.Append(kCtx, "chain", "a;").ok());
    ASSERT_TRUE(instance.Append(kCtx, "chain", "b;").ok());
    ASSERT_TRUE(instance.Delete(kCtx, "s0").ok());
    ASSERT_TRUE(instance.ObserveConfigId(5).ok());
    // Recovery-mode invalidations and a lease grant that advances the
    // config id, run as geminid's event loop runs them: inside an outer
    // EagerScope, so the ops do not wait and the records' durability is
    // awaited once per op, the way a held reply is released. Every prefix
    // cut before one of these records is a crash inside its window.
    for (int i = 1; i <= 3; ++i) {
      const std::string key = "s" + std::to_string(i);
      EagerScope loop;
      auto token = instance.ISet(kCtx, key);
      ASSERT_TRUE(token.ok());
      ASSERT_TRUE(instance.IDelete(kCtx, key, *token).ok());
      ASSERT_TRUE(store->WaitDurable(loop.lsn()).ok());
    }
    {
      EagerScope loop;
      ASSERT_TRUE(
          instance.GrantFragmentLease(2, 6, clock_.Now() + Seconds(60), 6)
              .ok());
      ASSERT_TRUE(store->WaitDurable(loop.lsn()).ok());
    }
    // Write-around delete cycle.
    auto td = instance.Qareg(kCtx, "q0");
    ASSERT_TRUE(td.ok());
    ASSERT_TRUE(instance.Dar(kCtx, "q0", *td).ok());
    // Two quarantines left in flight at the crash: one over an existing
    // value (the dangerous stale-read shape) and one over a miss.
    auto t1 = instance.Qareg(kCtx, "q1");
    ASSERT_TRUE(t1.ok());
    auto t2 = instance.Qareg(kCtx, "fresh");
    ASSERT_TRUE(t2.ok());

    store.reset();  // kill: no checkpoint, the WAL is the only history
  }

  /// Runs recovery against one mutated copy and checks the oracle, twice
  /// for a log that recovers. Returns true when recovery succeeded (vs
  /// failed closed).
  bool RunCase(const std::string& base, const std::string& scratch,
               const FaultPlan& plan, const std::string& label) {
    RemoveTree(scratch);
    ::mkdir(scratch.c_str(), 0755);
    DirListing listing;
    CheckpointManager manager(base);
    EXPECT_TRUE(manager.List(listing).ok());
    for (uint64_t seq : listing.checkpoint_seqs) {
      CopyFile(manager.CheckpointPath(seq),
               CheckpointManager(scratch).CheckpointPath(seq));
    }
    for (uint64_t seq : listing.wal_seqs) {
      CopyFile(Wal::SegmentPath(base, seq), Wal::SegmentPath(scratch, seq));
    }
    const std::string target = Wal::SegmentPath(scratch, wal_seq_);
    EXPECT_TRUE(FaultFile::Apply(target, plan).ok()) << label;

    // The classification ScanFile reports is the contract recovery must
    // honor: corrupt => fail closed; clean or torn => recover exactly the
    // oracle's state.
    WalScanResult scan = Wal::ScanFile(target);

    if (!scan.error.ok()) {
      CacheInstance instance(1, &clock_);
      PersistentStore store(scratch);  // declared last: closes first
      instance.SetPersistenceSink(&store);
      EXPECT_FALSE(store.Open(instance).ok())
          << label << ": recovery accepted a corrupt log";
      return false;
    }

    OracleState oracle;
    for (const WalRecord& rec : scan.records) oracle.Apply(rec);
    oracle.Finish();

    // The recovered prefix boots twice: the first boot is killed before or
    // after its checkpoint lands, and replaying the log again must give the
    // same state either way.
    for (const char* boot : {"first boot", "second boot"}) {
      CacheInstance instance(1, &clock_);
      PersistentStore store(scratch);  // declared last: closes first
      instance.SetPersistenceSink(&store);
      const Status s = store.Open(instance);
      EXPECT_TRUE(s.ok()) << label << ", " << boot << ": " << s.ToString();
      if (!s.ok()) return false;

      std::map<std::string, EntryImage> recovered;
      instance.ForEachEntry([&recovered](std::string_view key,
                                         const CacheValue& value,
                                         ConfigId config_id) {
        recovered[std::string(key)] =
            EntryImage{value.data, value.version, config_id};
      });
      EXPECT_EQ(recovered, oracle.entries) << label << ", " << boot;
      EXPECT_EQ(instance.latest_config_id(), oracle.max_config)
          << label << ", " << boot;

      // The zero-stale-read invariant, asserted directly: a key whose
      // quarantine count is unbalanced in the surviving prefix must be
      // absent — its cached value may disagree with the data store.
      for (const auto& [key, count] : oracle.qcount) {
        if (count > 0) {
          EXPECT_EQ(recovered.count(key), 0u)
              << label << ", " << boot << ": quarantined key " << key
              << " served after crash";
        }
      }
    }
    return true;
  }

  VirtualClock clock_;
  std::vector<std::string> dirs_;
  uint64_t wal_seq_ = 0;
};

TEST_F(CrashPointTest, PlansAreDeterministicAndSeedSensitive) {
  const std::vector<uint64_t> ends{10, 20, 30};
  const FaultPlan a =
      FaultFile::PlanFor(7, 3, FaultPlan::Kind::kTornWrite, 1000, ends);
  const FaultPlan b =
      FaultFile::PlanFor(7, 3, FaultPlan::Kind::kTornWrite, 1000, ends);
  EXPECT_EQ(a.truncate_to, b.truncate_to);
  EXPECT_EQ(a.garbage_len, b.garbage_len);
  EXPECT_EQ(a.garbage_seed, b.garbage_seed);

  bool differs = false;
  for (uint32_t i = 0; i < 8 && !differs; ++i) {
    const FaultPlan c =
        FaultFile::PlanFor(8, i, FaultPlan::Kind::kTornWrite, 1000, ends);
    const FaultPlan d =
        FaultFile::PlanFor(9, i, FaultPlan::Kind::kTornWrite, 1000, ends);
    differs = c.truncate_to != d.truncate_to || c.garbage_seed != d.garbage_seed;
  }
  EXPECT_TRUE(differs);
}

TEST_F(CrashPointTest, TruncateAtEveryRecordBoundaryRecoversThePrefix) {
  // Exhaustive, not sampled: every clean prefix of the log must recover.
  const std::string base = TempDir("prefix_base");
  BuildBaseImage(base);
  WalScanResult intact = Wal::ScanFile(Wal::SegmentPath(base, wal_seq_));
  ASSERT_TRUE(intact.error.ok());
  ASSERT_GT(intact.records.size(), 20u);

  const std::string scratch = TempDir("prefix_scratch");
  size_t recovered = 0;
  for (size_t i = 0; i <= intact.record_ends.size(); ++i) {
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kTruncateRecord;
    plan.truncate_to = i == 0 ? 0 : intact.record_ends[i - 1];
    if (RunCase(base, scratch, plan, "prefix=" + std::to_string(i))) {
      ++recovered;
    }
  }
  // Clean prefixes are valid logs: every single one must have recovered.
  EXPECT_EQ(recovered, intact.record_ends.size() + 1);
}

TEST_F(CrashPointTest, SeededMatrixRecoversOrFailsClosed) {
  const std::string base = TempDir("matrix_base");
  BuildBaseImage(base);
  const std::string wal_path = Wal::SegmentPath(base, wal_seq_);
  WalScanResult intact = Wal::ScanFile(wal_path);
  ASSERT_TRUE(intact.error.ok());

  const uint64_t base_seed = BaseSeed();
  const std::string scratch = TempDir("matrix_scratch");
  size_t cases = 0, recovered = 0;
  for (uint64_t seed = base_seed; seed < base_seed + 21; ++seed) {
    for (FaultPlan::Kind kind :
         {FaultPlan::Kind::kCut, FaultPlan::Kind::kTruncateRecord,
          FaultPlan::Kind::kTornWrite}) {
      const FaultPlan plan =
          FaultFile::PlanFor(seed, static_cast<uint32_t>(cases), kind,
                             intact.file_bytes, intact.record_ends);
      const std::string label = "seed=" + std::to_string(seed) + " kind=" +
                                std::to_string(static_cast<int>(plan.kind)) +
                                " cut=" + std::to_string(plan.truncate_to);
      if (RunCase(base, scratch, plan, label)) ++recovered;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 63u);
  // Torn and truncated logs are legal crash shapes: the vast majority of
  // the matrix must recover (only torn-write garbage that happens to form a
  // complete-but-corrupt frame may fail closed).
  EXPECT_GT(recovered, cases / 2);
  std::printf("[ crashpt  ] %zu/%zu mutations recovered, %zu failed closed\n",
              recovered, cases, cases - recovered);
}

// ---- Crash windows of the deferred eager records ----------------------------

/// What another client could observe of a key: the data store's value, and
/// whether recovery bookkeeping (a dirty list) still marks the key for
/// invalidation before it may be served.
struct World {
  std::map<std::string, std::string> data_store;
  std::set<std::string> dirty;
};

class CrashWindowTest : public CrashPointTest {
 protected:
  /// The store is declared last, so it closes before the instance its
  /// checkpoint thread walks is destroyed.
  struct Process {
    std::unique_ptr<CacheInstance> instance;
    std::unique_ptr<PersistentStore> store;
  };

  Process Boot(const std::string& dir) {
    Process p;
    p.store = std::make_unique<PersistentStore>(dir);
    CacheInstance::Options opts;
    opts.persistence = p.store.get();
    p.instance = std::make_unique<CacheInstance>(1, &clock_, opts);
    EXPECT_TRUE(p.store->Open(*p.instance).ok());
    return p;
  }

  /// Syncs every acknowledged op and returns the log's length: the cut
  /// point just before the next op's records.
  uint64_t SyncedEnd(Process& p) {
    EXPECT_TRUE(p.store->Sync().ok());
    wal_seq_ = p.store->wal_seq();
    return Wal::ScanFile(Wal::SegmentPath(dir_, wal_seq_)).valid_bytes;
  }

  /// SIGKILL, then the crash tears the log at `cut`, before the deferred
  /// record (which the kill itself had already written).
  void KillAndCut(Process& p, uint64_t cut) {
    p.store.reset();
    p.instance.reset();
    const std::string segment = Wal::SegmentPath(dir_, wal_seq_);
    ASSERT_GT(Wal::ScanFile(segment).valid_bytes, cut)
        << "the op appended no record to cut";
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kTruncateRecord;
    plan.truncate_to = cut;
    ASSERT_TRUE(FaultFile::Apply(segment, plan).ok());
  }

  static std::map<std::string, EntryImage> ImageOf(
      const CacheInstance& instance) {
    std::map<std::string, EntryImage> image;
    instance.ForEachEntry([&image](std::string_view key,
                                   const CacheValue& value,
                                   ConfigId config_id) {
      image[std::string(key)] =
          EntryImage{value.data, value.version, config_id};
    });
    return image;
  }

  /// No stale read: every cached key that no dirty list still marks equals
  /// the data store.
  static void ExpectNoStaleRead(const CacheInstance& instance,
                                const World& world) {
    for (const auto& [key, image] : ImageOf(instance)) {
      if (world.dirty.count(key) > 0) continue;
      const auto it = world.data_store.find(key);
      ASSERT_NE(it, world.data_store.end()) << key;
      EXPECT_EQ(image.data, it->second) << "stale read of " << key;
    }
  }

  void SetUp() override { dir_ = TempDir("window"); }

  std::string dir_;
};

TEST_F(CrashWindowTest, QBeginWindow) {
  Process p = Boot(dir_);
  World world;
  world.data_store = {{"k", "v1"}, {"cached", "c1"}};
  ASSERT_TRUE(p.instance->Set(kCtx, "cached", CacheValue::OfData("c1")).ok());
  // A reader missed on k and holds an I lease to fill it from the store.
  auto iq = p.instance->IqGet(kCtx, "k");
  ASSERT_TRUE(iq.ok());
  ASSERT_FALSE(iq->value.has_value());
  const uint64_t cut = SyncedEnd(p);
  const auto acked = ImageOf(*p.instance);

  {
    EagerScope loop;  // the writer's Qareg reply is held, not waited for
    ASSERT_TRUE(p.instance->Qareg(kCtx, "k").ok());
    ASSERT_NE(loop.lsn(), 0u);
  }
  // Another client sees the Q lease at once: the reader's fill is refused.
  EXPECT_EQ(p.instance
                ->IqSet(kCtx, "k", CacheValue::OfData(world.data_store["k"]),
                        iq->i_token)
                .code(),
            Code::kLeaseInvalid);
  // The writer never got its token, so it never touched the data store.
  KillAndCut(p, cut);

  Process q = Boot(dir_);
  EXPECT_EQ(ImageOf(*q.instance), acked);
  ExpectNoStaleRead(*q.instance, world);
}

TEST_F(CrashWindowTest, RecoveryModeIsetAndIdeleteWindows) {
  Process p = Boot(dir_);
  // Written while this instance was down: its cached v0 copies are stale,
  // and the fragment's dirty list names all three keys.
  World world;
  world.data_store = {{"a", "v1"}, {"b", "v1"}, {"c", "v1"}, {"clean", "x"}};
  world.dirty = {"a", "b", "c"};
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(p.instance->Set(kCtx, key, CacheValue::OfData("v0")).ok());
  }
  ASSERT_TRUE(p.instance->Set(kCtx, "clean", CacheValue::OfData("x")).ok());

  // Key a is fully processed (acknowledged): invalidated, then off the list.
  auto ta = p.instance->ISet(kCtx, "a");
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(p.instance->IDelete(kCtx, "a", *ta).ok());
  world.dirty.erase("a");
  // Key c's ISet is acknowledged too; a plain Set raced in before its
  // IDelete.
  auto tc = p.instance->ISet(kCtx, "c");
  ASSERT_TRUE(tc.ok());
  ASSERT_TRUE(p.instance->Set(kCtx, "c", CacheValue::OfData("v0")).ok());
  const uint64_t cut = SyncedEnd(p);
  const auto acked = ImageOf(*p.instance);

  {
    EagerScope loop;  // the worker's replies are held
    ASSERT_TRUE(p.instance->ISet(kCtx, "b").ok());
    ASSERT_TRUE(p.instance->IDelete(kCtx, "c", *tc).ok());
  }
  // Other clients see both deletes at once, and cannot fill b: the worker's
  // I lease makes their IqGet back off.
  EXPECT_EQ(p.instance->Get(kCtx, "b").code(), Code::kNotFound);
  EXPECT_EQ(p.instance->Get(kCtx, "c").code(), Code::kNotFound);
  EXPECT_EQ(p.instance->IqGet(kCtx, "b").code(), Code::kBackoff);
  // Without the acks the worker keeps b and c on the dirty list.
  KillAndCut(p, cut);

  Process q = Boot(dir_);
  EXPECT_EQ(ImageOf(*q.instance), acked);
  EXPECT_FALSE(q.instance->ContainsRaw("a"));
  ExpectNoStaleRead(*q.instance, world);
}

TEST_F(CrashWindowTest, ConfigAdvanceWindow) {
  Process p = Boot(dir_);
  World world;
  world.data_store = {{"k", "old"}};
  ASSERT_TRUE(
      p.instance->GrantFragmentLease(0, 1, clock_.Now() + Seconds(60), 1)
          .ok());
  ASSERT_TRUE(
      p.instance->Set(OpContext{1, 0}, "k", CacheValue::OfData("old")).ok());
  const uint64_t cut = SyncedEnd(p);
  const auto acked = ImageOf(*p.instance);

  {
    // Config 2 makes every entry of fragment 0 stamped below 2 obsolete;
    // the coordinator's LEASE_GRANT reply is held.
    EagerScope loop;
    ASSERT_TRUE(
        p.instance->GrantFragmentLease(0, 2, clock_.Now() + Seconds(60), 2)
            .ok());
    ASSERT_NE(loop.lsn(), 0u);
  }
  // Other clients see config 2 at once: a config-1 client is bounced, and a
  // refreshed one finds k discarded. The fragment then moves on: k is
  // rewritten in the data store.
  EXPECT_EQ(p.instance->Get(OpContext{1, 0}, "k").code(),
            Code::kStaleConfig);
  EXPECT_EQ(p.instance->Get(OpContext{2, 0}, "k").code(), Code::kNotFound);
  world.data_store["k"] = "new";
  KillAndCut(p, cut);

  Process q = Boot(dir_);
  EXPECT_EQ(ImageOf(*q.instance), acked);
  EXPECT_EQ(q.instance->latest_config_id(), 1u);
  // Leases did not survive the crash, so nothing is served until the
  // coordinator grants again; unacknowledged, its grant of config 2 is
  // re-sent, and k stays discarded for every client.
  EXPECT_EQ(q.instance->Get(OpContext{1, 0}, "k").code(),
            Code::kWrongInstance);
  ASSERT_TRUE(
      q.instance->GrantFragmentLease(0, 2, clock_.Now() + Seconds(60), 2)
          .ok());
  EXPECT_EQ(q.instance->Get(OpContext{1, 0}, "k").code(),
            Code::kStaleConfig);
  EXPECT_EQ(q.instance->Get(OpContext{2, 0}, "k").code(), Code::kNotFound);
}

TEST_F(CrashWindowTest, VolatileWipeWindow) {
  Process p = Boot(dir_);
  World world;
  world.data_store = {{"a", "va"}, {"b", "vb"}};
  for (const auto& [key, value] : world.data_store) {
    ASSERT_TRUE(p.instance->Set(kCtx, key, CacheValue::OfData(value)).ok());
  }
  const uint64_t cut = SyncedEnd(p);
  const auto acked = ImageOf(*p.instance);

  {
    EagerScope loop;  // the caller of RecoverVolatile is not yet answered
    p.instance->RecoverVolatile();
    ASSERT_NE(loop.lsn(), 0u);
  }
  // Other clients see an empty cache at once: every read misses.
  EXPECT_EQ(p.instance->Get(kCtx, "a").code(), Code::kNotFound);
  KillAndCut(p, cut);

  // The restart is the instance that crashed before the wipe.
  Process q = Boot(dir_);
  EXPECT_EQ(ImageOf(*q.instance), acked);
  ExpectNoStaleRead(*q.instance, world);
}

}  // namespace
}  // namespace gemini
