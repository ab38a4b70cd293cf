// PersistentStore tests: kill-and-restart roundtrips restore byte-exact
// entries and metadata, the crash-spanning Q rule drops in-flight writes,
// checkpoints truncate the log, a second kill before the boot's checkpoint
// lands (a Q-rule drop, a torn tail) restores the same state, the trigger
// survives a restart, the writer fsyncs batched records and log
// growth triggers checkpoints with no call from the owner (once the log
// since the newest checkpoint is as large as it, 8 MiB at least, while full
// segments close on their own), a restart with a smaller stripe budget
// drops what no longer fits, a replacement over the stripe budget is
// refused and logged gone, overstated charges do not size a checkpoint,
// leftover checkpoint temps are deleted, damage fails closed, a WAL write
// error stops every later eager op from being acknowledged, and a SIGKILL'd
// primary rejoins the cluster through the normal failover -> transient ->
// recovery cycle with zero stale reads and a warm cache.
#include "src/persist/persistent_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <csignal>

#include <ftw.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/cache/cache_instance.h"
#include "src/cache/snapshot.h"
#include "src/client/gemini_client.h"
#include "src/consistency/stale_read_checker.h"
#include "src/coordinator/coordinator.h"
#include "src/persist/wal.h"
#include "src/recovery/recovery_worker.h"

namespace gemini {
namespace {

constexpr OpContext kCtx{kInternalConfigId, kInvalidFragment};

int RemoveEntry(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

/// Everything the durable medium promises to restore for one entry.
struct EntryImage {
  std::string data;
  uint32_t charged_bytes = 0;
  Version version = 0;
  ConfigId config_id = 0;

  bool operator==(const EntryImage& o) const {
    return data == o.data && charged_bytes == o.charged_bytes &&
           version == o.version && config_id == o.config_id;
  }
};

/// Polls `done` every millisecond for up to 5 s: the writer and checkpoint
/// threads act on their own schedule.
template <typename Predicate>
bool Eventually(Predicate done) {
  for (int i = 0; i < 5000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::map<std::string, EntryImage> ImageOf(const CacheInstance& instance) {
  std::map<std::string, EntryImage> image;
  instance.ForEachEntry([&image](std::string_view key, const CacheValue& value,
                                 ConfigId config_id) {
    image[std::string(key)] =
        EntryImage{value.data, value.charged_bytes, value.version, config_id};
  });
  return image;
}

/// Makes the checkpoint whose rotation opens segment `seq` fail: a
/// non-empty directory at its temp path, which boot's temp sweep cannot
/// delete, so the write cannot open the temp. A boot's checkpoint is then
/// held back deterministically, and counts in checkpoint_failures.
void HoldBackCheckpoint(const std::string& dir, uint64_t seq) {
  const std::string tmp = CheckpointManager(dir).CheckpointPath(seq) + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0) << tmp;
  std::ofstream(tmp + "/keep") << "keep";
}

class PersistentStoreTest : public ::testing::Test {
 protected:
  std::string TempDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/store_" + name;
    RemoveTree(dir);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const auto& d : dirs_) RemoveTree(d);
  }

  /// One "process": a store and the instance it durably backs. The store
  /// is declared last, so it closes before the instance its checkpoint
  /// thread walks is destroyed.
  struct Process {
    std::unique_ptr<CacheInstance> instance;
    std::unique_ptr<PersistentStore> store;
  };

  Process Boot(const std::string& dir, CacheInstance::Options opts = {}) {
    Process p;
    p.store = std::make_unique<PersistentStore>(dir);
    opts.persistence = p.store.get();
    p.instance = std::make_unique<CacheInstance>(1, &clock_, opts);
    EXPECT_TRUE(p.store->Open(*p.instance).ok());
    return p;
  }

  /// SIGKILL: drop the process without checkpointing. The store destructor
  /// closes the fd, but everything already reached the page cache through
  /// write() — exactly what a same-OS kill -9 leaves behind.
  static void Kill(Process& p) {
    p.store.reset();
    p.instance.reset();
  }

  VirtualClock clock_;
  std::vector<std::string> dirs_;
};

TEST_F(PersistentStoreTest, EmptyDirBootsEmptyWithoutACheckpoint) {
  const std::string dir = TempDir("empty");
  Process p = Boot(dir);
  EXPECT_EQ(p.instance->stats().entry_count, 0u);
  EXPECT_EQ(p.store->stats().restored_entries, 0u);
  EXPECT_TRUE(p.store->error().ok());
  // Nothing replayed, so nothing to fold: Open leaves a live segment and
  // the preallocated (empty) next segment behind, and no checkpoint.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(p.store->stats().checkpoints, 0u);
  DirListing listing;
  CheckpointManager manager(dir);
  ASSERT_TRUE(manager.List(listing).ok());
  EXPECT_TRUE(listing.checkpoint_seqs.empty());
  EXPECT_EQ(listing.wal_seqs, (std::vector<uint64_t>{0, 1}));
}

TEST_F(PersistentStoreTest, OpenIsOneShot) {
  const std::string dir = TempDir("oneshot");
  Process p = Boot(dir);
  CacheInstance other(2, &clock_);
  EXPECT_EQ(p.store->Open(other).code(), Code::kInvalidArgument);
}

TEST_F(PersistentStoreTest, KillRestartRestoresByteExactEntriesAndConfigId) {
  const std::string dir = TempDir("roundtrip");
  Process p = Boot(dir);
  CacheInstance& a = *p.instance;

  // A mix of every upsert path. Fragment 3's lease stamps config id 9 on
  // entries written under it; the instance-wide latest id advances to 11.
  a.GrantFragmentLease(3, 9, clock_.Now() + Seconds(60), 9);
  const OpContext fctx{9, 3};
  ASSERT_TRUE(a.Set(fctx, "stamped", CacheValue::OfData("sv", 5)).ok());
  ASSERT_TRUE(a.Set(kCtx, "plain", CacheValue::OfData("pv", 2)).ok());
  ASSERT_TRUE(a.Append(kCtx, "list", "head;").ok());
  ASSERT_TRUE(a.Append(kCtx, "list", "tail;").ok());
  ASSERT_TRUE(a.Cas(kCtx, "plain", 2, CacheValue::OfData("pv2", 3)).ok());
  auto iq = a.IqGet(kCtx, "filled");
  ASSERT_TRUE(iq.ok());
  ASSERT_FALSE(iq->value.has_value());
  ASSERT_TRUE(a.IqSet(kCtx, "filled", CacheValue::OfData("fv", 7),
                      iq->i_token).ok());
  ASSERT_TRUE(a.Set(kCtx, "gone", CacheValue::OfData("x")).ok());
  ASSERT_TRUE(a.Delete(kCtx, "gone").ok());
  // Odd payload bytes and a charge above the data size must both survive.
  CacheValue odd;
  odd.data = std::string("\x00\xff\x7f", 3);
  odd.charged_bytes = 4096;
  odd.version = 99;
  ASSERT_TRUE(a.Set(kCtx, "odd", odd).ok());
  a.ObserveConfigId(11);

  const auto before = ImageOf(a);
  ASSERT_TRUE(before.count("stamped"));
  EXPECT_EQ(before.at("stamped").config_id, 9u);
  const ConfigId config_before = a.latest_config_id();
  EXPECT_EQ(config_before, 11u);
  Kill(p);

  Process q = Boot(dir);
  EXPECT_EQ(ImageOf(*q.instance), before);
  EXPECT_EQ(q.instance->latest_config_id(), config_before);
  EXPECT_FALSE(q.instance->ContainsRaw("gone"));
  EXPECT_GT(q.store->stats().replayed_records, 0u);
}

TEST_F(PersistentStoreTest, CrashSpanningQuarantineRuleDropsInFlightWrites) {
  // Two shapes of one history: the Q leases live only in the log, or a
  // checkpoint cut while they were outstanding holds them in its
  // quarantine list. Both boots drop the same key and count it once.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "checkpoint before the kill" : "log only");
    const std::string dir = TempDir(checkpoint ? "qrule_cp" : "qrule_log");
    Process p = Boot(dir);
    CacheInstance& a = *p.instance;

    ASSERT_TRUE(a.Set(kCtx, "committed", CacheValue::OfData("v1", 1)).ok());
    ASSERT_TRUE(a.Set(kCtx, "deleted", CacheValue::OfData("v1", 1)).ok());
    ASSERT_TRUE(a.Set(kCtx, "inflight", CacheValue::OfData("v1", 1)).ok());
    ASSERT_TRUE(a.Set(kCtx, "late", CacheValue::OfData("v1", 1)).ok());

    // Completed write-through cycle: the new value is durable and clean.
    auto t1 = a.Qareg(kCtx, "committed");
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(
        a.Rar(kCtx, "committed", CacheValue::OfData("v2", 2), *t1).ok());
    // Completed write-around cycle: the entry is durably gone.
    auto t2 = a.Qareg(kCtx, "deleted");
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(a.Dar(kCtx, "deleted", *t2).ok());
    // In-flight cycle: the writer holds the Q lease at the crash. Its data
    // store write may or may not have landed — the cached "v1" may be stale.
    auto t3 = a.Qareg(kCtx, "inflight");
    ASSERT_TRUE(t3.ok());
    ASSERT_TRUE(a.ContainsRaw("inflight"));
    // A cycle that completes only after the checkpoint: its QEnd, replayed
    // after the cut, resolves the key the checkpoint kept out.
    auto t4 = a.Qareg(kCtx, "late");
    ASSERT_TRUE(t4.ok());
    if (checkpoint) {
      ASSERT_TRUE(p.store->Checkpoint().ok());
    }
    ASSERT_TRUE(a.Dar(kCtx, "late", *t4).ok());
    Kill(p);

    Process q = Boot(dir);
    CacheInstance& b = *q.instance;
    auto committed = b.Get(kCtx, "committed");
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed->data, "v2");
    EXPECT_FALSE(b.ContainsRaw("deleted"));
    EXPECT_FALSE(b.ContainsRaw("late"));
    // The Q rule fails toward a miss, never a stale hit.
    EXPECT_FALSE(b.ContainsRaw("inflight"));
    EXPECT_EQ(q.store->stats().quarantine_drops, 1u);
  }
}

// Until the boot's checkpoint lands, the next boot replays the same log
// again and must reach the same state. The Q rule's drops are not in that
// log as QBegins alone: a later RecoverPersistent logs a kQClear, which
// makes a replay forget them, so boot logs each dropped key gone.
TEST_F(PersistentStoreTest, QRuleDropSurvivesAKillBeforeTheBootCheckpoint) {
  const std::string dir = TempDir("qdrop_twice");
  Process p = Boot(dir);
  ASSERT_TRUE(p.instance->Set(kCtx, "kept", CacheValue::OfData("k1")).ok());
  ASSERT_TRUE(
      p.instance->Set(kCtx, "inflight", CacheValue::OfData("v1")).ok());
  ASSERT_TRUE(p.instance->Qareg(kCtx, "inflight").ok());
  const uint64_t seq = p.store->wal_seq();
  Kill(p);

  // The boot takes over the segment its predecessor reserved (seq + 1), so
  // its checkpoint's rotation opens seq + 2.
  HoldBackCheckpoint(dir, seq + 2);
  Process q = Boot(dir);
  EXPECT_EQ(q.store->wal_seq(), seq + 1);
  EXPECT_FALSE(q.instance->ContainsRaw("inflight"));
  EXPECT_EQ(q.store->stats().quarantine_drops, 1u);
  ASSERT_TRUE(Eventually(
      [&] { return q.store->stats().checkpoint_failures == 1; }));
  EXPECT_EQ(q.store->stats().checkpoints, 0u);
  // The coordinator's recovery cycle resolves every quarantine: kQClear.
  q.instance->RecoverPersistent();
  ASSERT_TRUE(q.store->Sync().ok());
  Kill(q);

  Process r = Boot(dir);
  EXPECT_FALSE(r.instance->ContainsRaw("inflight")) << "stale read";
  EXPECT_TRUE(r.instance->ContainsRaw("kept"));
}

// The same replay must not drop what the session wrote to a dropped key
// after boot: boot logs a QEnd for each QBegin it dropped the key for.
TEST_F(PersistentStoreTest, KeyRewrittenAfterAQRuleDropSurvivesAKill) {
  const std::string dir = TempDir("qdrop_rewrite");
  Process p = Boot(dir);
  ASSERT_TRUE(p.instance->Set(kCtx, "k", CacheValue::OfData("v1")).ok());
  ASSERT_TRUE(p.instance->Qareg(kCtx, "k").ok());
  ASSERT_TRUE(p.instance->Qareg(kCtx, "k").ok());  // a second writer
  const uint64_t seq = p.store->wal_seq();
  Kill(p);

  HoldBackCheckpoint(dir, seq + 2);
  Process q = Boot(dir);
  EXPECT_FALSE(q.instance->ContainsRaw("k"));
  ASSERT_TRUE(Eventually(
      [&] { return q.store->stats().checkpoint_failures == 1; }));
  ASSERT_TRUE(q.instance->Set(kCtx, "k", CacheValue::OfData("v2")).ok());
  Kill(q);

  Process r = Boot(dir);
  auto k = r.instance->Get(kCtx, "k");
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_EQ(k->data, "v2");
  EXPECT_EQ(r.store->stats().quarantine_drops, 0u);
}

// A torn final segment is followed by the boot's fresh segment. Until the
// boot's checkpoint covers both, the next boot replays them again, so boot
// cuts the torn tail off rather than leave a torn tail in a non-final
// segment, which fails closed.
TEST_F(PersistentStoreTest, TornTailSurvivesAKillBeforeTheBootCheckpoint) {
  const std::string dir = TempDir("torn_twice");
  Process p = Boot(dir);
  ASSERT_TRUE(p.instance->Set(kCtx, "a", CacheValue::OfData("va")).ok());
  ASSERT_TRUE(p.instance->Set(kCtx, "b", CacheValue::OfData("vb")).ok());
  ASSERT_TRUE(p.instance->Set(kCtx, "torn", CacheValue::OfData("vt")).ok());
  const uint64_t seq = p.store->wal_seq();
  Kill(p);
  // The kill tears the last record.
  const std::string path = Wal::SegmentPath(dir, seq);
  const WalScanResult scan = Wal::ScanFile(path);
  ASSERT_TRUE(scan.error.ok());
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes - 3)),
            0);

  HoldBackCheckpoint(dir, seq + 2);
  Process q = Boot(dir);
  EXPECT_GT(q.store->stats().torn_tail_bytes, 0u);
  EXPECT_FALSE(q.instance->ContainsRaw("torn"));
  ASSERT_TRUE(Eventually(
      [&] { return q.store->stats().checkpoint_failures == 1; }));
  EXPECT_EQ(q.store->stats().checkpoints, 0u);
  ASSERT_TRUE(q.instance->Set(kCtx, "c", CacheValue::OfData("vc")).ok());
  ASSERT_TRUE(q.instance->Delete(kCtx, "a").ok());
  const auto before = ImageOf(*q.instance);
  Kill(q);

  Process r = Boot(dir);
  ASSERT_TRUE(r.store->error().ok());
  EXPECT_EQ(ImageOf(*r.instance), before);
}

TEST_F(PersistentStoreTest, CheckpointTruncatesLogAndRestartStaysExact) {
  const std::string dir = TempDir("checkpoint");
  Process p = Boot(dir);
  CacheInstance& a = *p.instance;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.Set(kCtx, "k" + std::to_string(i),
                      CacheValue::OfData(
                          std::string(64, static_cast<char>('a' + i % 26)),
                                         static_cast<Version>(i)))
                    .ok());
  }
  const uint64_t seq_before = p.store->wal_seq();
  ASSERT_TRUE(p.store->Checkpoint().ok());
  EXPECT_GT(p.store->wal_seq(), seq_before);

  // Covered segments and superseded checkpoints are gone.
  DirListing listing;
  CheckpointManager manager(dir);
  ASSERT_TRUE(manager.List(listing).ok());
  ASSERT_EQ(listing.checkpoint_seqs.size(), 1u);
  EXPECT_EQ(listing.checkpoint_seqs[0], p.store->wal_seq());
  for (uint64_t seq : listing.wal_seqs) EXPECT_GE(seq, p.store->wal_seq());

  // Mutations after the checkpoint land in the fresh segment and replay on
  // top of it.
  ASSERT_TRUE(a.Set(kCtx, "post", CacheValue::OfData("pv", 1)).ok());
  ASSERT_TRUE(a.Delete(kCtx, "k5").ok());
  const auto before = ImageOf(a);
  Kill(p);

  Process q = Boot(dir);
  EXPECT_EQ(ImageOf(*q.instance), before);
  EXPECT_FALSE(q.instance->ContainsRaw("k5"));
  EXPECT_EQ(q.instance->stats().entry_count, 100u);  // 100 - k5 + post
}

// A checkpointed entry over the restarted instance's stripe budget is
// dropped, as WAL replay drops it: a miss, and the rest still boots. A
// smaller capacity and a higher stripe count both shrink that budget.
TEST_F(PersistentStoreTest, CheckpointEntryOverNewStripeBudgetIsDropped) {
  struct Shape {
    const char* name;
    uint64_t capacity_bytes;
    uint32_t num_stripes;
    size_t big_bytes;
  };
  for (const Shape& shape : {Shape{"smaller_capacity", 1 << 20, 1, 2 << 20},
                             Shape{"more_stripes", 4 << 20, 8, 1 << 20}}) {
    SCOPED_TRACE(shape.name);
    const std::string dir = TempDir(shape.name);
    CacheInstance::Options before;
    before.capacity_bytes = 4 << 20;
    Process p = Boot(dir, before);
    ASSERT_TRUE(p.instance->Set(kCtx, "big",
                                CacheValue::OfData(std::string(
                                    shape.big_bytes, 'b')))
                    .ok());
    ASSERT_TRUE(
        p.instance->Set(kCtx, "small", CacheValue::OfData("s")).ok());
    // A clean shutdown: both entries live only in the checkpoint.
    ASSERT_TRUE(p.store->Checkpoint().ok());
    Kill(p);

    CacheInstance::Options after;
    after.capacity_bytes = shape.capacity_bytes;
    after.num_stripes = shape.num_stripes;
    Process q = Boot(dir, after);
    EXPECT_EQ(q.store->stats().restored_entries, 1u);
    EXPECT_TRUE(q.instance->ContainsRaw("small"));
    EXPECT_FALSE(q.instance->ContainsRaw("big"));
  }
}

// A client declares charged_bytes, and a SET whose declared size is over
// the stripe budget is refused, an update as well as an insert, so the
// instance's byte count stays within its capacity here. A checkpoint still
// trusts that count only up to the capacity when it sizes its buffer,
// since declared sizes stay untrusted; the checkpoint and both restart
// shapes succeed.
TEST_F(PersistentStoreTest, OverstatedChargesDoNotSizeTheCheckpoint) {
  const std::string dir = TempDir("overstated");
  CacheInstance::Options opts;
  opts.capacity_bytes = 16 << 20;
  opts.num_stripes = 16;
  Process p = Boot(dir, opts);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(p.instance->Set(kCtx, key, CacheValue::OfData("v")).ok());
    CacheValue overstated = CacheValue::OfData("v");
    overstated.charged_bytes = 0xFFFFFFFF;
    EXPECT_EQ(p.instance->Set(kCtx, key, std::move(overstated)).code(),
              Code::kInvalidArgument);
  }
  EXPECT_LE(p.instance->stats().used_bytes, opts.capacity_bytes);
  EXPECT_LE(Snapshot::Serialize(*p.instance).capacity(),
            2 * opts.capacity_bytes);
  // SIGKILL: replay re-applies each SET and the delete its refused update
  // logged, then checkpoints.
  Kill(p);
  Process q = Boot(dir, opts);
  ASSERT_TRUE(q.store->error().ok());
  EXPECT_LE(q.instance->stats().used_bytes, opts.capacity_bytes);
  ASSERT_TRUE(q.store->Checkpoint().ok());
  // Clean shutdown: the checkpoint alone holds the state, and no key
  // survived its refused update.
  Kill(q);
  Process r = Boot(dir, opts);
  EXPECT_TRUE(r.store->error().ok());
  EXPECT_EQ(r.store->stats().restored_entries, 0u);
}

// A replacement is held to the stripe budget like an insert: a SET or CAS
// over it is refused, and, as in memcached's failed store, the value it
// would have replaced goes too (a RAR, which ignores the refusal, drops it
// the same way). The WAL logs each key gone, so a SIGKILL restart does not
// bring the old values back, and the stripe's other entries survive both.
TEST_F(PersistentStoreTest, ReplacementOverStripeBudgetIsRefusedAndLogged) {
  const std::string dir = TempDir("overbudget");
  CacheInstance::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.num_stripes = 1;
  Process p = Boot(dir, opts);
  for (const char* key : {"set", "cas", "rar", "kept1", "kept2"}) {
    ASSERT_TRUE(p.instance->Set(kCtx, key, CacheValue::OfData("v", 1)).ok());
  }
  CacheValue overstated = CacheValue::OfData("v", 2);
  overstated.charged_bytes = 0xFFFFFFFF;
  EXPECT_EQ(p.instance->Set(kCtx, "set", overstated).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(p.instance->Cas(kCtx, "cas", 1, overstated).code(),
            Code::kInvalidArgument);
  const Result<LeaseToken> q_token = p.instance->Qareg(kCtx, "rar");
  ASSERT_TRUE(q_token.ok());
  EXPECT_TRUE(p.instance->Rar(kCtx, "rar", overstated, *q_token).ok());
  const auto expect_refused = [&opts](const CacheInstance& instance) {
    for (const char* gone : {"set", "cas", "rar"}) {
      EXPECT_FALSE(instance.ContainsRaw(gone)) << gone;
    }
    for (const char* kept : {"kept1", "kept2"}) {
      EXPECT_TRUE(instance.ContainsRaw(kept)) << kept;
    }
    EXPECT_LE(instance.stats().used_bytes, opts.capacity_bytes);
  };
  expect_refused(*p.instance);
  Kill(p);
  Process q = Boot(dir, opts);
  ASSERT_TRUE(q.store->error().ok());
  expect_refused(*q.instance);
}

TEST_F(PersistentStoreTest, ConfigIdSurvivesThroughCheckpointHeadRecord) {
  const std::string dir = TempDir("confighead");
  Process p = Boot(dir);
  p.instance->ObserveConfigId(42);
  // A checkpoint garbage-collects the segment holding the kConfigId record;
  // the replacement segment's head record must carry it forward even though
  // no entry is stamped with it.
  ASSERT_TRUE(p.store->Checkpoint().ok());
  Kill(p);

  Process q = Boot(dir);
  EXPECT_EQ(q.instance->latest_config_id(), 42u);
}

TEST_F(PersistentStoreTest, BatchedUpsertsAreFsyncedWithoutASyncCall) {
  const std::string dir = TempDir("batched_fsync");
  Process p = Boot(dir);
  // A small upsert waits for its 50 ms age; a 2 MiB one passes the 1 MiB
  // unsynced bound. Either way the writer fsyncs it with nobody asking.
  Lsn lsn = 0;
  for (const size_t bytes : {size_t{64}, size_t{2} << 20}) {
    const uint64_t fsyncs = p.store->stats().fsyncs;
    ASSERT_TRUE(p.instance
                    ->Set(kCtx, "k" + std::to_string(bytes),
                          CacheValue::OfData(std::string(bytes, 'v')))
                    .ok());
    ++lsn;  // one batched record per Set
    EXPECT_TRUE(Eventually([&] {
      return p.store->CheckDurable(lsn) == Durability::kDurable;
    })) << bytes << " bytes";
    EXPECT_GT(p.store->stats().fsyncs, fsyncs);
  }
  EXPECT_EQ(p.store->stats().eager_records, 0u);
}

TEST_F(PersistentStoreTest, CheckpointSchedulingIsDrivenByWalByteGrowth) {
  const std::string dir = TempDir("lag_schedule");
  Process p = Boot(dir);
  const uint64_t boot_checkpoints = p.store->stats().checkpoints;
  const uint64_t boot_seq = p.store->wal_seq();
  const std::string value(64 << 10, 'v');
  int next = 0;
  const auto set_next = [&] {
    return p.instance
        ->Set(kCtx, "k" + std::to_string(next++), CacheValue::OfData(value))
        .ok();
  };

  // Up to two values short of a full segment: no checkpoint.
  while (p.store->stats().appended_bytes + 2 * value.size() <
         Wal::kSegmentBytes) {
    ASSERT_TRUE(set_next());
  }
  ASSERT_TRUE(p.store->Sync().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(p.store->stats().checkpoints, boot_checkpoints);
  EXPECT_EQ(p.store->wal_seq(), boot_seq);

  // Crossing it checkpoints with no call from the owner. The lag collapses
  // last, once the covered segments are gone.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(set_next());
  ASSERT_TRUE(Eventually([&] {
    const PersistentStore::Stats stats = p.store->stats();
    return stats.checkpoints == boot_checkpoints + 1 &&
           stats.checkpoint_lag_bytes < Wal::kSegmentBytes;
  }));
  const uint64_t seq = p.store->wal_seq();
  EXPECT_GT(seq, boot_seq);
  // What is left is the fresh segment: its head record and any upsert that
  // raced past the rotation.
  ASSERT_TRUE(p.store->Sync().ok());
  struct stat live {};
  ASSERT_EQ(::stat(Wal::SegmentPath(dir, seq).c_str(), &live), 0);
  EXPECT_EQ(p.store->stats().checkpoint_lag_bytes,
            static_cast<uint64_t>(live.st_size));
  DirListing listing;
  ASSERT_TRUE(CheckpointManager(dir).List(listing).ok());
  EXPECT_EQ(listing.checkpoint_seqs, (std::vector<uint64_t>{seq}));
  for (uint64_t s : listing.wal_seqs) EXPECT_GE(s, seq);

  // Quiescent again until the log regrows.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(p.store->stats().checkpoints, boot_checkpoints + 1);
  EXPECT_EQ(p.store->wal_seq(), seq);
  const auto before = ImageOf(*p.instance);
  Kill(p);
  Process q = Boot(dir);
  EXPECT_EQ(ImageOf(*q.instance), before);
}

// Once the cache outgrows the 8 MiB floor, the next automatic checkpoint
// waits until the log since the newest checkpoint is as large as it: a
// checkpoint rewrites the whole cache, so it writes no more than the log it
// truncates. Segments still close at Wal::kSegmentBytes, so replay reads one
// bounded segment at a time.
TEST_F(PersistentStoreTest, CheckpointWaitsForTheLogToReachTheNewestOne) {
  const std::string dir = TempDir("trigger");
  CacheInstance::Options opts;
  opts.capacity_bytes = 64 << 20;
  Process p = Boot(dir, opts);
  const uint64_t boot_checkpoints = p.store->stats().checkpoints;
  constexpr int kKeys = 192;  // 12 MiB of 64 KiB values
  std::string value(64 << 10, 'a');
  int next = 0;
  const auto set_next = [&] {
    return p.instance
        ->Set(kCtx, "k" + std::to_string(next++ % kKeys),
              CacheValue::OfData(value))
        .ok();
  };
  // Filling the cache crosses the floor once, then a checkpoint of the full
  // cache sets the trigger above it.
  for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(set_next());
  ASSERT_TRUE(Eventually(
      [&] { return p.store->stats().checkpoints == boot_checkpoints + 1; }));
  ASSERT_TRUE(p.store->Checkpoint().ok());
  const uint64_t seq = p.store->wal_seq();
  struct stat file {};
  ASSERT_EQ(
      ::stat(CheckpointManager(dir).CheckpointPath(seq).c_str(), &file), 0);
  const auto checkpoint_bytes = static_cast<uint64_t>(file.st_size);
  ASSERT_GT(checkpoint_bytes, Wal::kSegmentBytes + 2 * value.size());
  EXPECT_EQ(p.store->stats().checkpoint_bytes, checkpoint_bytes);

  // Overwrites keep the cache's size. Up to two values short of the
  // checkpoint's size, the log asks for nothing, though it is far past the
  // floor: the writer only closed the full segment, once.
  value.assign(value.size(), 'b');
  const uint64_t base = p.store->stats().appended_bytes;
  while (p.store->stats().appended_bytes - base + 2 * value.size() <
         checkpoint_bytes) {
    ASSERT_TRUE(set_next());
  }
  ASSERT_TRUE(p.store->Sync().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(p.store->stats().checkpoints, boot_checkpoints + 2);
  EXPECT_EQ(p.store->wal_seq(), seq + 1);
  DirListing listing;
  ASSERT_TRUE(CheckpointManager(dir).List(listing).ok());
  EXPECT_EQ(listing.checkpoint_seqs, (std::vector<uint64_t>{seq}));
  struct stat closed {};
  ASSERT_EQ(::stat(Wal::SegmentPath(dir, seq).c_str(), &closed), 0);
  EXPECT_GE(static_cast<uint64_t>(closed.st_size), Wal::kSegmentBytes);

  // Crossing it checkpoints once, and only once.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(set_next());
  ASSERT_TRUE(Eventually([&] {
    const PersistentStore::Stats stats = p.store->stats();
    return stats.checkpoints == boot_checkpoints + 3 &&
           stats.checkpoint_lag_bytes < Wal::kSegmentBytes;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const PersistentStore::Stats stats = p.store->stats();
  EXPECT_EQ(stats.checkpoints, boot_checkpoints + 3);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(p.store->wal_seq(), seq + 2);
  ASSERT_TRUE(CheckpointManager(dir).List(listing).ok());
  EXPECT_EQ(listing.checkpoint_seqs, (std::vector<uint64_t>{seq + 2}));
  for (uint64_t s : listing.wal_seqs) EXPECT_GE(s, seq + 2);

  // The trigger survives a restart. With a checkpoint just taken, the boot
  // has nothing to fold and writes no checkpoint; the loaded one sets the
  // trigger, so the restart does not fall back to the 8 MiB floor.
  ASSERT_TRUE(p.store->Checkpoint().ok());
  const uint64_t loaded_bytes = p.store->stats().checkpoint_bytes;
  ASSERT_GT(loaded_bytes, Wal::kSegmentBytes + 2 * value.size());
  const auto before = ImageOf(*p.instance);
  Kill(p);
  Process q = Boot(dir, opts);
  EXPECT_EQ(ImageOf(*q.instance), before);
  EXPECT_EQ(q.store->stats().checkpoint_bytes, loaded_bytes);
  p.instance = std::move(q.instance);  // set_next writes through p
  p.store = std::move(q.store);
  value.assign(value.size(), 'c');
  const uint64_t restart_base = p.store->stats().appended_bytes;
  while (p.store->stats().appended_bytes - restart_base + 2 * value.size() <
         loaded_bytes) {
    ASSERT_TRUE(set_next());
  }
  ASSERT_TRUE(p.store->Sync().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(p.store->stats().checkpoints, 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(set_next());
  EXPECT_TRUE(
      Eventually([&] { return p.store->stats().checkpoints == 1; }));
}

// Writers with batched and eager records, Sync(), Checkpoint() and stats()
// race from several threads across automatic checkpoints; the restart
// serves exactly the final image.
TEST_F(PersistentStoreTest, ConcurrentWritersSyncsAndCheckpoints) {
  const std::string dir = TempDir("concurrent");
  CacheInstance::Options opts;
  opts.num_stripes = 8;
  Process p = Boot(dir, opts);
  const uint64_t boot_checkpoints = p.store->stats().checkpoints;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&p, &stop, t] {
      const std::string value(16 << 10, static_cast<char>('a' + t));
      for (int i = 0; !stop.load(); ++i) {
        const std::string key =
            "w" + std::to_string(t) + "_" + std::to_string(i % 64);
        EXPECT_TRUE(
            p.instance->Set(kCtx, key, CacheValue::OfData(value, i)).ok());
        if (i % 16 == 0) {  // a write-around cycle: an eager QBegin
          auto token = p.instance->Qareg(kCtx, key);
          EXPECT_TRUE(token.ok());
          if (token.ok()) {
            EXPECT_TRUE(p.instance->Dar(kCtx, key, *token).ok());
          }
        }
      }
    });
  }
  // Until the writer has asked for two checkpoints of its own.
  uint64_t explicit_checkpoints = 0;
  for (int round = 0; round < 20000; ++round) {
    if (p.store->stats().checkpoints >=
        boot_checkpoints + explicit_checkpoints + 2) {
      break;
    }
    EXPECT_TRUE(p.store->Sync().ok());
    if (round % 10 == 0) {
      EXPECT_TRUE(p.store->Checkpoint().ok());
      ++explicit_checkpoints;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  EXPECT_GE(p.store->stats().checkpoints,
            boot_checkpoints + explicit_checkpoints + 2);
  ASSERT_TRUE(p.store->error().ok()) << p.store->error().ToString();
  const auto before = ImageOf(*p.instance);
  Kill(p);
  Process q = Boot(dir, opts);
  EXPECT_EQ(ImageOf(*q.instance), before);
}

// A process killed mid-checkpoint leaves the temp file behind, and nothing
// else would ever delete it: the next Open does, in the current naming and
// the older pid-suffixed one, and leaves unrelated files alone.
TEST_F(PersistentStoreTest, OpenDeletesCheckpointTemps) {
  const std::string dir = TempDir("temps");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string cp = CheckpointManager(dir).CheckpointPath(3);
  const std::vector<std::string> temps = {cp + ".tmp", cp + ".tmp.4242.0"};
  const std::string unrelated = dir + "/notes.tmp";
  for (const std::string& path : temps) std::ofstream(path) << "partial";
  std::ofstream(unrelated) << "keep";

  Process p = Boot(dir);
  for (const std::string& path : temps) {
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << path;
  }
  EXPECT_EQ(::access(unrelated.c_str(), F_OK), 0);
}

TEST_F(PersistentStoreTest, CorruptLogFailsClosed) {
  const std::string dir = TempDir("corrupt");
  Process p = Boot(dir);
  ASSERT_TRUE(p.instance->Set(kCtx, "k", CacheValue::OfData("v")).ok());
  const uint64_t seq = p.store->wal_seq();
  Kill(p);

  // Flip a byte in the middle of the live segment (past the head record).
  const std::string path = Wal::SegmentPath(dir, seq);
  WalScanResult scan = Wal::ScanFile(path);
  ASSERT_GE(scan.records.size(), 2u);
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(scan.record_ends[0] + 9), SEEK_SET),
            0);
  char b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  std::fseek(f, -1, SEEK_CUR);
  b ^= 0x40;
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  PersistentStore store(dir);
  CacheInstance::Options opts;
  opts.persistence = &store;
  CacheInstance instance(1, &clock_, opts);
  EXPECT_EQ(store.Open(instance).code(), Code::kInternal);
}

TEST_F(PersistentStoreTest, SegmentGapFailsClosed) {
  const std::string dir = TempDir("gap");
  RemoveTree(dir);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  // Segments 0 and 2 with no 1: history is missing, recovery must refuse.
  for (uint64_t seq : {0ull, 2ull}) {
    Wal wal;
    ASSERT_TRUE(wal.Open(dir, seq).ok());
    WalRecord rec;
    rec.type = WalRecordType::kConfigId;
    ASSERT_TRUE(wal.Append(rec, true).ok());
    wal.Close();
  }
  // Opening segment 0 reserved an empty segment 1: remove it.
  ASSERT_EQ(::unlink(Wal::SegmentPath(dir, 1).c_str()), 0);
  PersistentStore store(dir);
  CacheInstance::Options opts;
  opts.persistence = &store;
  CacheInstance instance(1, &clock_, opts);
  EXPECT_EQ(store.Open(instance).code(), Code::kInternal);
}

TEST_F(PersistentStoreTest, TornTailInMiddleSegmentFailsClosed) {
  const std::string dir = TempDir("midtorn");
  Process p = Boot(dir);
  ASSERT_TRUE(p.instance->Set(kCtx, "a", CacheValue::OfData("1")).ok());
  const uint64_t first = p.store->wal_seq();
  // Rotate without checkpointing so two segments must both replay.
  {
    Wal wal;  // new handle appends nothing; rotate via a second segment
    ASSERT_TRUE(wal.Open(dir, first + 1).ok());
    WalRecord rec;
    rec.type = WalRecordType::kConfigId;
    ASSERT_TRUE(wal.Append(rec, true).ok());
    wal.Close();
  }
  Kill(p);

  // Tear the *first* segment's tail: that is lost history, not a crash.
  const std::string path = Wal::SegmentPath(dir, first);
  WalScanResult scan = Wal::ScanFile(path);
  ASSERT_TRUE(scan.error.ok());
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(scan.valid_bytes - 3)), 0);

  PersistentStore store(dir);
  CacheInstance::Options opts;
  opts.persistence = &store;
  CacheInstance instance(1, &clock_, opts);
  EXPECT_EQ(store.Open(instance).code(), Code::kInternal);
}

/// Lowers RLIMIT_FSIZE for the process with SIGXFSZ ignored, so a write
/// past `bytes` fails with EFBIG (the shape of a full disk); restores both
/// on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

TEST_F(PersistentStoreTest, WalWriteErrorStopsAcknowledgingEagerOps) {
  const std::string dir = TempDir("wal_error");
  Process p = Boot(dir);
  CacheInstance& a = *p.instance;
  std::string data_store = "v1";  // the writer's backing store for "k"
  ASSERT_TRUE(a.Set(kCtx, "k", CacheValue::OfData(data_store, 1)).ok());
  ASSERT_TRUE(p.store->Sync().ok());

  const std::string path = Wal::SegmentPath(dir, p.store->wal_seq());
  const auto file_size = [&path] {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : off_t{-1};
  };
  const off_t synced_size = file_size();
  Status sync;
  {
    // Room for a small upsert, not for the 64 KiB one after it: the log
    // fails with the small one written but not yet fsynced.
    FileSizeLimit limit(static_cast<rlim_t>(synced_size) + 1024);
    ASSERT_TRUE(a.Set(kCtx, "small", CacheValue::OfData("s")).ok());
    ASSERT_TRUE(Eventually([&] { return file_size() > synced_size; }));
    ASSERT_TRUE(
        a.Set(kCtx, "big", CacheValue::OfData(std::string(64 << 10, 'b')))
            .ok());
    sync = p.store->Sync();
  }
  EXPECT_FALSE(sync.ok());
  ASSERT_FALSE(p.store->error().ok());
  EXPECT_NE(p.store->error().message().find("wal write failed"),
            std::string::npos)
      << p.store->error().ToString();
  // The writer idles from then on: it does not retry the failed log.
  const std::clock_t cpu = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(std::clock() - cpu, CLOCKS_PER_SEC / 10);

  // From the error on, no eager op is acknowledged.
  const Result<LeaseToken> token = a.Qareg(kCtx, "k");
  EXPECT_EQ(token.code(), Code::kUnavailable);
  EXPECT_EQ(a.ISet(kCtx, "i").code(), Code::kUnavailable);
  EXPECT_EQ(a.IDelete(kCtx, "i", LeaseToken{1}).code(), Code::kUnavailable);
  EXPECT_EQ(a.ObserveConfigId(77).code(), Code::kUnavailable);
  EXPECT_EQ(a.GrantFragmentLease(0, 78, clock_.Now() + Seconds(60), 78).code(),
            Code::kUnavailable);

  // A writer acts only on an acknowledged Qareg. Had the token escaped, the
  // write below would land in the data store while the log, which stopped
  // recording, never learns of the quarantine: after a kill the restart
  // would serve v1 against a store holding v2.
  if (token.ok()) {
    data_store = "v2";
    ASSERT_TRUE(a.Dar(kCtx, "k", *token).ok());
  }
  Kill(p);

  Process q = Boot(dir);
  auto cached = q.instance->Get(kCtx, "k");
  if (cached.ok()) {
    EXPECT_EQ(cached->data, data_store) << "stale read";
  }
}

// The acceptance-criteria integration test: a SIGKILL'd primary rejoins
// through the normal failover -> transient -> recovery cycle. The restarted
// process replays its data dir into a cold CacheInstance, comes back warm
// (clean keys are cache hits immediately), serves the post-failure value
// for dirty keys, and the StaleReadChecker observes zero stale reads across
// the whole episode.
TEST_F(PersistentStoreTest, KilledPrimaryRejoinsWarmThroughRecoveryCycle) {
  constexpr size_t kInstances = 4;
  constexpr size_t kFragments = 8;
  const std::string dir = TempDir("lifecycle");

  // Each store is declared after the instances, so it closes before they
  // are destroyed.
  std::vector<std::unique_ptr<CacheInstance>> instances;
  auto store0 = std::make_unique<PersistentStore>(dir);
  std::vector<CacheInstance*> raw;
  for (size_t i = 0; i < kInstances; ++i) {
    CacheInstance::Options opts;
    if (i == 0) opts.persistence = store0.get();
    instances.push_back(std::make_unique<CacheInstance>(
        static_cast<InstanceId>(i), &clock_, opts));
    raw.push_back(instances.back().get());
  }
  ASSERT_TRUE(store0->Open(*instances[0]).ok());

  DataStore data_store;
  Coordinator::Options copts;
  copts.policy = RecoveryPolicy::GeminiO();
  Coordinator coordinator(&clock_, raw, kFragments, copts);
  GeminiClient client(&clock_, &coordinator, raw, &data_store, {});
  RecoveryState recovery_state(kFragments);
  client.BindRecoveryState(&recovery_state);
  RecoveryWorker worker(&clock_, &coordinator, raw, {});
  StaleReadChecker checker(&data_store);
  Session session;

  for (int i = 0; i < 200; ++i) {
    data_store.Put("user" + std::to_string(i), "v0");
  }
  auto audit = [&](const std::string& key) {
    auto r = client.Read(session, key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_FALSE(checker.OnRead(clock_.Now(), key, r->value.version)) << key;
  };

  // Warm every cache, then write a few keys through the Q path so the log
  // holds completed quarantine cycles too.
  std::vector<std::string> on_zero;
  auto cfg = coordinator.GetConfiguration();
  for (int i = 0; i < 200; ++i) {
    std::string key = "user" + std::to_string(i);
    audit(key);
    if (cfg->fragment(cfg->FragmentOf(key)).primary == 0 &&
        on_zero.size() < 12) {
      on_zero.push_back(std::move(key));
    }
  }
  ASSERT_GE(on_zero.size(), 4u);
  ASSERT_TRUE(client.Write(session, on_zero[0]).ok());
  audit(on_zero[0]);

  const auto image_before = ImageOf(*instances[0]);
  const ConfigId config_before = instances[0]->latest_config_id();
  ASSERT_FALSE(image_before.empty());

  // SIGKILL the primary: the process (store + in-memory state) dies; only
  // the data dir survives. The instance *object* stays (the coordinator
  // holds pointers), so model the dead process by detaching the store and
  // wiping all volatile state.
  instances[0]->Fail();
  store0.reset();
  instances[0]->SetPersistenceSink(nullptr);

  // Failover: writes while the primary is down dirty half the keys.
  clock_.Advance(Seconds(1));
  coordinator.OnInstanceFailed(0);
  for (size_t i = 0; i < on_zero.size(); i += 2) {
    ASSERT_TRUE(client.Write(session, on_zero[i]).ok());
  }
  for (const auto& k : on_zero) audit(k);

  // Restart: a fresh store replays the data dir into the (cold, wiped)
  // instance. Content and config id come back from disk alone.
  instances[0]->RecoverVolatile();
  ASSERT_EQ(instances[0]->stats().entry_count, 0u);
  auto store1 = std::make_unique<PersistentStore>(dir);
  instances[0]->SetPersistenceSink(store1.get());
  ASSERT_TRUE(store1->Open(*instances[0]).ok());

  EXPECT_EQ(ImageOf(*instances[0]), image_before);
  EXPECT_EQ(instances[0]->latest_config_id(), config_before);

  // Rejoin: the coordinator runs the standard recovery-mode cycle.
  clock_.Advance(Seconds(1));
  coordinator.OnInstanceRecovered(0);

  // A clean key (not written while down) must be a warm cache hit on the
  // recovered primary immediately — the whole point of the durable medium.
  std::string clean_key;
  for (size_t i = 1; i < on_zero.size(); i += 2) {
    clean_key = on_zero[i];
    break;
  }
  ASSERT_FALSE(clean_key.empty());
  auto clean = client.Read(session, clean_key);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->cache_hit);
  EXPECT_FALSE(checker.OnRead(clock_.Now(), clean_key, clean->value.version));

  // Dirty keys serve the post-failure value; drain recovery back to normal.
  for (const auto& k : on_zero) audit(k);
  Session worker_session;
  for (int guard = 0; guard < 20000; ++guard) {
    if (!worker.has_work() &&
        !worker.TryAdoptFragment(worker_session).has_value()) {
      break;
    }
    (void)worker.Step(worker_session);
  }
  EXPECT_TRUE(coordinator.FragmentsInMode(FragmentMode::kRecovery).empty());
  for (const auto& k : on_zero) audit(k);
  EXPECT_EQ(checker.total_stale(), 0u);

  // And the recovered process is itself durable: kill it again and the
  // post-recovery state comes back.
  const auto image_after = ImageOf(*instances[0]);
  store1.reset();
  instances[0]->SetPersistenceSink(nullptr);

  CacheInstance fresh(0, &clock_);
  PersistentStore store2(dir);
  fresh.SetPersistenceSink(&store2);
  ASSERT_TRUE(store2.Open(fresh).ok());
  EXPECT_EQ(ImageOf(fresh), image_after);
}

}  // namespace
}  // namespace gemini
