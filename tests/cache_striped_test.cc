// Striped CacheInstance tests: the lock-striped key table introduced for
// multi-core geminid (Options::num_stripes > 1). Covers stripe-count
// resolution, basic operation across stripes, the per-stripe byte budget,
// exact client-observed stats accounting under a multi-threaded hammer, a
// full-op-mix hammer whose byte/entry accounting must still reconcile, a
// snapshot taken while writers run (ForEachEntry's all-stripes lock makes
// the cut coherent), and persistent recovery sweeping Q-quarantined keys
// across stripes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/snapshot.h"
#include "src/common/clock.h"
#include "src/common/rng.h"

namespace gemini {
namespace {

constexpr OpContext kLooseCtx{1, kInvalidFragment};

TEST(CacheStriped, StripeCountRoundsUpToPowerOfTwoAndClamps) {
  SystemClock clock;
  struct Case {
    uint32_t requested;
    uint32_t effective;
  };
  for (const Case c : {Case{0, 1}, Case{1, 1}, Case{3, 4}, Case{16, 16},
                       Case{100, 128}, Case{300, 256}}) {
    CacheInstance::Options opts;
    opts.num_stripes = c.requested;
    CacheInstance inst(0, &clock, opts);
    EXPECT_EQ(inst.stripe_count(), c.effective) << "requested " << c.requested;
  }
}

TEST(CacheStriped, BasicOpsSpanStripes) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.num_stripes = 8;
  CacheInstance inst(0, &clock, opts);

  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(inst.Set(kLooseCtx, key, CacheValue::OfData("v" + key)).ok());
  }
  EXPECT_EQ(inst.stats().entry_count, 200u);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto r = inst.Get(kLooseCtx, key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_EQ(r->data, "v" + key);
  }
  EXPECT_EQ(inst.Get(kLooseCtx, "absent").status().code(), Code::kNotFound);

  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(inst.Delete(kLooseCtx, "key" + std::to_string(i)).ok());
  }
  const auto s = inst.stats();
  EXPECT_EQ(s.entry_count, 100u);
  EXPECT_EQ(s.deletes, 100u);
  EXPECT_TRUE(inst.ContainsRaw("key1"));
  EXPECT_FALSE(inst.ContainsRaw("key0"));
}

TEST(CacheStriped, EvictionRespectsPerStripeBudget) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.capacity_bytes = 64 * 1024;
  opts.per_entry_overhead = 0;
  opts.num_stripes = 8;
  CacheInstance inst(0, &clock, opts);

  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(inst.Set(kLooseCtx, "e" + std::to_string(i),
                         CacheValue::OfSize(256))
                    .ok());
  }
  const auto s = inst.stats();
  // The budget is capacity/8 per stripe; each stripe may overshoot by at
  // most its MRU entry, so the global bound is capacity + 8 entries' worth.
  EXPECT_LE(s.used_bytes, 64 * 1024u + 8 * (256 + 16));
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.entry_count, 0u);
}

// Every counter movement in this op mix is observable from the caller's
// return codes: Get ok = hit, Get kNotFound = miss, Set ok = insert,
// Cas ok = insert, Cas kNotFound = miss (Cas's version-mismatch
// kLeaseInvalid moves nothing). With no capacity there are no evictions, so
// the instance's stats must match the clients' tallies *exactly* — the
// striped counters may not lose or double-count a single op under
// contention.
TEST(CacheStriped, HammerExactClientObservedAccounting) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.num_stripes = 16;
  CacheInstance inst(0, &clock, opts);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> hits{0}, misses{0}, inserts{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 7919 + 1);
      uint64_t my_hits = 0, my_misses = 0, my_inserts = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(rng.NextBounded(512));
        switch (rng.NextBounded(6)) {
          case 0:
          case 1:
          case 2: {
            auto r = inst.Get(kLooseCtx, key);
            if (r.ok()) {
              ++my_hits;
            } else {
              ASSERT_EQ(r.status().code(), Code::kNotFound);
              ++my_misses;
            }
            break;
          }
          case 3:
          case 4: {
            // Versions 0/1 let some Cas calls below hit the version-
            // mismatch path, which must move no counter.
            ASSERT_TRUE(
                inst.Set(kLooseCtx, key,
                         CacheValue::OfData("v", rng.NextBounded(2)))
                    .ok());
            ++my_inserts;
            break;
          }
          default: {
            const Status s =
                inst.Cas(kLooseCtx, key, 0, CacheValue::OfData("c"));
            if (s.ok()) {
              ++my_inserts;
            } else if (s.code() == Code::kNotFound) {
              ++my_misses;
            } else {
              ASSERT_EQ(s.code(), Code::kLeaseInvalid);
            }
            break;
          }
        }
      }
      hits += my_hits;
      misses += my_misses;
      inserts += my_inserts;
    });
  }
  for (auto& t : threads) t.join();

  const auto s = inst.stats();
  EXPECT_EQ(s.hits, hits.load());
  EXPECT_EQ(s.misses, misses.load());
  EXPECT_EQ(s.inserts, inserts.load());
  EXPECT_EQ(s.deletes, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.config_discards, 0u);
}

// The full op mix — leases, write-through installs, appends, recovery
// primitives — hammered across stripes. Afterwards the byte/entry accounting
// must reconcile against a fresh walk of the table: a single lost
// lock-ordering edge or double-charged entry shows up here (and as a TSan
// report).
TEST(CacheStriped, HammerMixedLeaseOpsStaysCoherent) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.num_stripes = 8;
  CacheInstance inst(0, &clock, opts);
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpContext ctx{1, 0};
      Rng rng(static_cast<uint64_t>(t) + 42);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "m" + std::to_string(rng.NextBounded(128));
        switch (rng.NextBounded(7)) {
          case 0: {
            auto r = inst.IqGet(ctx, key);
            if (r.ok() && !r->value.has_value()) {
              (void)inst.IqSet(ctx, key, CacheValue::OfSize(32), r->i_token);
            }
            break;
          }
          case 1: {
            auto q = inst.Qareg(ctx, key);
            if (q.ok()) (void)inst.Dar(ctx, key, *q);
            break;
          }
          case 2: {
            auto q = inst.Qareg(ctx, key);
            if (q.ok()) {
              (void)inst.Rar(ctx, key,
                             CacheValue::OfSize(24, static_cast<Version>(i)),
                             *q);
            }
            break;
          }
          case 3:
            (void)inst.Append(ctx, key, "x");
            break;
          case 4:
            (void)inst.Set(ctx, key, CacheValue::OfSize(16));
            break;
          case 5: {
            auto s = inst.ISet(ctx, key);
            if (s.ok()) (void)inst.IDelete(ctx, key, *s);
            break;
          }
          default:
            (void)inst.Get(ctx, key);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t walked_bytes = 0, walked_entries = 0;
  inst.ForEachEntry([&](std::string_view key, const CacheValue& value,
                        ConfigId) {
    walked_bytes += key.size() + value.charged_bytes +
                    inst.options().per_entry_overhead;
    ++walked_entries;
  });
  const auto s = inst.stats();
  EXPECT_EQ(s.used_bytes, walked_bytes);
  EXPECT_EQ(s.entry_count, walked_entries);

  // Still fully operational.
  ASSERT_TRUE(inst.Set(OpContext{1, 0}, "final", CacheValue::OfSize(8)).ok());
  EXPECT_TRUE(inst.Get(OpContext{1, 0}, "final").ok());
}

// Snapshots taken while writers mutate the table: ForEachEntry holds every
// stripe lock for the whole walk, so WriteToFile serializes against all
// writers at one point — each snapshot must be internally valid (checksum
// passes on load) and every entry self-consistent (its payload embeds its
// key, so a torn read would be visible). The restore target deliberately
// uses a different stripe count: the on-disk format is striping-agnostic.
TEST(CacheStriped, SnapshotWhileWritingSeesCoherentCut) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.num_stripes = 16;
  CacheInstance inst(0, &clock, opts);
  const std::string path = ::testing::TempDir() + "/striped_snap.bin";
  std::remove(path.c_str());

  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 101);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string key = "s" + std::to_string(rng.NextBounded(128));
        if (rng.NextBounded(8) == 0) {
          (void)inst.Delete(kLooseCtx, key);
        } else {
          (void)inst.Set(kLooseCtx, key,
                         CacheValue::OfData(key + "#" + std::to_string(i)));
        }
      }
    });
  }

  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(Snapshot::WriteToFile(inst, path).ok()) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();

  CacheInstance::Options restore_opts;
  restore_opts.num_stripes = 4;
  CacheInstance restored(0, &clock, restore_opts);
  ASSERT_TRUE(Snapshot::LoadFromFile(restored, path).ok());
  size_t checked = 0;
  restored.ForEachEntry([&](std::string_view key, const CacheValue& value,
                            ConfigId) {
    // Self-consistency: the payload names the key it was written under.
    const std::string prefix = std::string(key) + "#";
    EXPECT_EQ(value.data.substr(0, prefix.size()), prefix)
        << "torn entry for " << key;
    ++checked;
  });
  EXPECT_GT(checked, 0u);
  std::remove(path.c_str());
}

TEST(CacheStriped, PersistentRecoverySweepsQuarantineAcrossStripes) {
  SystemClock clock;
  CacheInstance::Options opts;
  opts.num_stripes = 8;
  CacheInstance inst(0, &clock, opts);
  inst.GrantFragmentLease(0, 1, clock.Now() + Seconds(3600), 1);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(inst.Set(kLooseCtx, "r" + std::to_string(i),
                         CacheValue::OfData("v"))
                    .ok());
  }
  // Outstanding Q leases on keys that land in different stripes: their
  // writers may have updated the store without completing the delete, so a
  // persistent recovery must drop the entries — wherever they live.
  std::vector<std::string> quarantined;
  for (int i = 0; i < 100 && quarantined.size() < 5; i += 7) {
    const std::string key = "r" + std::to_string(i);
    auto q = inst.Qareg(kLooseCtx, key);
    ASSERT_TRUE(q.ok());
    quarantined.push_back(key);
  }
  inst.Fail();
  EXPECT_EQ(inst.Get(kLooseCtx, "r1").status().code(), Code::kUnavailable);
  inst.RecoverPersistent();

  EXPECT_TRUE(inst.available());
  for (const auto& key : quarantined) {
    EXPECT_FALSE(inst.ContainsRaw(key)) << key << " not swept";
  }
  EXPECT_TRUE(inst.ContainsRaw("r1"));  // non-quarantined content intact
  // Fragment leases are volatile process state.
  EXPECT_FALSE(inst.HoldsFragmentLease(0));
}

}  // namespace
}  // namespace gemini
