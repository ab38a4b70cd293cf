// RecoveryWorker tests (Algorithm 3): Redlease mutual exclusion, overwrite
// vs invalidate, completion notification, idempotent replay, abandonment,
// replay of a key whose ISet backed off mid-burst, invalidation of a chunk
// whose fetch failed, and the ±W working-set phase (Section 3.2.2): the
// scan's paging and termination, hottest-first restore order, a racing
// write voiding an armed key, warm and backed-off keys skipped,
// termination reporting, and clean abort when the secondary dies
// mid-stream.
#include "src/recovery/recovery_worker.h"

#include "src/coordinator/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/client/gemini_client.h"
#include "src/common/hash.h"

namespace gemini {
namespace {

/// A CacheInstance that runs one-shot hooks right before and right after it
/// answers a MultiGet — for a recovery worker fetching from this instance,
/// the windows between its arm and fetch bursts and between its fetch and
/// fill bursts.
class HookedInstance : public CacheInstance {
 public:
  using CacheInstance::CacheInstance;

  std::vector<Result<CacheValue>> MultiGet(
      const std::vector<GetRequest>& reqs) override {
    if (auto hook = std::exchange(before_multi_get, nullptr)) hook();
    auto out = CacheInstance::MultiGet(reqs);
    if (auto hook = std::exchange(after_multi_get, nullptr)) hook();
    return out;
  }

  std::function<void()> before_multi_get;
  std::function<void()> after_multi_get;
};

class RecoveryWorkerTest : public ::testing::Test {
 protected:
  static constexpr size_t kInstances = 3;
  static constexpr size_t kFragments = 6;

  void Build(RecoveryPolicy policy, RecoveryWorker::Options wopts = {}) {
    policy_ = policy;
    instances_.clear();
    raw_.clear();
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<HookedInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
    }
    Coordinator::Options opts;
    opts.policy = policy;
    coordinator_ =
        std::make_unique<Coordinator>(&clock_, raw_, kFragments, opts);
    GeminiClient::Options copts;
    copts.working_set_transfer = policy.working_set_transfer;
    client_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                             raw_, &store_, copts);
    wopts.overwrite_dirty = policy.overwrite_dirty;
    worker_ = std::make_unique<RecoveryWorker>(&clock_, coordinator_.get(),
                                               raw_, wopts);
    for (int i = 0; i < 400; ++i) {
      store_.Put("user" + std::to_string(i), "v" + std::to_string(i));
    }
  }

  // Keys of instance-0 fragments, dirtied during an emulated failure.
  std::vector<std::string> DirtyInstance0Keys(int want) {
    std::vector<std::string> keys;
    auto cfg = coordinator_->GetConfiguration();
    for (int i = 0; i < 400 && static_cast<int>(keys.size()) < want; ++i) {
      std::string key = "user" + std::to_string(i);
      if (cfg->fragment(cfg->FragmentOf(key)).primary == 0) {
        keys.push_back(std::move(key));
      }
    }
    return keys;
  }

  // Up to `want` store keys of fragment `f`, in key order.
  std::vector<std::string> KeysOf(FragmentId f, size_t want) {
    auto cfg = coordinator_->GetConfiguration();
    std::vector<std::string> keys;
    for (int i = 0; i < 400 && keys.size() < want; ++i) {
      std::string key = "user" + std::to_string(i);
      if (cfg->FragmentOf(key) == f) keys.push_back(std::move(key));
    }
    return keys;
  }

  // Recovers every other adoptable fragment, then adopts `f`, so the test
  // can step fragment f's task in isolation.
  void RecoverOthersThenAdopt(Session& s, FragmentId f) {
    for (int guard = 0;; ++guard) {
      ASSERT_LT(guard, 10000) << "never adopted fragment " << f;
      if (!worker_->has_work()) {
        auto adopted = worker_->TryAdoptFragment(s);
        ASSERT_TRUE(adopted.has_value());
        if (*adopted == f) return;
      }
      (void)worker_->Step(s);
    }
  }

  // Runs the worker until it goes idle (nothing to adopt).
  void DrainWorker() {
    Session s;
    for (int guard = 0; guard < 10000; ++guard) {
      if (!worker_->has_work() &&
          !worker_->TryAdoptFragment(s).has_value()) {
        return;
      }
      (void)worker_->Step(s);
    }
    FAIL() << "worker did not drain";
  }

  RecoveryPolicy policy_;
  VirtualClock clock_;
  DataStore store_;
  std::vector<std::unique_ptr<HookedInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  std::unique_ptr<RecoveryWorker> worker_;
  Session session_;
};

TEST_F(RecoveryWorkerTest, NothingToAdoptWithoutRecoveryFragments) {
  Build(RecoveryPolicy::GeminiO());
  EXPECT_FALSE(worker_->TryAdoptFragment(session_).has_value());
  EXPECT_TRUE(worker_->Step(session_));  // no work -> trivially done
}

TEST_F(RecoveryWorkerTest, DrainsDirtyListsAndCompletesRecovery) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(5);
  ASSERT_FALSE(keys.empty());
  for (const auto& k : keys) (void)client_->Read(session_, k);  // warm primary
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Write(session_, k).ok());
  // Repopulate the secondary with fresh values for some keys.
  for (const auto& k : keys) (void)client_->Read(session_, k);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_FALSE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());

  DrainWorker();
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kTransient).empty());
  EXPECT_GT(worker_->stats().fragments_recovered, 0u);
  // Dirty lists deleted from the secondaries.
  // (raw containment checked below)
  for (FragmentId f = 0; f < kFragments; ++f) {
    for (auto* inst : raw_) {
      EXPECT_FALSE(inst->ContainsRaw(DirtyListKey(f)));
    }
  }
}

TEST_F(RecoveryWorkerTest, OverwriteInstallsLatestSecondaryValue) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(3);
  ASSERT_FALSE(keys.empty());
  const std::string key = keys[0];
  (void)client_->Read(session_, key);  // old value in primary
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, key, "fresh").ok());
  (void)client_->Read(session_, key);  // fresh value into secondary
  coordinator_->OnInstanceRecovered(0);

  DrainWorker();
  EXPECT_GT(worker_->stats().keys_overwritten, 0u);
  // The primary now holds the fresh value; a client read hits it without a
  // store query.
  const auto queries_before = store_.stats().queries;
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->value.data, "fresh");
  EXPECT_EQ(r->value.version, store_.VersionOf(key));
  EXPECT_EQ(store_.stats().queries, queries_before);
}

TEST_F(RecoveryWorkerTest, OverwriteDeletesWhenSecondaryLacksValue) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(3);
  ASSERT_FALSE(keys.empty());
  const std::string key = keys[0];
  (void)client_->Read(session_, key);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, key, "fresh").ok());
  // No read afterwards: the secondary holds no value for the key.
  coordinator_->OnInstanceRecovered(0);

  DrainWorker();
  EXPECT_GT(worker_->stats().keys_deleted, 0u);
  EXPECT_FALSE(raw_[0]->ContainsRaw(key));
  // A later read refills from the store with the fresh value.
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value.data, "fresh");
}

TEST_F(RecoveryWorkerTest, InvalidateModeDeletesWithoutOverwrite) {
  Build(RecoveryPolicy::GeminiI());
  auto keys = DirtyInstance0Keys(3);
  ASSERT_FALSE(keys.empty());
  const std::string key = keys[0];
  (void)client_->Read(session_, key);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, key, "fresh").ok());
  (void)client_->Read(session_, key);  // secondary holds the fresh value
  coordinator_->OnInstanceRecovered(0);

  DrainWorker();
  EXPECT_EQ(worker_->stats().keys_overwritten, 0u);
  EXPECT_GT(worker_->stats().keys_deleted, 0u);
  EXPECT_FALSE(raw_[0]->ContainsRaw(key));
}

TEST_F(RecoveryWorkerTest, RedleaseKeepsSecondWorkerOut) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(1);
  ASSERT_FALSE(keys.empty());
  (void)client_->Read(session_, keys[0]);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, keys[0]).ok());
  coordinator_->OnInstanceRecovered(0);

  auto adopted = worker_->TryAdoptFragment(session_);
  ASSERT_TRUE(adopted.has_value());

  RecoveryWorker second(&clock_, coordinator_.get(), raw_);
  Session s2;
  auto other = second.TryAdoptFragment(s2);
  // The second worker must not adopt the same fragment.
  if (other.has_value()) {
    EXPECT_NE(*other, *adopted);
  }
  EXPECT_GE(second.stats().redlease_conflicts +
                (other.has_value() ? 1u : 0u),
            1u);
}

TEST_F(RecoveryWorkerTest, ExpiredRedleaseAbandonsAndAnotherTakesOver) {
  RecoveryWorker::Options wopts;
  wopts.keys_per_step = 1;
  Build(RecoveryPolicy::GeminiO(), wopts);
  auto keys = DirtyInstance0Keys(4);
  ASSERT_GE(keys.size(), 2u);
  for (const auto& k : keys) (void)client_->Read(session_, k);
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Write(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);

  ASSERT_TRUE(worker_->TryAdoptFragment(session_).has_value());
  // Let the Redlease lapse mid-processing (worker crash emulation).
  clock_.Advance(Seconds(10));
  EXPECT_TRUE(worker_->Step(session_));  // abandons: lease renewal fails
  EXPECT_GE(worker_->stats().fragments_abandoned, 1u);

  // Replay by a fresh worker is idempotent and completes recovery.
  RecoveryWorker second(&clock_, coordinator_.get(), raw_);
  Session s2;
  for (int guard = 0; guard < 10000; ++guard) {
    if (!second.has_work() && !second.TryAdoptFragment(s2).has_value()) break;
    (void)second.Step(s2);
  }
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());
}

TEST_F(RecoveryWorkerTest, AbandonsWhenPrimaryFailsAgain) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(2);
  ASSERT_FALSE(keys.empty());
  (void)client_->Read(session_, keys[0]);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, keys[0]).ok());
  coordinator_->OnInstanceRecovered(0);
  ASSERT_TRUE(worker_->TryAdoptFragment(session_).has_value());

  // Transition (5): the primary fails again mid-recovery. The instance
  // actually crashes here so the worker's next touch observes kUnavailable.
  raw_[0]->Fail();
  coordinator_->OnInstanceFailed(0);
  EXPECT_TRUE(worker_->Step(session_));
  EXPECT_FALSE(worker_->has_work());
  EXPECT_GE(worker_->stats().fragments_abandoned, 1u);
}

TEST_F(RecoveryWorkerTest, MissingDirtyListReportsUnavailable) {
  Build(RecoveryPolicy::GeminiO());
  auto keys = DirtyInstance0Keys(1);
  ASSERT_FALSE(keys.empty());
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(keys[0]);
  (void)client_->Read(session_, keys[0]);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, keys[0]).ok());
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  // Evict the list before any worker adopts the fragment.
  auto cfg = coordinator_->GetConfiguration();
  const InstanceId sec = cfg->fragment(f).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(raw_[sec]->Delete(internal, DirtyListKey(f)).ok());

  DrainWorker();
  // The fragment was discarded rather than recovered.
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);
  EXPECT_GE(coordinator_->discarded_fragment_count(), 1u);
}

TEST_F(RecoveryWorkerTest, WorkingSetScanEnumeratesHottestFirstAndResumes) {
  // The enumeration the ±W phase rides on, tested directly: a single-stripe
  // instance yields exact global LRU order, two keys per page, and any
  // returned cursor resumes without re-emitting or skipping.
  CacheInstance instance(0, &clock_);
  instance.GrantFragmentLease(0, 1, clock_.Now() + Seconds(60), 1);
  const OpContext ctx{kInternalConfigId, 0};
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back("wsk" + std::to_string(i));
    ASSERT_TRUE(
        instance.Set(ctx, keys.back(), CacheValue::OfData("v", 1)).ok());
  }
  // Recency order is the Set order: wsk5 is the hottest. Internal keys
  // (e.g. a dirty list riding in the same instance) must never surface.
  ASSERT_TRUE(
      instance.Set(ctx, DirtyListKey(0), CacheValue::OfData("m")).ok());

  std::vector<std::string> seen;
  uint64_t cursor = 0;
  size_t pages = 0;
  for (;; ++pages) {
    ASSERT_LT(pages, 10u) << "scan did not terminate";
    auto page = instance.WorkingSetScan(ctx, /*num_fragments=*/1, cursor,
                                        /*max_keys=*/2);
    ASSERT_TRUE(page.ok());
    for (const auto& item : page->items) seen.push_back(item.key);
    cursor = page->next_cursor;
    if (cursor == 0) break;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"wsk5", "wsk4", "wsk3", "wsk2",
                                            "wsk1", "wsk0"}));

  // The scan is a pure read: re-running it yields the identical sequence
  // (no LRU perturbation), and a mid-scan cursor replays its own tail.
  auto first = instance.WorkingSetScan(ctx, 1, 0, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->items.size(), 2u);
  EXPECT_EQ(first->items[0].key, "wsk5");
  auto resumed = instance.WorkingSetScan(ctx, 1, first->next_cursor, 2);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->items.size(), 2u);
  EXPECT_EQ(resumed->items[0].key, "wsk3");
  EXPECT_EQ(resumed->items[1].key, "wsk2");
}

TEST_F(RecoveryWorkerTest, WorkingSetPhaseRestoresHottestFirstAndTerminates) {
  RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;
  wopts.wst_page_keys = 2;
  Build(RecoveryPolicy::GeminiOW(), wopts);

  // Six keys of one instance-0 fragment. They are read only *during* the
  // outage, so the secondary accumulates them (the outage working set) and
  // the restarted primary holds none of them.
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 6);
  ASSERT_EQ(keys.size(), 6u);

  coordinator_->OnInstanceFailed(0);
  // Reads in order k0..k5 warm the (single-stripe) secondary: k5 hottest.
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  // Recover the other instance-0 fragments first so fragment f's phase can
  // be stepped page by page in isolation.
  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));

  // Step 1 drains the (marker-only) dirty list and rolls into the
  // working-set phase instead of finishing the task.
  EXPECT_FALSE(worker_->Step(s));
  EXPECT_TRUE(worker_->has_work());

  // Each further step installs one priority page: hottest pair first.
  ASSERT_FALSE(worker_->Step(s));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[5]));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[4]));
  EXPECT_FALSE(raw_[0]->ContainsRaw(keys[3]));
  EXPECT_FALSE(raw_[0]->ContainsRaw(keys[0]));
  ASSERT_FALSE(worker_->Step(s));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[3]));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[2]));
  EXPECT_FALSE(worker_->Step(s));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[1]));
  EXPECT_TRUE(raw_[0]->ContainsRaw(keys[0]));

  // The next (empty) page terminates the transfer: Redlease released,
  // coordinator notified, fragment back to normal.
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_FALSE(worker_->has_work());
  EXPECT_EQ(worker_->stats().wst_keys_copied, 6u);
  EXPECT_GE(worker_->stats().wst_completed, 1u);
  EXPECT_EQ(worker_->stats().wst_aborts, 0u);
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);

  // The restored primary serves the working set as cache hits, byte-exact.
  const auto queries_before = store_.stats().queries;
  for (const auto& k : keys) {
    auto r = client_->Read(session_, k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->cache_hit) << k;
    EXPECT_EQ(r->value.version, store_.VersionOf(k)) << k;
  }
  EXPECT_EQ(store_.stats().queries, queries_before);
}

TEST_F(RecoveryWorkerTest, WorkingSetAbortsCleanlyWhenSecondaryDiesMidStream) {
  RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;
  wopts.wst_page_keys = 2;
  Build(RecoveryPolicy::GeminiOW(), wopts);

  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 6);
  ASSERT_EQ(keys.size(), 6u);

  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  // The replica serving fragment f through the outage, per the *current*
  // (recovery-mode) configuration.
  const InstanceId sec =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_LT(sec, kInstances);

  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));
  EXPECT_FALSE(worker_->Step(s));  // drain -> working-set phase
  EXPECT_FALSE(worker_->Step(s));  // first page lands

  // The secondary dies mid-stream. The worker's next step must abort the
  // task cleanly — no retry loop against a corpse, no lease left behind.
  raw_[sec]->Fail();
  coordinator_->OnInstanceFailed(sec);
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_FALSE(worker_->has_work());
  EXPECT_GE(worker_->stats().wst_aborts, 1u);

  // The coordinator's failure handling terminated the transfer; the worker
  // pool finds nothing stuck behind the dead secondary's Redlease and the
  // cluster converges out of recovery mode.
  DrainWorker();
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());

  // Zero stale reads afterwards: every surviving or refilled value matches
  // the data store exactly.
  for (const auto& k : keys) {
    auto r = client_->Read(session_, k);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value.version, store_.VersionOf(k)) << k;
  }
}

TEST_F(RecoveryWorkerTest, StepsAreBoundedByKeysPerStep) {
  RecoveryWorker::Options wopts;
  wopts.keys_per_step = 2;
  Build(RecoveryPolicy::GeminiI(), wopts);
  auto keys = DirtyInstance0Keys(6);
  ASSERT_GE(keys.size(), 3u);
  for (const auto& k : keys) (void)client_->Read(session_, k);
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Write(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);

  // All 6 keys land on instance-0 fragments; at least one fragment has >= 2
  // dirty keys, so at least one Step() returns false (not finished).
  bool saw_unfinished = false;
  Session s;
  for (int guard = 0; guard < 1000; ++guard) {
    if (!worker_->has_work() && !worker_->TryAdoptFragment(s).has_value()) {
      break;
    }
    if (!worker_->Step(s)) saw_unfinished = true;
  }
  EXPECT_TRUE(coordinator_->FragmentsInMode(FragmentMode::kRecovery).empty());
  (void)saw_unfinished;  // property checked only when a fragment had >1 key
}

TEST_F(RecoveryWorkerTest, WorkingSetScanEndsAfterABandNoStripeFills) {
  // Fewer matches than the per-stripe quota: the first band leaves every
  // stripe short of its quota, so every stripe's walk reached its LRU tail
  // and the scan is complete in one page — no second walk of the table to
  // watch the next band come up empty.
  CacheInstance instance(0, &clock_);  // one stripe: quota = max_keys
  instance.GrantFragmentLease(0, 1, clock_.Now() + Seconds(60), 1);
  const OpContext ctx{kInternalConfigId, 0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(instance
                    .Set(ctx, "few" + std::to_string(i),
                         CacheValue::OfData("v", 1))
                    .ok());
  }
  auto page = instance.WorkingSetScan(ctx, /*num_fragments=*/1, /*cursor=*/0,
                                      /*max_keys=*/4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->items.size(), 3u);
  EXPECT_EQ(page->next_cursor, 0u);

  // The same across stripes: 4 stripes with a quota of 16 each cannot fill
  // one from 12 keys.
  CacheInstance::Options opts;
  opts.num_stripes = 4;
  CacheInstance striped(1, &clock_, opts);
  striped.GrantFragmentLease(0, 1, clock_.Now() + Seconds(60), 1);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(striped
                    .Set(ctx, "few" + std::to_string(i),
                         CacheValue::OfData("v", 1))
                    .ok());
  }
  page = striped.WorkingSetScan(ctx, 1, 0, /*max_keys=*/64);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->items.size(), 12u);
  EXPECT_EQ(page->next_cursor, 0u);
}

TEST_F(RecoveryWorkerTest, WorkingSetScanPagesEveryMatchExactlyOnce) {
  // More matches than one band holds: the scan keeps paging until a band
  // leaves every stripe short, and across the pages every key of the
  // fragment appears exactly once while the other fragment's keys never do.
  CacheInstance::Options opts;
  opts.num_stripes = 4;
  CacheInstance instance(0, &clock_, opts);
  for (FragmentId f = 0; f < 2; ++f) {
    instance.GrantFragmentLease(f, 1, clock_.Now() + Seconds(60), 1);
  }
  std::vector<std::string> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto f = static_cast<FragmentId>(Fnv1a64(key) % 2);
    ASSERT_TRUE(instance
                    .Set(OpContext{kInternalConfigId, f}, key,
                         CacheValue::OfData("v", 1))
                    .ok());
    if (f == 0) expected.push_back(key);
  }
  ASSERT_GT(expected.size(), 16u);

  const OpContext ctx{kInternalConfigId, 0};
  std::vector<std::string> seen;
  uint64_t cursor = 0;
  size_t pages = 0;
  do {
    ASSERT_LT(pages++, 100u) << "scan did not terminate";
    auto page = instance.WorkingSetScan(ctx, 2, cursor, /*max_keys=*/16);
    ASSERT_TRUE(page.ok());
    for (const auto& item : page->items) seen.push_back(item.key);
    cursor = page->next_cursor;
  } while (cursor != 0);
  EXPECT_GT(pages, 1u);
  EXPECT_EQ(std::set<std::string>(seen.begin(), seen.end()).size(),
            seen.size())
      << "a key was emitted twice";
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST_F(RecoveryWorkerTest, WorkingSetScanResumedMidBandTerminates) {
  // A quota of 1 over 4 stripes with 6-key pages: pages break mid-band, so
  // the scan resumes from cursors that name a stripe inside a band. Such a
  // resume assumes the stripes it skipped filled their quota, so it can
  // never end the scan early — and still terminates.
  CacheInstance::Options opts;
  opts.num_stripes = 4;
  CacheInstance instance(0, &clock_, opts);
  instance.GrantFragmentLease(0, 1, clock_.Now() + Seconds(60), 1);
  const OpContext ctx{kInternalConfigId, 0};
  std::vector<std::string> expected;
  for (int i = 0; i < 30; ++i) {
    expected.push_back("mid" + std::to_string(i));
    ASSERT_TRUE(
        instance.Set(ctx, expected.back(), CacheValue::OfData("v", 1)).ok());
  }

  std::vector<std::string> seen;
  uint64_t cursor = 0;
  bool resumed_mid_band = false;
  for (size_t pages = 0;; ++pages) {
    ASSERT_LT(pages, 100u) << "scan did not terminate";
    auto page = instance.WorkingSetScan(ctx, 1, cursor, /*max_keys=*/6);
    ASSERT_TRUE(page.ok());
    for (const auto& item : page->items) seen.push_back(item.key);
    cursor = page->next_cursor;
    if (cursor == 0) break;
    if (static_cast<uint32_t>(cursor) != 0) resumed_mid_band = true;
  }
  EXPECT_TRUE(resumed_mid_band);
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);

  // A mid-band cursor past the last match: the rest of that band (assumed
  // full) and one empty band later, the scan reports done in the same call.
  auto past = instance.WorkingSetScan(ctx, 1, (uint64_t{50} << 32) | 2, 6);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->items.empty());
  EXPECT_EQ(past->next_cursor, 0u);
}

TEST_F(RecoveryWorkerTest, DrainReplaysBackedOffKeyBeforeResettingDirtyList) {
  // Gemini-O: one arm burst covers all four dirty keys of a fragment. A
  // client holds a Q lease on the second one, so its ISet backs off. The
  // keys after it in the same burst must still install, and the backed-off
  // key must be replayed — and land — before the dirty list is reset and
  // the fragment leaves recovery mode.
  Build(RecoveryPolicy::GeminiO());
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 4);
  ASSERT_EQ(keys.size(), 4u);
  for (const auto& k : keys) (void)client_->Read(session_, k);
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Write(session_, k).ok());
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  const InstanceId sec =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_LT(sec, kInstances);

  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));
  const OpContext ctx{kInternalConfigId, f};
  auto q = raw_[0]->Qareg(ctx, keys[1]);
  ASSERT_TRUE(q.ok());

  EXPECT_FALSE(worker_->Step(s));  // keys[1] backed off: not finished
  for (size_t i : {0u, 2u, 3u}) {
    auto v = raw_[0]->RawGet(keys[i]);
    ASSERT_TRUE(v.has_value()) << keys[i];
    EXPECT_EQ(v->version, store_.VersionOf(keys[i])) << keys[i];
  }
  EXPECT_EQ(worker_->stats().keys_overwritten, 3u);
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);
  auto list = raw_[sec]->RawGet(DirtyListKey(f));
  ASSERT_TRUE(list.has_value());
  EXPECT_NE(list->data, DirtyList::InitialPayload());

  // The client's write completes; the next step replays keys[1], lands it,
  // and only then finishes the drain.
  ASSERT_TRUE(raw_[0]->Dar(ctx, keys[1], *q).ok());
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_FALSE(worker_->has_work());
  auto landed = raw_[0]->RawGet(keys[1]);
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(landed->version, store_.VersionOf(keys[1]));
  EXPECT_EQ(worker_->stats().keys_overwritten, 4u);
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);
  EXPECT_FALSE(raw_[sec]->ContainsRaw(DirtyListKey(f)));
}

TEST_F(RecoveryWorkerTest, DrainInvalidatesChunkWhoseFetchFails) {
  // Gemini-O: one chunk arms all four dirty keys, deleting the primary's
  // stale copies, then the secondary fails before the chunk's MultiGet, so
  // every fetch fails kUnavailable. Every armed key must end invalidated in
  // the primary — no entry, I lease released — none filled, and a client
  // read returns the store's version.
  Build(RecoveryPolicy::GeminiO());
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 4);
  ASSERT_EQ(keys.size(), 4u);
  for (const auto& k : keys) (void)client_->Read(session_, k);
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Write(session_, k).ok());
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  const InstanceId sec =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_LT(sec, kInstances);

  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));
  const RecoveryWorker::Stats before = worker_->stats();
  instances_[sec]->before_multi_get = [&] { raw_[sec]->Fail(); };
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_EQ(worker_->stats().keys_overwritten, before.keys_overwritten);
  EXPECT_EQ(worker_->stats().keys_deleted, before.keys_deleted + 4);
  EXPECT_EQ(worker_->stats().fragments_abandoned, before.fragments_abandoned);
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);

  const OpContext ctx{kInternalConfigId, f};
  for (const auto& k : keys) {
    EXPECT_FALSE(raw_[0]->ContainsRaw(k)) << k;
    // The worker's I lease is gone: a fresh lookup misses and is granted
    // its own, which it gives back.
    auto probe = raw_[0]->IqGet(ctx, k);
    ASSERT_TRUE(probe.ok()) << k;
    EXPECT_FALSE(probe->value.has_value()) << k;
    ASSERT_TRUE(raw_[0]->IDelete(ctx, k, probe->i_token).ok()) << k;
    auto r = client_->Read(session_, k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_FALSE(r->cache_hit) << k;
    EXPECT_EQ(r->value.version, store_.VersionOf(k)) << k;
  }
}

TEST_F(RecoveryWorkerTest, WorkingSetFillRefusesKeyVoidedByRacingWrite) {
  // A client writes one key after the worker armed it and fetched its (now
  // stale) value from the secondary, but before the fill burst: the write's
  // Qareg voids the worker's I token, so that key's IqSet is refused and the
  // stale value never lands. The rest of the chunk installs.
  RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;
  wopts.wst_page_keys = 8;
  Build(RecoveryPolicy::GeminiOW(), wopts);
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 6);
  ASSERT_EQ(keys.size(), 6u);

  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  const InstanceId sec =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_LT(sec, kInstances);

  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));
  EXPECT_FALSE(worker_->Step(s));  // drain -> working-set phase

  Session writer;
  instances_[sec]->after_multi_get = [&] {
    ASSERT_TRUE(client_->Write(writer, keys[2], "racing").ok());
  };
  // One page holds all six keys, in one arm -> fetch -> fill chunk; fewer
  // keys than the quota, so that page also ends the scan.
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_EQ(worker_->stats().wst_keys_copied, 5u);
  EXPECT_FALSE(raw_[0]->RawGet(keys[2]).has_value());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(raw_[0]->ContainsRaw(keys[i])) << keys[i];
    }
  }
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);

  auto r = client_->Read(session_, keys[2]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value.data, "racing");
  EXPECT_EQ(r->value.version, store_.VersionOf(keys[2]));
}

TEST_F(RecoveryWorkerTest, WorkingSetSkipsWarmAndBackedOffKeys) {
  // Two keys of the page must not be installed. keys[0] survived the
  // failure in the primary, so its IqGet hits and the entry stays — even
  // though the secondary evicts its copy before the fetch, which would make
  // an install that deleted it first lose it. A client holds the I lease on
  // keys[2], so its IqGet backs off; unlike a dirty key it is skipped, not
  // replayed. The other four install and the page still ends the scan.
  RecoveryWorker::Options wopts;
  wopts.working_set_transfer = true;
  wopts.wst_page_keys = 8;
  Build(RecoveryPolicy::GeminiOW(), wopts);
  const FragmentId f =
      coordinator_->GetConfiguration()->FragmentOf(DirtyInstance0Keys(1)[0]);
  const std::vector<std::string> keys = KeysOf(f, 6);
  ASSERT_EQ(keys.size(), 6u);

  ASSERT_TRUE(client_->Read(session_, keys[0]).ok());
  coordinator_->OnInstanceFailed(0);
  for (const auto& k : keys) ASSERT_TRUE(client_->Read(session_, k).ok());
  coordinator_->OnInstanceRecovered(0);
  const InstanceId sec =
      coordinator_->GetConfiguration()->fragment(f).secondary;
  ASSERT_LT(sec, kInstances);

  Session s;
  ASSERT_NO_FATAL_FAILURE(RecoverOthersThenAdopt(s, f));
  EXPECT_FALSE(worker_->Step(s));  // drain -> working-set phase

  const OpContext ctx{kInternalConfigId, f};
  auto held = raw_[0]->IqGet(ctx, keys[2]);
  ASSERT_TRUE(held.ok());
  ASSERT_FALSE(held->value.has_value());
  instances_[sec]->before_multi_get = [&] {
    ASSERT_TRUE(raw_[sec]->Delete(ctx, keys[0]).ok());
  };
  const RecoveryWorker::Stats before = worker_->stats();
  // One page holds all six keys, fewer than the quota, so it ends the scan.
  EXPECT_TRUE(worker_->Step(s));
  EXPECT_FALSE(worker_->has_work());
  EXPECT_EQ(worker_->stats().wst_keys_copied, before.wst_keys_copied + 4);
  EXPECT_EQ(worker_->stats().wst_keys_skipped, before.wst_keys_skipped + 2);
  EXPECT_EQ(worker_->stats().wst_pages, before.wst_pages + 1);
  EXPECT_EQ(worker_->stats().wst_completed, before.wst_completed + 1);
  EXPECT_EQ(worker_->stats().wst_aborts, before.wst_aborts);
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);
  EXPECT_FALSE(raw_[0]->ContainsRaw(keys[2]));
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(raw_[0]->ContainsRaw(keys[i])) << keys[i];
    }
  }

  // No later step installs the skipped key; the client's lease ends, and
  // its next read fills from the store.
  DrainWorker();
  EXPECT_FALSE(raw_[0]->ContainsRaw(keys[2]));
  ASSERT_TRUE(raw_[0]->IDelete(ctx, keys[2], held->i_token).ok());
  for (const auto& k : {keys[0], keys[2]}) {
    auto r = client_->Read(session_, k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(r->value.version, store_.VersionOf(k)) << k;
  }
}

}  // namespace
}  // namespace gemini
