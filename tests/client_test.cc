// GeminiClient tests: per-mode request processing (normal / transient /
// recovery), write suspension, configuration refresh, bootstrap, dirty-list
// handling, and the working set transfer (Algorithms 1 and 2).
#include "src/client/gemini_client.h"

#include "src/coordinator/coordinator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/dirty_list.h"

namespace gemini {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  static constexpr size_t kInstances = 3;
  static constexpr size_t kFragments = 6;

  void Build(RecoveryPolicy policy = RecoveryPolicy::GeminiOW(),
             GeminiClient::Options copts = {}) {
    instances_.clear();
    raw_.clear();
    for (size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(std::make_unique<CacheInstance>(
          static_cast<InstanceId>(i), &clock_));
      raw_.push_back(instances_.back().get());
    }
    Coordinator::Options opts;
    opts.policy = policy;
    coordinator_ =
        std::make_unique<Coordinator>(&clock_, raw_, kFragments, opts);
    copts.working_set_transfer = policy.working_set_transfer;
    client_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                             raw_, &store_, copts);
    recovery_state_ = std::make_unique<RecoveryState>(kFragments);
    client_->BindRecoveryState(recovery_state_.get());
    for (int i = 0; i < 200; ++i) {
      store_.Put("user" + std::to_string(i), "v" + std::to_string(i));
    }
  }

  // A store-backed key that maps to a fragment whose primary is `instance`.
  std::string KeyOnInstance(InstanceId instance) {
    auto cfg = coordinator_->GetConfiguration();
    for (int i = 0; i < 200; ++i) {
      std::string key = "user" + std::to_string(i);
      if (cfg->fragment(cfg->FragmentOf(key)).primary == instance) return key;
    }
    ADD_FAILURE() << "no key found for instance " << instance;
    return "";
  }

  FragmentId FragmentOf(const std::string& key) {
    return coordinator_->GetConfiguration()->FragmentOf(key);
  }

  void Build2ndClient(GeminiClient::Options copts) {
    client2_ = std::make_unique<GeminiClient>(&clock_, coordinator_.get(),
                                              raw_, &store_, copts);
  }

  VirtualClock clock_;
  DataStore store_;
  std::vector<std::unique_ptr<CacheInstance>> instances_;
  std::vector<CacheInstance*> raw_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  std::unique_ptr<GeminiClient> client2_;
  std::unique_ptr<RecoveryState> recovery_state_;
  Session session_;  // null session: no cost model in unit tests
};

TEST_F(ClientTest, ReadMissFillsCacheThenHits) {
  Build();
  const std::string key = KeyOnInstance(0);
  auto r1 = client_->Read(session_, key);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->cache_hit);
  EXPECT_EQ(r1->value.data, store_.Query(key)->data);
  auto r2 = client_->Read(session_, key);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->instance, 0u);
  EXPECT_EQ(r2->routed, 0u);
  auto stats = client_->stats();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.store_reads, 1u);
}

TEST_F(ClientTest, ReadUnknownKeyIsNotFound) {
  Build();
  EXPECT_EQ(client_->Read(session_, "user9999999").code(), Code::kNotFound);
}

TEST_F(ClientTest, WriteInvalidatesCachedEntry) {
  Build();
  const std::string key = KeyOnInstance(0);
  (void)client_->Read(session_, key);  // populate
  const Version before = store_.VersionOf(key);
  ASSERT_TRUE(client_->Write(session_, key, "new-value").ok());
  EXPECT_EQ(store_.VersionOf(key), before + 1);
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);  // entry was deleted (write-around)
  EXPECT_EQ(r->value.data, "new-value");
  EXPECT_EQ(r->value.version, before + 1);
}

TEST_F(ClientTest, TransientModeServesFromSecondaryAndTracksDirty) {
  Build();
  const std::string key = KeyOnInstance(0);
  const FragmentId f = FragmentOf(key);
  (void)client_->Read(session_, key);  // warm primary

  coordinator_->OnInstanceFailed(0);
  auto cfg = coordinator_->GetConfiguration();
  const InstanceId sec = cfg->fragment(f).secondary;

  // Read populates the secondary.
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
  EXPECT_EQ(r->routed, sec);
  auto r2 = client_->Read(session_, key);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->instance, sec);

  // Write goes to the secondary and lands on the dirty list.
  ASSERT_TRUE(client_->Write(session_, key).ok());
  OpContext internal{kInternalConfigId, kInvalidFragment};
  auto payload = raw_[sec]->Get(internal, DirtyListKey(f));
  ASSERT_TRUE(payload.ok());
  auto list = DirtyList::Parse(payload->data);
  ASSERT_TRUE(list.has_value());
  EXPECT_TRUE(list->Contains(key));
}

TEST_F(ClientTest, RecoveryModeServesValidPrimaryEntriesImmediately) {
  Build();
  const std::string key = KeyOnInstance(0);
  (void)client_->Read(session_, key);  // persist in primary
  coordinator_->OnInstanceFailed(0);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(FragmentOf(key)), FragmentMode::kRecovery);
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->instance, 0u);  // still-valid persistent entry, no store trip
}

TEST_F(ClientTest, RecoveryModeDirtyKeyNotServedStale) {
  Build(RecoveryPolicy::GeminiI());  // no WST: dirty keys refill from store
  const std::string key = KeyOnInstance(0);
  (void)client_->Read(session_, key);  // old value cached in primary
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, key, "fresh").ok());  // dirty
  coordinator_->OnInstanceRecovered(0);

  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  // Algorithm 1: k in Dj -> deleted in primary, refilled from the store.
  EXPECT_EQ(r->value.data, "fresh");
  EXPECT_EQ(r->value.version, store_.VersionOf(key));
  EXPECT_FALSE(r->cache_hit);
  EXPECT_GE(client_->stats().dirty_hits, 1u);
}

TEST_F(ClientTest, WorkingSetTransferCopiesFromSecondary) {
  Build(RecoveryPolicy::GeminiOW());
  const std::string key = KeyOnInstance(0);
  const FragmentId f = FragmentOf(key);
  coordinator_->OnInstanceFailed(0);
  // Populate the *secondary* during the failure (primary never saw the key).
  (void)client_->Read(session_, key);
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_TRUE(r->from_secondary);
  EXPECT_TRUE(r->secondary_probed);
  EXPECT_EQ(r->routed, 0u);
  EXPECT_EQ(client_->stats().wst_copies, 1u);
  // The copy landed in the primary: next read hits there.
  auto r2 = client_->Read(session_, key);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->instance, 0u);
}

TEST_F(ClientTest, TerminatedWstSkipsSecondary) {
  Build(RecoveryPolicy::GeminiOW());
  const std::string key = KeyOnInstance(0);
  const FragmentId f = FragmentOf(key);
  coordinator_->OnInstanceFailed(0);
  (void)client_->Read(session_, key);  // in secondary
  coordinator_->OnInstanceRecovered(0);
  recovery_state_->TerminateWst(f);

  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->from_secondary);
  EXPECT_FALSE(r->secondary_probed);
  EXPECT_FALSE(r->cache_hit);  // filled from the store instead
}

TEST_F(ClientTest, RecoveryWriteCleansDirtyKeyEverywhere) {
  // Gemini-OW copies secondary entries to the primary through the working
  // set transfer; Gemini-O has no transfer, but its overwriting workers copy
  // them too. Either way a recovery-mode write must delete the key in the
  // secondary (DESIGN.md §8.1, Lemma 4 Case II).
  for (const RecoveryPolicy& policy :
       {RecoveryPolicy::GeminiOW(), RecoveryPolicy::GeminiO()}) {
    SCOPED_TRACE(policy.Name());
    Build(policy);
    const std::string key = KeyOnInstance(0);
    const FragmentId f = FragmentOf(key);
    (void)client_->Read(session_, key);
    coordinator_->OnInstanceFailed(0);
    ASSERT_TRUE(client_->Write(session_, key).ok());    // dirty
    (void)client_->Read(session_, key);                 // repopulate secondary
    ASSERT_TRUE(raw_[coordinator_->GetConfiguration()->fragment(f).secondary]
                    ->ContainsRaw(key));
    coordinator_->OnInstanceRecovered(0);
    auto cfg = coordinator_->GetConfiguration();
    const InstanceId sec = cfg->fragment(f).secondary;

    // Fetch the dirty list (via a read of another key of the same fragment
    // is not guaranteed; just write the dirty key directly).
    ASSERT_TRUE(client_->Write(session_, key, "newest").ok());
    // Algorithm 2 + Lemma 4: the key was deleted in both replicas.
    EXPECT_FALSE(raw_[0]->ContainsRaw(key));
    EXPECT_FALSE(raw_[sec]->ContainsRaw(key));
    // And a subsequent read returns the newest value.
    auto r = client_->Read(session_, key);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value.data, "newest");
  }
}

TEST_F(ClientTest, CrashFailureSuspendsWritesUntilNewConfig) {
  Build();
  const std::string key = KeyOnInstance(0);
  raw_[0]->Fail();
  // Coordinator has not noticed yet: reads fall through to the store,
  // writes are suspended (Section 2.2).
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
  EXPECT_EQ(r->instance, kInvalidInstance);
  Status w = client_->Write(session_, key);
  EXPECT_EQ(w.code(), Code::kSuspended);
  EXPECT_EQ(client_->stats().suspended_writes, 1u);

  // Once the coordinator publishes the secondary, the write goes through.
  coordinator_->OnInstanceFailed(0);
  EXPECT_TRUE(client_->Write(session_, key).ok());
}

TEST_F(ClientTest, StaleConfigTriggersRefreshAndRetry) {
  Build();
  const std::string key = KeyOnInstance(0);
  (void)client_->Read(session_, key);  // client caches config id 1
  // Configuration moves on (failure of another instance).
  coordinator_->OnInstanceFailed(2);
  coordinator_->OnInstanceRecovered(2);
  // The instance rejects the stale id; the client refreshes transparently.
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(client_->config()->id(), coordinator_->latest_id());
}

TEST_F(ClientTest, BootstrapFromInstanceConfigEntry) {
  Build();
  Session s;
  const ConfigId id = client_->Bootstrap(s, /*via_instance=*/1);
  EXPECT_EQ(id, coordinator_->latest_id());
  ASSERT_NE(client_->config(), nullptr);
  EXPECT_EQ(client_->config()->id(), id);
}

TEST_F(ClientTest, BootstrapFallsBackToCoordinator) {
  Build();
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(raw_[1]->Delete(internal, ConfigKey()).ok());  // entry evicted
  Session s;
  const ConfigId id = client_->Bootstrap(s, 1);
  EXPECT_EQ(id, coordinator_->latest_id());
}

TEST_F(ClientTest, ForgetStateDropsConfigAndRecovers) {
  Build();
  const std::string key = KeyOnInstance(0);
  (void)client_->Read(session_, key);
  client_->ForgetState();
  EXPECT_EQ(client_->config(), nullptr);
  auto r = client_->Read(session_, key);  // re-fetches configuration
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
}

TEST_F(ClientTest, EvictedDirtyListDiscardsFragmentOnRead) {
  Build(RecoveryPolicy::GeminiO());
  const std::string key = KeyOnInstance(0);
  const FragmentId f = FragmentOf(key);
  (void)client_->Read(session_, key);
  coordinator_->OnInstanceFailed(0);
  ASSERT_TRUE(client_->Write(session_, key).ok());
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  // Evict the dirty list after the transition to recovery mode.
  auto cfg = coordinator_->GetConfiguration();
  const InstanceId sec = cfg->fragment(f).secondary;
  OpContext internal{kInternalConfigId, kInvalidFragment};
  ASSERT_TRUE(raw_[sec]->Delete(internal, DirtyListKey(f)).ok());

  // The client cannot validate primary entries: the fragment is discarded
  // and the read is still served consistently (from the store).
  auto r = client_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value.version, store_.VersionOf(key));
  EXPECT_EQ(coordinator_->ModeOf(f), FragmentMode::kNormal);
  EXPECT_GE(coordinator_->discarded_fragment_count(), 1u);
}

TEST_F(ClientTest, ReadBackoffFallsThroughToStore) {
  Build();
  const std::string key = KeyOnInstance(0);
  const FragmentId f = FragmentOf(key);
  // Hold an I lease on the key so the client's iqget backs off.
  OpContext ctx{coordinator_->latest_id(), f};
  auto held = raw_[0]->IqGet(ctx, key);
  ASSERT_TRUE(held.ok());

  GeminiClient::Options copts;
  Build2ndClient(copts);
  auto r = client2_->Read(session_, key);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
  EXPECT_EQ(r->value.data, store_.Query(key)->data);
}

TEST_F(ClientTest, ThreadsShareOneRecoveringFragmentsDirtyList) {
  // Two threads read the dirty keys of one recovery-mode fragment through
  // one client, in the same order, so one thread's dirty-list lookups meet
  // the other's removals. Run under TSan this fails unless the client
  // touches its fetched dirty lists only under its lock.
  Build(RecoveryPolicy::GeminiI());
  const FragmentId f = FragmentOf(KeyOnInstance(0));
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 2000; ++i) {
    std::string key = "dirty" + std::to_string(i);
    if (FragmentOf(key) == f) keys.push_back(std::move(key));
  }
  for (const std::string& key : keys) store_.Put(key, "old");
  coordinator_->OnInstanceFailed(0);
  for (const std::string& key : keys) {
    ASSERT_TRUE(client_->Write(session_, key, "new").ok());
  }
  coordinator_->OnInstanceRecovered(0);
  ASSERT_EQ(coordinator_->ModeOf(f), FragmentMode::kRecovery);

  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Session session;
      for (const std::string& key : keys) {
        auto r = client_->Read(session, key);
        if (!r.ok() || r->value.data != "new") ++wrong;
      }
    });
  }
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(client_->stats().dirty_hits, keys.size());
}

}  // namespace
}  // namespace gemini
