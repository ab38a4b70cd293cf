// ElectionCore (docs/PROTOCOL.md §12.7): one table row per election rule,
// driven with explicit timestamps — no sockets, threads or sleeps. The
// networked form of the same core is covered over TCP in cluster_ha_test.
#include "src/coordinator/election.h"

#include <gtest/gtest.h>

#include <vector>

namespace gemini {
namespace {

using Action = ElectionCore::Action;
using Verdict = ElectionCore::Verdict;

constexpr Duration kTimeout = Millis(600);  // the default: 6 x 100 ms
constexpr Timestamp kBoot = Seconds(1);

/// A shadow of `rank` that booted at kBoot and accepted the claim
/// (epoch, master_rank) there.
ElectionCore ShadowFollowing(uint32_t rank, uint64_t epoch,
                             uint32_t master_rank) {
  ElectionCore core({rank});
  EXPECT_FALSE(core.Start(kBoot, /*has_peers=*/true));
  EXPECT_EQ(core.OnClaim(epoch, master_rank, kBoot), Verdict::kAccepted);
  return core;
}

/// A master of `rank` at `epoch`: it followed epoch - 1 and promoted at
/// its deadline.
ElectionCore MasterAt(uint32_t rank, uint64_t epoch) {
  ElectionCore core = ShadowFollowing(rank, epoch - 1, rank + 1);
  EXPECT_EQ(core.Tick(core.deadline()), Action::kPromote);
  EXPECT_EQ(core.epoch(), epoch);
  return core;
}

struct ClaimRow {
  const char* rule;
  bool receiver_is_master;  // else a shadow following (3, rank 1)
  uint64_t epoch;           // the claim
  uint32_t rank;
  Verdict verdict;
  uint64_t epoch_after;
  bool master_after;
};

TEST(ElectionCoreTest, ClaimOrder) {
  // The receiver is rank 2 at epoch 3 throughout.
  const std::vector<ClaimRow> rows = {
      {"a higher epoch wins, whatever its rank", false, 4, 7,
       Verdict::kAccepted, 4, false},
      {"within one epoch the lower rank wins", false, 3, 0,
       Verdict::kAccepted, 3, false},
      {"the accepted master's next sync", false, 3, 1, Verdict::kAccepted, 3,
       false},
      {"within one epoch a higher rank is stale", false, 3, 3,
       Verdict::kStale, 3, false},
      {"a lower epoch is stale, whatever its rank", false, 2, 0,
       Verdict::kStale, 3, false},
      {"own rank: acked, not applied", false, 9, 2, Verdict::kOwnEcho, 3,
       false},
      {"a higher epoch ends mastership", true, 4, 7, Verdict::kStepDown, 4,
       false},
      {"a lower rank in my epoch ends mastership", true, 3, 1,
       Verdict::kStepDown, 3, false},
      {"a higher rank in my epoch is stale to a master", true, 3, 3,
       Verdict::kStale, 3, true},
      {"a master's own echo leaves it serving", true, 3, 2,
       Verdict::kOwnEcho, 3, true},
  };
  for (const ClaimRow& row : rows) {
    SCOPED_TRACE(row.rule);
    ElectionCore core =
        row.receiver_is_master ? MasterAt(2, 3) : ShadowFollowing(2, 3, 1);
    const Timestamp now = kBoot + Seconds(5);
    EXPECT_EQ(core.OnClaim(row.epoch, row.rank, now), row.verdict);
    EXPECT_EQ(core.epoch(), row.epoch_after);
    EXPECT_EQ(core.is_master(), row.master_after);
    const bool applied = row.verdict == Verdict::kAccepted ||
                         row.verdict == Verdict::kStepDown;
    if (applied) {
      // Accepting a claim is master contact: the deadline restarts.
      EXPECT_EQ(core.deadline(), now + 3 * kTimeout);
    }
  }
}

struct RejectionRow {
  const char* rule;
  bool promote_again;  // the master stepped down and promoted past epoch 3
  uint64_t rejected_epoch;
  Action action;
  bool master_after;
};

TEST(ElectionCoreTest, RejectedSyncDemotesOnlyTheCurrentEpoch) {
  const std::vector<RejectionRow> rows = {
      {"rejected at the epoch it still holds: step down", false, 3,
       Action::kStepDown, false},
      {"a late rejection from an earlier mastership is ignored", true, 3,
       Action::kNone, true},
  };
  for (const RejectionRow& row : rows) {
    SCOPED_TRACE(row.rule);
    ElectionCore core = MasterAt(1, 3);
    if (row.promote_again) {
      ASSERT_EQ(core.OnClaim(4, 0, kBoot), Verdict::kStepDown);
      ASSERT_EQ(core.Tick(core.deadline()), Action::kPromote);
      ASSERT_EQ(core.epoch(), 5u);
    }
    const Timestamp now = kBoot + Seconds(10);
    EXPECT_EQ(core.OnSyncRejected(row.rejected_epoch, now), row.action);
    EXPECT_EQ(core.is_master(), row.master_after);
  }
  // A shadow has no mastership to lose.
  ElectionCore shadow = ShadowFollowing(1, 3, 0);
  EXPECT_EQ(shadow.OnSyncRejected(3, kBoot), Action::kNone);
}

TEST(ElectionCoreTest, StepDownRestartsTheDeadline) {
  ElectionCore core = MasterAt(1, 3);
  const Timestamp now = kBoot + Seconds(10);
  ASSERT_EQ(core.OnSyncRejected(3, now), Action::kStepDown);
  EXPECT_EQ(core.deadline(), now + 2 * kTimeout);
  EXPECT_EQ(core.Tick(now + 2 * kTimeout - 1), Action::kNone);
  EXPECT_EQ(core.Tick(now + 2 * kTimeout), Action::kPromote);
  EXPECT_EQ(core.epoch(), 4u);
}

TEST(ElectionCoreTest, RankStaggeredDeadlineAndEpochBump) {
  for (uint32_t rank : {0u, 1u, 2u, 5u}) {
    SCOPED_TRACE(rank);
    // It last heard epoch 7 at kBoot.
    ElectionCore core = ShadowFollowing(rank, 7, rank == 0 ? 1 : 0);
    const Timestamp deadline =
        kBoot + static_cast<Duration>(rank + 1) * kTimeout;
    EXPECT_EQ(core.deadline(), deadline);
    EXPECT_EQ(core.Tick(deadline - 1), Action::kNone);
    EXPECT_FALSE(core.is_master());
    EXPECT_EQ(core.Tick(deadline), Action::kPromote);
    EXPECT_TRUE(core.is_master());
    // Promotion bumps past every epoch seen.
    EXPECT_EQ(core.epoch(), 8u);
    // A master's every beat is a sync.
    EXPECT_EQ(core.Tick(deadline + 1), Action::kSendSync);
  }
}

TEST(ElectionCoreTest, SingletonPromotesAtStart) {
  ElectionCore alone({0});
  EXPECT_TRUE(alone.Start(kBoot, /*has_peers=*/false));
  EXPECT_TRUE(alone.is_master());
  EXPECT_EQ(alone.epoch(), 1u);
  EXPECT_EQ(alone.Tick(kBoot), Action::kSendSync);

  ElectionCore shadow({0});
  EXPECT_FALSE(shadow.Start(kBoot, /*has_peers=*/true));
  EXPECT_FALSE(shadow.is_master());
  EXPECT_EQ(shadow.epoch(), 0u);

  ElectionCore first({0});
  EXPECT_TRUE(first.Start(kBoot, /*has_peers=*/true, /*first_master=*/true));
  EXPECT_EQ(first.epoch(), 1u);
}

TEST(ElectionCoreTest, DefaultTiming) {
  // (sync beat, election timeout): the heartbeat interval, else 100 ms;
  // 6 beats.
  struct Row {
    ElectionCore::Options options;
    Duration heartbeat_interval;
    Duration sync_interval;
    Duration election_timeout;
  };
  const std::vector<Row> rows = {
      {{0}, 0, Millis(100), Millis(600)},
      {{0}, Millis(20), Millis(20), Millis(120)},
      {{0, Millis(50), 0}, Millis(20), Millis(50), Millis(300)},
      {{0, Millis(50), Seconds(2)}, Millis(20), Millis(50), Seconds(2)},
  };
  for (const Row& row : rows) {
    ElectionCore core(row.options, row.heartbeat_interval);
    EXPECT_FALSE(core.Start(kBoot, /*has_peers=*/true));
    EXPECT_EQ(core.sync_interval(), row.sync_interval);
    EXPECT_EQ(core.deadline(), kBoot + row.election_timeout);
  }
}

}  // namespace
}  // namespace gemini
