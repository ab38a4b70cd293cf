// ElectionCore: one coordinator replica's master/shadow election (Section
// 2.1; the rules are docs/PROTOCOL.md §12.7's), with no transport.
//
// It holds the replica's role, the highest master epoch it has seen, the
// rank whose mastership claim it accepts, and its election deadline. It has
// no clock, lock, thread or socket: every input carries `now`, and the
// caller serializes calls under its own lock. Inputs: a tick, a received
// claim (the (epoch, rank) pair a master's full-state sync carries), and
// the rejection of a sync this replica sent. Outputs: promote, step down,
// send sync. The core changes its own state first; the caller then carries
// the output out. geminicoordd's CoordinatorReplica and ClusterSim both
// drive it, so both run one election.
#pragma once

#include <cstdint>

#include "src/common/clock.h"

namespace gemini {

class ElectionCore {
 public:
  struct Options {
    uint32_t rank = 0;  // unique in the group
    /// 0 = the heartbeat interval passed to the constructor, else 100 ms.
    Duration sync_interval = 0;
    /// Scaled by rank + 1 into the deadline; 0 = 6 sync beats.
    Duration election_timeout = 0;
  };

  enum class Action : uint8_t {
    kNone,
    kPromote,   // now master at epoch(): adopt the last state, serve, sync
    kStepDown,  // a shadow again: stop serving
    kSendSync,  // push the full state, claiming (epoch(), rank())
  };

  enum class Verdict : uint8_t {
    kOwnEcho,   // this replica's own claim echoed back: ack, apply nothing
    kStale,     // older than a claim already seen: reject (kNotMaster)
    kAccepted,  // current: adopt the state it carries
    kStepDown,  // current, and it ends this replica's mastership
  };

  explicit ElectionCore(Options options, Duration heartbeat_interval = 0);

  /// Boots; true iff it promoted. A replica with no peers has no one to
  /// elect against, and a group's designated first master needs no
  /// election; any other boots as a shadow whose deadline starts now.
  bool Start(Timestamp now, bool has_peers, bool first_master = false);

  /// kSendSync while master; kPromote once a shadow's deadline passed.
  Action Tick(Timestamp now);

  /// Claims are ordered by (epoch, rank): a higher epoch wins, and within
  /// one epoch the lower rank wins (two shadows that promoted off the same
  /// dead master both bumped to the same epoch).
  Verdict OnClaim(uint64_t epoch, uint32_t rank, Timestamp now);

  /// A peer rejected the sync sent at `epoch`: kStepDown iff that is still
  /// this replica's mastership (a newer claim exists).
  Action OnSyncRejected(uint64_t epoch, Timestamp now);

  [[nodiscard]] bool is_master() const { return master_; }
  /// Highest master epoch seen; this replica's own while master.
  [[nodiscard]] uint64_t epoch() const { return epoch_; }
  [[nodiscard]] uint32_t rank() const { return options_.rank; }
  [[nodiscard]] Duration sync_interval() const {
    return options_.sync_interval;
  }
  /// When a shadow promotes unless a current claim arrives first.
  [[nodiscard]] Timestamp deadline() const;

 private:
  /// Bumps the epoch past every epoch seen.
  void Promote();

  Options options_;
  bool master_ = false;
  uint64_t epoch_ = 0;
  /// Rank whose claim this replica accepts; UINT32_MAX until the first.
  uint32_t master_rank_ = UINT32_MAX;
  Timestamp last_master_contact_ = 0;
};

}  // namespace gemini
