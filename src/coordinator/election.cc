#include "src/coordinator/election.h"

namespace gemini {

ElectionCore::ElectionCore(Options options, Duration heartbeat_interval)
    : options_(options) {
  if (options_.sync_interval == 0) options_.sync_interval = heartbeat_interval;
  if (options_.sync_interval == 0) options_.sync_interval = Millis(100);
  if (options_.election_timeout == 0) {
    options_.election_timeout = 6 * options_.sync_interval;
  }
}

bool ElectionCore::Start(Timestamp now, bool has_peers, bool first_master) {
  master_ = false;
  last_master_contact_ = now;
  if (has_peers && !first_master) return false;
  Promote();
  return true;
}

Timestamp ElectionCore::deadline() const {
  // Staggered by rank: the lowest live rank's deadline fires first, and its
  // first sync resets every later rank's.
  return last_master_contact_ +
         options_.election_timeout *
             (static_cast<Duration>(options_.rank) + 1);
}

ElectionCore::Action ElectionCore::Tick(Timestamp now) {
  if (master_) return Action::kSendSync;
  if (now < deadline()) return Action::kNone;
  Promote();
  return Action::kPromote;
}

ElectionCore::Verdict ElectionCore::OnClaim(uint64_t epoch, uint32_t rank,
                                            Timestamp now) {
  // Ranks are unique, so this is this replica's own sync, echoed back
  // because an operator listed it among its own peers. Applying it would
  // make a boot master demote itself.
  if (rank == options_.rank) return Verdict::kOwnEcho;
  if (epoch < epoch_ || (epoch == epoch_ && rank > master_rank_)) {
    return Verdict::kStale;
  }
  const Verdict verdict = master_ ? Verdict::kStepDown : Verdict::kAccepted;
  epoch_ = epoch;
  master_ = false;
  master_rank_ = rank;
  last_master_contact_ = now;
  return verdict;
}

ElectionCore::Action ElectionCore::OnSyncRejected(uint64_t epoch,
                                                  Timestamp now) {
  if (!master_ || epoch_ != epoch) return Action::kNone;
  master_ = false;
  master_rank_ = UINT32_MAX;
  // A full election delay before this replica may claim again; by then the
  // real master's syncs will have reset the deadline.
  last_master_contact_ = now;
  return Action::kStepDown;
}

void ElectionCore::Promote() {
  epoch_ += 1;
  master_ = true;
  master_rank_ = options_.rank;
}

}  // namespace gemini
