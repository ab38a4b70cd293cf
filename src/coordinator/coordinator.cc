#include "src/coordinator/coordinator.h"

#include <algorithm>
#include <cassert>

#include "src/cache/dirty_list.h"
#include "src/common/logging.h"

namespace gemini {

Coordinator::Coordinator(const Clock* clock,
                         std::vector<CacheInstance*> instances,
                         size_t num_fragments, Options options)
    : clock_(clock), options_(options) {
  owned_endpoints_.reserve(instances.size());
  instances_.reserve(instances.size());
  for (CacheInstance* instance : instances) {
    owned_endpoints_.push_back(
        std::make_unique<LocalInstanceEndpoint>(instance));
    instances_.push_back(owned_endpoints_.back().get());
  }
  Init(num_fragments);
}

Coordinator::Coordinator(const Clock* clock,
                         std::vector<InstanceEndpoint*> endpoints,
                         size_t num_fragments, Options options)
    : clock_(clock), instances_(std::move(endpoints)), options_(options) {
  Init(num_fragments);
}

void Coordinator::Init(size_t num_fragments) {
  assert(!instances_.empty());
  assert(num_fragments > 0);
  believed_up_.assign(instances_.size(), true);
  fragments_.resize(num_fragments);
  std::lock_guard<std::mutex> lock(mu_);
  const ConfigId id = next_config_id_++;
  for (size_t f = 0; f < num_fragments; ++f) {
    auto& st = fragments_[f];
    st.assignment.primary = static_cast<InstanceId>(f % instances_.size());
    st.assignment.secondary = kInvalidInstance;
    st.assignment.config_id = id;
    st.assignment.mode = FragmentMode::kNormal;
  }
  PublishLocked({});
}

void Coordinator::SetConfigListener(
    std::function<void(const ConfigurationPtr&)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  config_listener_ = std::move(listener);
}

ConfigurationPtr Coordinator::GetConfiguration() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

ConfigId Coordinator::latest_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_ ? published_->id() : 0;
}

bool Coordinator::InstanceAvailableLocked(InstanceId id) const {
  return id < instances_.size() && believed_up_[id] &&
         instances_[id]->available();
}

InstanceId Coordinator::NextAvailableLocked(InstanceId exclude) {
  const size_t n = instances_.size();
  for (size_t step = 0; step < n; ++step) {
    const size_t candidate = (round_robin_cursor_ + step) % n;
    if (candidate == exclude) continue;
    if (InstanceAvailableLocked(static_cast<InstanceId>(candidate))) {
      round_robin_cursor_ = candidate + 1;
      return static_cast<InstanceId>(candidate);
    }
  }
  return kInvalidInstance;
}

void Coordinator::GrantLeasesLocked(FragmentId f) {
  const auto& st = fragments_[f];
  const auto& a = st.assignment;
  // Lease lifetimes are TTLs: each endpoint converts into its own clock
  // domain (an absolute expiry would be meaningless on a remote machine).
  const Duration ttl = options_.fragment_lease_lifetime;
  const ConfigId latest = next_config_id_ - 1;
  // The serving replicas per mode (Figure 4): normal -> primary; transient ->
  // secondary; recovery -> both.
  if (a.mode != FragmentMode::kTransient && a.primary != kInvalidInstance &&
      InstanceAvailableLocked(a.primary)) {
    instances_[a.primary]->GrantLease(f, a.config_id, ttl, latest);
  }
  if (a.mode != FragmentMode::kNormal && a.secondary != kInvalidInstance &&
      InstanceAvailableLocked(a.secondary)) {
    // The secondary validates entries from its own creation id: the
    // pre-failure id restored for the primary (transition (2)) must not
    // re-validate entries this instance kept from an older tenancy of the
    // same fragment.
    const ConfigId min_valid =
        std::max(a.config_id, st.secondary_created_id);
    instances_[a.secondary]->GrantLease(f, min_valid, ttl, latest);
  }
}

void Coordinator::PublishLocked(const std::vector<InstanceId>& impacted) {
  const ConfigId id = next_config_id_ - 1;
  std::vector<FragmentAssignment> assignments;
  assignments.reserve(fragments_.size());
  for (const auto& st : fragments_) assignments.push_back(st.assignment);
  auto config = std::make_shared<Configuration>(id, std::move(assignments));

  for (FragmentId f = 0; f < static_cast<FragmentId>(fragments_.size()); ++f) {
    GrantLeasesLocked(f);
  }

  // Insert the configuration as a cache entry in the impacted instances so
  // recovering clients can bootstrap from the cache layer (Section 2.1).
  const std::string serialized = config->Serialize();
  auto insert_into = [&](InstanceId i) {
    if (i < instances_.size() && instances_[i]->available()) {
      (void)instances_[i]->Set(ConfigKey(), CacheValue::OfData(serialized));
    }
  };
  if (impacted.empty()) {
    for (InstanceId i = 0; i < instances_.size(); ++i) insert_into(i);
  } else {
    for (InstanceId i : impacted) insert_into(i);
  }
  published_ = std::move(config);
  if (config_listener_) config_listener_(published_);
}

void Coordinator::OnInstanceFailed(InstanceId failed) {
  OnInstancesFailed({failed});
}

void Coordinator::OnInstancesFailed(const std::vector<InstanceId>& failed) {
  std::lock_guard<std::mutex> lock(mu_);
  auto is_failed = [&](InstanceId i) {
    for (InstanceId f : failed) {
      if (f == i) return true;
    }
    return false;
  };
  // Mark every victim down first so no secondary replica lands on an
  // instance failing in the same transition.
  for (InstanceId i : failed) {
    if (i < instances_.size()) believed_up_[i] = false;
  }
  const ConfigId new_id = next_config_id_++;
  std::vector<InstanceId> impacted(failed);

  // A straggler instance that was only *believed* failed (the paper emulates
  // failures this way) must stop serving its fragments immediately.
  auto revoke_if_reachable = [&](InstanceId i, FragmentId f) {
    if (i < instances_.size() && instances_[i]->available()) {
      instances_[i]->RevokeLease(f, new_id);
    }
  };

  for (FragmentId f = 0; f < static_cast<FragmentId>(fragments_.size());
       ++f) {
    auto& st = fragments_[f];
    auto& a = st.assignment;
    const bool primary_failed =
        a.primary != kInvalidInstance && is_failed(a.primary);
    const bool secondary_failed =
        a.secondary != kInvalidInstance && is_failed(a.secondary);

    if (primary_failed && a.mode == FragmentMode::kNormal) {
      // Transition (1): normal -> transient. Remember the pre-failure config
      // id so transition (2) can restore it.
      st.prefailure_config_id = a.config_id;
      const InstanceId secondary = NextAvailableLocked(a.primary);
      if (secondary == kInvalidInstance) {
        LOG_WARN << "fragment " << f << ": no instance available for a "
                 << "secondary replica; requests fall through to the store";
        revoke_if_reachable(a.primary, f);
        continue;
      }
      revoke_if_reachable(a.primary, f);
      a.secondary = secondary;
      a.mode = FragmentMode::kTransient;
      a.config_id = new_id;
      ++a.epoch;
      st.secondary_created_id = new_id;
      st.dirty_processed = false;
      st.wst_terminated = false;
      impacted.push_back(secondary);
      if (options_.policy.maintain_dirty_lists) {
        // Initialize the marker-bearing dirty list (Section 3.1).
        (void)instances_[secondary]->Set(
            DirtyListKey(f), CacheValue::OfData(DirtyList::InitialPayload()));
      }
    } else if (primary_failed && a.mode == FragmentMode::kRecovery) {
      revoke_if_reachable(a.primary, f);
      if (a.secondary == kInvalidInstance || secondary_failed) {
        // The secondary is gone too (Section 3.3): no replica can serve or
        // recover the fragment - discard it onto a fresh host.
        revoke_if_reachable(a.secondary, f);
        DiscardPrimaryLocked(f, /*reassign_new_host=*/true);
        if (a.primary != kInvalidInstance) impacted.push_back(a.primary);
      } else {
        // Transition (5): the primary failed again mid-recovery; fall back
        // to the secondary. The dirty list keeps accumulating where it is.
        a.mode = FragmentMode::kTransient;
        ++a.epoch;
        st.dirty_processed = false;
        impacted.push_back(a.secondary);
      }
    } else if (secondary_failed && a.mode == FragmentMode::kTransient) {
      // The dirty list is lost while the primary is still down: the primary
      // replica can no longer be recovered consistently. Discard it and move
      // the fragment to a fresh host (Sections 3.1, 3.3).
      revoke_if_reachable(a.secondary, f);
      DiscardPrimaryLocked(f, /*reassign_new_host=*/true);
      if (a.primary != kInvalidInstance) impacted.push_back(a.primary);
    } else if (secondary_failed && a.mode == FragmentMode::kRecovery) {
      // Section 3.3: clients terminate the working set transfer; recovery
      // workers delete remaining dirty keys from their fetched copies.
      revoke_if_reachable(a.secondary, f);
      a.secondary = kInvalidInstance;
      ++a.epoch;
      st.wst_terminated = true;
      if (a.primary != kInvalidInstance) impacted.push_back(a.primary);
      MaybeCompleteRecoveryLocked(f);
    }
  }
  PublishLocked(impacted);
}

void Coordinator::DiscardPrimaryLocked(FragmentId f, bool reassign_new_host) {
  auto& st = fragments_[f];
  auto& a = st.assignment;
  ++discarded_fragments_;
  ++a.epoch;
  // Bumping the fragment's config id to the latest invalidates every entry
  // the old primary holds for it, in O(1) (Section 3.2.4).
  a.config_id = next_config_id_ - 1;
  if (reassign_new_host) {
    const InstanceId host = NextAvailableLocked(a.primary);
    a.primary = host;  // may be kInvalidInstance if the cluster is drained
  }
  a.secondary = kInvalidInstance;
  a.mode = FragmentMode::kNormal;
  st.dirty_processed = false;
  st.wst_terminated = false;
}

void Coordinator::OnInstanceRecovered(InstanceId recovered) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recovered >= instances_.size()) return;
  believed_up_[recovered] = true;
  const ConfigId new_id = next_config_id_++;
  const auto& policy = options_.policy;
  std::vector<InstanceId> impacted{recovered};

  for (FragmentId f = 0; f < static_cast<FragmentId>(fragments_.size());
       ++f) {
    auto& st = fragments_[f];
    auto& a = st.assignment;
    if (a.primary != recovered || a.mode != FragmentMode::kTransient) {
      continue;
    }

    if (!policy.consistent_recovery) {
      // Baselines skip recovery mode entirely. StaleCache restores the
      // pre-failure id (content served verbatim — stale reads possible);
      // VolatileCache content was wiped, so the id is bumped for hygiene.
      a.config_id = policy.persistent ? st.prefailure_config_id : new_id;
      a.secondary = kInvalidInstance;
      a.mode = FragmentMode::kNormal;
      ++a.epoch;
      continue;
    }

    // Transition (2) requires the fragment's dirty list to be intact in the
    // secondary (Section 3.2.1: replicas "that lack dirty lists must be
    // discarded").
    bool dirty_ok = false;
    if (a.secondary != kInvalidInstance &&
        InstanceAvailableLocked(a.secondary)) {
      auto payload = instances_[a.secondary]->Get(DirtyListKey(f));
      if (payload.ok() &&
          DirtyList::Parse(payload->data).has_value()) {
        dirty_ok = true;
      }
    }
    if (!dirty_ok) {
      DiscardPrimaryLocked(f, /*reassign_new_host=*/false);
      // The recovering instance still owns the fragment (Section 4: fragments
      // are assigned back), just with its content invalidated.
      continue;
    }

    a.mode = FragmentMode::kRecovery;
    a.config_id = st.prefailure_config_id;
    ++a.epoch;
    st.dirty_processed = false;
    st.wst_terminated = !policy.working_set_transfer;
    if (a.secondary != kInvalidInstance) impacted.push_back(a.secondary);
  }
  PublishLocked(impacted);
}

void Coordinator::RenewLeases() {
  std::lock_guard<std::mutex> lock(mu_);
  for (FragmentId f = 0; f < static_cast<FragmentId>(fragments_.size());
       ++f) {
    GrantLeasesLocked(f);
  }
}

void Coordinator::OnDirtyListProcessed(FragmentId fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fragment >= fragments_.size()) return;
  auto& st = fragments_[fragment];
  if (st.assignment.mode != FragmentMode::kRecovery) return;
  st.dirty_processed = true;
  MaybeCompleteRecoveryLocked(fragment);
}

void Coordinator::OnDirtyListUnavailable(FragmentId fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fragment >= fragments_.size()) return;
  auto& st = fragments_[fragment];
  auto& a = st.assignment;
  if (a.mode != FragmentMode::kRecovery) return;
  ++next_config_id_;
  const InstanceId old_secondary = a.secondary;
  DiscardPrimaryLocked(fragment, /*reassign_new_host=*/false);
  if (old_secondary != kInvalidInstance &&
      InstanceAvailableLocked(old_secondary)) {
    instances_[old_secondary]->RevokeLease(fragment, next_config_id_ - 1);
  }
  std::vector<InstanceId> impacted{a.primary};
  if (old_secondary != kInvalidInstance) impacted.push_back(old_secondary);
  PublishLocked(impacted);
}

void Coordinator::OnWorkingSetTransferTerminated(FragmentId fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fragment >= fragments_.size()) return;
  auto& st = fragments_[fragment];
  if (st.assignment.mode != FragmentMode::kRecovery) return;
  st.wst_terminated = true;
  MaybeCompleteRecoveryLocked(fragment);
}

void Coordinator::MaybeCompleteRecoveryLocked(FragmentId f) {
  auto& st = fragments_[f];
  auto& a = st.assignment;
  if (a.mode != FragmentMode::kRecovery) return;
  if (!st.dirty_processed) return;
  if (!st.wst_terminated && a.secondary != kInvalidInstance) return;
  // Transition (3): retire the secondary, back to normal. The (drained)
  // dirty list entry is deleted here — clients stop consulting it once they
  // observe the new configuration.
  const ConfigId new_id = next_config_id_++;
  const InstanceId old_secondary = a.secondary;
  if (old_secondary != kInvalidInstance &&
      InstanceAvailableLocked(old_secondary)) {
    (void)instances_[old_secondary]->Delete(DirtyListKey(f));
    instances_[old_secondary]->RevokeLease(f, new_id);
  }
  a.secondary = kInvalidInstance;
  a.mode = FragmentMode::kNormal;
  ++a.epoch;
  st.dirty_processed = false;
  st.wst_terminated = false;
  std::vector<InstanceId> impacted{a.primary};
  if (old_secondary != kInvalidInstance) impacted.push_back(old_secondary);
  PublishLocked(impacted);
}

bool Coordinator::EnforceDirtyListBudget(FragmentId fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.dirty_list_byte_budget == 0) return false;
  if (fragment >= fragments_.size()) return false;
  auto& st = fragments_[fragment];
  auto& a = st.assignment;
  if (a.mode != FragmentMode::kTransient) return false;
  if (a.secondary == kInvalidInstance ||
      !InstanceAvailableLocked(a.secondary)) {
    return false;
  }
  auto payload = instances_[a.secondary]->Get(DirtyListKey(fragment));
  if (payload.ok() &&
      payload->data.size() <= options_.dirty_list_byte_budget) {
    return false;
  }
  // Over budget (or already evicted): maintaining dirtiness costs more than
  // the primary's content is worth — discard it (transition (4)) and promote
  // the secondary to primary in normal mode.
  ++next_config_id_;
  const InstanceId secondary = a.secondary;
  ++discarded_fragments_;
  a.config_id = next_config_id_ - 1;
  a.primary = secondary;
  a.secondary = kInvalidInstance;
  a.mode = FragmentMode::kNormal;
  ++a.epoch;
  st.dirty_processed = false;
  st.wst_terminated = false;
  (void)instances_[secondary]->Delete(DirtyListKey(fragment));
  PublishLocked({secondary});
  return true;
}

FragmentMode Coordinator::ModeOf(FragmentId fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fragments_.at(fragment).assignment.mode;
}

std::vector<FragmentId> Coordinator::FragmentsInMode(FragmentMode mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FragmentId> out;
  for (FragmentId f = 0; f < fragments_.size(); ++f) {
    if (fragments_[f].assignment.mode == mode) out.push_back(f);
  }
  return out;
}

std::vector<FragmentId> Coordinator::FragmentsWithPrimary(
    InstanceId instance) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FragmentId> out;
  for (FragmentId f = 0; f < fragments_.size(); ++f) {
    if (fragments_[f].assignment.primary == instance) out.push_back(f);
  }
  return out;
}

CoordinatorState Coordinator::ExportState() const {
  std::lock_guard<std::mutex> lock(mu_);
  CoordinatorState out;
  out.next_config_id = next_config_id_;
  out.fragments = fragments_;
  out.believed_up = believed_up_;
  out.round_robin_cursor = round_robin_cursor_;
  out.discarded_fragments = discarded_fragments_;
  out.master_epoch = master_epoch_;
  return out;
}

void Coordinator::ImportState(const CoordinatorState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  master_epoch_ = state.master_epoch;
  next_config_id_ = state.next_config_id;
  if (state.master_epoch >= 2) {
    // A promoted shadow may hold a replica that is strictly older than what
    // the dead master last published (it was killed mid-replication). Fence
    // by epoch: ids minted under epoch E start above (E << 32), so they
    // exceed every id of every earlier epoch and clients — which only adopt
    // configurations forward by id — can never regress onto the stale
    // master's output. (Assumes < 2^32 publishes per epoch; each publish is
    // a failure/recovery edge, so that bound is beyond generous.)
    const ConfigId floor = (state.master_epoch << 32) + 1;
    if (next_config_id_ < floor) next_config_id_ = floor;
  }
  fragments_ = state.fragments;
  believed_up_ = state.believed_up;
  round_robin_cursor_ = state.round_robin_cursor;
  discarded_fragments_ = state.discarded_fragments;
  // Re-publish so instances re-acquire fragment leases from the new master
  // and clients observe a consistent configuration.
  PublishLocked({});
}

bool Coordinator::DirtyProcessed(FragmentId fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fragment >= fragments_.size()) return false;
  return fragments_[fragment].dirty_processed;
}

uint64_t Coordinator::discarded_fragment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_fragments_;
}

}  // namespace gemini
