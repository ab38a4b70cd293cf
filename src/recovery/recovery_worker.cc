#include "src/recovery/recovery_worker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "src/common/logging.h"

namespace gemini {

namespace {

// Pause billed after a drain step in which a client's lease made some key
// back off (Section 2.3: leases live for milliseconds).
constexpr Duration kBackoff = Millis(1);

}  // namespace

RecoveryWorker::RecoveryWorker(const Clock* clock,
                               CoordinatorService* coordinator,
                               std::vector<CacheBackend*> instances,
                               Options options)
    : clock_(clock),
      coordinator_(coordinator),
      instances_(std::move(instances)),
      options_(options) {
  assert(coordinator_ != nullptr);
}

std::optional<FragmentId> RecoveryWorker::TryAdoptFragment(Session& session) {
  if (task_.has_value()) return task_->fragment;
  session.BillCoordinatorOp();
  ConfigurationPtr cfg = coordinator_->GetConfiguration();
  if (cfg == nullptr) return std::nullopt;
  const size_t n = cfg->num_fragments();
  // Rotate the scan start so concurrent workers spread across fragments
  // instead of all hammering the same Redlease.
  for (size_t step = 0; step < n; ++step) {
    const auto f = static_cast<FragmentId>((scan_cursor_ + step) % n);
    const FragmentAssignment& a = cfg->fragment(f);
    if (a.mode != FragmentMode::kRecovery) continue;
    if (a.secondary == kInvalidInstance || a.primary == kInvalidInstance) {
      continue;  // Nothing to fetch the dirty list from.
    }
    const bool drained = coordinator_->DirtyProcessed(f);
    if (drained && !options_.working_set_transfer) {
      // Drained already, and this worker does not run transfers: the
      // client-driven working set transfer (simulator) owns the rest.
      continue;
    }
    CacheBackend& sr = *instances_.at(a.secondary);
    const std::string list_key = DirtyListKey(f);

    session.BillCacheOp(a.secondary);
    auto red = sr.AcquireRed(list_key);
    if (!red.ok()) {
      if (red.code() == Code::kBackoff) ++stats_.redlease_conflicts;
      continue;  // Another worker owns this fragment (Section 2.3).
    }

    if (drained) {
      // The previous owner drained the list but died (or lost its lease)
      // mid-transfer. Adopt straight into the working-set phase, restarting
      // the scan from the hottest band — keys it already copied are
      // idempotent skips (the primary IqGet hits).
      Task task;
      task.fragment = f;
      task.primary = a.primary;
      task.secondary = a.secondary;
      task.red_token = *red;
      task.phase = Phase::kWorkingSet;
      task.num_fragments = static_cast<uint32_t>(n);
      task_ = std::move(task);
      scan_cursor_ = f + 1;
      return f;
    }

    // Workers are trusted infrastructure (like the coordinator): they are
    // exempt from the client-config staleness check, which would otherwise
    // reject them spuriously while a burst of recovery publishes is in
    // flight. Fragment-scoped entry validation still applies to their data
    // ops, and the Redlease plus per-op fragment leases guard misrouting.
    session.BillCacheOp(a.secondary);
    const OpContext ctx{kInternalConfigId, kInvalidFragment};
    auto payload = sr.Get(ctx, list_key);
    std::optional<DirtyList> parsed;
    if (payload.ok()) parsed = DirtyList::Parse(payload->data);
    if (!parsed.has_value()) {
      (void)sr.ReleaseRed(list_key, *red);
      if (payload.ok() || payload.code() == Code::kNotFound) {
        // Missing or partial (evicted): the primary is unrecoverable.
        session.BillCoordinatorOp();
        coordinator_->OnDirtyListUnavailable(f);
      }
      // Transient errors (instance just failed): leave the fragment alone;
      // the coordinator's failure handling owns it.
      continue;
    }

    Task task;
    task.fragment = f;
    task.primary = a.primary;
    task.secondary = a.secondary;
    task.config_id = kInternalConfigId;
    task.red_token = *red;
    task.list = std::move(*parsed);
    task.num_fragments = static_cast<uint32_t>(n);
    task_ = std::move(task);
    scan_cursor_ = f + 1;
    return f;
  }
  return std::nullopt;
}

void RecoveryWorker::FinishDrain(Session& session) {
  Task& t = *task_;
  const std::string list_key = DirtyListKey(t.fragment);
  CacheBackend& sr = *instances_.at(t.secondary);
  // Algorithm 3 line 22 deletes the drained dirty list; we instead reset it
  // to the empty (marker-only) payload. If the working set transfer is
  // still running, the fragment stays in recovery mode and clients keep
  // consulting the list — deleting it outright would be indistinguishable
  // from an eviction and would make them discard the freshly recovered
  // primary. The coordinator deletes the entry when the fragment returns to
  // normal mode (Figure 4 transition (3)).
  session.BillCacheOp(t.secondary);
  const OpContext ctx{t.config_id, kInvalidFragment};
  (void)sr.Set(ctx, list_key, CacheValue::OfData(DirtyList::InitialPayload()));
  if (options_.working_set_transfer) {
    // Keep the Redlease and roll into the working-set phase before telling
    // the coordinator: under a -W policy OnDirtyListProcessed completes
    // recovery immediately, and the next StepWorkingSet notices the
    // fragment left recovery mode and stops quietly.
    t.phase = Phase::kWorkingSet;
    t.wst_cursor = 0;
    session.BillCoordinatorOp();
    coordinator_->OnDirtyListProcessed(t.fragment);
    ++stats_.fragments_recovered;
    return;
  }
  (void)sr.ReleaseRed(list_key, t.red_token);
  session.BillCoordinatorOp();
  coordinator_->OnDirtyListProcessed(t.fragment);
  ++stats_.fragments_recovered;
  task_.reset();
}

void RecoveryWorker::FinishWorkingSet(Session& session) {
  Task& t = *task_;
  session.BillCacheOp(t.secondary);
  (void)instances_.at(t.secondary)
      ->ReleaseRed(DirtyListKey(t.fragment), t.red_token);
  session.BillCoordinatorOp();
  coordinator_->OnWorkingSetTransferTerminated(t.fragment);
  ++stats_.wst_completed;
  task_.reset();
}

void RecoveryWorker::AbandonTask(Session& session, bool release_red) {
  Task& t = *task_;
  if (t.phase == Phase::kWorkingSet) ++stats_.wst_aborts;
  if (release_red && t.secondary < instances_.size()) {
    // Best effort: with the secondary dead this fails and the Redlease
    // simply expires — either way no fragment stays stuck behind a lease
    // held by an abandoned task.
    (void)instances_[t.secondary]->ReleaseRed(DirtyListKey(t.fragment),
                                              t.red_token);
    session.BillCacheOp(t.secondary);
  }
  ++stats_.fragments_abandoned;
  task_.reset();
}

bool RecoveryWorker::StepWorkingSet(Session& session) {
  Task& t = *task_;
  const std::string list_key = DirtyListKey(t.fragment);
  CacheBackend& sr = *instances_.at(t.secondary);
  CacheBackend& pr = *instances_.at(t.primary);

  // Same exclusive-ownership discipline as the drain phase.
  session.BillCacheOp(t.secondary);
  if (!sr.RenewRed(list_key, t.red_token).ok()) {
    AbandonTask(session, /*release_red=*/false);
    return true;
  }

  // The transfer is moot the moment the fragment leaves recovery mode or
  // changes peers: the coordinator completed it (a -W policy, or a client
  // reported termination) or tore it down (another failure). Stop without
  // reporting — the coordinator's own transitions settled the fragment.
  session.BillCoordinatorOp();
  ConfigurationPtr cfg = coordinator_->GetConfiguration();
  const FragmentAssignment* a =
      (cfg != nullptr && t.fragment < cfg->num_fragments())
          ? &cfg->fragment(t.fragment)
          : nullptr;
  if (a == nullptr || a->mode != FragmentMode::kRecovery ||
      a->primary != t.primary || a->secondary != t.secondary) {
    session.BillCacheOp(t.secondary);
    (void)sr.ReleaseRed(list_key, t.red_token);
    task_.reset();
    return true;
  }

  // Pull the next priority page of hot keys off the secondary. The scan is
  // fragment-scoped, so this also verifies the secondary still serves the
  // fragment (it holds its lease for the duration of recovery mode).
  const OpContext ctx{t.config_id, t.fragment};
  session.BillCacheOp(t.secondary);
  auto page = sr.WorkingSetScan(ctx, t.num_fragments, t.wst_cursor,
                                options_.wst_page_keys);
  if (!page.ok()) {
    // Secondary died (or dropped the fragment) mid-stream: abort cleanly.
    // The coordinator's failure handling terminates the transfer; if the
    // fragment survives in recovery mode, Redlease expiry lets another
    // worker restart from the hottest band.
    AbandonTask(session, /*release_red=*/true);
    return true;
  }
  ++stats_.wst_pages;
  t.wst_cursor = page->next_cursor;

  // Install the page hottest-first, in arm -> fetch -> fill chunks of
  // keys_per_step, each phase one pipelined burst: MultiIqGet on the
  // primary, MultiGet on the secondary, MultiIqSet (+ MultiIDelete) on the
  // primary. The chunk bounds how long an armed I token sits idle — three
  // bursts — so a large page never lets the tokens armed first expire
  // (i_lease_lifetime) before their IqSet lands. Per key the order
  // IqGet < Get < IqSet holds; the bursts only reorder operations across
  // keys. IqGet-before-copy keeps every entry that survived the failure in
  // place (a hit means the restored primary already has it — never clobber)
  // and arms an I token on each miss; a client write racing the copy Qaregs
  // the key, voiding the token, so the stale secondary value can never
  // overwrite a fresher one (Lemma 4).
  std::vector<GetRequest> chunk;
  for (size_t base = 0; base < page->items.size();
       base += options_.keys_per_step) {
    const size_t end =
        std::min(page->items.size(), base + options_.keys_per_step);
    if (base > 0) {
      // A throttled multi-chunk page can outlast the Redlease; keep it live
      // so the next Step (and the next chunk) still own the fragment.
      session.BillCacheOp(t.secondary);
      if (!sr.RenewRed(list_key, t.red_token).ok()) {
        AbandonTask(session, /*release_red=*/false);
        return true;
      }
    }

    // Arm: one IqGet burst over the chunk; keep the misses it armed.
    chunk.clear();
    for (size_t j = base; j < end; ++j) {
      session.BillCacheOp(t.primary);
      chunk.push_back({ctx, page->items[j].key});
    }
    auto armed = pr.MultiIqGet(chunk);
    std::vector<GetRequest> gets;
    std::vector<LeaseToken> tokens;
    bool primary_lost = false;
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (!armed[i].ok()) {
        // kBackoff: a client session holds a lease on this key — it is
        // being handled. Anything else: the primary failed again or the
        // config moved under us; the keys armed so far still fill, then
        // the task is abandoned (their I tokens would expire anyway).
        if (armed[i].code() != Code::kBackoff) primary_lost = true;
        ++stats_.wst_keys_skipped;
        continue;
      }
      if (armed[i]->value.has_value() || armed[i]->i_token == kNoLease) {
        ++stats_.wst_keys_skipped;  // already warm in the primary
        continue;
      }
      gets.push_back(std::move(chunk[i]));
      tokens.push_back(armed[i]->i_token);
    }

    // Fetch: one MultiGet burst for the chunk's misses.
    for (size_t i = 0; i < gets.size(); ++i) session.BillCacheOp(t.secondary);
    auto values = sr.MultiGet(gets);

    // Fill: IqSet every fetched value under its token; release the tokens
    // of keys evicted or deleted from the secondary since the scan
    // (IDelete on a missing entry is a no-op delete).
    std::vector<IqSetRequest> fills;
    std::vector<uint32_t> charged;
    std::vector<IDeleteRequest> releases;
    bool secondary_lost = false;
    for (size_t i = 0; i < gets.size(); ++i) {
      if (values[i].ok()) {
        charged.push_back(values[i]->charged_bytes);
        fills.push_back({ctx, std::move(gets[i].key), std::move(*values[i]),
                         tokens[i]});
        continue;
      }
      ++stats_.wst_keys_skipped;
      if (values[i].code() == Code::kNotFound) {
        releases.push_back({ctx, std::move(gets[i].key), tokens[i]});
      } else {
        secondary_lost = true;
      }
    }
    for (size_t i = 0; i < fills.size() + releases.size(); ++i) {
      session.BillCacheOp(t.primary);
    }
    const std::vector<Status> filled = pr.MultiIqSet(std::move(fills));
    if (!releases.empty()) (void)pr.MultiIDelete(releases);
    uint64_t installed_bytes = 0;
    for (size_t i = 0; i < filled.size(); ++i) {
      if (filled[i].ok()) {
        ++stats_.wst_keys_copied;
        stats_.wst_bytes_copied += charged[i];
        installed_bytes += charged[i];
      } else {
        ++stats_.wst_keys_skipped;  // token voided by a racing client write
      }
    }
    if (primary_lost || secondary_lost) {
      AbandonTask(session, /*release_red=*/true);
      return true;
    }

    // Byte-rate throttle: pace the copy so its pull on the primary (and the
    // network) stays bounded while foreground reads are being served.
    // Applied per chunk, so the pacing stays smooth even when the scan
    // returns page-per-fragment sized pages. Real wall-clock pacing, so DES
    // deployments leave wst_bytes_per_sec at 0.
    if (options_.wst_bytes_per_sec > 0 && installed_bytes > 0) {
      const double secs = static_cast<double>(installed_bytes) /
                          static_cast<double>(options_.wst_bytes_per_sec);
      session.BillBackoff(Seconds(secs));
      std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    }
  }

  if (t.wst_cursor == 0) {
    FinishWorkingSet(session);
    return true;
  }
  return false;
}

bool RecoveryWorker::Step(Session& session) {
  if (!task_.has_value()) return true;
  if (task_->phase == Phase::kWorkingSet) return StepWorkingSet(session);
  Task& t = *task_;
  CacheBackend& pr = *instances_.at(t.primary);
  CacheBackend& sr = *instances_.at(t.secondary);
  const OpContext ctx{t.config_id, t.fragment};

  // Keep exclusive ownership for the duration of this batch. Losing the
  // Redlease means another worker may already be replaying this fragment;
  // back out (replay is idempotent either way, Section 3.3).
  session.BillCacheOp(t.secondary);
  if (!sr.RenewRed(DirtyListKey(t.fragment), t.red_token).ok()) {
    AbandonTask(session, /*release_red=*/false);
    return true;
  }

  const std::vector<std::string>& keys = t.list.keys();
  if (options_.overwrite_dirty) {
    // Algorithm 3 lines 10-17 (Gemini-O), drained in chunks of
    // keys_per_step keys, each chunk three pipelined bursts: ISet every key
    // on the primary, MultiGet them from the secondary, then IqSet (value
    // found) or IDelete (miss / error) on the primary. Per key the order
    // ISet_k < Get_k < IqSet_k still holds — the bursts only reorder
    // operations *across* keys, which Algorithm 3 never sequences — so a
    // client write racing key k after its ISet voids our I token exactly as
    // in the one-key-at-a-time loop.
    //
    // The chunk takes fresh keys first, then keys an earlier arm burst
    // backed off on, so every key is replayed before the drain finishes.
    std::vector<GetRequest> chunk;
    while (chunk.size() < options_.keys_per_step && t.next_key < keys.size()) {
      chunk.push_back({ctx, keys[t.next_key++]});
    }
    while (chunk.size() < options_.keys_per_step && !t.backed_off.empty()) {
      chunk.push_back({ctx, std::move(t.backed_off.front())});
      t.backed_off.pop_front();
    }

    // Arm. A client may have handled a key already (its writes delete dirty
    // keys); replaying it anyway is idempotent, so no coordination needed.
    for (size_t i = 0; i < chunk.size(); ++i) session.BillCacheOp(t.primary);
    auto tokens = pr.MultiISet(chunk);
    std::vector<GetRequest> gets;
    std::vector<LeaseToken> armed;
    bool backoff = false, abandoned = false;
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (tokens[i].ok()) {
        gets.push_back(std::move(chunk[i]));
        armed.push_back(*tokens[i]);
      } else if (tokens[i].code() == Code::kBackoff) {
        // A client session holds a lease on this key — it is taking care of
        // it (Algorithm 1 also deletes + refills dirty keys). Replay it in
        // a later chunk; the rest of this chunk drains below.
        t.backed_off.push_back(std::move(chunk[i].key));
        backoff = true;
      } else {
        // kUnavailable (primary failed again, transition (5)) or a config
        // change: abandon once the armed keys drain; the coordinator has
        // re-arranged the fragment.
        abandoned = true;
      }
    }

    // Fetch every armed key's fresh value from the secondary.
    for (size_t i = 0; i < gets.size(); ++i) session.BillCacheOp(t.secondary);
    auto values = sr.MultiGet(gets);

    // Fill: overwrite (value found) or invalidate (miss / error) on the
    // primary under the I token from the arm burst.
    std::vector<IqSetRequest> fills;
    std::vector<IDeleteRequest> deletes;
    for (size_t i = 0; i < gets.size(); ++i) {
      session.BillCacheOp(t.primary);
      if (values[i].ok()) {
        fills.push_back(
            {ctx, std::move(gets[i].key), std::move(*values[i]), armed[i]});
      } else {
        deletes.push_back({ctx, std::move(gets[i].key), armed[i]});
      }
    }
    stats_.keys_overwritten += fills.size();
    stats_.keys_deleted += deletes.size();
    if (!fills.empty()) (void)pr.MultiIqSet(std::move(fills));
    if (!deletes.empty()) (void)pr.MultiIDelete(deletes);

    if (abandoned) {
      AbandonTask(session, /*release_red=*/true);
      return true;
    }
    if (backoff) {
      session.BillBackoff(kBackoff);
      return false;
    }
  } else {
    // Algorithm 3 line 20 (Gemini-I): just delete the dirty keys. Deletes
    // carry no lease token, so the whole step rides one pipelined
    // kMultiDelete frame instead of keys_per_step round-trips.
    std::vector<DeleteRequest> deletes;
    deletes.reserve(options_.keys_per_step);
    while (t.next_key + deletes.size() < keys.size() &&
           deletes.size() < options_.keys_per_step) {
      session.BillCacheOp(t.primary);
      deletes.push_back({ctx, keys[t.next_key + deletes.size()]});
    }
    if (!deletes.empty()) {
      auto results = pr.MultiDelete(deletes);
      for (const Status& s : results) {
        if (!s.ok() && s.code() != Code::kNotFound) {
          AbandonTask(session, /*release_red=*/true);
          return true;
        }
        ++stats_.keys_deleted;
        ++t.next_key;
      }
    }
  }

  if (t.next_key >= keys.size() && t.backed_off.empty()) {
    FinishDrain(session);
    // Under ±W the task rolls into the working-set phase instead of ending.
    return !task_.has_value();
  }
  return false;
}

}  // namespace gemini
