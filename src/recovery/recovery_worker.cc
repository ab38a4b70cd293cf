#include "src/recovery/recovery_worker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
#include <thread>

#include "src/common/logging.h"

namespace gemini {

namespace {

// Pause billed after a drain step in which a client's lease made some key
// back off (Section 2.3: leases live for milliseconds).
constexpr Duration kBackoff = Millis(1);

}  // namespace

struct RecoveryWorker::ChunkResult {
  /// Keys whose arm met a client's lease.
  std::vector<std::string> backed_off;
  /// Fills and invalidations submitted to the primary.
  size_t fills = 0;
  size_t invalidations = 0;
  /// Fills the primary accepted, and their charged bytes.
  size_t installed = 0;
  uint64_t installed_bytes = 0;
  /// A replica failed under the chunk: the task must be abandoned.
  bool replica_lost = false;
};

enum class RecoveryWorker::Outcome : uint8_t {
  kDrained,      // dirty list replayed, no working-set phase follows
  kTransferred,  // working-set scan ran to its end
  kSettled,      // the coordinator moved the fragment on first
  kFailed,       // a replica failed mid-step
  kLeaseLost,    // renewal failed: another worker may own the fragment
};

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

    // A drained fragment was left mid-transfer by an owner that died (or
    // lost its lease): it is adopted straight into the working-set phase,
    // restarting the scan from the hottest band — keys already copied are
    // idempotent skips (the primary IqGet hits).
    DirtyList list;
    if (!drained) {
      // Workers are trusted infrastructure (like the coordinator): they are
      // exempt from the client-config staleness check, which would
      // otherwise reject them spuriously while a burst of recovery
      // publishes is in flight. Fragment-scoped entry validation still
      // applies to their data ops, and the Redlease plus per-op fragment
      // leases guard misrouting.
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
        // Transient errors (instance just failed): leave the fragment
        // alone; the coordinator's failure handling owns it.
        continue;
      }
      list = std::move(*parsed);
    }

    Task& t = task_.emplace();
    t.fragment = f;
    t.primary = a.primary;
    t.secondary = a.secondary;
    t.red_token = *red;
    t.list = std::move(list);
    t.phase = drained ? Phase::kWorkingSet : Phase::kDrain;
    t.num_fragments = static_cast<uint32_t>(n);
    scan_cursor_ = f + 1;
    return f;
  }
  return std::nullopt;
}

RecoveryWorker::ChunkResult RecoveryWorker::RunChunk(
    Session& session, std::vector<GetRequest> keys, bool dirty) {
  const Task& t = *task_;
  CacheBackend& pr = *instances_.at(t.primary);
  CacheBackend& sr = *instances_.at(t.secondary);
  ChunkResult out;

  // Arm. A dirty key's ISet deletes the primary's stale copy, so it answers
  // like an IqGet miss. A client may have handled a dirty key already (its
  // writes delete dirty keys); replaying it anyway is idempotent.
  for (size_t i = 0; i < keys.size(); ++i) session.BillCacheOp(t.primary);
  std::vector<Result<IqGetResult>> armed;
  if (dirty) {
    for (Result<LeaseToken>& token : pr.MultiISet(keys)) {
      if (token.ok()) {
        armed.push_back(IqGetResult{std::nullopt, *token});
      } else {
        armed.push_back(token.status());
      }
    }
  } else {
    armed = pr.MultiIqGet(keys);
  }
  std::vector<GetRequest> gets;
  std::vector<LeaseToken> tokens;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!armed[i].ok()) {
      // kBackoff: a client session holds a lease on this key and is taking
      // care of it (Algorithm 1 also deletes and refills dirty keys).
      // Anything else: the primary failed again (transition (5)) or the
      // config moved under us; the keys armed so far still fill, then the
      // task is abandoned.
      if (armed[i].code() == Code::kBackoff) {
        out.backed_off.push_back(std::move(keys[i].key));
      } else {
        out.replica_lost = true;
      }
      continue;
    }
    if (armed[i]->value.has_value() || armed[i]->i_token == kNoLease) {
      continue;  // already warm in the primary
    }
    gets.push_back(std::move(keys[i]));
    tokens.push_back(armed[i]->i_token);
  }

  // Fetch every armed key's value from the secondary.
  for (size_t i = 0; i < gets.size(); ++i) session.BillCacheOp(t.secondary);
  auto values = sr.MultiGet(gets);

  // Fill: IqSet every fetched value under its token. IDelete a key the
  // secondary lacks, which releases its token (on a missing entry it is a
  // no-op delete); a dirty key is invalidated whatever the fetch failed
  // with, while any other failure of the install's fetch lost the secondary.
  std::vector<IqSetRequest> fills;
  std::vector<uint32_t> charged;
  std::vector<IDeleteRequest> invalidations;
  for (size_t i = 0; i < gets.size(); ++i) {
    if (values[i].ok()) {
      charged.push_back(values[i]->charged_bytes);
      fills.push_back({gets[i].ctx, std::move(gets[i].key),
                       std::move(*values[i]), tokens[i]});
    } else if (dirty || values[i].code() == Code::kNotFound) {
      invalidations.push_back({gets[i].ctx, std::move(gets[i].key), tokens[i]});
    } else {
      out.replica_lost = true;
    }
  }
  out.fills = fills.size();
  out.invalidations = invalidations.size();
  for (size_t i = 0; i < out.fills + out.invalidations; ++i) {
    session.BillCacheOp(t.primary);
  }
  const std::vector<Status> filled = pr.MultiIqSet(std::move(fills));
  (void)pr.MultiIDelete(invalidations);
  for (size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i].ok()) continue;  // token voided by a racing client write
    ++out.installed;
    out.installed_bytes += charged[i];
  }
  return out;
}

bool RecoveryWorker::HoldRed(Session& session) {
  const Task& t = *task_;
  session.BillCacheOp(t.secondary);
  if (instances_.at(t.secondary)
          ->RenewRed(DirtyListKey(t.fragment), t.red_token)
          .ok()) {
    return true;
  }
  EndTask(session, Outcome::kLeaseLost);
  return false;
}

void RecoveryWorker::FinishDrain(Session& session) {
  Task& t = *task_;
  // Algorithm 3 line 22 deletes the drained dirty list; we instead reset it
  // to the empty (marker-only) payload. If the working set transfer is
  // still running, the fragment stays in recovery mode and clients keep
  // consulting the list — deleting it outright would be indistinguishable
  // from an eviction and would make them discard the freshly recovered
  // primary. The coordinator deletes the entry when the fragment returns to
  // normal mode (Figure 4 transition (3)).
  session.BillCacheOp(t.secondary);
  const OpContext ctx{kInternalConfigId, kInvalidFragment};
  (void)instances_.at(t.secondary)
      ->Set(ctx, DirtyListKey(t.fragment),
            CacheValue::OfData(DirtyList::InitialPayload()));
  if (!options_.working_set_transfer) {
    EndTask(session, Outcome::kDrained);
    return;
  }
  // Keep the Redlease and roll into the working-set phase before telling
  // the coordinator: under a -W policy OnDirtyListProcessed completes
  // recovery immediately, and the next StepWorkingSet notices the fragment
  // left recovery mode and stops quietly.
  t.phase = Phase::kWorkingSet;
  session.BillCoordinatorOp();
  coordinator_->OnDirtyListProcessed(t.fragment);
  ++stats_.fragments_recovered;
}

void RecoveryWorker::EndTask(Session& session, Outcome outcome) {
  const Task& t = *task_;
  if (outcome != Outcome::kLeaseLost) {
    // Best effort: with the secondary dead this fails and the Redlease
    // simply expires — either way no fragment stays stuck behind a lease
    // held by an ended task. The drain's release is billed with the list
    // reset just before it.
    if (outcome != Outcome::kDrained) session.BillCacheOp(t.secondary);
    (void)instances_.at(t.secondary)
        ->ReleaseRed(DirtyListKey(t.fragment), t.red_token);
  }
  switch (outcome) {
    case Outcome::kDrained:
      session.BillCoordinatorOp();
      coordinator_->OnDirtyListProcessed(t.fragment);
      ++stats_.fragments_recovered;
      break;
    case Outcome::kTransferred:
      session.BillCoordinatorOp();
      coordinator_->OnWorkingSetTransferTerminated(t.fragment);
      ++stats_.wst_completed;
      break;
    case Outcome::kSettled:
      break;  // the coordinator's own transitions settled the fragment
    case Outcome::kFailed:
    case Outcome::kLeaseLost:
      if (t.phase == Phase::kWorkingSet) ++stats_.wst_aborts;
      ++stats_.fragments_abandoned;
      break;
  }
  task_.reset();
}

bool RecoveryWorker::StepWorkingSet(Session& session) {
  Task& t = *task_;
  CacheBackend& sr = *instances_.at(t.secondary);

  // The transfer is moot the moment the fragment leaves recovery mode or
  // changes peers: the coordinator completed it (a -W policy, or a client
  // reported termination) or tore it down (another failure). Stop without
  // reporting.
  session.BillCoordinatorOp();
  ConfigurationPtr cfg = coordinator_->GetConfiguration();
  const FragmentAssignment* a =
      (cfg != nullptr && t.fragment < cfg->num_fragments())
          ? &cfg->fragment(t.fragment)
          : nullptr;
  if (a == nullptr || a->mode != FragmentMode::kRecovery ||
      a->primary != t.primary || a->secondary != t.secondary) {
    EndTask(session, Outcome::kSettled);
    return true;
  }

  // Pull the next priority page of hot keys off the secondary. The scan is
  // fragment-scoped, so this also verifies the secondary still serves the
  // fragment (it holds its lease for the duration of recovery mode).
  const OpContext ctx{kInternalConfigId, t.fragment};
  session.BillCacheOp(t.secondary);
  auto page = sr.WorkingSetScan(ctx, t.num_fragments, t.wst_cursor,
                                options_.wst_page_keys);
  if (!page.ok()) {
    // Secondary died (or dropped the fragment) mid-stream: abort cleanly.
    // The coordinator's failure handling terminates the transfer; if the
    // fragment survives in recovery mode, Redlease expiry lets another
    // worker restart from the hottest band.
    EndTask(session, Outcome::kFailed);
    return true;
  }
  ++stats_.wst_pages;
  t.wst_cursor = page->next_cursor;

  // Install the page hottest-first, keys_per_step keys per chunk.
  for (size_t base = 0; base < page->items.size();
       base += options_.keys_per_step) {
    // A throttled multi-chunk page can outlast the Redlease; keep it live
    // so the next Step (and the next chunk) still own the fragment.
    if (base > 0 && !HoldRed(session)) return true;
    const size_t end =
        std::min(page->items.size(), base + options_.keys_per_step);
    std::vector<GetRequest> chunk;
    for (size_t j = base; j < end; ++j) {
      chunk.push_back({ctx, std::move(page->items[j].key)});
    }
    const ChunkResult done =
        RunChunk(session, std::move(chunk), /*dirty=*/false);
    // Every key the primary did not take was skipped: already warm there,
    // client-owned, gone from the secondary, or voided by a racing write.
    stats_.wst_keys_copied += done.installed;
    stats_.wst_keys_skipped += (end - base) - done.installed;
    stats_.wst_bytes_copied += done.installed_bytes;
    if (done.replica_lost) {
      EndTask(session, Outcome::kFailed);
      return true;
    }

    // Byte-rate throttle: pace the copy so its pull on the primary (and the
    // network) stays bounded while foreground reads are being served.
    // Applied per chunk, so the pacing stays smooth even when the scan
    // returns page-per-fragment sized pages. Real wall-clock pacing, so DES
    // deployments leave wst_bytes_per_sec at 0.
    if (options_.wst_bytes_per_sec > 0 && done.installed_bytes > 0) {
      const double secs = static_cast<double>(done.installed_bytes) /
                          static_cast<double>(options_.wst_bytes_per_sec);
      session.BillBackoff(Seconds(secs));
      std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    }
  }

  if (t.wst_cursor == 0) {
    EndTask(session, Outcome::kTransferred);
    return true;
  }
  return false;
}

bool RecoveryWorker::Step(Session& session) {
  if (!task_.has_value()) return true;
  // Keep exclusive ownership for the duration of this batch. Losing the
  // Redlease means another worker may already be replaying this fragment;
  // back out (replay is idempotent either way, Section 3.3).
  if (!HoldRed(session)) return true;
  if (task_->phase == Phase::kWorkingSet) return StepWorkingSet(session);
  Task& t = *task_;
  const OpContext ctx{kInternalConfigId, t.fragment};

  const std::vector<std::string>& keys = t.list.keys();
  if (options_.overwrite_dirty) {
    // Algorithm 3 lines 10-17 (Gemini-O), one chunk of keys_per_step keys
    // per step: fresh keys first, then keys an earlier arm backed off on,
    // so every key is replayed before the drain finishes.
    std::vector<GetRequest> chunk;
    while (chunk.size() < options_.keys_per_step && t.next_key < keys.size()) {
      chunk.push_back({ctx, keys[t.next_key++]});
    }
    while (chunk.size() < options_.keys_per_step && !t.backed_off.empty()) {
      chunk.push_back({ctx, std::move(t.backed_off.front())});
      t.backed_off.pop_front();
    }
    ChunkResult done = RunChunk(session, std::move(chunk), /*dirty=*/true);
    stats_.keys_overwritten += done.fills;
    stats_.keys_deleted += done.invalidations;
    if (done.replica_lost) {
      EndTask(session, Outcome::kFailed);
      return true;
    }
    if (!done.backed_off.empty()) {
      t.backed_off.insert(t.backed_off.end(),
                          std::make_move_iterator(done.backed_off.begin()),
                          std::make_move_iterator(done.backed_off.end()));
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
      auto results = instances_.at(t.primary)->MultiDelete(deletes);
      for (const Status& s : results) {
        if (!s.ok() && s.code() != Code::kNotFound) {
          EndTask(session, Outcome::kFailed);
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
