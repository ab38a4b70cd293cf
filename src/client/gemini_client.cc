#include "src/client/gemini_client.h"

#include <cassert>

namespace gemini {

namespace {

// Lease back-off (Section 2.3): leases live for milliseconds, so a read that
// meets another session's lease looks the key up again after a short pause,
// a bounded number of times.
constexpr Duration kBackoff = Millis(1);
constexpr int kMaxBackoffRetries = 25;
// Bound on refresh-and-retry rounds for configuration changes.
constexpr int kMaxConfigRetries = 8;

CacheValue ValueFromRecord(const StoreRecord& rec) {
  return rec.data.empty()
             ? CacheValue::OfSize(rec.size_bytes, rec.version)
             : CacheValue::OfData(rec.data, rec.version);
}

// The replica a fragment's requests go to: the secondary while the primary
// is down (transient mode), the primary otherwise.
InstanceId RoutedReplica(const FragmentAssignment& a) {
  return a.mode == FragmentMode::kTransient ? a.secondary : a.primary;
}

// The answers that send an operation back for a newer configuration.
bool NeedsNewConfig(Code code) {
  return code == Code::kStaleConfig || code == Code::kWrongInstance ||
         code == Code::kUnavailable;
}

// A dirty key's ISet answers like an IqGet miss: no value, an I lease.
Result<IqGetResult> AsMiss(Result<LeaseToken> token) {
  if (!token.ok()) return token.status();
  return IqGetResult{std::nullopt, *token};
}

}  // namespace

GeminiClient::GeminiClient(const Clock* clock, CoordinatorService* coordinator,
                           std::vector<CacheBackend*> instances,
                           DataStore* store, Options options)
    : clock_(clock),
      coordinator_(coordinator),
      instances_(std::move(instances)),
      store_(store),
      options_(options) {
  assert(coordinator_ != nullptr);
  assert(store_ != nullptr);
}

ConfigurationPtr GeminiClient::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

GeminiClient::Stats GeminiClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GeminiClient::ForgetState() {
  std::lock_guard<std::mutex> lock(mu_);
  config_.reset();
  dirty_lists_.clear();
  pending_clean_.clear();
}

void GeminiClient::AdoptLocked(ConfigurationPtr fresh) {
  if (config_ != nullptr && fresh->id() < config_->id()) return;
  config_ = std::move(fresh);
  // Once a fragment leaves recovery mode, its dirty list is obsolete:
  // "clients stop looking up keys in the dirty list of this fragment and
  // discard this dirty list" (Section 3.2.3).
  auto stale = [this](FragmentId f) {
    return f >= config_->num_fragments() ||
           config_->fragment(f).mode != FragmentMode::kRecovery;
  };
  for (auto it = dirty_lists_.begin(); it != dirty_lists_.end();) {
    it = stale(it->first) ? dirty_lists_.erase(it) : std::next(it);
  }
  for (auto it = pending_clean_.begin(); it != pending_clean_.end();) {
    it = stale(it->first) ? pending_clean_.erase(it) : std::next(it);
  }
}

void GeminiClient::RefreshConfig(Session& session) {
  session.BillCoordinatorOp();
  ConfigurationPtr fresh = coordinator_->GetConfiguration();
  if (fresh == nullptr) {
    // Coordinator (or the whole coordinator group) unreachable: keep the
    // cached configuration, if any - Section 3.3's client story degrades to
    // store reads / suspended writes only for clients with no cache at all.
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  AdoptLocked(std::move(fresh));
}

ConfigId GeminiClient::Bootstrap(Session& session, InstanceId via_instance) {
  // Section 3.3: a recovering client fetches the configuration from an
  // instance's cache entry; only if the entry was evicted does it fall back
  // to the coordinator.
  if (via_instance < instances_.size()) {
    session.BillCacheOp(via_instance);
    OpContext internal{kInternalConfigId, kInvalidFragment};
    auto payload = instances_[via_instance]->Get(internal, ConfigKey());
    if (payload.ok()) {
      auto parsed = Configuration::Deserialize(payload->data);
      if (parsed.has_value()) {
        std::lock_guard<std::mutex> lock(mu_);
        AdoptLocked(std::make_shared<Configuration>(std::move(*parsed)));
        return config_->id();
      }
    }
  }
  RefreshConfig(session);
  auto cfg = config();
  return cfg == nullptr ? 0 : cfg->id();
}

void GeminiClient::MarkKeyClean(FragmentId fragment, uint32_t epoch,
                                std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dirty_lists_.find(fragment);
  if (it != dirty_lists_.end() && it->second.epoch == epoch) {
    it->second.list.Remove(key);
    return;
  }
  auto& pending = pending_clean_[fragment];
  if (pending.epoch != epoch) {
    pending.epoch = epoch;
    pending.keys.clear();
  }
  pending.keys.emplace_back(key);
}

bool GeminiClient::IsDirty(FragmentId fragment, uint32_t epoch,
                           std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dirty_lists_.find(fragment);
  // A list that another thread's refresh dropped since EnsureDirtyList
  // reads as dirty: the ISet path is safe for any key.
  if (it == dirty_lists_.end() || it->second.epoch != epoch) return true;
  if (!it->second.list.Contains(key)) return false;
  ++stats_.dirty_hits;
  return true;
}

ConfigurationPtr GeminiClient::EnsureConfig(Session& session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (config_ != nullptr &&
        (!options_.follow_config_pushes ||
         coordinator_->latest_id() <= config_->id())) {
      return config_;
    }
  }
  RefreshConfig(session);
  return config();
}

bool GeminiClient::WstActive(FragmentId fragment,
                             const FragmentAssignment& a) const {
  if (!options_.working_set_transfer) return false;
  if (a.secondary == kInvalidInstance) return false;
  if (recovery_state_ != nullptr && recovery_state_->WstTerminated(fragment)) {
    return false;
  }
  return true;
}

template <typename R, typename Attempt, typename Degrade>
R GeminiClient::Route(Session& session, std::string_view key,
                      const Attempt& attempt, const Degrade& degrade) {
  for (int i = 0; i < kMaxConfigRetries; ++i) {
    ConfigurationPtr cfg = EnsureConfig(session);
    if (cfg == nullptr) return Status(Code::kUnavailable, "no configuration");
    const FragmentId f = cfg->FragmentOf(key);
    R r = attempt(f, cfg->fragment(f), cfg->id());
    if (r.ok() || !NeedsNewConfig(r.code())) return r;
    RefreshConfig(session);
    ConfigurationPtr fresh = config();
    if (fresh == nullptr || fresh->id() == cfg->id()) {
      // No newer configuration exists (failover window, Section 2.2, or the
      // coordinator itself is unreachable and the serving replica's fragment
      // lease lapsed).
      return degrade();
    }
  }
  return Status(Code::kUnavailable, "configuration retries exhausted");
}

// ---- Read (Algorithm 1) -----------------------------------------------------

Result<GeminiClient::ReadResult> GeminiClient::Read(Session& session,
                                                    std::string_view key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reads;
  }
  return Route<Result<ReadResult>>(
      session, key,
      [&](FragmentId f, const FragmentAssignment& a, ConfigId id) {
        return ReadReplica(session, key, f, a, id);
      },
      // Process the read using the data store.
      [&] { return ReadFromStore(session, key); });
}

Result<GeminiClient::ReadResult> GeminiClient::ReadReplica(
    Session& session, std::string_view key, FragmentId fragment,
    const FragmentAssignment& a, ConfigId config_id) {
  const InstanceId target = RoutedReplica(a);
  if (target == kInvalidInstance) return Status(Code::kUnavailable);
  const bool recovery = a.mode == FragmentMode::kRecovery;
  if (recovery && !EnsureDirtyList(session, fragment, a, config_id)) {
    // No usable dirty list: we cannot tell valid primary entries from dirty
    // ones. Force a configuration refresh (the coordinator has been told);
    // until it lands, serve from the store.
    return Status(Code::kStaleConfig, "dirty list unavailable");
  }
  CacheBackend& inst = *instances_.at(target);
  const OpContext ctx{config_id, fragment};
  for (int i = 0; i <= kMaxBackoffRetries; ++i) {
    // Lines 6-9: a dirty key is deleted in the primary under an I lease;
    // lines 1-5: any other key is looked up.
    const bool dirty = recovery && IsDirty(fragment, a.epoch, key);
    session.BillCacheOp(target);
    Result<IqGetResult> lookup =
        dirty ? AsMiss(inst.ISet(ctx, key)) : inst.IqGet(ctx, key);
    if (!lookup.ok()) {
      if (lookup.code() != Code::kBackoff) return lookup.status();
      // Another session holds an I or Q lease on this key; back off and
      // look the cache up again (Section 2.3).
      session.BillBackoff(kBackoff);
      continue;
    }
    if (dirty) MarkKeyClean(fragment, a.epoch, key);
    if (lookup->value.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_hits;
      ReadResult out;
      out.value = std::move(*lookup->value);
      out.cache_hit = true;
      out.instance = target;
      out.routed = target;
      return out;
    }
    // Lines 10-16, working set transfer: on a primary miss, look the key up
    // in the secondary and copy it over.
    const bool probe = recovery && WstActive(fragment, a);
    if (probe) {
      session.BillCacheOp(a.secondary);
      auto sv = instances_.at(a.secondary)->Get(ctx, key);
      if (sv.ok()) {
        session.BillCacheOp(target);
        (void)inst.IqSet(ctx, key, *sv, lookup->i_token);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cache_hits;
        ++stats_.wst_copies;
        ReadResult out;
        out.value = std::move(*sv);
        out.cache_hit = true;
        out.from_secondary = true;
        out.instance = a.secondary;
        out.routed = target;
        out.secondary_probed = true;
        return out;
      }
      // A non-NotFound error on the secondary (e.g. it just failed) is
      // treated as a miss; the store path below is always safe.
    }
    return FillFromStore(session, key, fragment, target, config_id,
                         lookup->i_token, probe);
  }
  // Lease collisions persisted past the retry budget: serve the read from
  // the data store without populating the cache.
  return ReadFromStore(session, key);
}

Result<GeminiClient::ReadResult> GeminiClient::ReadFromStore(
    Session& session, std::string_view key) {
  session.BillStoreQuery();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_reads;
  }
  auto rec = store_->Query(key);
  if (!rec.ok()) return rec.status();
  ReadResult out;
  out.value = ValueFromRecord(*rec);
  return out;
}

Result<GeminiClient::ReadResult> GeminiClient::FillFromStore(
    Session& session, std::string_view key, FragmentId fragment,
    InstanceId target, ConfigId config_id, LeaseToken i_token,
    bool secondary_probed) {
  Result<ReadResult> out = ReadFromStore(session, key);
  CacheBackend& inst = *instances_.at(target);
  const OpContext ctx{config_id, fragment};
  session.BillCacheOp(target);
  if (!out.ok()) {
    // No backing record: release the I lease so other sessions proceed.
    (void)inst.IDelete(ctx, key, i_token);
    return out;
  }
  // kLeaseInvalid here means a concurrent write voided our I lease; the
  // insert is ignored but the value we computed is still consistent to
  // return (Lemma 2, Case II).
  (void)inst.IqSet(ctx, key, out->value, i_token);
  out->instance = target;
  out->routed = target;
  out->secondary_probed = secondary_probed;
  return out;
}

bool GeminiClient::EnsureDirtyList(Session& session, FragmentId fragment,
                                   const FragmentAssignment& a,
                                   ConfigId config_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dirty_lists_.find(fragment);
    if (it != dirty_lists_.end()) {
      if (it->second.epoch == a.epoch) return true;
      // A newer recovery episode: the cached list is obsolete.
      dirty_lists_.erase(it);
    }
  }
  if (a.secondary == kInvalidInstance) return false;
  session.BillCacheOp(a.secondary);
  const OpContext ctx{config_id, kInvalidFragment};
  auto payload = instances_.at(a.secondary)->Get(ctx, DirtyListKey(fragment));
  if (!payload.ok()) {
    if (payload.code() == Code::kNotFound) {
      // Either a recovery worker already drained and deleted the list (a
      // normal-mode configuration is imminent) or the list was evicted. The
      // two are indistinguishable here; report it and let the coordinator
      // decide — it discards the primary only if the fragment is still in
      // recovery mode.
      session.BillCoordinatorOp();
      coordinator_->OnDirtyListUnavailable(fragment);
    }
    return false;
  }
  auto parsed = DirtyList::Parse(payload->data);
  if (!parsed.has_value()) {
    // Partial list (marker lost to eviction + append re-creation).
    session.BillCoordinatorOp();
    coordinator_->OnDirtyListUnavailable(fragment);
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = dirty_lists_.try_emplace(fragment);
  if (inserted || it->second.epoch != a.epoch) {
    it->second.list = std::move(*parsed);
    it->second.epoch = a.epoch;
    // Keys this client already handled (this epoch) before the fetch.
    auto pending = pending_clean_.find(fragment);
    if (pending != pending_clean_.end()) {
      if (pending->second.epoch == a.epoch) {
        for (const auto& k : pending->second.keys) {
          it->second.list.Remove(k);
        }
      }
      pending_clean_.erase(pending);
    }
  }
  return true;
}

// ---- Write (Algorithm 2) ----------------------------------------------------

Status GeminiClient::Write(Session& session, std::string_view key,
                           std::optional<std::string> data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes;
  }
  return Route<Status>(
      session, key,
      [&](FragmentId f, const FragmentAssignment& a, ConfigId id) {
        return LeasedWrite(session, key, f, a, id, data);
      },
      // Suspend the write until a new configuration appears.
      [&] {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.suspended_writes;
        return Status(Code::kSuspended);
      });
}

Status GeminiClient::LeasedWrite(Session& session, std::string_view key,
                                 FragmentId fragment,
                                 const FragmentAssignment& a,
                                 ConfigId config_id,
                                 std::optional<std::string>& data) {
  const InstanceId target = RoutedReplica(a);
  if (target == kInvalidInstance) return Status(Code::kUnavailable);
  CacheBackend& inst = *instances_.at(target);
  const OpContext ctx{config_id, fragment};
  session.BillCacheOp(target);
  auto q = inst.Qareg(ctx, key);
  if (!q.ok()) return q.status();
  if (a.mode == FragmentMode::kTransient && options_.maintain_dirty_lists) {
    // Section 3.1: record the key on the fragment's dirty list. The append
    // precedes the store update so a confirmed write is always covered by
    // the list.
    session.BillCacheOp(target);
    const OpContext list_ctx{config_id, kInvalidFragment};
    Status append = inst.Append(list_ctx, DirtyListKey(fragment),
                                DirtyList::EncodeRecord(key));
    if (!append.ok()) return append;
  }
  const bool recovery = a.mode == FragmentMode::kRecovery;
  if (recovery && a.secondary != kInvalidInstance) {
    // Algorithm 2 deletes the key in the secondary only while the working
    // set transfer runs, but Gemini-O's overwriting workers copy from the
    // secondary too, and Lemma 4 Case II needs the delete before any such
    // copy (DESIGN.md §8.1). Failures are ignored: if the secondary just
    // died the coordinator is about to terminate the transfer anyway
    // (Section 3.3).
    session.BillCacheOp(a.secondary);
    (void)instances_.at(a.secondary)->Delete(ctx, key);
  }
  Status s = CommitWrite(session, inst, target, ctx, key, *q, data);
  if (s.ok() && recovery) MarkKeyClean(fragment, a.epoch, key);
  return s;
}

Status GeminiClient::CommitWrite(Session& session, CacheBackend& inst,
                                 InstanceId instance, const OpContext& ctx,
                                 std::string_view key, LeaseToken q_token,
                                 std::optional<std::string>& data) {
  session.BillStoreUpdate();
  if (options_.write_policy == WritePolicy::kWriteThrough) {
    // Write-through: install the post-update record under the same Q lease
    // (replace-and-release) instead of deleting the entry.
    StoreRecord rec = store_->UpdateAndGet(key, std::move(data));
    data.reset();
    session.BillCacheOp(instance);
    Status s = inst.Rar(ctx, key, ValueFromRecord(rec), q_token);
    // kLeaseInvalid: the Q lease expired mid-session; the expiry rule
    // deletes the entry, which is consistent (the write reached the store).
    return s.code() == Code::kLeaseInvalid ? Status::Ok() : s;
  }
  store_->Update(key, std::move(data));
  data.reset();
  session.BillCacheOp(instance);
  return inst.Dar(ctx, key, q_token);
}

}  // namespace gemini
