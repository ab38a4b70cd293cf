#include "src/cache/cache_instance.h"

#include <algorithm>
#include <cassert>

#include "src/cache/persistence_sink.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace gemini {

namespace {

uint32_t RoundUpPow2(uint32_t n) {
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CacheInstance::CacheInstance(InstanceId id, const Clock* clock,
                             Options options)
    : id_(id),
      clock_(clock),
      options_(options),
      leases_(clock, options.lease_options),
      sink_(options.persistence) {
  const uint32_t n =
      RoundUpPow2(std::clamp<uint32_t>(options_.num_stripes, 1, 256));
  stripes_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  stripe_mask_ = n - 1;
  stripe_capacity_ = options_.capacity_bytes == 0
                         ? 0
                         : std::max<uint64_t>(1, options_.capacity_bytes / n);
}

CacheInstance::Stripe& CacheInstance::StripeOf(std::string_view key) const {
  // Mix the FNV hash before masking: fragment routing uses the same raw hash
  // modulo the fragment count, and shared factors between that modulus and
  // the stripe mask would collapse one fragment's keys onto a few stripes.
  return *stripes_[Mix64(Fnv1a64(key)) & stripe_mask_];
}

// ---- Availability & persistence emulation ----------------------------------

void CacheInstance::Fail() {
  std::unique_lock<std::shared_mutex> meta(meta_mu_);
  available_ = false;
}

void CacheInstance::RecoverPersistent() {
  // A writer may have crashed us between its data store update and its
  // delete-and-release: conservatively delete every entry with an
  // outstanding Q lease, the crash-spanning analogue of the Q-expiry rule
  // (Section 2.3). Gemini assumes the persistent medium retains this much.
  const std::vector<std::string> quarantined = leases_.KeysWithQLeases();
  {
    // Holding meta exclusively blocks the whole data path (every op takes it
    // shared first), so the recovery sweep below is one atomic step to
    // concurrent callers even though stripes are locked one at a time.
    std::unique_lock<std::shared_mutex> meta(meta_mu_);
    available_ = true;
    for (const auto& key : quarantined) {
      {
        Stripe& st = StripeOf(key);
        std::lock_guard<std::mutex> lock(st.mu);
        auto it = st.table.find(key);
        if (it != st.table.end()) {
          EraseLocked(st, it->second, /*count_as_delete=*/true);
        }
      }
      // The durable log must agree with the sweep: a restart replaying it
      // would drop these keys via the QBegin count anyway, but the explicit
      // delete keeps the on-disk history self-describing.
      if (sink_ != nullptr) sink_->OnDelete(PersistOp::kQExpiry, key);
    }
    // Fragment leases did not survive the crash; the coordinator re-grants
    // them as part of publishing the recovery-mode configuration.
    fragments_.clear();
    // Every outstanding quarantine is now resolved (swept above).
    if (sink_ != nullptr) sink_->OnQuarantineClear();
  }
  leases_.Clear();
}

void CacheInstance::RecoverVolatile() {
  EagerScope scope;
  {
    std::unique_lock<std::shared_mutex> meta(meta_mu_);
    available_ = true;
    fragments_.clear();
    for (const auto& sp : stripes_) {
      std::lock_guard<std::mutex> lock(sp->mu);
      sp->table.clear();
      sp->lru.clear();
      sp->used_bytes = 0;
    }
    if (sink_ != nullptr) sink_->OnVolatileWipe();
  }
  leases_.Clear();
  // The wipe record is eager, waited for with no lock held. A failed log is
  // the store owner's to act on (PersistentStore::error()).
  (void)WaitEager(scope);
}

template <typename Op>
auto CacheInstance::AfterEagerDurable(Op op) -> decltype(op()) {
  EagerScope scope;
  auto result = op();
  if (Status s = WaitEager(scope); !s.ok()) return s;
  return result;
}

Status CacheInstance::WaitEager(const EagerScope& scope) {
  if (scope.lsn() == 0) return Status::Ok();
  return sink_->WaitDurable(scope.lsn());
}

bool CacheInstance::available() const {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  return available_;
}

// ---- Coordinator-facing fragment management ---------------------------------

Status CacheInstance::GrantFragmentLease(FragmentId fragment,
                                         ConfigId min_valid_config,
                                         Timestamp expiry,
                                         ConfigId latest_config) {
  return AfterEagerDurable([&] {
    std::unique_lock<std::shared_mutex> meta(meta_mu_);
    fragments_[fragment] = FragmentLease{min_valid_config, expiry};
    AdvanceConfigMeta(latest_config);
    return Status::Ok();
  });
}

Status CacheInstance::RevokeFragmentLease(FragmentId fragment,
                                          ConfigId latest_config) {
  return AfterEagerDurable([&] {
    std::unique_lock<std::shared_mutex> meta(meta_mu_);
    fragments_.erase(fragment);
    AdvanceConfigMeta(latest_config);
    return Status::Ok();
  });
}

void CacheInstance::AdvanceConfigMeta(ConfigId latest) {
  if (latest <= latest_config_) return;
  latest_config_ = latest;
  if (sink_ != nullptr) sink_->OnConfigObserved(latest_config_);
}

ConfigId CacheInstance::latest_config_id() const {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  return latest_config_;
}

Status CacheInstance::ObserveConfigId(ConfigId latest) {
  return AfterEagerDurable([&] {
    std::unique_lock<std::shared_mutex> meta(meta_mu_);
    AdvanceConfigMeta(latest);
    return Status::Ok();
  });
}

bool CacheInstance::HoldsFragmentLease(FragmentId fragment) const {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  auto it = fragments_.find(fragment);
  return it != fragments_.end() && it->second.expiry > clock_->Now();
}

std::optional<ConfigId> CacheInstance::FragmentLeaseMinValid(
    FragmentId fragment) const {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  auto it = fragments_.find(fragment);
  if (it == fragments_.end() || it->second.expiry <= clock_->Now()) {
    return std::nullopt;
  }
  return it->second.min_valid_config;
}

std::optional<CacheValue> CacheInstance::RawGet(std::string_view key) const {
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it == st.table.end()) return std::nullopt;
  return it->second->value;
}

// ---- Internal helpers --------------------------------------------------------

uint64_t CacheInstance::ChargeOf(std::string_view key,
                                 const CacheValue& value) const {
  return key.size() + value.charged_bytes + options_.per_entry_overhead;
}

void CacheInstance::TouchLocked(Stripe& st, LruList::iterator it) {
  st.lru.splice(st.lru.begin(), st.lru, it);
}

void CacheInstance::EraseLocked(Stripe& st, LruList::iterator it,
                                bool count_as_delete) {
  st.used_bytes -= ChargeOf(it->key, it->value);
  if (count_as_delete) {
    counters_.deletes.fetch_add(1, std::memory_order_relaxed);
  }
  st.table.erase(std::string_view(it->key));
  st.lru.erase(it);
}

void CacheInstance::EvictLocked(Stripe& st) {
  if (stripe_capacity_ == 0) return;
  // Never evict the most recently used entry: it is the one the current
  // operation just wrote. A single entry above capacity therefore survives
  // (memcached instead rejects items above its item-size cap; UpsertLocked
  // applies that rejection for values, and dirty lists stay usable).
  while (st.used_bytes > stripe_capacity_ && st.lru.size() > 1) {
    counters_.evictions.fetch_add(1, std::memory_order_relaxed);
    EraseLocked(st, std::prev(st.lru.end()), /*count_as_delete=*/false);
  }
}

bool CacheInstance::UpsertLocked(Stripe& st, std::string_view key,
                                 CacheValue value, ConfigId cfg) {
  auto it = st.table.find(key);
  const uint64_t charge = ChargeOf(key, value);
  if (stripe_capacity_ != 0 && charge > stripe_capacity_) {
    // Larger than the stripe's budget: refused, as memcached refuses items
    // above its item-size cap. Like memcached's failed store, a refused
    // replacement drops the value it would have replaced too;
    // LogUpsertLocked then logs the key gone.
    if (it != st.table.end()) {
      EraseLocked(st, it->second, /*count_as_delete=*/false);
    }
    return false;
  }
  if (it != st.table.end()) {
    Entry& e = *it->second;
    st.used_bytes -= ChargeOf(e.key, e.value);
    e.value = std::move(value);
    e.config_id = cfg;
    TouchLocked(st, it->second);
  } else {
    Entry e;
    e.key = std::string(key);
    e.value = std::move(value);
    e.config_id = cfg;
    st.lru.push_front(std::move(e));
    st.table.emplace(std::string_view(st.lru.front().key), st.lru.begin());
  }
  st.used_bytes += charge;
  counters_.inserts.fetch_add(1, std::memory_order_relaxed);
  EvictLocked(st);
  return true;
}

Status CacheInstance::CheckRequestMeta(const OpContext& ctx) const {
  if (!available_) {
    return Status(Code::kUnavailable, "instance down");
  }
  if (ctx.config_id != kInternalConfigId && ctx.config_id < latest_config_) {
    // Rejig: the client's cached configuration is older than the latest id
    // this instance has observed — make it refresh before serving it.
    return Status(Code::kStaleConfig);
  }
  if (ctx.fragment != kInvalidFragment) {
    auto it = fragments_.find(ctx.fragment);
    if (it == fragments_.end() || it->second.expiry <= clock_->Now()) {
      return Status(Code::kWrongInstance, "no fragment lease");
    }
  }
  return Status::Ok();
}

ConfigId CacheInstance::StampForMeta(const OpContext& ctx) const {
  return ctx.config_id == kInternalConfigId ? latest_config_ : ctx.config_id;
}

ConfigId CacheInstance::MinValidMeta(const OpContext& ctx) const {
  if (ctx.fragment == kInvalidFragment) return 0;
  auto it = fragments_.find(ctx.fragment);
  return it == fragments_.end() ? 0 : it->second.min_valid_config;
}

void CacheInstance::LogUpsertLocked(Stripe& st, PersistOp op,
                                    std::string_view key) {
  if (sink_ == nullptr) return;
  auto it = st.table.find(key);
  if (it == st.table.end()) {
    // The upsert was refused (over budget), and a refused replacement
    // dropped the old value: without the delete, replay would restore it.
    sink_->OnDelete(op, key);
    return;
  }
  const Entry& e = *it->second;
  sink_->OnUpsert(op, key, e.value, e.config_id);
}

CacheInstance::Table::iterator CacheInstance::FindValidLocked(
    Stripe& st, ConfigId min_valid, std::string_view key) {
  // A Q lease that expired un-released forces deletion of the entry
  // (Section 2.3) — apply that before looking the key up.
  if (leases_.ExpireKey(key).delete_entry) {
    auto stale = st.table.find(key);
    if (stale != st.table.end()) {
      EraseLocked(st, stale->second, /*count_as_delete=*/true);
    }
    if (sink_ != nullptr) {
      sink_->OnDelete(PersistOp::kQExpiry, key);
      sink_->OnQuarantineEnd(key);
    }
  }
  auto it = st.table.find(key);
  if (it == st.table.end()) return st.table.end();
  if (it->second->config_id < min_valid) {
    // Obsolete under the Rejig rule (Section 3.2.4): written before the
    // fragment's current minimum-valid configuration — discard lazily. Not
    // logged to the persistence sink: a replayed entry keeps its old stamp
    // and is re-discarded the same way once leases are re-granted.
    counters_.config_discards.fetch_add(1, std::memory_order_relaxed);
    EraseLocked(st, it->second, /*count_as_delete=*/false);
    return st.table.end();
  }
  return it;
}

// ---- Data path ----------------------------------------------------------------

Result<CacheValue> CacheInstance::Get(const OpContext& ctx,
                                      std::string_view key) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId min_valid = MinValidMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = FindValidLocked(st, min_valid, key);
  if (it == st.table.end()) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return Status(Code::kNotFound);
  }
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  TouchLocked(st, it->second);
  return it->second->value;
}

Result<IqGetResult> CacheInstance::IqGet(const OpContext& ctx,
                                         std::string_view key) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId min_valid = MinValidMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = FindValidLocked(st, min_valid, key);
  if (it != st.table.end()) {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
    TouchLocked(st, it->second);
    IqGetResult r;
    r.value = it->second->value;
    return r;
  }
  counters_.misses.fetch_add(1, std::memory_order_relaxed);
  Result<LeaseToken> lease = leases_.AcquireI(key);
  if (!lease.ok()) {
    return lease.status();  // kBackoff: another session is filling this key.
  }
  IqGetResult r;
  r.i_token = *lease;
  return r;
}

Status CacheInstance::IqSet(const OpContext& ctx, std::string_view key,
                            CacheValue value, LeaseToken token) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId cfg = StampForMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  if (!leases_.CheckI(key, token)) {
    // Voided by a Q lease or expired: ignore the insert (Section 2.3).
    return Status(Code::kLeaseInvalid);
  }
  UpsertLocked(st, key, std::move(value), cfg);
  // The lease table has its own lock, so a concurrent Qareg may have voided
  // the I lease between the check above and the insert. Re-verify under the
  // stripe lock and undo the insert if so: the Q-lease holder deletes or
  // overwrites the entry anyway, and keeping the stale fill would recreate
  // the very race the I/Q protocol exists to prevent.
  if (!leases_.CheckI(key, token)) {
    auto it = st.table.find(key);
    if (it != st.table.end()) {
      EraseLocked(st, it->second, /*count_as_delete=*/false);
    }
    return Status(Code::kLeaseInvalid);
  }
  LogUpsertLocked(st, PersistOp::kIqSet, key);
  leases_.ReleaseI(key, token);
  return Status::Ok();
}

Result<LeaseToken> CacheInstance::Qareg(const OpContext& ctx,
                                        std::string_view key) {
  return AfterEagerDurable([&]() -> Result<LeaseToken> {
    std::shared_lock<std::shared_mutex> meta(meta_mu_);
    if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
    Result<LeaseToken> token = leases_.AcquireQ(key);
    if (token.ok() && sink_ != nullptr) {
      // Durable (eagerly synced) before the token escapes: once the writer
      // holds it, it may update the data store at any moment, and a crash
      // must then treat this key as quarantined.
      sink_->OnQuarantineBegin(key);
    }
    return token;
  });
}

Status CacheInstance::Dar(const OpContext& ctx, std::string_view key,
                          LeaseToken token) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it != st.table.end()) {
    EraseLocked(st, it->second, /*count_as_delete=*/true);
  }
  if (sink_ != nullptr) {
    sink_->OnDelete(PersistOp::kDar, key);
    sink_->OnQuarantineEnd(key);
  }
  leases_.ReleaseQ(key, token);
  return Status::Ok();
}

Status CacheInstance::Rar(const OpContext& ctx, std::string_view key,
                          CacheValue value, LeaseToken token) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId cfg = StampForMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  if (!leases_.CheckQ(key, token)) {
    return Status(Code::kLeaseInvalid);
  }
  UpsertLocked(st, key, std::move(value), cfg);
  LogUpsertLocked(st, PersistOp::kRar, key);
  if (sink_ != nullptr) sink_->OnQuarantineEnd(key);
  leases_.ReleaseQ(key, token);
  return Status::Ok();
}

Result<LeaseToken> CacheInstance::ISet(const OpContext& ctx,
                                       std::string_view key) {
  return AfterEagerDurable([&]() -> Result<LeaseToken> {
    std::shared_lock<std::shared_mutex> meta(meta_mu_);
    if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
    Stripe& st = StripeOf(key);
    std::lock_guard<std::mutex> lock(st.mu);
    Result<LeaseToken> lease = leases_.AcquireI(key);
    if (!lease.ok()) {
      return lease.status();
    }
    auto it = st.table.find(key);
    if (it != st.table.end()) {
      EraseLocked(st, it->second, /*count_as_delete=*/true);
    }
    if (sink_ != nullptr) sink_->OnDelete(PersistOp::kISet, key);
    return lease;
  });
}

Status CacheInstance::IDelete(const OpContext& ctx, std::string_view key,
                              LeaseToken token) {
  return AfterEagerDurable([&] {
    std::shared_lock<std::shared_mutex> meta(meta_mu_);
    if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
    Stripe& st = StripeOf(key);
    std::lock_guard<std::mutex> lock(st.mu);
    auto it = st.table.find(key);
    if (it != st.table.end()) {
      EraseLocked(st, it->second, /*count_as_delete=*/true);
    }
    if (sink_ != nullptr) sink_->OnDelete(PersistOp::kIDelete, key);
    leases_.ReleaseI(key, token);
    return Status::Ok();
  });
}

Status CacheInstance::Delete(const OpContext& ctx, std::string_view key) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it != st.table.end()) {
    EraseLocked(st, it->second, /*count_as_delete=*/true);
  }
  if (sink_ != nullptr) sink_->OnDelete(PersistOp::kDelete, key);
  return Status::Ok();
}

Status CacheInstance::Set(const OpContext& ctx, std::string_view key,
                          CacheValue value) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId cfg = StampForMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  const bool stored = UpsertLocked(st, key, std::move(value), cfg);
  LogUpsertLocked(st, PersistOp::kSet, key);
  if (!stored) {
    return Status(Code::kInvalidArgument, "value larger than cache capacity");
  }
  return Status::Ok();
}

Status CacheInstance::Cas(const OpContext& ctx, std::string_view key,
                          Version expected, CacheValue value) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId min_valid = MinValidMeta(ctx);
  const ConfigId cfg = StampForMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = FindValidLocked(st, min_valid, key);
  if (it == st.table.end()) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return Status(Code::kNotFound);
  }
  if (it->second->value.version != expected) {
    return Status(Code::kLeaseInvalid, "cas version mismatch");
  }
  const bool stored = UpsertLocked(st, key, std::move(value), cfg);
  LogUpsertLocked(st, PersistOp::kSet, key);
  if (!stored) {
    return Status(Code::kInvalidArgument, "value larger than cache capacity");
  }
  return Status::Ok();
}

Status CacheInstance::Append(const OpContext& ctx, std::string_view key,
                             std::string_view data) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  const ConfigId cfg = StampForMeta(ctx);
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it == st.table.end()) {
    // memcached-style append would fail here; Gemini relies on create-on-
    // append so that the *marker* (not entry existence) detects evictions.
    CacheValue value = CacheValue::OfData(std::string(data));
    if (!UpsertLocked(st, key, std::move(value), cfg)) {
      return Status(Code::kInvalidArgument, "append larger than capacity");
    }
    LogUpsertLocked(st, PersistOp::kAppend, key);
    return Status::Ok();
  }
  Entry& e = *it->second;
  st.used_bytes -= ChargeOf(e.key, e.value);
  e.value.data.append(data);
  e.value.charged_bytes = static_cast<uint32_t>(
      std::max<size_t>(e.value.charged_bytes, e.value.data.size()));
  st.used_bytes += ChargeOf(e.key, e.value);
  TouchLocked(st, it->second);
  EvictLocked(st);
  LogUpsertLocked(st, PersistOp::kAppend, key);
  return Status::Ok();
}

// ---- Redlease -------------------------------------------------------------------

Result<LeaseToken> CacheInstance::AcquireRed(std::string_view key) {
  {
    std::shared_lock<std::shared_mutex> meta(meta_mu_);
    if (!available_) return Status(Code::kUnavailable);
  }
  return leases_.AcquireRed(key);
}

Status CacheInstance::ReleaseRed(std::string_view key, LeaseToken token) {
  leases_.ReleaseRed(key, token);
  return Status::Ok();
}

Status CacheInstance::RenewRed(std::string_view key, LeaseToken token) {
  {
    std::shared_lock<std::shared_mutex> meta(meta_mu_);
    if (!available_) return Status(Code::kUnavailable);
  }
  return leases_.RenewRed(key, token) ? Status::Ok()
                                      : Status(Code::kLeaseInvalid);
}

// ---- Working-set enumeration -------------------------------------------------

Result<WorkingSetPage> CacheInstance::WorkingSetScan(const OpContext& ctx,
                                                     uint32_t num_fragments,
                                                     uint64_t cursor,
                                                     uint32_t max_keys) {
  std::shared_lock<std::shared_mutex> meta(meta_mu_);
  if (Status s = CheckRequestMeta(ctx); !s.ok()) return s;
  if (num_fragments == 0 || max_keys == 0) {
    return Status(Code::kInvalidArgument, "bad working-set scan bounds");
  }
  const ConfigId min_valid = MinValidMeta(ctx);
  const size_t nstripes = stripes_.size();
  const uint32_t depth =
      std::max<uint32_t>(1, max_keys / static_cast<uint32_t>(nstripes));

  // Cursor = (band << 32) | next stripe index. The page always breaks at a
  // stripe boundary so a resumed scan never re-emits a half-visited stripe.
  uint64_t band = cursor >> 32;
  size_t stripe = static_cast<uint32_t>(cursor);
  if (stripe >= nstripes) stripe = 0;  // defensive against a garbage cursor
  // Whether any stripe filled its quota in the current band. When none did,
  // every stripe's walk reached the tail of its LRU list, so the next band
  // is certainly empty: the scan ends there instead of walking the table
  // once more to watch that band come up dry. A resumed mid-band cursor
  // assumes the skipped stripes filled theirs (worst case: one extra band).
  bool band_full = stripe != 0;

  WorkingSetPage page;
  const auto matches = [&](const Entry& e) {
    if (e.config_id < min_valid) return false;  // obsolete under Rejig
    const std::string_view key = e.key;
    if (key.size() >= sizeof(kInternalKeyPrefix) - 1 &&
        key.compare(0, sizeof(kInternalKeyPrefix) - 1, kInternalKeyPrefix) ==
            0) {
      return false;  // dirty lists / config entry are not working set
    }
    return Fnv1a64(key) % num_fragments == ctx.fragment;
  };

  for (;;) {
    if (stripe == nstripes) {
      if (!band_full) return page;  // every stripe ran out of matches: done
      ++band;
      stripe = 0;
      band_full = false;
      continue;
    }
    // Break only between stripes, and only once something was emitted, so
    // every call makes progress and the cursor stays stripe-aligned. A page
    // may overshoot max_keys by up to depth-1 items.
    if (!page.items.empty() && page.items.size() + depth > max_keys) {
      page.next_cursor = (band << 32) | static_cast<uint64_t>(stripe);
      return page;
    }
    Stripe& st = *stripes_[stripe];
    {
      std::lock_guard<std::mutex> lock(st.mu);
      // Band b wants this stripe's matches at LRU positions
      // [b*depth, (b+1)*depth): walk MRU->LRU, skip b*depth matches, emit
      // up to depth.
      uint64_t skip = band * depth;
      uint32_t emitted = 0;
      for (const Entry& e : st.lru) {
        if (!matches(e)) continue;
        if (skip > 0) {
          --skip;
          continue;
        }
        page.items.push_back(
            WorkingSetItem{e.key, e.value.charged_bytes});
        if (++emitted == depth) break;
      }
      if (emitted == depth) band_full = true;
    }
    ++stripe;
  }
}

// ---- Introspection -----------------------------------------------------------------

CacheInstance::Stats CacheInstance::stats() const {
  Stats s;
  s.hits = counters_.hits.load(std::memory_order_relaxed);
  s.misses = counters_.misses.load(std::memory_order_relaxed);
  s.inserts = counters_.inserts.load(std::memory_order_relaxed);
  s.deletes = counters_.deletes.load(std::memory_order_relaxed);
  s.evictions = counters_.evictions.load(std::memory_order_relaxed);
  s.config_discards = counters_.config_discards.load(std::memory_order_relaxed);
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    s.used_bytes += sp->used_bytes;
    s.entry_count += sp->lru.size();
  }
  return s;
}

void CacheInstance::ResetCounters() {
  counters_.hits.store(0, std::memory_order_relaxed);
  counters_.misses.store(0, std::memory_order_relaxed);
  counters_.inserts.store(0, std::memory_order_relaxed);
  counters_.deletes.store(0, std::memory_order_relaxed);
  counters_.evictions.store(0, std::memory_order_relaxed);
  counters_.config_discards.store(0, std::memory_order_relaxed);
}

bool CacheInstance::ContainsRaw(std::string_view key) const {
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  return st.table.find(key) != st.table.end();
}

std::optional<ConfigId> CacheInstance::RawConfigIdOf(
    std::string_view key) const {
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it == st.table.end()) return std::nullopt;
  return it->second->config_id;
}

void CacheInstance::ForEachEntry(
    const std::function<void(std::string_view, const CacheValue&, ConfigId)>&
        fn) const {
  // Lock every stripe, in ascending index order, for the whole iteration:
  // the callback observes one coherent cut of the table even while writers
  // run on other threads (they block on their stripe until we finish).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& sp : stripes_) {
    locks.emplace_back(sp->mu);
  }
  for (const auto& sp : stripes_) {
    for (const Entry& e : sp->lru) {
      fn(e.key, e.value, e.config_id);
    }
  }
}

Status CacheInstance::RestoreEntry(std::string_view key, CacheValue value,
                                   ConfigId config_id) {
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  if (!UpsertLocked(st, key, std::move(value), config_id)) {
    return Status(Code::kInvalidArgument, "entry larger than cache capacity");
  }
  return Status::Ok();
}

void CacheInstance::RestoreErase(std::string_view key) {
  Stripe& st = StripeOf(key);
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.table.find(key);
  if (it != st.table.end()) {
    EraseLocked(st, it->second, /*count_as_delete=*/false);
  }
}

void CacheInstance::SetPersistenceSink(PersistenceSink* sink) {
  std::unique_lock<std::shared_mutex> meta(meta_mu_);
  sink_ = sink;
  options_.persistence = sink;
}

}  // namespace gemini
