// CacheInstance: a persistent, memcached-style cache process with the IQ
// lease extensions (our stand-in for IQ-Twemcached, Section 4).
//
// One instance stores cache entries for the fragments assigned to it by the
// coordinator. It provides:
//
//  - LRU eviction under a byte budget (key + value + fixed per-entry
//    overhead), mirroring memcached's behaviour that matters to Gemini: *any*
//    entry, including a dirty list, can be evicted.
//  - IQ lease operations (iqget / iqset / qareg / dar) plus the recovery-mode
//    primitives iset / idelete of Algorithms 1-3, and Redlease operations for
//    recovery workers.
//  - Rejig configuration-id validation (Section 3.2.4): every entry is
//    stamped with the configuration id under which it was written, every
//    fragment carries a minimum-valid id, and an entry whose stamp is below
//    its fragment's minimum is obsolete — deleted on access. This is how
//    Gemini discards millions of unrecoverable entries in O(1): the
//    coordinator just raises the fragment's id.
//  - Fragment leases: the instance serves a fragment only while it holds a
//    coordinator-granted lease on it (Section 2.1), and tells stale clients
//    to refresh their configuration (kStaleConfig) when their config id lags
//    the latest id this instance has seen.
//  - Persistence emulation: failing an instance makes it unavailable;
//    recovering it restores its content intact (persistent media) but clears
//    leases (volatile process state). A volatile cache additionally wipes
//    content (the VolatileCache baseline).
//
// Thread-safe, with memcached-style lock striping: the key table is
// partitioned into `Options::num_stripes` independent shards (key-hash →
// stripe), each owning its own mutex, hash map, LRU list, and byte budget
// (capacity_bytes / num_stripes). Operations on keys in different stripes
// run concurrently; operations on one key serialize on its stripe. The
// read-mostly fragment-lease / config-id / availability state lives under a
// small shared_mutex taken shared on the data path, op counters are
// atomics, and the lease table keeps its own internal lock. num_stripes = 1
// (the default) reproduces the historical single-mutex behaviour exactly,
// including one global LRU order; with more stripes LRU order and the byte
// budget are per-stripe, which is the memcached trade: a skewed stripe can
// evict earlier than a global LRU would.
//
// Lock order (never take a later lock while holding an earlier one in
// reverse): meta (shared_mutex) → stripe mutex (ascending index when taking
// several) → LeaseTable's internal lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_backend.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lease/lease_table.h"

namespace gemini {

class EagerScope;
class PersistenceSink;
enum class PersistOp : uint8_t;

class CacheInstance : public CacheBackend {
 public:
  struct Options {
    /// Memory budget for entries (bytes). 0 disables eviction.
    uint64_t capacity_bytes = 0;
    /// Fixed bookkeeping charge per entry, approximating the memcached item
    /// header + hash/LRU pointers.
    uint32_t per_entry_overhead = 56;
    /// Lock stripes for the key table. Rounded up to a power of two and
    /// clamped to [1, 256]. 1 (the default) keeps one global mutex + LRU
    /// list; a multi-core server (geminid --threads N) wants roughly 4x its
    /// event-loop count so concurrent shards stop convoying on one lock.
    uint32_t num_stripes = 1;
    LeaseTable::Options lease_options;
    /// When set, every durable state change is reported through this sink
    /// (see persistence_sink.h for the callback/locking contract). Null (the
    /// default) is the legacy volatile behavior. Not owned; must outlive the
    /// instance or be detached with SetPersistenceSink(nullptr).
    PersistenceSink* persistence = nullptr;
  };

  CacheInstance(InstanceId id, const Clock* clock)
      : CacheInstance(id, clock, Options()) {}
  CacheInstance(InstanceId id, const Clock* clock, Options options);

  CacheInstance(const CacheInstance&) = delete;
  CacheInstance& operator=(const CacheInstance&) = delete;

  [[nodiscard]] InstanceId id() const override { return id_; }

  /// The clock this instance was constructed with (lease expiries are
  /// timestamps in this clock's domain — wire-side TTLs convert against it).
  [[nodiscard]] const Clock& clock() const { return *clock_; }

  // ---- Availability & persistence emulation -------------------------------

  /// Marks the instance failed: all operations return kUnavailable.
  void Fail();

  /// Brings a *persistent* instance back: content intact, leases cleared
  /// (leases are volatile process state even on persistent media).
  void RecoverPersistent();

  /// Brings a *volatile* instance back: content wiped (VolatileCache).
  void RecoverVolatile();

  [[nodiscard]] bool available() const;

  // ---- Coordinator-facing fragment management ------------------------------

  /// Grants/renews this instance's lease on `fragment` with the given
  /// minimum-valid configuration id and expiry. Also advances the memoized
  /// latest configuration id. An advance is an eager WAL record: the call
  /// returns once it is durable, or kUnavailable once the log has failed
  /// (RevokeFragmentLease and ObserveConfigId alike).
  Status GrantFragmentLease(FragmentId fragment, ConfigId min_valid_config,
                            Timestamp expiry, ConfigId latest_config);

  /// Revokes the lease (fragment reassigned elsewhere).
  Status RevokeFragmentLease(FragmentId fragment, ConfigId latest_config);

  /// The latest configuration id this instance has observed.
  [[nodiscard]] ConfigId latest_config_id() const;

  /// Advances the memoized latest configuration id without touching any
  /// fragment lease (the wire protocol's config-bump op; a coordinator uses
  /// it to make an instance bounce stale clients before leases arrive).
  Status ObserveConfigId(ConfigId latest);

  /// True iff this instance currently holds a live lease on `fragment`.
  [[nodiscard]] bool HoldsFragmentLease(FragmentId fragment) const;

  /// The minimum-valid config id of the instance's lease on `fragment`
  /// (nullopt when it holds none). Auditing hook.
  [[nodiscard]] std::optional<ConfigId> FragmentLeaseMinValid(
      FragmentId fragment) const;

  /// Reads the physically present entry for `key` without touching LRU
  /// order, stats, leases, or validity (auditing hook).
  [[nodiscard]] std::optional<CacheValue> RawGet(std::string_view key) const;

  // ---- Data path -----------------------------------------------------------

  /// Plain get (no lease on miss). Used for secondary lookups during working
  /// set transfer and by recovery workers (SR.get(k)).
  Result<CacheValue> Get(const OpContext& ctx, std::string_view key) override;

  /// Get; on miss, atomically acquire an I lease (or kBackoff).
  Result<IqGetResult> IqGet(const OpContext& ctx,
                            std::string_view key) override;

  /// Insert if the I lease `token` is still valid, then release it. Returns
  /// kLeaseInvalid (insert ignored) if the lease was voided or expired.
  Status IqSet(const OpContext& ctx, std::string_view key, CacheValue value,
               LeaseToken token) override;

  /// Acquire a Q lease (write-around write path); voids any I lease.
  Result<LeaseToken> Qareg(const OpContext& ctx,
                           std::string_view key) override;

  /// Delete-and-release: removes the entry and releases the Q lease.
  Status Dar(const OpContext& ctx, std::string_view key,
             LeaseToken token) override;

  /// Replace-and-release (write-through): installs the new value written to
  /// the data store and releases the Q lease. Requires the Q lease to still
  /// be valid — if it expired, the entry was (or will be) deleted by the
  /// expiry rule and the insert must not resurrect a potentially stale
  /// value, so kLeaseInvalid is returned and nothing is installed.
  Status Rar(const OpContext& ctx, std::string_view key, CacheValue value,
             LeaseToken token) override;

  /// Recovery primitive (Algorithm 1 line 7, Algorithm 3 line 11): delete the
  /// entry and acquire an I lease in one step; kBackoff if leases collide.
  Result<LeaseToken> ISet(const OpContext& ctx,
                          std::string_view key) override;

  /// Delete the entry and release the I lease (Algorithm 3 line 16).
  Status IDelete(const OpContext& ctx, std::string_view key,
                 LeaseToken token) override;

  /// Unconditional delete with no leases (Algorithm 2 line 3: delete in the
  /// secondary during working set transfer).
  Status Delete(const OpContext& ctx, std::string_view key) override;

  /// Unconditional insert with no leases. Used by the coordinator to publish
  /// configurations and initialize dirty lists, and by tests.
  Status Set(const OpContext& ctx, std::string_view key,
             CacheValue value) override;

  /// Compare-and-swap: atomically replaces the entry iff its current version
  /// equals `expected`. kNotFound when the key is absent (or invalid under
  /// Rejig), kLeaseInvalid on a version mismatch. No lease interaction — the
  /// wire protocol exposes it for memcached-style cas clients.
  Status Cas(const OpContext& ctx, std::string_view key, Version expected,
             CacheValue value) override;

  /// Appends bytes to an entry's payload, creating the entry if absent
  /// (memcached "append" semantics as Gemini needs them: a re-created dirty
  /// list is detectable because it lacks the marker).
  Status Append(const OpContext& ctx, std::string_view key,
                std::string_view data) override;

  // ---- Redlease (recovery workers, Section 2.3) ----------------------------

  Result<LeaseToken> AcquireRed(std::string_view key) override;
  Status ReleaseRed(std::string_view key, LeaseToken token) override;
  /// Extends a held Redlease; kLeaseInvalid if it lapsed.
  Status RenewRed(std::string_view key, LeaseToken token) override;

  // ---- Working-set enumeration (Section 3.2.2) -----------------------------

  /// Paginated, hottest-first enumeration of the keys this instance holds
  /// for fragment `ctx.fragment` (routing = Fnv1a64(key) % num_fragments).
  /// Priority is approximate: the cursor walks *bands* of per-stripe LRU
  /// depth — band b visits every stripe's matches at LRU positions
  /// [b*depth, (b+1)*depth) with depth = max(1, max_keys / stripe_count) —
  /// so earlier pages are globally hotter without any cross-stripe lock or
  /// new hot-path state; each call takes one stripe mutex at a time.
  /// Gemini-internal keys and entries below the fragment's minimum-valid
  /// config id are never surfaced; the scan itself mutates nothing (no LRU
  /// touch, no lazy discard). Under concurrent writes a key may appear
  /// twice or not at all — callers (the recovery worker) install
  /// idempotently, so this only perturbs priority, never correctness.
  Result<WorkingSetPage> WorkingSetScan(const OpContext& ctx,
                                        uint32_t num_fragments,
                                        uint64_t cursor,
                                        uint32_t max_keys) override;

  // ---- Introspection -------------------------------------------------------

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t evictions = 0;
    /// Hits rejected because the entry's config id was below its fragment's
    /// minimum (Rejig discard rule) — the "discarded keys" of Table 3.
    uint64_t config_discards = 0;
    uint64_t used_bytes = 0;
    uint64_t entry_count = 0;
  };
  [[nodiscard]] Stats stats() const;
  void ResetCounters();

  /// True iff `key` currently has a physically present entry, regardless of
  /// config-id validity (tests / Table 3 accounting).
  [[nodiscard]] bool ContainsRaw(std::string_view key) const;

  /// Config id stamped on the physically present entry for `key`, or
  /// nullopt when absent. Used by the Table 3 bench to count entries that
  /// the Rejig rule will discard.
  [[nodiscard]] std::optional<ConfigId> RawConfigIdOf(
      std::string_view key) const;

  /// Iterates all physically present entries, holding *every* stripe lock
  /// (taken in fixed ascending order) for the duration — the callback sees
  /// one coherent cut of the whole table even while writers run on other
  /// threads. Within a stripe, entries come in LRU order (most recent
  /// first); stripes are visited in index order, so the cross-stripe order
  /// is not a global LRU order unless num_stripes == 1. The callback must
  /// not call back into the instance. Used by the snapshot writer.
  void ForEachEntry(
      const std::function<void(std::string_view key, const CacheValue& value,
                               ConfigId config_id)>& fn) const;

  /// Installs an entry with an explicit config-id stamp, bypassing leases
  /// and the config-staleness check. Snapshot restore only: the stamp must
  /// reproduce what the entry carried when it was persisted, or the Rejig
  /// validity rule would mis-classify it. kInvalidArgument when the entry
  /// is larger than its stripe's budget.
  Status RestoreEntry(std::string_view key, CacheValue value,
                      ConfigId config_id);

  /// Erases the physically present entry for `key` without touching leases,
  /// op counters, or the persistence sink. Recovery replay only (the
  /// durable log already accounts for the deletion being re-applied).
  void RestoreErase(std::string_view key);

  /// Swaps the persistence sink (see Options::persistence). Used when a
  /// recovered process re-attaches a fresh store to an existing instance
  /// object. Pass nullptr to detach.
  void SetPersistenceSink(PersistenceSink* sink);

  LeaseTable& leases() { return leases_; }
  const Options& options() const { return options_; }

  /// Effective stripe count after rounding/clamping (diagnostics).
  [[nodiscard]] uint32_t stripe_count() const {
    return static_cast<uint32_t>(stripes_.size());
  }

 private:
  struct Entry {
    std::string key;
    CacheValue value;
    ConfigId config_id = 0;
  };
  using LruList = std::list<Entry>;
  using Table = std::unordered_map<std::string_view, LruList::iterator>;

  /// One lock-striped shard of the key table: its own mutex, map, LRU list,
  /// and byte budget (capacity_bytes / num_stripes).
  struct Stripe {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used
    Table table;
    uint64_t used_bytes = 0;
  };

  [[nodiscard]] Stripe& StripeOf(std::string_view key) const;

  // All *Locked methods require the owning stripe's mutex held.
  uint64_t ChargeOf(std::string_view key, const CacheValue& value) const;
  void TouchLocked(Stripe& st, LruList::iterator it);
  void EraseLocked(Stripe& st, LruList::iterator it, bool count_as_delete);
  void EvictLocked(Stripe& st);
  // Inserts or replaces; returns false if rejected (entry larger than the
  // stripe's budget), after erasing the entry it would have replaced.
  bool UpsertLocked(Stripe& st, std::string_view key, CacheValue value,
                    ConfigId cfg);
  // Reports the just-installed entry for `key` to the persistence sink, or
  // a delete when the upsert was rejected (a no-op when the sink is null).
  // Requires the stripe lock and meta_mu_ (shared) held.
  void LogUpsertLocked(Stripe& st, PersistOp op, std::string_view key);
  // Looks up the key and applies Rejig validity + Q-expiry actions.
  // `min_valid` is the fragment's minimum-valid config id (0 = no check),
  // read from the meta state by the caller. Returns st.table.end() on
  // miss/invalid.
  Table::iterator FindValidLocked(Stripe& st, ConfigId min_valid,
                                  std::string_view key);

  // The following require meta_mu_ held (shared suffices).
  // Validates availability + client config freshness + fragment lease.
  Status CheckRequestMeta(const OpContext& ctx) const;
  // The config id to stamp on an entry written under `ctx`.
  [[nodiscard]] ConfigId StampForMeta(const OpContext& ctx) const;
  // The fragment's minimum-valid config id (0 when not fragment-scoped).
  [[nodiscard]] ConfigId MinValidMeta(const OpContext& ctx) const;
  // Raises latest_config_ to `latest` and logs the advance (an eager
  // record). Requires meta_mu_ held exclusively.
  void AdvanceConfigMeta(ConfigId latest);
  // Runs `op`, which takes the instance's locks and may append eager WAL
  // records, then waits for those records once every lock is released
  // (persistence_sink.h). Inside an outer EagerScope the wait is its
  // owner's. kUnavailable once the log has failed: the op is not
  // acknowledged.
  template <typename Op>
  auto AfterEagerDurable(Op op) -> decltype(op());
  // Waits for the eager records `scope` owns: Ok once durable (or when it
  // owns none), kUnavailable when the log failed first.
  Status WaitEager(const EagerScope& scope);

  struct FragmentLease {
    ConfigId min_valid_config = 0;
    Timestamp expiry = 0;
  };

  /// Op counters as atomics so the striped data path never shares a lock
  /// for bookkeeping; folded into Stats on read.
  struct Counters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> config_discards{0};
  };

  const InstanceId id_;
  const Clock* clock_;
  Options options_;
  LeaseTable leases_;

  /// Durability sink, null when persistence is off. Guarded by meta_mu_:
  /// every call site holds it (shared suffices — the sink itself is
  /// thread-safe); SetPersistenceSink takes it exclusively.
  PersistenceSink* sink_ = nullptr;

  // Read-mostly instance-wide state: availability, fragment leases, and the
  // memoized latest config id. Shared-locked on the data path, uniquely
  // locked by the (rare) coordinator-facing mutations.
  mutable std::shared_mutex meta_mu_;
  bool available_ = true;
  ConfigId latest_config_ = 0;
  std::unordered_map<FragmentId, FragmentLease> fragments_;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  uint64_t stripe_mask_ = 0;
  uint64_t stripe_capacity_ = 0;  // capacity_bytes / num_stripes

  mutable Counters counters_;
};

}  // namespace gemini
