// GeminiClient: the client library applications link against (Sections 2, 3).
//
// The client caches a configuration, routes each request to a fragment with
// hash(key) % F (Figure 3), and runs the paper's two request algorithms once
// for every fragment mode:
//
//  - Read (Algorithm 1): an IQ session against the routed replica — the
//    primary in normal and recovery modes, the secondary in transient mode.
//    In recovery mode a key on the fragment's dirty list is deleted in the
//    primary under an I lease (ISet) instead of looked up, and a primary
//    miss probes the secondary while the working set transfer runs.
//  - Write (Algorithm 2): a Q lease on the routed replica, then the mode's
//    extra step (transient: append the key to the fragment's dirty list;
//    recovery: delete the key in the secondary), then the store update and
//    the cache-side completion of the write policy.
//
// One GeminiClient may be shared by threads: the configuration, the fetched
// dirty lists and the stats live under one mutex, and no lock is held
// across a remote call.
//
// Failure handling (Sections 2.2, 3.3):
//  - kStaleConfig / kWrongInstance from an instance: refresh the
//    configuration and retry the whole operation.
//  - kUnavailable with an unchanged configuration (the coordinator has not
//    yet published the secondary): reads fall through to the data store,
//    writes return kSuspended — callers retry after the new configuration
//    appears, preserving read-after-write consistency. Over TCP the
//    transport sends each request once, so a dropped connection reaches
//    this client as kUnavailable at once (and a tripped circuit breaker
//    fails instantly without dialing) — see docs/PROTOCOL.md §11. Either
//    way the meaning here is identical: treat the instance as failed,
//    degrade, never guess about lease or write outcome.
//  - Lease back-off (kBackoff): a read looks the key up again up to 25
//    times, each retry billed to the Session as a 1 ms pause; a read out
//    of retries falls through to the data store *without* populating the
//    cache. The pause is virtual: a real-time caller (a default Session)
//    does not wait, so its 26 lookups go back to back.
//
// Every remote touch is billed to the caller's Session so the discrete-event
// harness can account virtual time; pass a default-constructed Session for
// real-time use.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/dirty_list.h"
#include "src/client/recovery_state.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/coordinator_service.h"
#include "src/net/cost_model.h"
#include "src/store/data_store.h"

namespace gemini {

/// Section 2: policies for processing writes. The paper evaluates Gemini
/// with write-around ("due to lack of space"); write-through is implemented
/// as an extension — the write installs the new value in the cache under
/// the same Q lease instead of deleting the entry, so dirty keys recovered
/// by Gemini-O carry real values rather than invalidations.
enum class WritePolicy : uint8_t {
  kWriteAround,
  kWriteThrough,
};

class GeminiClient {
 public:
  struct Options {
    /// Working set transfer enabled (policy +W variants).
    bool working_set_transfer = false;
    /// Write processing policy (Section 2).
    WritePolicy write_policy = WritePolicy::kWriteAround;
    /// Record written keys on the fragment's dirty list in transient mode.
    /// True for Gemini; the VolatileCache/StaleCache baselines do not
    /// maintain dirty lists (Section 5).
    bool maintain_dirty_lists = true;
    /// Adopt coordinator configuration advances eagerly: before each
    /// operation, compare the coordinator's latest_id() against the cached
    /// configuration and refresh when it moved. Against a RemoteCoordinator
    /// the compare is a local atomic load that kPushConfig frames keep
    /// fresh, so a Rejig reaches the very next operation instead of waiting
    /// for a kStaleConfig bounce off an instance. Off by default: the
    /// historical (poll-on-error) behavior, which the DES harness bills
    /// explicitly and the in-process builds rely on.
    bool follow_config_pushes = false;
  };

  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               std::vector<CacheBackend*> instances, DataStore* store)
      : GeminiClient(clock, coordinator, std::move(instances), store,
                     Options()) {}
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               std::vector<CacheBackend*> instances, DataStore* store,
               Options options);
  /// Convenience overloads for in-process clusters (tests, the DES harness):
  /// a CacheInstance* vector upcasts element-wise to the backend interface.
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               const std::vector<CacheInstance*>& instances, DataStore* store)
      : GeminiClient(clock, coordinator, instances, store, Options()) {}
  GeminiClient(const Clock* clock, CoordinatorService* coordinator,
               const std::vector<CacheInstance*>& instances, DataStore* store,
               Options options)
      : GeminiClient(clock, coordinator,
                     std::vector<CacheBackend*>(instances.begin(),
                                                instances.end()),
                     store, options) {}

  /// Binds the shared WST-termination flags (required when
  /// working_set_transfer is on).
  void BindRecoveryState(RecoveryState* state) { recovery_state_ = state; }

  struct ReadResult {
    CacheValue value;
    /// Value came from the cache layer (either replica).
    bool cache_hit = false;
    /// Value was copied from the secondary during working set transfer.
    bool from_secondary = false;
    /// Replica instance that processed the cache lookup (kInvalidInstance
    /// when the read was served by the data store during the failover
    /// window). On a miss this is the replica that observed the miss.
    InstanceId instance = kInvalidInstance;
    /// Replica the configuration routed this read to (the primary in normal
    /// and recovery modes, the secondary in transient mode). Differs from
    /// `instance` when the working set transfer served the value from the
    /// secondary; per-instance hit-ratio accounting attributes the lookup to
    /// the routed replica.
    InstanceId routed = kInvalidInstance;
    /// The working set transfer probed the secondary replica on a primary
    /// miss; `from_secondary` tells whether that probe hit. Feeds the
    /// secondary-miss-ratio termination condition (Section 3.2.2).
    bool secondary_probed = false;
  };

  /// Application read. On a cache miss the client queries the data store,
  /// computes the cache entry, and inserts it for future references.
  Result<ReadResult> Read(Session& session, std::string_view key);

  /// Application write, write-around policy: updates the data store and
  /// invalidates the impacted cache entry under a Q lease. `data` optionally
  /// replaces the record payload (synthetic workloads pass nullopt; only the
  /// version moves). Returns kSuspended while the fragment has no reachable
  /// replica and no new configuration exists yet.
  Status Write(Session& session, std::string_view key,
               std::optional<std::string> data = std::nullopt);

  /// Fetches the latest configuration from the coordinator.
  void RefreshConfig(Session& session);

  /// Client crash-recovery path (Section 3.3): fetch the configuration from
  /// an instance's cache entry; falls back to the coordinator when the entry
  /// was evicted. Returns the id of the adopted configuration.
  ConfigId Bootstrap(Session& session, InstanceId via_instance);

  [[nodiscard]] ConfigurationPtr config() const;

  /// Drops all client-local state (configuration and fetched dirty lists),
  /// as a freshly restarted client process would have.
  void ForgetState();

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t cache_hits = 0;
    uint64_t store_reads = 0;
    uint64_t suspended_writes = 0;
    uint64_t wst_copies = 0;
    uint64_t dirty_hits = 0;  // reads that found their key on a dirty list
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct CachedDirtyList {
    DirtyList list;
    /// The fragment's epoch when the list was fetched; a different epoch in
    /// the current configuration invalidates the cache (the fragment went
    /// through another transient episode this client never observed).
    uint32_t epoch = 0;
  };

  // Marks `key` clean for `fragment` from this client's perspective
  // (Algorithm 1 line 8 / Algorithm 2's deletes): removes it from the
  // fetched list, or remembers the removal for a list fetched later within
  // the same epoch.
  void MarkKeyClean(FragmentId fragment, uint32_t epoch,
                    std::string_view key);

  // Algorithm 1 line 1: whether `key` is on the fragment's fetched dirty
  // list of `epoch` (counted as a dirty hit), or that list is no longer
  // cached.
  bool IsDirty(FragmentId fragment, uint32_t epoch, std::string_view key);

  // Adopts `fresh` unless the cached configuration is newer, and drops the
  // dirty lists of fragments no longer in recovery mode. Requires mu_.
  void AdoptLocked(ConfigurationPtr fresh);

  // Returns the cached configuration, fetching it on first use.
  ConfigurationPtr EnsureConfig(Session& session);

  // The refresh-and-retry loop of Read and Write (Sections 2.2, 3.3): runs
  // `attempt(fragment, assignment, config_id)` under the cached
  // configuration. After a kStaleConfig, kWrongInstance or kUnavailable
  // answer it refreshes the configuration and runs the attempt again under
  // a newer one, or returns `degrade()` when there is none.
  template <typename R, typename Attempt, typename Degrade>
  R Route(Session& session, std::string_view key, const Attempt& attempt,
          const Degrade& degrade);

  // Algorithm 1 against the fragment's routed replica, in every mode.
  Result<ReadResult> ReadReplica(Session& session, std::string_view key,
                                 FragmentId fragment,
                                 const FragmentAssignment& a,
                                 ConfigId config_id);

  // The data-store fall-through: the read is served without the cache.
  Result<ReadResult> ReadFromStore(Session& session, std::string_view key);

  // Shared miss path: query the store, insert into `target` under `i_token`.
  Result<ReadResult> FillFromStore(Session& session, std::string_view key,
                                   FragmentId fragment, InstanceId target,
                                   ConfigId config_id, LeaseToken i_token,
                                   bool secondary_probed);

  // Algorithm 2 against the fragment's routed replica, in every mode: the Q
  // lease, the transient-mode dirty-list append or the recovery-mode delete
  // in the secondary, then CommitWrite.
  Status LeasedWrite(Session& session, std::string_view key,
                     FragmentId fragment, const FragmentAssignment& a,
                     ConfigId config_id, std::optional<std::string>& data);

  // Applies the data-store update and the cache-side completion of a write
  // session per the configured write policy: delete-and-release
  // (write-around) or replace-and-release (write-through).
  Status CommitWrite(Session& session, CacheBackend& inst,
                     InstanceId instance, const OpContext& ctx,
                     std::string_view key, LeaseToken q_token,
                     std::optional<std::string>& data);

  // Fetches (or reuses) the dirty list of a fragment in recovery mode.
  // Returns false if the list is unavailable (primary being discarded).
  bool EnsureDirtyList(Session& session, FragmentId fragment,
                       const FragmentAssignment& a, ConfigId config_id);

  // True if the working set transfer is currently active for the fragment.
  bool WstActive(FragmentId fragment, const FragmentAssignment& a) const;

  const Clock* clock_;
  CoordinatorService* coordinator_;
  std::vector<CacheBackend*> instances_;
  DataStore* store_;
  Options options_;
  RecoveryState* recovery_state_ = nullptr;

  mutable std::mutex mu_;
  ConfigurationPtr config_;
  std::unordered_map<FragmentId, CachedDirtyList> dirty_lists_;
  // Keys this client already handled for fragments whose dirty list it has
  // not fetched yet (epoch-scoped); applied at fetch time.
  struct PendingClean {
    uint32_t epoch = 0;
    std::vector<std::string> keys;
  };
  std::unordered_map<FragmentId, PendingClean> pending_clean_;
  Stats stats_;
};

}  // namespace gemini
