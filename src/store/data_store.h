// DataStore: the backing data store behind the caching layer (the paper's
// MongoDB document store).
//
// Under the write-around policy the cache layer only ever issues two
// operations against the store: Query(k) — compute the value a cache entry
// would hold — and Update(k) — apply an application write. The store is the
// system of record, so it versions every key: a write increments the key's
// version, and a read returns the payload together with the version it
// observed. Versions are the ground truth the consistency checker compares
// cache results against; the Gemini protocol itself never reads them.
//
// Payload handling mirrors CacheValue: a record may carry real bytes or just
// a declared size (the simulator models Facebook's 329-byte values without
// materializing them).
//
// Thread-safe.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {

struct StoreRecord {
  std::string data;
  uint32_t size_bytes = 0;
  Version version = 0;
};

class DataStore {
 public:
  DataStore() = default;

  /// Bulk-load `n` synthetic records of `record_bytes` each, keyed by the
  /// provided key-maker. Used by the workload generators to set up the
  /// paper's "10 million record" databases without materializing payloads.
  template <typename KeyFn>
  void LoadSynthetic(uint64_t n, uint32_t record_bytes, KeyFn&& key_of) {
    LoadSyntheticSized(n, std::forward<KeyFn>(key_of),
                       [record_bytes](uint64_t) { return record_bytes; });
  }

  /// As LoadSynthetic, but with a per-record size function (the Facebook
  /// workload draws value sizes from a Generalized Pareto model).
  template <typename KeyFn, typename SizeFn>
  void LoadSyntheticSized(uint64_t n, KeyFn&& key_of, SizeFn&& size_of) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.reserve(records_.size() + n);
    for (uint64_t i = 0; i < n; ++i) {
      StoreRecord rec;
      rec.size_bytes = static_cast<uint32_t>(size_of(i));
      rec.version = 1;
      records_.emplace(key_of(i), std::move(rec));
    }
  }

  /// Models the store's per-operation round trip: the system of record is a
  /// database across a network hop, not an in-process map, and the cost
  /// asymmetry between a cache hit and a store fetch is what makes cache
  /// warmth worth preserving. When nonzero, each Query and update sleeps
  /// this long (outside the lock — concurrent callers overlap, as requests
  /// to a real store would) before touching the records. Off by default;
  /// process-level harnesses and benches opt in. Bulk loads (Put,
  /// LoadSynthetic*) are never delayed.
  void set_synthetic_latency(Duration latency) {
    synthetic_latency_us_.store(latency, std::memory_order_relaxed);
  }

  /// Inserts or replaces a record with real bytes (examples / tests).
  void Put(std::string_view key, std::string data);

  /// Reads a record; kNotFound if the key was never written.
  Result<StoreRecord> Query(std::string_view key) const;

  /// Applies an application write: bumps the version; if `data` is provided
  /// the payload is replaced, otherwise only the version moves (synthetic
  /// workloads care about versions, not bytes). Returns the new version.
  Version Update(std::string_view key,
                 std::optional<std::string> data = std::nullopt);

  /// Update-returning: applies the write and returns the post-update record
  /// (the write-through client installs it in the cache).
  StoreRecord UpdateAndGet(std::string_view key,
                           std::optional<std::string> data = std::nullopt);

  /// Latest version of `key` (0 if never written): the version a
  /// read-after-write-consistent read must observe.
  [[nodiscard]] Version VersionOf(std::string_view key) const;

  [[nodiscard]] uint64_t size() const;

  struct Stats {
    uint64_t queries = 0;
    uint64_t updates = 0;
  };
  [[nodiscard]] Stats stats() const;
  void ResetCounters();

 private:
  /// Sleeps for the configured synthetic round trip; called by every
  /// store operation before it takes mu_.
  void SimulateLatency() const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, StoreRecord> records_;
  mutable Stats counters_;
  std::atomic<Duration> synthetic_latency_us_{0};
};

}  // namespace gemini
