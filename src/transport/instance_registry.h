// InstanceRegistry: the set of CacheInstances one geminid process hosts.
//
// The paper's deployment unit is a cluster of instances — a configuration
// assigns fragments to several of them — and a single server machine
// typically hosts more than one (the paper's "Instance-M:L" naming). The
// registry maps InstanceId → {instance, per-instance options} so a single
// TransportServer event loop can route each connection to the instance its
// HELLO selected.
//
// The registry is assembled before TransportServer::Start() and is
// immutable afterwards: the event loop reads it without locking.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/status.h"

namespace gemini {

/// Per-instance transport options.
struct InstanceOptions {
  /// Extra (name, value) counters appended to this instance's kStats
  /// response — how geminid surfaces PersistentStore counters without the
  /// transport depending on src/persist. Called on an event-loop thread, so
  /// it must be cheap and thread-safe; null = no extra counters.
  std::function<std::vector<std::pair<std::string, uint64_t>>()> extra_stats;
};

class InstanceRegistry {
 public:
  InstanceRegistry() = default;

  /// Registers `instance` under its own id. The first registered instance
  /// becomes the default (what a v1 client, or a v2 HELLO carrying
  /// kAnyInstance, binds to). kInvalidArgument on nullptr, a reserved id,
  /// or a duplicate id.
  Status Add(CacheInstance* instance, InstanceOptions options = {});

  /// nullptr when `id` is not hosted here.
  [[nodiscard]] CacheInstance* Find(InstanceId id) const;
  [[nodiscard]] const InstanceOptions* FindOptions(InstanceId id) const;

  [[nodiscard]] InstanceId default_id() const { return default_id_; }
  [[nodiscard]] CacheInstance* default_instance() const {
    return Find(default_id_);
  }

  /// All hosted ids, ascending (the kInstanceList response order).
  [[nodiscard]] std::vector<InstanceId> ids() const;

  /// Dense slot index of `id` in ascending-id order, or npos when not
  /// hosted. Stable for the registry's lifetime (the registry is immutable
  /// after Start), so per-instance counters can live in flat atomic arrays
  /// indexed by slot instead of a locked map.
  static constexpr size_t npos = static_cast<size_t>(-1);
  [[nodiscard]] size_t IndexOf(InstanceId id) const;

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    CacheInstance* instance = nullptr;
    InstanceOptions options;
  };
  std::map<InstanceId, Entry> entries_;
  InstanceId default_id_ = kInvalidInstance;
};

}  // namespace gemini
