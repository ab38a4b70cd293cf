// The cache → durability boundary.
//
// CacheInstance does not know about files, fsync, or WAL framing; it reports
// every durable state change through this narrow interface while still
// holding the lock that made the change atomic. The persist/ subsystem
// implements it (PersistentStore); tests implement it to spy on the write
// path. A null sink (the default) is exactly the legacy volatile behavior.
//
// Locking contract: OnUpsert/OnDelete are invoked under the key's stripe
// mutex, OnQuarantineBegin/End under the meta lock (shared), and
// OnConfigObserved/OnVolatileWipe under the meta lock (exclusive).
// Implementations must not call back into the cache and must not block
// unboundedly — an append to a buffered log is the intended cost. That
// includes eager records (PROTOCOL.md §9): the sink never waits for their
// fsync. It hands the record's log sequence number (LSN) to the EagerScope
// open on the calling thread, and the scope's owner waits once every lock
// is released. CacheInstance opens a scope around each method that can
// append an eager record; geminid's event loop opens one around each frame
// and holds that frame's reply until the LSN is durable, so the loop never
// waits at all. No thread waits for an fsync while it holds a cache lock.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string_view>

#include "src/cache/cache_backend.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {

/// Which cache operation caused a persisted mutation. Recovery does not need
/// this to replay (records carry exact values), but it makes the log legible
/// and lets the crash-point oracle reason about lease-protected writes.
enum class PersistOp : uint8_t {
  kSet = 0,        // plain Set / Cas
  kIqSet = 1,      // IqSet filling a miss under an I lease
  kRar = 2,        // read-after-recovery copy-in
  kAppend = 3,     // read-modify-write append
  // 4 stays unassigned: it was the retired write-back install, and origin
  // bytes already on disk carry it.
  kDelete = 5,     // plain Delete
  kDar = 6,        // delete-after-recovery
  kIDelete = 7,    // invalidate under an I lease
  kISet = 8,       // ISet (refill marker → delete on this path)
  kQExpiry = 9,    // entry dropped because its Q lease expired unreleased
};

/// Position of a record in a sink's log, counted from 1. An LSN is durable
/// once an fsync covers it, and so is every lower LSN of the same sink.
using Lsn = uint64_t;
/// The LSN a sink hands out for an eager record it refused because its log
/// had already failed: it never becomes durable.
inline constexpr Lsn kFailedLsn = UINT64_MAX;

/// Where an LSN stands (PersistenceSink::CheckDurable).
enum class Durability : uint8_t { kPending, kDurable, kFailed };

/// Told when a sink's durable LSN advances or its log fails.
class DurableListener {
 public:
  /// Runs on the sink's writer thread. Must be cheap (geminid's event loop
  /// writes one byte to its wake-up pipe) and must not call into the sink.
  virtual void OnDurable() = 0;

 protected:
  ~DurableListener() = default;
};

class PersistenceSink {
 public:
  virtual ~PersistenceSink() = default;

  /// `key` now maps to `value` (exact bytes, version, charge) at `config_id`.
  virtual void OnUpsert(PersistOp op, std::string_view key,
                        const CacheValue& value, ConfigId config_id) = 0;

  /// `key` no longer maps to anything.
  virtual void OnDelete(PersistOp op, std::string_view key) = 0;

  /// A Q lease was granted on `key` (Qareg). Until the matching
  /// OnQuarantineEnd, a crash must treat `key` as quarantined: its cached
  /// value may be about to diverge from the data store.
  virtual void OnQuarantineBegin(std::string_view key) = 0;

  /// The Q lease on `key` resolved (Dar or Rar applied, or the lease
  /// expired and the entry was dropped).
  virtual void OnQuarantineEnd(std::string_view key) = 0;

  /// The instance-wide latest config id advanced to `latest`.
  virtual void OnConfigObserved(ConfigId latest) = 0;

  /// RecoverPersistent finished its sweep: every outstanding quarantine is
  /// resolved (the swept keys were reported through OnDelete first).
  virtual void OnQuarantineClear() = 0;

  /// RecoverVolatile wiped the instance: all prior entries and quarantines
  /// are gone (the observed config id survives).
  virtual void OnVolatileWipe() = 0;

  /// Non-blocking: kDurable once an fsync covers `lsn`, kFailed once the log
  /// failed before it did, kPending otherwise.
  [[nodiscard]] virtual Durability CheckDurable(Lsn lsn) const = 0;

  /// Blocks until CheckDurable(lsn) leaves kPending. Ok when durable,
  /// kUnavailable when the log failed first. Never call it holding a cache
  /// lock.
  virtual Status WaitDurable(Lsn lsn) = 0;

  /// Registers / unregisters a listener. Once Remove returns, the sink no
  /// longer calls it.
  virtual void AddDurableListener(DurableListener* listener) = 0;
  virtual void RemoveDurableListener(DurableListener* listener) = 0;
};

/// Collects the eager records appended on this thread while it is open, so
/// the thread can wait for their fsync after it has released its locks.
/// Every eager record is appended inside a scope: CacheInstance opens one
/// around each method that can append one. Scopes nest: an inner scope
/// hands its records to the outermost one, whose owner waits instead
/// (geminid's event loop, which holds the reply rather than blocking). The
/// owner knows the sink: every eager method runs against a single instance.
class EagerScope {
 public:
  EagerScope()
      : outer_(current_), owner_(outer_ != nullptr ? outer_->owner_ : this) {
    current_ = this;
  }
  ~EagerScope() { current_ = outer_; }
  EagerScope(const EagerScope&) = delete;
  EagerScope& operator=(const EagerScope&) = delete;

  /// Called by a sink for each eager record it appends (kFailedLsn for one
  /// it refused). A scope must be open on this thread.
  static void Record(Lsn lsn) {
    assert(current_ != nullptr && "eager record outside an EagerScope");
    Lsn& owned = current_->owner_->lsn_;
    owned = std::max(owned, lsn);
  }

  /// The highest LSN this scope owns: 0 when it collected none, and always
  /// in a nested scope, whose records its owner waits for.
  [[nodiscard]] Lsn lsn() const { return lsn_; }

 private:
  static constinit inline thread_local EagerScope* current_ = nullptr;

  EagerScope* const outer_;
  EagerScope* const owner_;
  Lsn lsn_ = 0;
};

}  // namespace gemini
