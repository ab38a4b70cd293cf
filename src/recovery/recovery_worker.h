// RecoveryWorker: stateless workers that drain dirty lists (Section 3.2.3,
// Algorithm 3) and, under a ±W policy, stream the secondary's working set
// back into the recovered primary (Section 3.2.2).
//
// A worker adopts one fragment in recovery mode at a time by acquiring the
// Redlease on its dirty list in the secondary replica — this is the mutual
// exclusion that keeps one worker per fragment. It then either
//
//   - overwrites each dirty key in the primary replica with the latest value
//     from the secondary (Gemini-O), or
//   - deletes each dirty key from the primary (Gemini-I) — appropriate when
//     the working set evolved and the transferred values would be dead
//     weight (Section 3.2.3).
//
// Both are idempotent, so a worker crash mid-fragment is harmless: when its
// Redlease expires, another worker redoes the fragment (Section 3.3).
//
// With Options::working_set_transfer on, a drained fragment does not end the
// task: the worker keeps the Redlease and enters the working-set phase,
// pulling priority-ordered hot-key pages off the secondary
// (CacheBackend::WorkingSetScan) and installing them into the primary
// hottest-first — the online warm-up that restores the hit ratio orders of
// magnitude faster than cold refill (Figure 10, here on the real TCP stack).
//
// The Gemini-O drain and the install move a key the same way, in chunks of
// keys_per_step keys, each step of a chunk one pipelined burst:
//
//   1. arm, in the primary: ISet a dirty key, which deletes its stale copy,
//      or IqGet a working-set key, where a hit means the entry survived the
//      failure and is never clobbered; a miss holds an I token
//      (CacheBackend::MultiISet or MultiIqGet);
//   2. fetch the armed keys from the secondary (MultiGet);
//   3. fill, in the primary: IqSet each fetched value under its token, or
//      IDelete a key the secondary lacks (MultiIqSet, MultiIDelete).
//
// Per key the order arm < Get < fill holds; the bursts only reorder
// operations across keys, which neither algorithm sequences. A client write
// racing the copy Qaregs the key, which voids the I token (the IqSet becomes
// a no-op) and deletes the secondary's copy — the Lemma 4 argument
// Algorithm 1's client-driven copy relies on. The chunk bounds how long an
// armed token waits: three round trips, not a chunk of serial ones, so a
// large scan page never outlives the token lifetime.
//
// The phases differ in two places. A dirty key whose arm backs off (a
// client holds a lease on it) is replayed in a later chunk, before the dirty
// list is reset; a working-set key that backs off is skipped. A dirty key
// whose fetch fails is invalidated; an install whose fetch fails with
// anything but kNotFound lost its secondary and aborts after the chunk's
// fills. The working-set phase is abortable and resumable: the scan cursor
// is server-side-stable, and a worker that dies mid-stream is replaced via
// Redlease expiry, restarting the scan from the hottest band (re-installs
// are idempotent skips).
//
// Processing is incremental (Step() handles a bounded batch of keys) so the
// discrete-event harness can interleave worker progress with foreground
// load; a worker renews its Redlease on every step.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/dirty_list.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/coordinator/coordinator_service.h"
#include "src/net/cost_model.h"

namespace gemini {

class RecoveryWorker {
 public:
  struct Options {
    /// Overwrite dirty keys from the secondary (Gemini-O) instead of
    /// deleting them (Gemini-I).
    bool overwrite_dirty = true;
    /// Keys per arm -> fetch -> fill chunk: the drain's batch per Step()
    /// call (harness interleaving granularity) and the install's chunk of a
    /// scan page — the chunk bounds how long an armed I token waits before
    /// its IqSet, so large scan pages never outlive the token lifetime.
    size_t keys_per_step = 64;
    /// Run the working-set phase after the drain (Gemini±W, Section 3.2.2).
    /// Off by default: the simulator keeps its client-driven transfer with
    /// hit-ratio termination; the real cluster (tools/gemini_cluster,
    /// bench/bench_recovery) turns this on so workers stream the transfer
    /// and report OnWorkingSetTransferTerminated themselves.
    bool working_set_transfer = false;
    /// Hot keys requested per working-set scan page.
    uint32_t wst_page_keys = 256;
    /// Byte-rate throttle on the working-set copy (charged bytes installed
    /// per second); bounds the transfer's interference with foreground
    /// reads. 0 = unthrottled. Real wall-clock pacing — leave 0 under a
    /// virtual clock.
    uint64_t wst_bytes_per_sec = 0;
  };

  /// Workers program against CacheBackend, so `instances` may be the
  /// in-process CacheInstances (DES/tests) or TcpCacheBackends reaching a
  /// remote cluster — dirty lists then drain over real sockets.
  RecoveryWorker(const Clock* clock, CoordinatorService* coordinator,
                 std::vector<CacheBackend*> instances)
      : RecoveryWorker(clock, coordinator, std::move(instances), Options()) {}
  RecoveryWorker(const Clock* clock, CoordinatorService* coordinator,
                 std::vector<CacheBackend*> instances, Options options);
  /// Convenience for the in-process deployments.
  RecoveryWorker(const Clock* clock, CoordinatorService* coordinator,
                 const std::vector<CacheInstance*>& instances)
      : RecoveryWorker(clock, coordinator, instances, Options()) {}
  RecoveryWorker(const Clock* clock, CoordinatorService* coordinator,
                 const std::vector<CacheInstance*>& instances, Options options)
      : RecoveryWorker(
            clock, coordinator,
            std::vector<CacheBackend*>(instances.begin(), instances.end()),
            options) {}

  /// Scans the latest configuration for fragments in recovery mode and
  /// adopts the first whose Redlease it can win. Returns the adopted
  /// fragment, or nullopt if there is nothing to adopt.
  std::optional<FragmentId> TryAdoptFragment(Session& session);

  /// Processes up to keys_per_step dirty keys of the adopted fragment.
  /// Returns true when the fragment is finished (dirty list deleted,
  /// Redlease released, coordinator notified) or abandoned; the worker is
  /// then free to adopt another fragment.
  bool Step(Session& session);

  [[nodiscard]] bool has_work() const { return task_.has_value(); }
  [[nodiscard]] std::optional<FragmentId> current_fragment() const {
    return task_.has_value() ? std::optional<FragmentId>(task_->fragment)
                             : std::nullopt;
  }

  struct Stats {
    uint64_t fragments_recovered = 0;
    uint64_t fragments_abandoned = 0;
    uint64_t keys_overwritten = 0;
    uint64_t keys_deleted = 0;
    uint64_t redlease_conflicts = 0;
    // Working-set phase (Gemini±W): hot keys copied into the primary, keys
    // skipped (already warm there, client-owned, or vanished from the
    // secondary), charged bytes installed, scan pages pulled, transfers run
    // to termination, and transfers aborted mid-stream (peer death /
    // Redlease loss — another worker resumes via lease expiry).
    uint64_t wst_keys_copied = 0;
    uint64_t wst_keys_skipped = 0;
    uint64_t wst_bytes_copied = 0;
    uint64_t wst_pages = 0;
    uint64_t wst_completed = 0;
    uint64_t wst_aborts = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// kDrain replays the dirty list (Algorithm 3); kWorkingSet streams hot
  /// pages off the secondary (Section 3.2.2) once the drain is done.
  enum class Phase : uint8_t { kDrain, kWorkingSet };

  struct Task {
    FragmentId fragment = kInvalidFragment;
    InstanceId primary = kInvalidInstance;
    InstanceId secondary = kInvalidInstance;
    LeaseToken red_token = kNoLease;
    DirtyList list;
    size_t next_key = 0;
    /// Keys whose ISet backed off (a client held a lease on them); replayed
    /// after the fresh keys, before the drain ends.
    std::deque<std::string> backed_off;
    Phase phase = Phase::kDrain;
    /// Working-set phase state: the cluster's fragment count (scan routing)
    /// and the resumable scan cursor (0 = hottest band).
    uint32_t num_fragments = 0;
    uint64_t wst_cursor = 0;
  };

  // Defined in recovery_worker.cc: what one chunk did, and how a task ends.
  struct ChunkResult;
  enum class Outcome : uint8_t;

  // One arm -> fetch -> fill chunk over `keys` of the task's fragment; a
  // dirty key is armed with ISet, any other with IqGet.
  ChunkResult RunChunk(Session& session, std::vector<GetRequest> keys,
                       bool dirty);
  // Renews the Redlease; on failure ends the task and returns false.
  bool HoldRed(Session& session);
  // Finishes the drain: reset the dirty list to its marker, notify the
  // coordinator (Algorithm 3 line 22), then either end the task or roll
  // into the working-set phase.
  void FinishDrain(Session& session);
  // One working-set page: scan the secondary, install it chunk by chunk,
  // throttle. Returns true when the task ended.
  bool StepWorkingSet(Session& session);
  // The one way a task ends: release the Redlease unless it was lost,
  // report the outcome, free the worker.
  void EndTask(Session& session, Outcome outcome);

  const Clock* clock_;
  CoordinatorService* coordinator_;
  std::vector<CacheBackend*> instances_;
  Options options_;
  std::optional<Task> task_;
  size_t scan_cursor_ = 0;
  Stats stats_;
};

}  // namespace gemini
