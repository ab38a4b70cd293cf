// PersistentStore: the durability engine behind CacheInstance.
//
// Wires a write-ahead log (wal.h) and log-truncating checkpoints
// (checkpoint.h) into the PersistenceSink interface the cache calls on every
// durable state change. One store owns one data directory and backs one
// instance:
//
//   CacheInstance::Options opts;
//   PersistentStore store(dir);
//   opts.persistence = &store;
//   CacheInstance instance(id, clock, opts);
//   Status s = store.Open(instance);   // replay checkpoint + WAL tail
//
// Open() replays the highest checkpoint plus all WAL segments at or above
// its sequence, applies the crash-spanning Q rule (keys whose QBegin count
// exceeds their QEnd count are dropped — their writers may have raced the
// data store), restores the latest observed config id, then starts
// recording: a fresh segment is opened, a post-recovery checkpoint truncates
// the replayed log, and every subsequent sink callback appends a record.
//
// Fsync policy: appends are batched (sync_batch_bytes / background
// sync_interval) except the records whose loss could cause a *stale read*
// rather than a mere cache miss. Those are eager: durable before the
// triggering operation is acknowledged.
//   - kQBegin        (a Qareg token escapes to a writer; a crash must
//                     quarantine the key)
//   - kConfigId      (serving under an older config would resurrect entries
//                     Rejig already discarded)
//   - ISet/IDelete deletes (recovery-mode invalidations)
//   - kWipe          (RecoverVolatile)
// Losing a batched record is always conservative: a lost upsert is a miss, a
// lost QEnd re-quarantines (over-deletes), a lost plain delete cannot
// resurface because the preceding QBegin (if any) was synced first.
//
// An eager append does not wait for its fsync. It hands the record's LSN to
// the EagerScope open on the calling thread (persistence_sink.h) and
// returns; the scope's owner calls WaitDurable once it holds no cache lock,
// or, on geminid, holds the reply until CheckDurable says the LSN is
// durable. The writer thread wakes at once for an eager record, and one
// fsync covers every record queued before it, from any thread (group
// commit). From the first WAL I/O error on, every pending and every later
// eager LSN reports kFailed, so no eager op is acknowledged again.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/persistence_sink.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/persist/checkpoint.h"
#include "src/persist/wal.h"

namespace gemini {

class PersistentStore final : public PersistenceSink {
 public:
  struct Options {
    /// fsync the log once this many unsynced bytes accumulate. With the
    /// background thread enabled this is a *nudge*, not an inline sync: the
    /// serving thread signals the background thread and keeps appending, so
    /// the write path never waits on the disk for batched-class records
    /// (whose loss is a cache miss, never a stale read). Bytes appended
    /// while one fsync is in flight ride to the next one; sync_interval is
    /// the backstop bound on the loss window. With sync_interval == 0 the
    /// trigger syncs inline on the appending thread as there is nobody
    /// else to hand the work to. The default is sized so a write burst
    /// triggers few journal commits (each one steals CPU from serving);
    /// the batched-record loss window is bounded by sync_interval either
    /// way, and batched loss is a cache miss, never a stale read.
    size_t sync_batch_bytes = 1024 * 1024;
    /// Background fsync cadence. 0 disables the background thread (tests
    /// drive Sync()/Checkpoint() by hand).
    Duration sync_interval = Millis(50);
    /// Rotate + checkpoint once the checkpoint lag — WAL bytes not yet
    /// covered by a checkpoint, summed across segments — exceeds this many
    /// bytes. Checked by the background thread after every sync; stores
    /// running without one call MaybeCheckpoint() to apply the same
    /// byte-growth-driven schedule by hand. Lag, not live-segment size, is
    /// the trigger so a failed checkpoint's uncovered rotated segments keep
    /// counting toward the next attempt (the replay debt a crash would pay
    /// never silently resets). 0 disables size-triggered checkpoints.
    uint64_t checkpoint_lag_bytes = 8ull << 20;
    /// Reserve this many bytes for the next WAL segment ahead of rotation
    /// (fallocate, best effort — see Wal::Options::preallocate_bytes). The
    /// default matches the rotation threshold, so a rotated-into segment is
    /// fully reserved up front. 0 disables.
    size_t wal_preallocate_bytes = 8ull << 20;
  };

  explicit PersistentStore(std::string dir) : PersistentStore(dir, Options()) {}
  PersistentStore(std::string dir, Options options);
  ~PersistentStore() override;
  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Creates the data dir if needed, replays existing state into `instance`
  /// (construct it with Options::persistence == this), and starts recording.
  /// Fails closed (kInternal) on corruption: a damaged checkpoint, a
  /// mid-log CRC mismatch, a torn tail anywhere but the newest segment, or
  /// a gap in the segment sequence. Also kInternal, naming write-back, when
  /// a record or checkpoint entry carries the retired write-back pin: that
  /// write never reached the data store. One-shot per store.
  Status Open(CacheInstance& instance);

  /// Rotates the log, snapshots the instance, and garbage-collects covered
  /// segments and older checkpoints.
  Status Checkpoint();

  /// Checkpoints iff the checkpoint lag exceeds Options::checkpoint_lag_bytes
  /// (see the option for the schedule's rationale). Returns whether a
  /// checkpoint ran. The background thread calls this after every sync;
  /// deterministic deployments (sync_interval == 0) call it by hand.
  Result<bool> MaybeCheckpoint();

  /// fsyncs any unsynced log tail.
  Status Sync();

  /// Stops the background thread and syncs. Idempotent; the destructor
  /// calls it. Does NOT checkpoint — callers wanting a compact shutdown
  /// state call Checkpoint() first.
  void Close();

  /// First WAL I/O error since Open, if any. Once set, the store stops
  /// recording (a log with a hole must not pretend to be complete) and the
  /// owner should treat the instance as no longer durably backed.
  [[nodiscard]] Status error() const;

  struct Stats {
    uint64_t appended_records = 0;
    uint64_t eager_records = 0;   // records that must be durable before ack
    uint64_t appended_bytes = 0;  // framed WAL bytes accepted since Open
    uint64_t fsyncs = 0;          // journal commits (group fsyncs)
    uint64_t checkpoints = 0;
    uint64_t replayed_segments = 0;
    uint64_t replayed_records = 0;
    uint64_t replay_micros = 0;  // wall time Open spent replaying history
    uint64_t restored_entries = 0;
    uint64_t quarantine_drops = 0;  // keys dropped by the crash-spanning Q rule
    uint64_t torn_tail_bytes = 0;   // bytes discarded from a torn final segment
    /// WAL bytes not yet covered by a checkpoint, across segments: the
    /// truncation lag — how much log the next boot would replay if the
    /// process died right now, and the driver of size-triggered checkpoint
    /// scheduling (Options::checkpoint_lag_bytes).
    uint64_t checkpoint_lag_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] uint64_t wal_seq() const;

  // ---- PersistenceSink (called by CacheInstance under its locks) ----------
  void OnUpsert(PersistOp op, std::string_view key, const CacheValue& value,
                ConfigId config_id) override;
  void OnDelete(PersistOp op, std::string_view key) override;
  void OnQuarantineBegin(std::string_view key) override;
  void OnQuarantineEnd(std::string_view key) override;
  void OnConfigObserved(ConfigId latest) override;
  void OnQuarantineClear() override;
  void OnVolatileWipe() override;

  // ---- Eager durability (persistence_sink.h) --------------------------------
  [[nodiscard]] Durability CheckDurable(Lsn lsn) const override;
  Status WaitDurable(Lsn lsn) override;
  void AddDurableListener(DurableListener* listener) override;
  void RemoveDurableListener(DurableListener* listener) override;

 private:
  /// Loads the highest checkpoint + replays segments >= its seq into
  /// `instance`; `next_seq` receives the sequence for the fresh segment.
  Status Replay(CacheInstance& instance, uint64_t& next_seq);
  /// Frames the record into pending_ for the writer thread. The serving
  /// thread's only WAL cost is this encode-under-lock. An `eager` record's
  /// LSN goes to the EagerScope open on the calling thread. The writer's
  /// group fsync that covers it covers everything enqueued before it too,
  /// so an eager record is a durability barrier.
  void Append(const WalRecord& record, bool eager);
  /// Zero-copy overload for the upsert hot path: frames straight from the
  /// cache's buffers (the views must stay valid for the duration of the
  /// call, which is all the queue needs — framing copies them).
  void Append(const WalUpsertRef& record, bool eager);
  template <typename Record>
  void AppendImpl(const Record& record, bool eager);
  /// An eager record arrived after recording stopped. Once the log failed,
  /// the scope gets kFailedLsn so the op is not acknowledged; before Open
  /// (replay) and after Close the record is simply not logged.
  void RefuseEager();
  /// Latches the first WAL error: recording stops and every pending eager
  /// LSN turns kFailed. Requires mu_.
  void LatchErrorLocked(Status s);
  /// Wakes WaitDurable callers and listeners after durable_ or failed_
  /// changed.
  void NotifyDurable();
  /// Two-phase batched sync: snapshots the tail under mu_, fsyncs with mu_
  /// released so appends keep flowing. Holds sync_mu_ throughout so
  /// Rotate/Close cannot invalidate the fd mid-fsync.
  Status SyncOffThread();
  /// Drains queue_ in batches: one write(2) per batch, one fsync when the
  /// batch contains any eager record (group commit).
  void WriterLoop();
  void BackgroundLoop();

  const std::string dir_;
  const Options options_;
  CheckpointManager checkpoints_;

  /// Serializes fsync against Rotate/Close (fd lifetime). Lock order:
  /// sync_mu_ before mu_, never the reverse.
  mutable std::mutex sync_mu_;
  mutable std::mutex mu_;  // guards wal_, error_ and uncovered_bytes_
  Wal wal_;
  Status error_;
  /// Bytes in closed (rotated-away) segments no checkpoint covers yet —
  /// nonzero only while a checkpoint is in flight or after one failed. The
  /// total checkpoint lag is this plus the live segment's bytes.
  uint64_t uncovered_bytes_ = 0;

  CacheInstance* instance_ = nullptr;
  std::atomic<bool> recording_{false};
  /// Max config id ever observed; read after rotation to head each new
  /// segment with a kConfigId record (checkpoints do not store it).
  std::atomic<uint64_t> max_config_{0};

  std::atomic<uint64_t> appended_records_{0};
  std::atomic<uint64_t> eager_records_{0};
  std::atomic<uint64_t> appended_bytes_{0};
  uint64_t replay_micros_ = 0;
  uint64_t replayed_segments_ = 0;
  uint64_t replayed_records_ = 0;
  uint64_t restored_entries_ = 0;
  uint64_t quarantine_drops_ = 0;
  uint64_t torn_tail_bytes_ = 0;

  // ---- WAL writer thread (group commit) -----------------------------------
  // Producers frame records straight into pending_ (Wal::EncodeFrame) under
  // q_mu_; the writer swaps the buffer out and hands it to one write(2).
  // The two buffers recycle their capacity between the threads, so a
  // steady-state append allocates nothing.
  std::mutex q_mu_;
  std::condition_variable q_cv_;        // producers -> writer: work available
  std::condition_variable q_space_cv_;  // writer -> producers: backpressure
  std::condition_variable q_done_cv_;   // writer -> waiters: progress
  std::string pending_;                 // framed bytes not yet written
  size_t pending_records_ = 0;
  bool pending_eager_ = false;
  uint64_t enqueued_ = 0;  // records ever queued; the last one's LSN
  uint64_t written_ = 0;   // records handed to write(2)
  /// Records covered by an fsync: the durable LSN. Written under q_mu_,
  /// read lock-free by CheckDurable.
  std::atomic<uint64_t> durable_{0};
  /// Set with error_ (LatchErrorLocked); read lock-free by CheckDurable.
  std::atomic<bool> failed_{false};
  bool writer_stop_ = false;
  std::thread writer_thread_;

  std::mutex listeners_mu_;  // leaf lock: OnDurable never calls back
  std::vector<DurableListener*> listeners_;

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stop_ = false;
  /// Set by the writer when the unsynced tail crosses sync_batch_bytes;
  /// wakes the background thread for an early (off-thread) fsync.
  std::atomic<bool> sync_requested_{false};
  std::thread bg_thread_;
};

}  // namespace gemini
