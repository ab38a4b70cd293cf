// PersistentStore: the durability engine behind CacheInstance.
//
// Wires a write-ahead log (wal.h) and log-truncating checkpoints
// (checkpoint.h) into the PersistenceSink interface the cache calls on every
// durable state change. One store owns one data directory and backs one
// instance:
//
//   CacheInstance::Options opts;
//   auto store = std::make_unique<PersistentStore>(dir);
//   opts.persistence = store.get();
//   CacheInstance instance(id, clock, opts);
//   Status s = store->Open(instance);  // replay checkpoint + WAL tail
//   ...
//   store.reset();  // before the instance dies
//
// The store must be closed (Close() or its destructor) before its instance
// is destroyed: from Open on, its checkpoint thread walks the instance.
//
// Open() replays the highest checkpoint plus all WAL segments at or above
// its sequence, cuts a torn tail off the newest segment, applies the
// crash-spanning Q rule (keys whose QBegin count exceeds their QEnd count
// are dropped — their writers may have raced the data store), restores the
// latest observed config id, then starts recording: a fresh segment is
// opened, headed by the config id and, for every key the Q rule dropped, a
// delete and a QEnd per outstanding QBegin, fsynced together; every later
// sink callback appends a record. Open returns as soon as replay ends. When
// replay applied anything besides segment heads, a checkpoint is due at
// once and folds the replayed log on the checkpoint thread, like any other;
// a boot that replayed only heads (after a SIGTERM's checkpoint, or a kill
// that followed only reads) writes no checkpoint. Until that checkpoint lands, replaying the log
// again gives the same state, which is why the torn tail is cut and the
// drops are logged. Otherwise a fresh segment after a torn one fails the
// next boot closed; a later kQClear (RecoverPersistent) makes the next
// replay forget a dropped key's QBegins and serve its old value; and a
// value written to a dropped key after boot would be dropped again. The
// replayed log counts in checkpoint_lag_bytes until then, and the trigger
// starts at the loaded checkpoint's size.
//
// Fsync policy: appends are batched except the records whose loss could
// cause a *stale read* rather than a mere cache miss. Those are eager:
// durable before the triggering operation is acknowledged.
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
// One thread owns the log. Serving threads frame records into a queue; after
// Open, the WAL writer thread alone writes, fsyncs, rotates and closes it:
//   - each queued burst goes out in one write(2), after a group-commit
//     window of up to 4 ms or 512 KiB (none for an eager record);
//   - a burst holding an eager record is fsynced at once, and one fsync
//     covers every record queued before it, from any thread (group commit);
//     a record that arrives during an fsync rides the next one;
//   - batched records are fsynced once 1 MiB is unsynced or the oldest
//     unsynced byte is 50 ms old: the power-loss window of a batched record;
//   - Sync(), a checkpoint's rotation and Close() are requests it serves.
// Producers wait only when 8 MiB of framed records are queued (backpressure).
//
// The writer closes a segment once it holds Wal::kSegmentBytes (8 MiB).
// Checkpoints run on a checkpoint thread. The writer wakes it once the log
// written since the newest checkpoint's rotation is as large as the newest
// checkpoint that landed, and never below 8 MiB; it asks the writer to
// rotate, then snapshots the instance and garbage-collects (checkpoint.h has
// the rotate-then-cut argument). A checkpoint rewrites the whole cache, so
// sizing the trigger by the last one bounds three things at once:
//   - bytes written: at most about one checkpoint byte per log byte;
//   - replay: a boot replays at most about one checkpoint's worth of log,
//     one segment of about 8 MiB at a time;
//   - disk: the data dir holds about two checkpoints' worth between
//     checkpoints (the newest one and the log since it), and about three
//     while one is written, since the old checkpoint and the log it covers
//     go only once the new one has landed (a cache under 8 MiB: one
//     checkpoint plus 8 MiB, and two plus 8 MiB).
// A checkpoint that fails (say, the disk is full), the boot's included,
// leaves the trigger as it was and is retried only once the log written
// since its rotation reaches the trigger again, so it never rotates and
// re-serializes the cache in a loop. Checkpoint() runs one on the caller's thread, serialized with that
// thread.
//
// An eager append does not wait for its fsync. It hands the record's LSN to
// the EagerScope open on the calling thread (persistence_sink.h) and
// returns; the scope's owner calls WaitDurable once it holds no cache lock,
// or, on geminid, holds the reply until CheckDurable says the LSN is
// durable. From the first WAL I/O error on, every pending and every later
// eager LSN reports kFailed, so no eager op is acknowledged again.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/cache/persistence_sink.h"
#include "src/common/status.h"
#include "src/persist/checkpoint.h"
#include "src/persist/wal.h"

namespace gemini {

class PersistentStore final : public PersistenceSink {
 public:
  explicit PersistentStore(std::string dir);
  ~PersistentStore() override;
  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Creates the data dir if needed, deletes checkpoint temps an interrupted
  /// write left behind, replays existing state into `instance` (construct it
  /// with Options::persistence == this), and starts recording. A checkpoint
  /// that folds the replayed log is left to the checkpoint thread. Close the
  /// store before `instance` is destroyed.
  /// Fails closed (kInternal) on corruption: a damaged checkpoint, a
  /// mid-log CRC mismatch, a torn tail anywhere but the newest segment, or
  /// a gap in the segment sequence. Also kInternal, naming write-back, when
  /// a record or checkpoint entry carries the retired write-back pin: that
  /// write never reached the data store. One-shot per store.
  Status Open(CacheInstance& instance);

  /// Has the writer rotate the log, snapshots the instance, and
  /// garbage-collects covered segments and older checkpoints.
  Status Checkpoint();

  /// Waits until every record appended so far is fsynced.
  Status Sync();

  /// Stops the checkpoint thread, then the writer, which writes what is
  /// queued, fsyncs and closes the log. Idempotent; the destructor calls
  /// it. Does NOT checkpoint — callers wanting a compact shutdown state call
  /// Checkpoint() first.
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
    /// Keys the crash-spanning Q rule dropped at boot: the checkpoint's
    /// quarantined keys the log did not resolve, plus the log's own, each
    /// key once.
    uint64_t quarantine_drops = 0;
    uint64_t torn_tail_bytes = 0;   // bytes discarded from a torn final segment
    /// WAL bytes not yet covered by a checkpoint, across segments: the
    /// truncation lag — how much log the next boot would replay if the
    /// process died right now. It grows to the checkpoint trigger (below),
    /// and a failed checkpoint leaves its rotated segments in it.
    uint64_t checkpoint_lag_bytes = 0;
    /// Size of the newest checkpoint that landed, or that boot loaded. The
    /// next one is due when the log written since the newest checkpoint's
    /// rotation reaches it, or Wal::kSegmentBytes if that is larger.
    uint64_t checkpoint_bytes = 0;
    /// Checkpoints that returned an error: the rotation, the write or the
    /// garbage collection failed.
    uint64_t checkpoint_failures = 0;
  };
  /// stats(), error() and wal_seq() never wait behind log I/O.
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
  /// `instance` and cuts a torn tail off the newest. `next_seq` receives the
  /// sequence for the fresh segment: the first empty segment ending the log
  /// (the one the last rotation or boot reserved), else one past the newest.
  /// `dropped` receives the keys the Q rule erased, each with its count of
  /// outstanding QBegins. Before any thread
  /// starts, sets the trigger (checkpoint_bytes_) to the loaded checkpoint's
  /// size, counts the replayed log in lag_bytes_, and sets checkpoint_due_
  /// when a record besides a kConfigId was applied.
  Status Replay(CacheInstance& instance, uint64_t& next_seq,
                std::vector<std::pair<std::string, int64_t>>& dropped);
  /// Frames the record into pending_ for the writer thread. The serving
  /// thread's only WAL cost is this encode-under-lock. An `eager` record's
  /// LSN goes to the EagerScope open on the calling thread.
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
  /// Heads the live segment with the latest observed config id, fsynced:
  /// checkpoints (Snapshot format) do not store it, and the segments that
  /// did are about to be garbage-collected. At boot, each key in `dropped`
  /// follows the head as a kDelete and one kQEnd per outstanding QBegin,
  /// under the same fsync: a replay then neither restores the key's old
  /// value nor drops what is written to it later.
  Status AppendSegmentHead(
      const std::vector<std::pair<std::string, int64_t>>& dropped = {});
  /// Latches the first WAL error: recording stops and every pending eager
  /// LSN turns kFailed.
  void LatchError(Status s);
  /// Wakes WaitDurable/Sync callers and listeners after durable_ or
  /// failed_ changed.
  void NotifyDurable();
  /// The log's only user after Open (see the file comment).
  void WriterLoop();
  /// Runs a checkpoint each time the writer asks for one.
  void CheckpointLoop();

  const std::string dir_;
  CheckpointManager checkpoints_;
  Wal wal_;  // the writer thread's alone once Open starts it

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

  // ---- Guarded by q_mu_, which is never held across I/O ---------------------
  // Producers frame records straight into pending_ (Wal::EncodeFrame); the
  // writer swaps the buffer out and hands it to one write(2). The two
  // buffers recycle their capacity between the threads, so a steady-state
  // append allocates nothing.
  mutable std::mutex q_mu_;
  std::condition_variable q_cv_;        // producers/requests -> writer
  std::condition_variable q_space_cv_;  // writer -> producers: backpressure
  std::condition_variable q_done_cv_;   // writer -> waiters: progress
  std::string pending_;                 // framed bytes not yet written
  size_t pending_records_ = 0;
  /// The next write must be fsynced: an eager record or Sync() waits on it.
  bool sync_next_ = false;
  uint64_t enqueued_ = 0;  // records ever queued; the last one's LSN
  uint64_t written_ = 0;   // records handed to write(2)
  /// Records covered by an fsync: the durable LSN. Written under q_mu_,
  /// read lock-free by CheckDurable.
  std::atomic<uint64_t> durable_{0};
  /// Set with error_ (LatchError); read lock-free by CheckDurable.
  std::atomic<bool> failed_{false};
  Status error_;
  bool writer_stop_ = false;
  // What the writer publishes of the log for stats() and wal_seq().
  uint64_t fsyncs_ = 0;
  uint64_t wal_seq_ = 0;
  /// Stats::checkpoint_lag_bytes: the writer adds every byte it writes, and
  /// a checkpoint subtracts what its rotation closed once it lands.
  uint64_t lag_bytes_ = 0;
  /// Stats::checkpoint_bytes, set by boot's load and when a checkpoint
  /// lands: the writer asks for the next one once the log since the newest
  /// checkpoint's rotation is this large (or 8 MiB).
  uint64_t checkpoint_bytes_ = 0;
  uint64_t checkpoint_failures_ = 0;
  // Checkpoint hand-off.
  bool checkpoint_due_ = false;     // boot, writer -> checkpoint thread
  bool checkpointer_stop_ = false;
  bool rotate_requested_ = false;   // checkpoint -> writer
  // Set by a checkpoint's rotation: the segment it opened, where the
  // checkpoint is cut, and the lag of the segments below it, which the cut
  // covers. The writer also rotates on its own when a segment is full.
  uint64_t rotated_seq_ = 0;
  uint64_t rotated_lag_ = 0;
  std::condition_variable checkpoint_cv_;

  /// Serializes checkpoints: held across one, taken by nothing else.
  std::mutex checkpoint_mu_;

  std::mutex listeners_mu_;  // leaf lock: OnDurable never calls back
  std::vector<DurableListener*> listeners_;

  std::thread writer_thread_;
  std::thread checkpoint_thread_;
};

}  // namespace gemini
