#include "src/persist/persistent_store.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/clock.h"
#include "src/common/file_util.h"

namespace gemini {
namespace {

/// Batched records are fsynced once this many bytes are unsynced, or once
/// the oldest unsynced byte is kSyncInterval old. Sized so a write burst
/// triggers few journal commits (each one steals CPU from serving); a lost
/// batched record is a cache miss, never a stale read.
constexpr size_t kSyncBatchBytes = 1 << 20;
constexpr auto kSyncInterval = std::chrono::milliseconds(50);
/// Group commit: a burst of batched records may accumulate this long, or to
/// this size, before the writer pays for the write(2).
constexpr auto kGroupCommitWindow = std::chrono::milliseconds(4);
constexpr size_t kGroupCommitBytes = 512 << 10;
/// Backpressure bound on the writer queue: when the disk cannot keep up,
/// producers wait rather than buffering framed bytes without limit.
constexpr size_t kMaxPendingBytes = 8 << 20;

/// mkdir -p: creates every missing component of `dir`.
Status EnsureDir(const std::string& dir) {
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    partial = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status(Code::kInternal, "cannot create data dir " + partial +
                                         ": " + std::strerror(errno));
    }
  }
  return Status::Ok();
}

/// Cuts segment `path` back to its first `bytes` and fsyncs it.
Status TruncateSegment(const std::string& path, uint64_t bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return ErrnoStatus("cannot open wal segment", path);
  const Status s =
      ::ftruncate(fd, static_cast<off_t>(bytes)) == 0 && ::fsync(fd) == 0
          ? Status::Ok()
          : ErrnoStatus("cannot truncate torn wal segment", path);
  ::close(fd);
  return s;
}

}  // namespace

PersistentStore::PersistentStore(std::string dir)
    : dir_(std::move(dir)), checkpoints_(dir_) {}

PersistentStore::~PersistentStore() { Close(); }

Status PersistentStore::Open(CacheInstance& instance) {
  if (instance_ != nullptr) {
    return Status(Code::kInvalidArgument, "persistent store already open");
  }
  if (Status s = EnsureDir(dir_); !s.ok()) return s;

  uint64_t next_seq = 0;
  std::vector<std::pair<std::string, int64_t>> dropped;
  const Timestamp replay_start = SystemClock::Global().Now();
  if (Status s = Replay(instance, next_seq, dropped); !s.ok()) return s;
  replay_micros_ = SystemClock::Global().Now() - replay_start;

  if (Status s = wal_.Open(dir_, next_seq); !s.ok()) return s;
  if (Status s = AppendSegmentHead(dropped); !s.ok()) return s;
  wal_seq_ = next_seq;
  lag_bytes_ += wal_.segment_bytes();
  instance_ = &instance;
  writer_thread_ = std::thread([this] { WriterLoop(); });
  recording_.store(true, std::memory_order_release);
  // Serving need not wait for a checkpoint: until one covers the replayed
  // log, replaying it again yields this same state. When Replay applied
  // anything to fold, checkpoint_due_ is already set, and the checkpoint
  // thread runs the boot's checkpoint like any other.
  checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  return Status::Ok();
}

Status PersistentStore::AppendSegmentHead(
    const std::vector<std::pair<std::string, int64_t>>& dropped) {
  WalRecord record;
  record.type = WalRecordType::kConfigId;
  record.config_id = max_config_.load(std::memory_order_relaxed);
  std::string frames;
  Wal::EncodeFrame(frames, record);
  uint64_t records = 1;
  record.origin = static_cast<uint8_t>(PersistOp::kQExpiry);
  for (const auto& [key, qbegins] : dropped) {
    record.key = key;
    record.type = WalRecordType::kDelete;
    Wal::EncodeFrame(frames, record);
    record.type = WalRecordType::kQEnd;
    for (int64_t i = 0; i < qbegins; ++i) Wal::EncodeFrame(frames, record);
    records += 1 + static_cast<uint64_t>(qbegins);
  }
  if (Status s = wal_.AppendRaw(frames); !s.ok()) return s;
  if (Status s = wal_.Sync(); !s.ok()) return s;
  appended_records_.fetch_add(records, std::memory_order_relaxed);
  return Status::Ok();
}

Status PersistentStore::Replay(
    CacheInstance& instance, uint64_t& next_seq,
    std::vector<std::pair<std::string, int64_t>>& dropped) {
  DirListing listing;
  if (Status s = checkpoints_.List(listing); !s.ok()) return s;
  // A checkpoint write killed mid-way leaves its temp behind, and nothing
  // else would ever delete it.
  for (const std::string& temp : listing.checkpoint_temps) {
    std::remove(temp.c_str());
  }

  uint64_t cp_seq = 0;
  std::vector<std::string> kept_out;  // the checkpoint's quarantined keys
  if (!listing.checkpoint_seqs.empty()) {
    cp_seq = listing.checkpoint_seqs.back();
    // A checkpoint lands atomically (temp + rename + dir fsync), so damage
    // here is disk rot, not a crash artifact: fail closed rather than fall
    // back to an older checkpoint whose covering log was truncated away.
    const Result<uint64_t> loaded =
        checkpoints_.Load(instance, cp_seq, &kept_out);
    if (!loaded.ok()) {
      return Status(Code::kInternal,
                    "checkpoint " + checkpoints_.CheckpointPath(cp_seq) +
                        " failed to load, refusing to serve possibly stale "
                        "state: " + loaded.status().ToString());
    }
    // The next checkpoint is due once the log has grown as large as this
    // one, as if it had just been written.
    checkpoint_bytes_ = *loaded;
  }

  std::vector<uint64_t> replay;
  for (uint64_t seq : listing.wal_seqs) {
    if (seq >= cp_seq) replay.push_back(seq);
  }
  for (size_t i = 1; i < replay.size(); ++i) {
    if (replay[i] != replay[i - 1] + 1) {
      return Status(Code::kInternal,
                    "wal segment gap: " + std::to_string(replay[i - 1]) +
                        " -> " + std::to_string(replay[i]));
    }
  }

  // QBegin/QEnd counting. The count can only over-estimate outstanding
  // quarantines (every QEnd is logged after its resolving mutation), so a
  // positive final count is always safe to act on — and a key the
  // checkpoint itself saw as quarantined was already skipped by
  // Snapshot::Load. Those skipped keys count as drops too, each key once
  // with the log's own, unless the log resolves them after the cut (a QEnd,
  // a QClear or a wipe): `unresolved` holds the ones still to count.
  std::unordered_map<std::string, int64_t> qcount;
  std::unordered_set<std::string> unresolved(kept_out.begin(),
                                             kept_out.end());
  ConfigId max_config = 0;

  uint64_t torn_seq = 0;
  uint64_t torn_valid_bytes = 0;
  bool saw_torn = false;
  // The first of the empty segments that end the log, if any: the one the
  // last rotation or boot reserved (Wal::kSegmentBytes).
  uint64_t first_empty = 0;
  bool ends_empty = false;
  for (size_t i = 0; i < replay.size(); ++i) {
    const uint64_t seq = replay[i];
    WalScanResult scan = Wal::ScanFile(Wal::SegmentPath(dir_, seq));
    if (!scan.error.ok()) return scan.error;
    if (saw_torn && scan.file_bytes > 0) {
      // A crash tears only the segment being appended to — the newest one
      // with any content. Data after a torn segment means lost history:
      // fail closed. (Empty segments past the torn one are fine: segment
      // preallocation creates the next file ahead of rotation, so a torn
      // live segment followed by an empty reserved one is a normal crash
      // shape.)
      return Status(Code::kInternal,
                    "torn tail in non-final wal segment " +
                        Wal::SegmentPath(dir_, torn_seq));
    }
    if (scan.torn_tail) {
      saw_torn = true;
      torn_seq = seq;
      torn_valid_bytes = scan.valid_bytes;
      torn_tail_bytes_ += scan.file_bytes - scan.valid_bytes;
    }
    if (scan.file_bytes == 0 && !ends_empty) first_empty = seq;
    ends_empty = scan.file_bytes == 0;
    ++replayed_segments_;
    // Until a checkpoint covers it, the replayed log is truncation lag.
    lag_bytes_ += scan.valid_bytes;
    for (const WalRecord& rec : scan.records) {
      ++replayed_records_;
      // A segment's head carries only the config id, which the fresh
      // segment's head carries on: a log of heads alone (a SIGTERM's
      // checkpoint, or a kill that followed only reads) leaves nothing for
      // a checkpoint to fold.
      checkpoint_due_ |= rec.type != WalRecordType::kConfigId;
      switch (rec.type) {
        case WalRecordType::kUpsert: {
          if (rec.pinned) {
            // The retired write-back policy acknowledged this value before
            // the data store had it, and nothing can flush it now.
            return Status(Code::kInternal,
                          "wal segment " + Wal::SegmentPath(dir_, seq) +
                              " holds a pinned write-back value for key " +
                              rec.key +
                              " that never reached the data store; "
                              "write-back is no longer supported");
          }
          CacheValue value;
          value.data = rec.data;
          value.charged_bytes = rec.charged_bytes;
          value.version = rec.version;
          // Rejected only when larger than the cache budget: a miss.
          (void)instance.RestoreEntry(rec.key, std::move(value),
                                      rec.config_id);
          break;
        }
        case WalRecordType::kDelete:
          instance.RestoreErase(rec.key);
          break;
        case WalRecordType::kQBegin:
          ++qcount[rec.key];
          break;
        case WalRecordType::kQEnd: {
          auto it = qcount.find(rec.key);
          if (it != qcount.end() && it->second > 0) --it->second;
          unresolved.erase(rec.key);
          break;
        }
        case WalRecordType::kConfigId:
          max_config = std::max(max_config, rec.config_id);
          break;
        case WalRecordType::kQClear:
          qcount.clear();
          unresolved.clear();
          break;
        case WalRecordType::kWipe:
          instance.RecoverVolatile();
          qcount.clear();
          unresolved.clear();
          break;
      }
    }
  }

  // A fresh segment follows the torn one: cut the torn tail off, durably,
  // or the next replay finds a torn tail in a non-final segment and fails
  // closed.
  if (saw_torn) {
    if (Status s = TruncateSegment(Wal::SegmentPath(dir_, torn_seq),
                                   torn_valid_bytes);
        !s.ok()) {
      return s;
    }
  }

  // Crash-spanning Q rule (Section 2.3): a key with more QBegins than QEnds
  // had a writer in flight between its data-store update and its
  // delete/replace-and-release — drop it rather than risk a stale read.
  // Open logs the drop, so a replay of this log reaches this state again.
  for (const auto& [key, count] : qcount) {
    if (count > 0) {
      instance.RestoreErase(key);
      unresolved.erase(key);
      dropped.emplace_back(key, count);
      ++quarantine_drops_;
    }
  }
  quarantine_drops_ += unresolved.size();

  instance.ForEachEntry([&max_config](std::string_view, const CacheValue&,
                                      ConfigId config_id) {
    max_config = std::max(max_config, config_id);
  });
  if (max_config > 0) instance.ObserveConfigId(max_config);
  max_config_.store(max_config, std::memory_order_relaxed);

  restored_entries_ = instance.stats().entry_count;
  // The fresh segment takes over a reserved empty one rather than leave it
  // behind, since a boot with nothing to fold collects no garbage.
  next_seq = 0;
  if (ends_empty) {
    next_seq = first_empty;
  } else if (!listing.wal_seqs.empty()) {
    next_seq = listing.wal_seqs.back() + 1;
  }
  if (!listing.checkpoint_seqs.empty()) {
    next_seq = std::max(next_seq, cp_seq + 1);
  }
  return Status::Ok();
}

Status PersistentStore::Checkpoint() {
  if (instance_ == nullptr) {
    return Status(Code::kInvalidArgument, "persistent store not open");
  }
  std::lock_guard<std::mutex> checkpoint(checkpoint_mu_);
  uint64_t new_seq = 0;
  uint64_t covered = 0;
  {
    std::unique_lock<std::mutex> lock(q_mu_);
    if (writer_stop_) {
      return Status(Code::kInvalidArgument, "persistent store closed");
    }
    rotate_requested_ = true;
    q_cv_.notify_one();
    q_done_cv_.wait(lock, [this] {
      return !rotate_requested_ || failed_.load();
    });
    if (failed_.load()) {
      ++checkpoint_failures_;
      return error_;
    }
    new_seq = rotated_seq_;
    covered = rotated_lag_;
  }
  // Serialize outside q_mu_: ForEachEntry holds every stripe lock, and a
  // writer holding a stripe takes q_mu_ to append. Records racing into
  // segment new_seq before the cut are replayed on top of the checkpoint —
  // idempotent, they carry exact values in original order.
  const Result<uint64_t> bytes = checkpoints_.Write(*instance_, new_seq);
  const Status s = bytes.ok() ? checkpoints_.GarbageCollect(new_seq)
                              : bytes.status();
  std::lock_guard<std::mutex> lock(q_mu_);
  if (bytes.ok()) {
    // The checkpoint covers every segment below new_seq; only the live
    // segment's bytes (records that raced in since the rotation) remain.
    lag_bytes_ -= covered;
    checkpoint_bytes_ = *bytes;
  }
  if (!s.ok()) ++checkpoint_failures_;
  return s;
}

void PersistentStore::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(q_mu_);
  for (;;) {
    checkpoint_cv_.wait(
        lock, [this] { return checkpoint_due_ || checkpointer_stop_; });
    if (checkpointer_stop_) return;
    checkpoint_due_ = false;
    lock.unlock();
    // A failure is not retried here: the writer asks again once the log
    // written since this attempt's rotation reaches the trigger.
    (void)Checkpoint();
    lock.lock();
  }
}

Status PersistentStore::Sync() {
  std::unique_lock<std::mutex> lock(q_mu_);
  const uint64_t target = enqueued_;
  if (durable_.load() < target) {
    sync_next_ = true;
    q_cv_.notify_one();
    q_done_cv_.wait(lock, [this, target] {
      return durable_.load() >= target || failed_.load();
    });
  }
  return error_;
}

void PersistentStore::Close() {
  // The checkpoint thread first: a checkpoint in flight needs the writer
  // to rotate.
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    checkpointer_stop_ = true;
  }
  checkpoint_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  // The writer drains the queue fully before exiting, so every record
  // accepted by Append reaches write(2), then fsyncs and closes the log.
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    writer_stop_ = true;
  }
  q_cv_.notify_all();
  q_space_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  recording_.store(false, std::memory_order_release);
}

Status PersistentStore::error() const {
  std::lock_guard<std::mutex> lock(q_mu_);
  return error_;
}

void PersistentStore::LatchError(Status s) {
  {
    // Under q_mu_, which WaitDurable's and Sync's predicates read under.
    // failed_ goes first: AppendImpl reads recording_ with no lock, and a
    // thread that sees it false must see failed_ set too, or RefuseEager
    // would let its eager op be acknowledged.
    std::lock_guard<std::mutex> lock(q_mu_);
    if (failed_.load()) return;
    error_ = std::move(s);
    failed_.store(true);
    recording_.store(false, std::memory_order_release);
  }
  NotifyDurable();
}

void PersistentStore::NotifyDurable() {
  q_done_cv_.notify_all();
  // Called under the lock so that RemoveDurableListener, once it returns,
  // guarantees no call is still running.
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (DurableListener* listener : listeners_) listener->OnDurable();
}

Durability PersistentStore::CheckDurable(Lsn lsn) const {
  // durable_ first: a record an fsync covered stays durable even if the
  // log fails afterwards.
  if (durable_.load() >= lsn) return Durability::kDurable;
  return failed_.load() ? Durability::kFailed : Durability::kPending;
}

Status PersistentStore::WaitDurable(Lsn lsn) {
  {
    std::unique_lock<std::mutex> lock(q_mu_);
    q_done_cv_.wait(lock, [this, lsn] {
      return CheckDurable(lsn) != Durability::kPending;
    });
  }
  if (CheckDurable(lsn) == Durability::kDurable) return Status::Ok();
  return Status(Code::kUnavailable,
                "eager record not durable: " + error().ToString());
}

void PersistentStore::AddDurableListener(DurableListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
}

void PersistentStore::RemoveDurableListener(DurableListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  std::erase(listeners_, listener);
}

PersistentStore::Stats PersistentStore::stats() const {
  Stats s;
  s.appended_records = appended_records_.load(std::memory_order_relaxed);
  s.eager_records = eager_records_.load(std::memory_order_relaxed);
  s.appended_bytes = appended_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    s.fsyncs = fsyncs_;
    s.checkpoint_lag_bytes = lag_bytes_;
    s.checkpoint_bytes = checkpoint_bytes_;
    s.checkpoint_failures = checkpoint_failures_;
  }
  s.checkpoints = checkpoints_.checkpoints_written();
  s.replayed_segments = replayed_segments_;
  s.replay_micros = replay_micros_;
  s.replayed_records = replayed_records_;
  s.restored_entries = restored_entries_;
  s.quarantine_drops = quarantine_drops_;
  s.torn_tail_bytes = torn_tail_bytes_;
  return s;
}

uint64_t PersistentStore::wal_seq() const {
  std::lock_guard<std::mutex> lock(q_mu_);
  return wal_seq_;
}

template <typename Record>
void PersistentStore::AppendImpl(const Record& record, bool eager) {
  if (!recording_.load(std::memory_order_acquire)) {
    if (eager) RefuseEager();
    return;
  }
  Lsn lsn = 0;
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(q_mu_);
    q_space_cv_.wait(lock, [this] {
      return pending_.size() < kMaxPendingBytes || writer_stop_;
    });
    if (writer_stop_ || !recording_.load(std::memory_order_acquire)) {
      lock.unlock();
      if (eager) RefuseEager();
      return;
    }
    // Notify only on the empty -> non-empty transition: while the writer is
    // busy with a previous batch its wait predicate re-checks the buffer,
    // so the wakeup cannot be lost — and the common case (writer already
    // draining) skips the futex wake entirely. An eager record wakes it at
    // once; records that arrive during its fsync ride the next one.
    wake = pending_.empty() || eager;
    const size_t before = pending_.size();
    Wal::EncodeFrame(pending_, record);
    ++pending_records_;
    sync_next_ |= eager;
    lsn = ++enqueued_;
    appended_records_.fetch_add(1, std::memory_order_relaxed);
    appended_bytes_.fetch_add(pending_.size() - before,
                              std::memory_order_relaxed);
  }
  if (wake) q_cv_.notify_one();
  if (eager) {
    eager_records_.fetch_add(1, std::memory_order_relaxed);
    // Durable before the op is acknowledged (e.g. before a Qareg token
    // escapes), but not waited for here, under the caller's cache locks:
    // the scope's owner waits once they are released.
    EagerScope::Record(lsn);
  }
}

void PersistentStore::RefuseEager() {
  if (failed_.load()) EagerScope::Record(kFailedLsn);
}

void PersistentStore::Append(const WalRecord& record, bool eager) {
  AppendImpl(record, eager);
}

void PersistentStore::Append(const WalUpsertRef& record, bool eager) {
  AppendImpl(record, eager);
}

void PersistentStore::WriterLoop() {
  using Clock = std::chrono::steady_clock;
  std::string batch;
  Clock::time_point sync_due;  // the oldest unsynced byte turns 50 ms old
  // Log written since the newest checkpoint's rotation, and whether it has
  // asked for the next checkpoint yet.
  uint64_t since_cut = wal_.segment_bytes();
  bool checkpoint_asked = false;
  for (;;) {
    size_t count = 0;
    bool sync = false;
    bool rotate = false;
    bool stop = false;
    uint64_t trigger = 0;
    Status s;
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(q_mu_);
      const auto work = [this] {
        return !pending_.empty() || sync_next_ || rotate_requested_ ||
               writer_stop_;
      };
      if (error_.ok() && wal_.unsynced_bytes() > 0) {
        q_cv_.wait_until(lock, sync_due, work);
      } else {
        q_cv_.wait(lock, work);
      }
      if (!pending_.empty() && !sync_next_ && !rotate_requested_ &&
          !writer_stop_ && pending_.size() < kGroupCommitBytes) {
        // Group commit: let a burst of batched-class records accumulate
        // before paying for the write. Crucially this also keeps the writer
        // from preempting the serving thread once per record on small
        // machines — producers only signal on empty->non-empty or eager, and
        // by the time this timer fires the whole burst drains in one
        // write(2). Batched-class records already tolerate a loss window (a
        // lost record is a cache miss, never a stale read), so a few
        // milliseconds in the queue changes nothing; eager records skip the
        // wait via the predicate below.
        q_cv_.wait_for(lock, kGroupCommitWindow, [this] {
          return sync_next_ || rotate_requested_ || writer_stop_ ||
                 pending_.size() >= kGroupCommitBytes;
        });
      }
      batch.swap(pending_);  // pending_ inherits batch's grown capacity
      count = pending_records_;
      pending_records_ = 0;
      sync = sync_next_;
      sync_next_ = false;
      rotate = rotate_requested_;
      stop = writer_stop_;  // producers refuse from now on: this is the last
      s = error_;
      // A checkpoint rewrites the whole cache: ask for one once the log it
      // would truncate is as large as the newest one (the file comment's
      // bounds).
      trigger = std::max(Wal::kSegmentBytes, checkpoint_bytes_);
    }
    q_space_cv_.notify_all();

    bool rotated = false;
    bool want_checkpoint = false;
    if (s.ok()) {
      if (wal_.unsynced_bytes() == 0) sync_due = Clock::now() + kSyncInterval;
      s = wal_.AppendRaw(batch);
      // One fsync per burst holding an eager record (group commit); batched
      // records wait for 1 MiB or 50 ms.
      if (s.ok() && (sync || stop || Clock::now() >= sync_due ||
                     wal_.unsynced_bytes() >= kSyncBatchBytes)) {
        s = wal_.Sync();
      }
      since_cut += batch.size();
      want_checkpoint =
          s.ok() && !rotate && !checkpoint_asked && since_cut >= trigger;
      // A full segment is closed, so replay holds one segment of about
      // Wal::kSegmentBytes at a time, unless the checkpoint asked for will
      // rotate the log anyway.
      const bool full = !checkpoint_asked && !want_checkpoint &&
                        wal_.segment_bytes() >= Wal::kSegmentBytes;
      if (s.ok() && (rotate || full)) {
        s = wal_.Rotate();
        if (s.ok()) s = AppendSegmentHead();
        rotated = s.ok();
      }
      // A log with a hole must not pretend to be complete: stop recording
      // so the owner (error()) can fail the instance over rather than let a
      // future recovery miss a delete and serve a stale value.
      if (!s.ok()) LatchError(s);
    }
    if (rotated && rotate) {
      since_cut = 0;
      checkpoint_asked = false;
    }
    if (rotated) since_cut += wal_.segment_bytes();
    bool advanced = false;
    {
      std::lock_guard<std::mutex> lock(q_mu_);
      if (s.ok()) {
        written_ += count;
        advanced = wal_.unsynced_bytes() == 0 && durable_.load() < written_;
        if (advanced) durable_.store(written_);
        fsyncs_ = wal_.fsync_count();
        lag_bytes_ += batch.size();
      }
      if (rotated && rotate) {
        // The closed segments hold what a checkpoint cut after this
        // rotation covers. A checkpoint asked for before it is the one in
        // flight.
        rotated_seq_ = wal_.seq();
        rotated_lag_ = lag_bytes_;
        checkpoint_due_ = false;
      }
      if (rotated) {
        // The fresh segment starts with its head record.
        lag_bytes_ += wal_.segment_bytes();
        wal_seq_ = wal_.seq();
      }
      if (rotate) rotate_requested_ = false;
      checkpoint_due_ |= want_checkpoint;
    }
    checkpoint_asked |= want_checkpoint;
    if (want_checkpoint) checkpoint_cv_.notify_one();
    // Eager waiters and listeners learn of a failure from LatchError.
    if (advanced) {
      NotifyDurable();
    } else {
      q_done_cv_.notify_all();
    }
    if (stop) {
      wal_.Close();
      return;
    }
  }
}

// ---- PersistenceSink --------------------------------------------------------

void PersistentStore::OnUpsert(PersistOp op, std::string_view key,
                               const CacheValue& value, ConfigId config_id) {
  WalUpsertRef rec;  // view: framed under q_mu_ before the sink returns
  rec.origin = static_cast<uint8_t>(op);
  rec.key = key;
  rec.data = value.data;
  rec.charged_bytes = value.charged_bytes;
  rec.version = value.version;
  rec.config_id = config_id;
  // Always batched: a lost upsert is a miss, never a stale read.
  Append(rec, /*eager=*/false);
}

void PersistentStore::OnDelete(PersistOp op, std::string_view key) {
  WalRecord rec;
  rec.type = WalRecordType::kDelete;
  rec.origin = static_cast<uint8_t>(op);
  rec.key = std::string(key);
  // Recovery-mode invalidations (iset/idelete) erase entries the protocol
  // has proven unrecoverable; losing one to the batch would resurrect it.
  Append(rec, /*eager=*/op == PersistOp::kISet || op == PersistOp::kIDelete);
}

void PersistentStore::OnQuarantineBegin(std::string_view key) {
  WalRecord rec;
  rec.type = WalRecordType::kQBegin;
  rec.key = std::string(key);
  // Must be durable before the Qareg token escapes to the writer: once the
  // writer may have touched the data store, a crash must quarantine the key.
  Append(rec, /*eager=*/true);
}

void PersistentStore::OnQuarantineEnd(std::string_view key) {
  WalRecord rec;
  rec.type = WalRecordType::kQEnd;
  rec.key = std::string(key);
  // Batched: a lost QEnd merely re-quarantines (over-deletes) after a crash.
  Append(rec, /*eager=*/false);
}

void PersistentStore::OnConfigObserved(ConfigId latest) {
  // Track the max even before recording starts (Open's head record uses it).
  uint64_t seen = max_config_.load(std::memory_order_relaxed);
  while (latest > seen &&
         !max_config_.compare_exchange_weak(seen, latest,
                                            std::memory_order_relaxed)) {
  }
  WalRecord rec;
  rec.type = WalRecordType::kConfigId;
  rec.config_id = latest;
  // Serving under an older config after a crash would resurrect entries the
  // Rejig rule already discarded in O(1): sync before the grant is usable.
  Append(rec, /*eager=*/true);
}

void PersistentStore::OnQuarantineClear() {
  WalRecord rec;
  rec.type = WalRecordType::kQClear;
  Append(rec, /*eager=*/false);
}

void PersistentStore::OnVolatileWipe() {
  WalRecord rec;
  rec.type = WalRecordType::kWipe;
  Append(rec, /*eager=*/true);
}

}  // namespace gemini
