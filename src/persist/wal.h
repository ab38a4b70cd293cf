// Write-ahead log for CacheInstance mutations.
//
// The paper emulates its persistent cache in DRAM (Section 4); this module is
// the real medium. Every durable state change — upserts, deletes, quarantine
// begin/end, config-id advances — is appended as one framed record:
//
//   frame:   u32 payload_len | u32 crc32c(payload) | payload
//   payload: u8 type | type-specific fields        (little-endian throughout)
//
// Type-specific fields (strings are u32 length | bytes):
//   kUpsert:   u8 origin | u8 pinned | u64 config_id | u64 version |
//              u32 charged_bytes | string key | string data
//   kDelete:   u8 origin | string key
//   kQBegin, kQEnd: string key
//   kConfigId: u64 config_id
//   kQClear, kWipe: nothing
// `origin` is the PersistOp that caused the mutation (persistence_sink.h).
// `pinned` is reserved and always written 0: it marked a write-back value
// the data store had not seen yet. Replay refuses a record that carries 1.
//
// Appends go through a buffered write() immediately (so the record is visible
// to a same-OS reader and survives a process crash) and are fsync-batched for
// power-loss durability: a record is synced either eagerly (`sync_now`, used
// for lease-critical records whose loss could cause a stale read) or when the
// unsynced tail exceeds `sync_batch_bytes` / the owner's periodic Sync().
//
// The log is a sequence of segments `wal-<seq>.log`. Rotation fsyncs and
// closes the old segment and opens `seq+1`; checkpoints (checkpoint.h) cover
// all segments below their seq, making rotation the truncation point.
//
// Recovery semantics (ScanFile): a prefix of valid frames followed by an
// incomplete frame — header shorter than 8 bytes, or a claimed payload that
// runs past end-of-file — is a *torn tail*: the expected shape of a crash
// mid-append, recoverable by ignoring the tail (legal only in the newest
// segment). A fully present frame whose CRC mismatches is *corruption*, not a
// crash shape, and recovery must fail closed rather than risk serving a
// silently wrong lease or value.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace gemini {

enum class WalRecordType : uint8_t {
  kUpsert = 1,    // key now maps to (data, charged, version) at config_id
  kDelete = 2,    // key no longer maps to anything
  kQBegin = 3,    // a Q lease was granted on key (crash => quarantined)
  kQEnd = 4,      // one Q lease on key resolved
  kConfigId = 5,  // instance-wide latest config id advanced
  kQClear = 6,    // all outstanding quarantines resolved (recovery sweep)
  kWipe = 7,      // instance was volatile-wiped; discard all prior state
};

/// One decoded log record. Unused fields are zero/empty for types that do not
/// carry them (e.g. kQBegin has only `key`; kConfigId only `config_id`).
struct WalRecord {
  WalRecordType type = WalRecordType::kUpsert;
  uint8_t origin = 0;  // PersistOp that caused the mutation (log legibility)
  /// kUpsert's reserved write-back byte, decoded so replay can refuse a 1.
  bool pinned = false;
  std::string key;
  std::string data;
  uint32_t charged_bytes = 0;
  Version version = 0;
  ConfigId config_id = 0;

  /// Serializes the payload (no frame header) onto `out`.
  void EncodeTo(std::string& out) const;

  /// Parses a payload. False on malformed input (unknown type, short or
  /// over-long fields) — the caller treats that as corruption.
  static bool Decode(std::string_view payload, WalRecord& out);
};

/// View-based kUpsert payload for the append hot path: encodes the same wire
/// bytes as an owning WalRecord{kUpsert,...} but straight from the cache's
/// buffers, skipping the two string copies a WalRecord would cost per Set.
struct WalUpsertRef {
  uint8_t origin = 0;
  std::string_view key;
  std::string_view data;
  uint32_t charged_bytes = 0;
  Version version = 0;
  ConfigId config_id = 0;

  void EncodeTo(std::string& out) const;
};

/// Result of scanning one segment file front to back.
struct WalScanResult {
  std::vector<WalRecord> records;
  /// End offset of each valid record's frame, in order. records.size()
  /// entries; record_ends.back() == valid_bytes when any record parsed.
  std::vector<uint64_t> record_ends;
  /// Offset of the first byte past the last valid frame.
  uint64_t valid_bytes = 0;
  /// Total bytes in the file (file_bytes - valid_bytes = discarded tail).
  uint64_t file_bytes = 0;
  /// True when bytes past valid_bytes form an incomplete frame (crash shape).
  bool torn_tail = false;
  /// Non-ok when bytes past valid_bytes are a complete-but-corrupt frame or
  /// an undecodable payload — fail closed, never a legal crash outcome.
  Status error;
};

/// Append handle over a directory of segments. Not thread-safe, with one
/// deliberate exception: the owner (PersistentStore) serializes Append /
/// Rotate / Close / PrepareSync against each other, but may run
/// CompleteSync — the fsync itself — concurrently with Append so the write
/// path never stalls behind the disk. The byte accounting is atomic to
/// support exactly that overlap.
class Wal {
 public:
  struct Options {
    /// fsync once this many bytes accumulate since the last sync. Records
    /// appended with sync_now bypass the batch. SIZE_MAX disables the
    /// inline trigger (the owner syncs on its own schedule).
    size_t sync_batch_bytes = 256 * 1024;
    /// Reserve this many bytes for the *next* segment whenever a segment
    /// opens (fallocate with KEEP_SIZE), so rotation's first appends land on
    /// already-reserved extents instead of paying block allocation inline.
    /// The pre-created file stays zero-length, which replay already accepts
    /// as the crash-after-rotation shape. 0 disables; filesystems without
    /// fallocate support silently skip the reservation.
    size_t preallocate_bytes = 0;
  };

  /// Snapshot of the sync work outstanding at PrepareSync time. fsyncing
  /// `fd` makes (at least) `pending` bytes durable.
  struct SyncToken {
    int fd = -1;
    size_t pending = 0;
  };

  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Creates (O_APPEND) segment `dir/wal-<seq>.log` and fsyncs `dir` so the
  /// new name is durable.
  Status Open(const std::string& dir, uint64_t seq, const Options& options);

  /// Frames and appends one record. With `sync_now`, fsyncs before returning.
  Status Append(const WalRecord& record, bool sync_now);

  /// Appends pre-framed bytes (one or more EncodeFrame outputs) in a single
  /// write(2) — the group-commit path. With `sync_now`, fsyncs after.
  Status AppendRaw(std::string_view frames, bool sync_now);

  /// Appends one `len | crc32c | payload` frame for `record` to `out`.
  static void EncodeFrame(std::string& out, const WalRecord& record);
  static void EncodeFrame(std::string& out, const WalUpsertRef& record);

  /// fsyncs any unsynced tail.
  Status Sync();

  /// Two-phase sync for owners that fsync off their append lock: call
  /// PrepareSync under the same serialization as Append, then CompleteSync
  /// anywhere — appends may proceed concurrently, but the owner must keep
  /// Rotate()/Close() from invalidating the token's fd in between.
  SyncToken PrepareSync() const;
  Status CompleteSync(const SyncToken& token);

  /// Syncs and closes the current segment, then opens `seq()+1`.
  Status Rotate();

  /// Syncs and closes. Idempotent.
  void Close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] uint64_t seq() const { return seq_; }
  [[nodiscard]] uint64_t appended_bytes() const { return appended_bytes_; }
  [[nodiscard]] uint64_t segment_bytes() const { return segment_bytes_; }
  [[nodiscard]] size_t unsynced_bytes() const {
    return unsynced_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t fsync_count() const {
    return fsync_count_.load(std::memory_order_relaxed);
  }

  static std::string SegmentPath(const std::string& dir, uint64_t seq);
  /// Parses "wal-<seq>.log" (basename). False for any other name.
  static bool ParseSegmentName(std::string_view name, uint64_t& seq);

  /// Reads `path` front to back, validating every frame. See WalScanResult
  /// for the torn-tail vs corruption distinction.
  static WalScanResult ScanFile(const std::string& path);

 private:
  Status SyncLocked();
  /// Best-effort fallocate of segment seq_ + 1 (see Options::preallocate_bytes).
  void PreallocateNext();

  std::string dir_;
  uint64_t seq_ = 0;
  int fd_ = -1;
  /// Atomic so a CompleteSync in flight on another thread and concurrent
  /// appends keep a consistent (never under-counting) tally.
  std::atomic<size_t> unsynced_bytes_{0};
  uint64_t appended_bytes_ = 0;  // lifetime, across rotations
  uint64_t segment_bytes_ = 0;   // current segment only
  std::atomic<uint64_t> fsync_count_{0};
  Options options_;
};

}  // namespace gemini
