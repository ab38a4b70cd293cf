// Write-ahead log for CacheInstance mutations.
//
// The paper emulates its persistent cache in DRAM (Section 4); this module is
// the real medium. Every durable state change — upserts, deletes, quarantine
// begin/end, config-id advances — is appended as one CRC-32C-framed record,
// encoded by the field codec (src/common/codec.h). docs/PROTOCOL.md §9 "Log
// format" is the one table of the frame and of each record type's fields.
// `origin` is the PersistOp that caused the mutation (persistence_sink.h).
// `pinned` is reserved and always written 0: it marked a write-back value
// the data store had not seen yet. Replay refuses a record that carries 1.
//
// Appends go through write() immediately (so the record is visible to a
// same-OS reader and survives a process crash); a record is durable against
// power loss once an fsync covers it, which happens only when the owner asks
// (`sync_now`, Sync(), Rotate(), Close()). The owner decides the schedule:
// PersistentStore's WAL writer thread (persistent_store.h).
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

#include <cstddef>
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

/// Append handle over a directory of segments. Not thread-safe: one thread
/// owns it at a time (in PersistentStore, the WAL writer thread after Open).
class Wal {
 public:
  /// A segment's size budget: PersistentStore's writer rotates once the
  /// live segment reaches it, so replay reads one bounded segment at a time.
  /// Opening a segment reserves this many bytes for the *next* one
  /// (fallocate with KEEP_SIZE), so rotation's first appends land on
  /// already-reserved extents instead of paying block allocation inline; the
  /// reserved file stays zero-length, which replay already accepts as the
  /// crash-after-rotation shape. Filesystems without fallocate support skip
  /// the reservation. It is also the floor of PersistentStore's checkpoint
  /// trigger: the log since the newest checkpoint's rotation grows as large
  /// as that checkpoint, and at least this large, before the next one.
  static constexpr uint64_t kSegmentBytes = 8ull << 20;

  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Creates (O_APPEND) segment `dir/wal-<seq>.log`, fsyncs `dir` so the new
  /// name is durable, and reserves segment seq+1.
  Status Open(const std::string& dir, uint64_t seq);

  /// Frames and appends one record. With `sync_now`, fsyncs before returning.
  Status Append(const WalRecord& record, bool sync_now);

  /// Appends pre-framed bytes (one or more EncodeFrame outputs) in a single
  /// write(2) — the group-commit path.
  Status AppendRaw(std::string_view frames);

  /// Appends one `len | crc32c | payload` frame for `record` to `out`.
  static void EncodeFrame(std::string& out, const WalRecord& record);
  static void EncodeFrame(std::string& out, const WalUpsertRef& record);

  /// fsyncs any unsynced tail.
  Status Sync();

  /// Syncs and closes the current segment, then opens `seq()+1`.
  Status Rotate();

  /// Syncs and closes. Idempotent.
  void Close();

  [[nodiscard]] uint64_t seq() const { return seq_; }
  [[nodiscard]] uint64_t segment_bytes() const { return segment_bytes_; }
  [[nodiscard]] size_t unsynced_bytes() const { return unsynced_bytes_; }
  [[nodiscard]] uint64_t fsync_count() const { return fsync_count_; }

  static std::string SegmentPath(const std::string& dir, uint64_t seq);
  /// Parses "wal-<seq>.log" (basename). False for any other name.
  static bool ParseSegmentName(std::string_view name, uint64_t& seq);

  /// Reads `path` front to back, validating every frame. See WalScanResult
  /// for the torn-tail vs corruption distinction.
  static WalScanResult ScanFile(const std::string& path);

 private:
  /// Best-effort reservation of segment seq_ + 1 (see kSegmentBytes).
  void PreallocateNext();

  std::string dir_;
  uint64_t seq_ = 0;
  int fd_ = -1;
  size_t unsynced_bytes_ = 0;
  uint64_t segment_bytes_ = 0;  // current segment only
  uint64_t fsync_count_ = 0;
};

}  // namespace gemini
