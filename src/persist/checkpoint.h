// Log-truncating checkpoints.
//
// A checkpoint `checkpoint-<seq>.snap` is a Snapshot (snapshot.h format:
// GEMSNAP2, sealed with the WAL's CRC-32C; GEMSNAP1 files still load) of
// the full cache state that covers every WAL segment with sequence < seq:
// after it lands (atomic temp+rename+dir-fsync via Snapshot::WriteToFile),
// those segments and any older checkpoints are garbage. Recovery loads the
// highest checkpoint, then replays segments >= its seq in order.
//
// The seq is the WAL segment that was *current when serialization started*
// (i.e. rotation happens first, then the snapshot is cut). Records appended
// to segment seq before the cut are therefore both in the checkpoint and in
// the replayed log; that overlap is safe because records carry exact values
// and replay re-applies them in original order — the result converges on the
// same state.
//
// Write and Load return the checkpoint's size. PersistentStore asks for the
// next one once the log since this one's rotation is as large (never below
// Wal::kSegmentBytes), so a data dir holds about two checkpoints' worth
// between checkpoints (the newest one and the log since it) and about three
// while one is written (GarbageCollect runs only once the new one landed).
// A boot takes the trigger from the checkpoint it loaded, so a restart does
// not fall back to checkpointing every 8 MiB.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/status.h"

namespace gemini {

/// Sorted sequence numbers of the persistence files present in a data dir,
/// plus the checkpoint temp files an interrupted write left behind. Unrelated
/// names are ignored.
struct DirListing {
  std::vector<uint64_t> wal_seqs;
  std::vector<uint64_t> checkpoint_seqs;
  std::vector<std::string> checkpoint_temps;  // paths
};

class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir) : dir_(std::move(dir)) {}

  /// Serializes `instance` into checkpoint-<seq>.snap atomically and
  /// returns its size in bytes: PersistentStore checkpoints again once the
  /// WAL since this checkpoint's rotation has grown as large
  /// (persistent_store.h).
  Result<uint64_t> Write(CacheInstance& instance, uint64_t seq);

  /// Loads checkpoint-<seq>.snap into `instance` and returns its size in
  /// bytes, reporting the keys its quarantine list keeps out through
  /// `quarantined` (Snapshot::Load). Fails closed (kInternal) on corruption:
  /// a checkpoint is written atomically, so a damaged one is disk rot, not
  /// a crash artifact.
  Result<uint64_t> Load(CacheInstance& instance, uint64_t seq,
                        std::vector<std::string>* quarantined);

  /// Deletes WAL segments and checkpoints with sequence < keep_seq. Returns
  /// the first unlink failure but attempts every file.
  Status GarbageCollect(uint64_t keep_seq);

  /// Scans the data dir for wal-*.log / checkpoint-*.snap names and
  /// checkpoint temps (checkpoint-*.snap.tmp*).
  Status List(DirListing& out) const;

  std::string CheckpointPath(uint64_t seq) const;
  /// Parses "checkpoint-<seq>.snap" (basename). False for any other name.
  static bool ParseCheckpointName(std::string_view name, uint64_t& seq);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] uint64_t checkpoints_written() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  std::string dir_;
  std::atomic<uint64_t> written_{0};  // read by stats() on any thread
};

}  // namespace gemini
