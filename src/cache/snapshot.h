// On-disk snapshots for CacheInstance.
//
// The paper emulates its persistent cache "using DRAM" (Section 4) because
// Gemini's recovery protocol is agnostic to the storage medium. This module
// supplies the real medium for deployments and durability tests: a compact
// binary snapshot of an instance's entries (keys, payloads/charged sizes,
// versions, and — critically for Gemini — the per-entry configuration ids
// and the set of keys quarantined by outstanding Q leases).
//
// The format (a magic, a header of two counts, the entries, the quarantined
// keys, a u64 checksum trailer) is encoded by the field codec
// (src/common/codec.h); docs/PROTOCOL.md §9 "Checkpoints" is its one table.
// Serialize writes magic "GEMSNAP2", whose trailer is the WAL's CRC-32C
// (Crc32c, hash.h) zero-extended to u64. Load also reads "GEMSNAP1", whose
// trailer is FNV-1a, so data dirs written before the switch still boot.
//
// `flags` is reserved and always written 0. Bit 0 marked a write-back value
// the data store had not seen yet; Load refuses an entry that carries it,
// naming write-back, and treats any other set bit as corruption.
//
// Load validates the magic and the checksum that magic names, and fails
// closed (kInternal) on any corruption: a persistent cache must never serve a torn snapshot. Loading
// applies the crash-spanning Q rule: quarantined keys are NOT restored
// (their writers may have updated the data store without completing the
// delete). An entry larger than the instance's per-stripe budget (a restart
// with a smaller --capacity-mb or more stripes) is skipped: a miss, never a
// stale read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/common/status.h"

namespace gemini {

class Snapshot {
 public:
  /// Serializes the instance's current entries and quarantined-key set into
  /// one buffer. It holds every stripe lock for the walk
  /// (CacheInstance::ForEachEntry). On an instance with a capacity the
  /// buffer is sized first from the instance's byte count, trusted up to
  /// the capacity (clients declare charged_bytes), so the walk neither
  /// reallocates nor copies the cache a second time.
  static std::string Serialize(CacheInstance& instance);

  /// Writes Serialize() to `path` atomically (`<path>.tmp` + rename) and
  /// returns its size in bytes. Not safe for concurrent writers of one path.
  static Result<uint64_t> WriteToFile(CacheInstance& instance,
                                      const std::string& path);

  /// Parses `payload` and installs its entries into `instance` (which
  /// should be empty — existing entries are replaced on key collision).
  /// Quarantined and over-budget entries are skipped. Fails closed on
  /// corruption, and before installing anything: one pass validates every
  /// entry in place, then each is copied once, into the instance. When
  /// `quarantined` is set it receives the snapshot's quarantined keys: the
  /// keys the Q rule keeps out, whether or not the snapshot holds an entry
  /// for them.
  static Status Load(CacheInstance& instance, std::string_view payload,
                     std::vector<std::string>* quarantined = nullptr);

  /// Reads `path` with one read into a buffer of the file's size, Load()s
  /// it and returns that size. kNotFound when there is no file; a read
  /// error is reported as one (kInternal), not as a checksum mismatch.
  static Result<uint64_t> LoadFromFile(
      CacheInstance& instance, const std::string& path,
      std::vector<std::string>* quarantined = nullptr);
};

}  // namespace gemini
