#include "src/cache/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/common/codec.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"

namespace gemini {

namespace {

using codec::Blob;
using codec::u32;
using codec::u64;

// The layout (PROTOCOL.md §9 "Checkpoints"): the magic, the header, every
// entry, every quarantined key as a Blob, then a u64 checksum of all of it.
// The two versions differ only in that checksum: GEMSNAP2 is the WAL's
// CRC-32C, zero-extended; GEMSNAP1, which Serialize no longer writes, is
// FNV-1a.
constexpr std::string_view kMagic = "GEMSNAP2";
constexpr std::string_view kMagicV1 = "GEMSNAP1";
static_assert(kMagic.size() == kMagicV1.size());
/// entry_count | quarantined_count
using HeaderFields = std::tuple<u64, u64>;
/// key | data | charged_bytes | version | config_id | flags
using EntryFields = std::tuple<Blob, Blob, u32, u64, u64, u32>;

constexpr size_t kHeaderBytes =
    kMagic.size() + codec::Field<HeaderFields>::kMinSize;
/// An entry's bytes besides its key and data.
constexpr uint64_t kEntryFixedBytes = codec::Field<EntryFields>::kMinSize;
constexpr size_t kTrailerBytes = 8;

/// One entry as it lies in the payload: views into it, nothing copied.
struct EntryView {
  std::string_view key;
  std::string_view data;
  uint32_t charged_bytes = 0;
  uint64_t version = 0;
  uint64_t config_id = 0;
  uint32_t flags = 0;
};

auto AsFields(EntryView& e) {
  return std::tie(e.key, e.data, e.charged_bytes, e.version, e.config_id,
                  e.flags);
}

}  // namespace

std::string Snapshot::Serialize(CacheInstance& instance) {
  std::vector<std::string> quarantined = instance.leases().KeysWithQLeases();
  std::string out;
  // Size the buffer before taking any stripe lock, so the locked walk does
  // not reallocate. An entry is charged its key, its charged_bytes and the
  // per-entry overhead, which makes this exact when charged_bytes is the
  // payload's size. But a client declares charged_bytes, so the count can
  // claim far more than the entries hold: it is only a hint, trusted up to
  // the capacity. Beyond that, or with no capacity, the buffer grows as it
  // goes.
  const uint64_t capacity = instance.options().capacity_bytes;
  if (capacity != 0) {
    const CacheInstance::Stats stats = instance.stats();
    const uint64_t overhead =
        stats.entry_count * instance.options().per_entry_overhead;
    const uint64_t charged =
        stats.used_bytes > overhead ? stats.used_bytes - overhead : 0;
    uint64_t bytes = kHeaderBytes + std::min(charged, capacity) +
                     stats.entry_count * kEntryFixedBytes + kTrailerBytes;
    for (const auto& key : quarantined) {
      bytes += codec::Field<Blob>::kMinSize + key.size();
    }
    out.reserve(bytes);
  }
  out.append(kMagic);
  // The entry count is known only after the walk: write the header with a
  // placeholder, then patch it.
  const size_t header_at = out.size();
  const uint64_t quarantined_count = quarantined.size();
  codec::Encode<HeaderFields>(out, std::tuple(uint64_t{0}, quarantined_count));
  uint64_t entry_count = 0;
  instance.ForEachEntry([&](std::string_view key, const CacheValue& value,
                            ConfigId config_id) {
    ++entry_count;
    codec::Encode<EntryFields>(
        out, std::forward_as_tuple(key, value.data, value.charged_bytes,
                                   value.version, config_id,
                                   uint32_t{0}));  // flags: reserved
  });
  std::string header;
  codec::Encode<HeaderFields>(header,
                              std::tie(entry_count, quarantined_count));
  out.replace(header_at, header.size(), header);
  for (const auto& key : quarantined) codec::Encode<Blob>(out, key);
  codec::Encode<u64>(out, uint64_t{Crc32c(out)});
  return out;
}

Status Snapshot::Load(CacheInstance& instance, std::string_view payload,
                      std::vector<std::string>* quarantined_out) {
  if (payload.size() < kHeaderBytes + kTrailerBytes) {
    return Status(Code::kInternal, "snapshot truncated");
  }
  // The checksum covers everything before the trailer, in the version the
  // magic names.
  const std::string_view checked =
      payload.substr(0, payload.size() - kTrailerBytes);
  uint64_t sum = 0;
  if (payload.starts_with(kMagic)) {
    sum = Crc32c(checked);
  } else if (payload.starts_with(kMagicV1)) {
    sum = Fnv1a64(checked);
  } else {
    return Status(Code::kInternal, "snapshot magic mismatch");
  }
  uint64_t stored_sum = 0;
  if (!codec::Decode<u64>(payload.substr(checked.size()), &stored_sum) ||
      sum != stored_sum) {
    return Status(Code::kInternal, "snapshot checksum mismatch");
  }

  const std::string_view body = checked.substr(kMagic.size());
  codec::Reader reader(body);
  uint64_t entry_count = 0, quarantined_count = 0;
  auto header = std::tie(entry_count, quarantined_count);
  if (!codec::Field<HeaderFields>::Get(reader, &header)) {
    return Status(Code::kInternal, "snapshot header corrupt");
  }

  // One pass validates every entry and records where it starts, so a
  // damaged snapshot installs nothing and no entry is copied until it is
  // installed. The header's count is untrusted until the entries parse:
  // reserve only what the remaining bytes can hold, or a damaged count that
  // passed the checksum would abort the load with bad_alloc instead of
  // failing closed.
  std::vector<size_t> offsets;
  offsets.reserve(std::min(entry_count, reader.remaining() / kEntryFixedBytes));
  for (uint64_t i = 0; i < entry_count; ++i) {
    offsets.push_back(body.size() - reader.remaining());
    EntryView e;
    if (!codec::Field<EntryFields>::Get(reader, &e)) {
      return Status(Code::kInternal, "snapshot entry corrupt");
    }
    if ((e.flags & 1) != 0) {
      return Status(Code::kInternal,
                    "snapshot holds a pinned write-back value for key " +
                        std::string(e.key) +
                        " that never reached the data store; write-back is "
                        "no longer supported");
    }
    if (e.flags != 0) {
      return Status(Code::kInternal, "snapshot entry flags corrupt");
    }
  }
  std::unordered_set<std::string_view> quarantined;
  for (uint64_t i = 0; i < quarantined_count; ++i) {
    std::string_view key;
    if (!codec::Field<Blob>::Get(reader, &key)) {
      return Status(Code::kInternal, "snapshot quarantine list corrupt");
    }
    quarantined.insert(key);
  }
  if (reader.remaining() != 0) {
    return Status(Code::kInternal, "snapshot has trailing bytes");
  }

  // Install in reverse so LRU order (most-recent-first in the snapshot) is
  // reconstructed; skip quarantined keys (the crash-spanning Q rule). An
  // entry over this instance's stripe budget is rejected and dropped, as
  // WAL replay drops it: a miss.
  for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
    codec::Reader at(body.substr(*it));
    EntryView e;
    (void)codec::Field<EntryFields>::Get(at, &e);  // validated above
    if (quarantined.contains(e.key)) continue;
    CacheValue value;
    value.data.assign(e.data);
    value.charged_bytes = e.charged_bytes;
    value.version = e.version;
    (void)instance.RestoreEntry(e.key, std::move(value), e.config_id);
  }
  if (quarantined_out != nullptr) {
    quarantined_out->assign(quarantined.begin(), quarantined.end());
  }
  return Status::Ok();
}

Result<uint64_t> Snapshot::WriteToFile(CacheInstance& instance,
                                       const std::string& path) {
  const std::string payload = Serialize(instance);
  // One temp name per path: writers of one path are serialized (the only
  // production writer, PersistentStore, checkpoints one at a time). A kill
  // mid-write leaves the temp behind; PersistentStore::Open deletes it.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot open", tmp);
  // fsync before rename: without it the rename can hit disk before the
  // data, and a crash leaves `path` pointing at a torn file — exactly the
  // stale-entry hazard a persistent cache must fail closed on.
  Status s = WriteAll(fd, payload) && ::fsync(fd) == 0
                 ? Status::Ok()
                 : ErrnoStatus("cannot write", tmp);
  ::close(fd);
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = ErrnoStatus("cannot rename to", path);
  }
  if (!s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  // fsync the directory so the rename itself survives a crash.
  if (Status dir = SyncParentDir(path); !dir.ok()) return dir;
  return static_cast<uint64_t>(payload.size());
}

Result<uint64_t> Snapshot::LoadFromFile(CacheInstance& instance,
                                        const std::string& path,
                                        std::vector<std::string>* quarantined) {
  const Result<FileBytes> file = ReadWholeFile(path);
  if (!file.ok()) return file.status();
  if (Status s = Load(instance, file->view(), quarantined); !s.ok()) return s;
  return static_cast<uint64_t>(file->size);
}

}  // namespace gemini
