#include "src/cache/snapshot.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/common/hash.h"

namespace gemini {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'M', 'S', 'N', 'A', 'P', '1'};

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void PutBytes(std::string& out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out.append(bytes);
}

/// Fixed-width fields of one entry: the two length prefixes, charged_bytes,
/// version, config_id and flags.
constexpr uint64_t kEntryFixedBytes = 4 + 4 + 4 + 8 + 8 + 4;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 8 + 8;

/// One entry as it lies in the payload: views into it, nothing copied.
struct EntryView {
  std::string_view key;
  std::string_view data;
  uint32_t charged_bytes = 0;
  uint64_t version = 0;
  uint64_t config_id = 0;
  uint32_t flags = 0;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU32(uint32_t* v) { return GetRaw(v, 4); }
  bool GetU64(uint64_t* v) { return GetRaw(v, 8); }
  bool GetBytes(std::string_view* out) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (data_.size() < len) return false;
    *out = data_.substr(0, len);
    data_.remove_prefix(len);
    return true;
  }
  bool GetEntry(EntryView* e) {
    return GetBytes(&e->key) && GetBytes(&e->data) &&
           GetU32(&e->charged_bytes) && GetU64(&e->version) &&
           GetU64(&e->config_id) && GetU32(&e->flags);
  }
  [[nodiscard]] size_t remaining() const { return data_.size(); }

 private:
  bool GetRaw(void* out, size_t n) {
    if (data_.size() < n) return false;
    std::memcpy(out, data_.data(), n);
    data_.remove_prefix(n);
    return true;
  }
  std::string_view data_;
};

}  // namespace

std::string Snapshot::Serialize(CacheInstance& instance) {
  std::vector<std::string> quarantined = instance.leases().KeysWithQLeases();
  std::string out;
  // Size the buffer before taking any stripe lock, so the locked walk does
  // not reallocate. An entry is charged its key, its charged_bytes and the
  // per-entry overhead, which makes this exact when charged_bytes is the
  // payload's size. But a client declares charged_bytes, and an update is
  // not held to the stripe budget, so the count can claim far more than the
  // entries hold: it is only a hint, trusted up to the capacity. Beyond
  // that, or with no capacity, the buffer grows as it goes.
  const uint64_t capacity = instance.options().capacity_bytes;
  if (capacity != 0) {
    const CacheInstance::Stats stats = instance.stats();
    const uint64_t overhead =
        stats.entry_count * instance.options().per_entry_overhead;
    const uint64_t charged =
        stats.used_bytes > overhead ? stats.used_bytes - overhead : 0;
    uint64_t bytes = kHeaderBytes + std::min(charged, capacity) +
                     stats.entry_count * kEntryFixedBytes + 8;
    for (const auto& key : quarantined) bytes += 4 + key.size();
    out.reserve(bytes);
  }
  out.append(kMagic, sizeof(kMagic));
  // The entry count is known only after the walk: write a placeholder.
  const size_t entry_count_at = out.size();
  PutU64(out, 0);
  PutU64(out, quarantined.size());
  uint64_t entry_count = 0;
  instance.ForEachEntry([&](std::string_view key, const CacheValue& value,
                            ConfigId config_id) {
    ++entry_count;
    PutBytes(out, key);
    PutBytes(out, value.data);
    PutU32(out, value.charged_bytes);
    PutU64(out, value.version);
    PutU64(out, config_id);
    PutU32(out, 0);  // flags: reserved
  });
  std::memcpy(out.data() + entry_count_at, &entry_count, 8);
  for (const auto& key : quarantined) {
    PutBytes(out, key);
  }
  PutU64(out, Fnv1a64(out));
  return out;
}

Status Snapshot::Load(CacheInstance& instance, std::string_view payload) {
  if (payload.size() < kHeaderBytes + 8) {
    return Status(Code::kInternal, "snapshot truncated");
  }
  if (std::memcmp(payload.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status(Code::kInternal, "snapshot magic mismatch");
  }
  // Checksum covers everything before the trailing 8 bytes.
  const std::string_view checked = payload.substr(0, payload.size() - 8);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, payload.data() + payload.size() - 8, 8);
  if (Fnv1a64(checked) != stored_sum) {
    return Status(Code::kInternal, "snapshot checksum mismatch");
  }

  const std::string_view body = checked.substr(sizeof(kMagic));
  Reader reader(body);
  uint64_t entry_count = 0, quarantined_count = 0;
  if (!reader.GetU64(&entry_count) || !reader.GetU64(&quarantined_count)) {
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
    if (!reader.GetEntry(&e)) {
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
    if (!reader.GetBytes(&key)) {
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
    Reader at(body.substr(*it));
    EntryView e;
    (void)at.GetEntry(&e);  // validated above
    if (quarantined.contains(e.key)) continue;
    CacheValue value;
    value.data.assign(e.data);
    value.charged_bytes = e.charged_bytes;
    value.version = e.version;
    (void)instance.RestoreEntry(e.key, std::move(value), e.config_id);
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
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status(Code::kInternal, "cannot open " + tmp);
  }
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  // fsync before rename: without it the rename can hit disk before the
  // data, and a crash leaves `path` pointing at a torn file — exactly the
  // stale-entry hazard a persistent cache must fail closed on.
  const bool synced = written == payload.size() && ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    std::remove(tmp.c_str());
    return Status(Code::kInternal, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(Code::kInternal, "rename to " + path + " failed");
  }
  // fsync the directory so the rename itself survives a crash.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status(Code::kInternal, "cannot open directory " + dir);
  }
  const bool dir_synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!dir_synced) {
    return Status(Code::kInternal, "fsync of directory " + dir + " failed");
  }
  return static_cast<uint64_t>(payload.size());
}

Status Snapshot::LoadFromFile(CacheInstance& instance,
                              const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status(Code::kNotFound, "no snapshot at " + path);
    }
    return Status(Code::kInternal,
                  "cannot open " + path + ": " + std::strerror(errno));
  }
  // One read into a buffer of the file's size, which Load parses in place.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status(Code::kInternal,
                  "cannot stat " + path + ": " + std::strerror(err));
  }
  const auto size = static_cast<size_t>(st.st_size);
  const auto payload = std::make_unique_for_overwrite<char[]>(size);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, payload.get() + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why = n < 0 ? std::strerror(errno) : "file shrank";
      ::close(fd);
      return Status(Code::kInternal, "I/O error reading " + path + ": " + why);
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return Load(instance, std::string_view(payload.get(), size));
}

}  // namespace gemini
