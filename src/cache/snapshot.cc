#include "src/cache/snapshot.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
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

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU32(uint32_t* v) { return GetRaw(v, 4); }
  bool GetU64(uint64_t* v) { return GetRaw(v, 8); }
  bool GetBytes(std::string* out) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (data_.size() < len) return false;
    out->assign(data_.substr(0, len));
    data_.remove_prefix(len);
    return true;
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
  std::string out;
  out.append(kMagic, sizeof(kMagic));

  // Entries are counted first; reserve the header slots and patch after.
  std::vector<std::string> quarantined = instance.leases().KeysWithQLeases();
  uint64_t entry_count = 0;
  std::string body;
  instance.ForEachEntry([&](std::string_view key, const CacheValue& value,
                            ConfigId config_id) {
    ++entry_count;
    PutBytes(body, key);
    PutBytes(body, value.data);
    PutU32(body, value.charged_bytes);
    PutU64(body, value.version);
    PutU64(body, config_id);
    PutU32(body, 0);  // flags: reserved
  });
  PutU64(out, entry_count);
  PutU64(out, quarantined.size());
  out += body;
  for (const auto& key : quarantined) {
    PutBytes(out, key);
  }
  PutU64(out, Fnv1a64(out));
  return out;
}

Status Snapshot::Load(CacheInstance& instance, std::string_view payload) {
  if (payload.size() < sizeof(kMagic) + 8 + 8 + 8) {
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

  Reader reader(checked.substr(sizeof(kMagic)));
  uint64_t entry_count = 0, quarantined_count = 0;
  if (!reader.GetU64(&entry_count) || !reader.GetU64(&quarantined_count)) {
    return Status(Code::kInternal, "snapshot header corrupt");
  }

  struct Pending {
    std::string key;
    CacheValue value;
    ConfigId config_id;
  };
  // The header's count is untrusted until the entries parse: reserve only
  // what the remaining bytes can hold, or a damaged count that passed the
  // checksum would abort the load with bad_alloc instead of failing closed.
  constexpr uint64_t kMinEntryBytes = 4 + 4 + 4 + 8 + 8 + 4;
  std::vector<Pending> entries;
  entries.reserve(std::min(entry_count, reader.remaining() / kMinEntryBytes));
  for (uint64_t i = 0; i < entry_count; ++i) {
    Pending p;
    uint64_t version = 0, config_id = 0;
    uint32_t charged = 0, flags = 0;
    if (!reader.GetBytes(&p.key) || !reader.GetBytes(&p.value.data) ||
        !reader.GetU32(&charged) || !reader.GetU64(&version) ||
        !reader.GetU64(&config_id) || !reader.GetU32(&flags)) {
      return Status(Code::kInternal, "snapshot entry corrupt");
    }
    if ((flags & 1) != 0) {
      return Status(Code::kInternal,
                    "snapshot holds a pinned write-back value for key " +
                        p.key +
                        " that never reached the data store; write-back is "
                        "no longer supported");
    }
    if (flags != 0) {
      return Status(Code::kInternal, "snapshot entry flags corrupt");
    }
    p.value.charged_bytes = charged;
    p.value.version = version;
    p.config_id = config_id;
    entries.push_back(std::move(p));
  }
  std::unordered_set<std::string> quarantined;
  for (uint64_t i = 0; i < quarantined_count; ++i) {
    std::string key;
    if (!reader.GetBytes(&key)) {
      return Status(Code::kInternal, "snapshot quarantine list corrupt");
    }
    quarantined.insert(std::move(key));
  }
  if (reader.remaining() != 0) {
    return Status(Code::kInternal, "snapshot has trailing bytes");
  }

  // Install in reverse so LRU order (most-recent-first in the snapshot) is
  // reconstructed; skip quarantined keys (the crash-spanning Q rule). An
  // entry over this instance's stripe budget is rejected and dropped, as
  // WAL replay drops it: a miss.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (quarantined.count(it->key) > 0) continue;
    (void)instance.RestoreEntry(it->key, std::move(it->value), it->config_id);
  }
  return Status::Ok();
}

Status Snapshot::WriteToFile(CacheInstance& instance,
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
  return Status::Ok();
}

Status Snapshot::LoadFromFile(CacheInstance& instance,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no snapshot at " + path);
  }
  std::string payload;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    payload.append(buf, n);
  }
  std::fclose(f);
  return Load(instance, payload);
}

}  // namespace gemini
