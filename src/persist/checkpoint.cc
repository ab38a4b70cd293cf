#include "src/persist/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>

#include "src/cache/snapshot.h"
#include "src/persist/wal.h"

namespace gemini {
namespace {

bool ParseHex16(std::string_view digits, uint64_t& out) {
  if (digits.size() != 16) return false;
  uint64_t v = 0;
  for (char c : digits) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  out = v;
  return true;
}

}  // namespace

std::string CheckpointManager::CheckpointPath(uint64_t seq) const {
  char name[40];
  std::snprintf(name, sizeof(name), "checkpoint-%016llx.snap",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

bool CheckpointManager::ParseCheckpointName(std::string_view name,
                                            uint64_t& seq) {
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".snap";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  return ParseHex16(name.substr(kPrefix.size(), 16), seq);
}

Result<uint64_t> CheckpointManager::Write(CacheInstance& instance,
                                          uint64_t seq) {
  Result<uint64_t> bytes = Snapshot::WriteToFile(instance, CheckpointPath(seq));
  if (bytes.ok()) ++written_;
  return bytes;
}

Status CheckpointManager::Load(CacheInstance& instance, uint64_t seq) {
  return Snapshot::LoadFromFile(instance, CheckpointPath(seq));
}

Status CheckpointManager::List(DirListing& out) const {
  out = DirListing{};
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return Status(Code::kInternal, "cannot open data dir " + dir_ + ": " +
                                       std::strerror(errno));
  }
  // A temp is a checkpoint name plus ".tmp", with or without the
  // ".<pid>.<n>" suffix older writers appended.
  constexpr size_t kCheckpointNameLen = 11 + 16 + 5;
  while (struct dirent* e = ::readdir(d)) {
    uint64_t seq = 0;
    const std::string_view name = e->d_name;
    if (Wal::ParseSegmentName(name, seq)) {
      out.wal_seqs.push_back(seq);
    } else if (ParseCheckpointName(name, seq)) {
      out.checkpoint_seqs.push_back(seq);
    } else if (name.size() > kCheckpointNameLen &&
               ParseCheckpointName(name.substr(0, kCheckpointNameLen), seq) &&
               name.substr(kCheckpointNameLen).starts_with(".tmp")) {
      out.checkpoint_temps.push_back(dir_ + "/" + std::string(name));
    }
  }
  ::closedir(d);
  std::sort(out.wal_seqs.begin(), out.wal_seqs.end());
  std::sort(out.checkpoint_seqs.begin(), out.checkpoint_seqs.end());
  return Status::Ok();
}

Status CheckpointManager::GarbageCollect(uint64_t keep_seq) {
  DirListing listing;
  if (Status s = List(listing); !s.ok()) return s;
  Status first_failure = Status::Ok();
  auto unlink_or_note = [&first_failure](const std::string& path) {
    if (::unlink(path.c_str()) != 0 && first_failure.ok()) {
      first_failure = Status(Code::kInternal, "cannot unlink " + path + ": " +
                                                  std::strerror(errno));
    }
  };
  for (uint64_t seq : listing.wal_seqs) {
    if (seq < keep_seq) unlink_or_note(Wal::SegmentPath(dir_, seq));
  }
  for (uint64_t seq : listing.checkpoint_seqs) {
    if (seq < keep_seq) unlink_or_note(CheckpointPath(seq));
  }
  return first_failure;
}

}  // namespace gemini
