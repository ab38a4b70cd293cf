#include "src/persist/checkpoint.h"

#include <algorithm>

#include <dirent.h>
#include <unistd.h>

#include "src/cache/snapshot.h"
#include "src/common/file_util.h"
#include "src/persist/wal.h"

namespace gemini {

std::string CheckpointManager::CheckpointPath(uint64_t seq) const {
  return dir_ + "/" + SeqFileName("checkpoint-", seq, ".snap");
}

bool CheckpointManager::ParseCheckpointName(std::string_view name,
                                            uint64_t& seq) {
  return ParseSeqFileName(name, "checkpoint-", ".snap", seq);
}

Result<uint64_t> CheckpointManager::Write(CacheInstance& instance,
                                          uint64_t seq) {
  Result<uint64_t> bytes = Snapshot::WriteToFile(instance, CheckpointPath(seq));
  if (bytes.ok()) ++written_;
  return bytes;
}

Result<uint64_t> CheckpointManager::Load(
    CacheInstance& instance, uint64_t seq,
    std::vector<std::string>* quarantined) {
  return Snapshot::LoadFromFile(instance, CheckpointPath(seq), quarantined);
}

Status CheckpointManager::List(DirListing& out) const {
  out = DirListing{};
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return ErrnoStatus("cannot open data dir", dir_);
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
      first_failure = ErrnoStatus("cannot unlink", path);
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
