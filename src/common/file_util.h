// Data-dir file helpers, one of each: the durability engine names its files
// (wal-<seq>.log, checkpoint-<seq>.snap), writes and reads them whole and
// makes new names durable through these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace gemini {

/// kInternal "`what` `path`: strerror(errno)".
Status ErrnoStatus(std::string_view what, const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR; false,
/// with errno set, on a write error.
bool WriteAll(int fd, std::string_view bytes);

/// fsyncs the directory holding `path`, so a name created or renamed there
/// survives a crash.
Status SyncParentDir(const std::string& path);

/// A whole file's bytes, in a buffer of exactly its size.
struct FileBytes {
  std::unique_ptr<char[]> data;
  size_t size = 0;

  [[nodiscard]] std::string_view view() const { return {data.get(), size}; }
};

/// Reads `path` with one read into a buffer of the file's size, which is not
/// zero-filled first. kNotFound when there is no file; any other failure,
/// a read error included, is kInternal naming the path.
Result<FileBytes> ReadWholeFile(const std::string& path);

/// `<prefix><seq as 16 lowercase hex digits><suffix>`.
std::string SeqFileName(std::string_view prefix, uint64_t seq,
                        std::string_view suffix);

/// Parses a SeqFileName basename with this prefix and suffix; false for any
/// other name.
bool ParseSeqFileName(std::string_view name, std::string_view prefix,
                      std::string_view suffix, uint64_t& seq);

}  // namespace gemini
