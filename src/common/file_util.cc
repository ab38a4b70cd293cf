#include "src/common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gemini {

Status ErrnoStatus(std::string_view what, const std::string& path) {
  return Status(Code::kInternal, std::string(what) + " " + path + ": " +
                                     std::strerror(errno));
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoStatus("cannot open directory", dir);
  const Status s = ::fsync(dir_fd) == 0
                       ? Status::Ok()
                       : ErrnoStatus("cannot fsync directory", dir);
  ::close(dir_fd);
  return s;
}

Result<FileBytes> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status(Code::kNotFound, "no file at " + path);
    return ErrnoStatus("cannot open", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("cannot stat", path);
    ::close(fd);
    return s;
  }
  FileBytes file;
  file.size = static_cast<size_t>(st.st_size);
  file.data = std::make_unique_for_overwrite<char[]>(file.size);
  size_t got = 0;
  while (got < file.size) {
    const ssize_t n = ::read(fd, file.data.get() + got, file.size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const Status s =
          n < 0 ? ErrnoStatus("I/O error reading", path)
                : Status(Code::kInternal, "I/O error reading " + path +
                                              ": file shrank");
      ::close(fd);
      return s;
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return file;
}

std::string SeqFileName(std::string_view prefix, uint64_t seq,
                        std::string_view suffix) {
  char digits[17];
  std::snprintf(digits, sizeof(digits), "%016llx",
                static_cast<unsigned long long>(seq));
  std::string name(prefix);
  name.append(digits, 16);
  name.append(suffix);
  return name;
}

bool ParseSeqFileName(std::string_view name, std::string_view prefix,
                      std::string_view suffix, uint64_t& seq) {
  if (name.size() != prefix.size() + 16 + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return false;
  }
  uint64_t v = 0;
  for (char c : name.substr(prefix.size(), 16)) {
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
  seq = v;
  return true;
}

}  // namespace gemini
