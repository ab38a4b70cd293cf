#include "src/persist/wal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/hash.h"

namespace gemini {
namespace {

// Payload fields are raw little-endian scalars. Frames cap the payload at
// 64 MiB: far above any cache entry this code base produces, low enough that
// a garbage length field from a torn write cannot drive a giant allocation.
constexpr uint32_t kMaxPayloadLen = 64u << 20;
constexpr size_t kFrameHeaderLen = 8;  // u32 len | u32 crc

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.append(b, 4);  // one capacity check instead of four
}

void PutU64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.append(b, 8);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

/// Cursor over a payload; every Take* fails (returns false) on underrun so
/// Decode rejects truncated payloads instead of reading garbage.
struct Reader {
  std::string_view rest;

  bool TakeU8(uint8_t& v) {
    if (rest.size() < 1) return false;
    v = static_cast<uint8_t>(rest[0]);
    rest.remove_prefix(1);
    return true;
  }
  bool TakeU32(uint32_t& v) {
    if (rest.size() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(rest[i])) << (8 * i);
    }
    rest.remove_prefix(4);
    return true;
  }
  bool TakeU64(uint64_t& v) {
    if (rest.size() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(rest[i])) << (8 * i);
    }
    rest.remove_prefix(8);
    return true;
  }
  bool TakeString(std::string& s) {
    uint32_t len = 0;
    if (!TakeU32(len) || rest.size() < len) return false;
    s.assign(rest.data(), len);
    rest.remove_prefix(len);
    return true;
  }
};

Status Errno(const char* what, const std::string& path) {
  return Status(Code::kInternal, std::string(what) + " " + path + ": " +
                                     std::strerror(errno));
}

/// fsync the directory containing `path` so a created/renamed name is
/// durable (same policy as Snapshot::WriteToFile).
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return Errno("cannot open directory", dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return Errno("cannot fsync directory", dir);
  return Status::Ok();
}

}  // namespace

void WalRecord::EncodeTo(std::string& out) const {
  PutU8(out, static_cast<uint8_t>(type));
  switch (type) {
    case WalRecordType::kUpsert:
      PutU8(out, origin);
      PutU8(out, pinned ? 1 : 0);
      PutU64(out, config_id);
      PutU64(out, version);
      PutU32(out, charged_bytes);
      PutString(out, key);
      PutString(out, data);
      break;
    case WalRecordType::kDelete:
      PutU8(out, origin);
      PutString(out, key);
      break;
    case WalRecordType::kQBegin:
    case WalRecordType::kQEnd:
      PutString(out, key);
      break;
    case WalRecordType::kConfigId:
      PutU64(out, config_id);
      break;
    case WalRecordType::kQClear:
    case WalRecordType::kWipe:
      break;
  }
}

void WalUpsertRef::EncodeTo(std::string& out) const {
  // Must stay byte-identical to the WalRecord kUpsert branch above: replay
  // decodes both through WalRecord::Decode.
  PutU8(out, static_cast<uint8_t>(WalRecordType::kUpsert));
  PutU8(out, origin);
  PutU8(out, 0);  // pinned: reserved
  PutU64(out, config_id);
  PutU64(out, version);
  PutU32(out, charged_bytes);
  PutString(out, key);
  PutString(out, data);
}

bool WalRecord::Decode(std::string_view payload, WalRecord& out) {
  Reader r{payload};
  uint8_t type = 0;
  if (!r.TakeU8(type)) return false;
  out = WalRecord{};
  out.type = static_cast<WalRecordType>(type);
  switch (out.type) {
    case WalRecordType::kUpsert: {
      uint8_t pinned = 0;
      if (!r.TakeU8(out.origin) || !r.TakeU8(pinned) ||
          !r.TakeU64(out.config_id) || !r.TakeU64(out.version) ||
          !r.TakeU32(out.charged_bytes) || !r.TakeString(out.key) ||
          !r.TakeString(out.data)) {
        return false;
      }
      out.pinned = pinned != 0;
      break;
    }
    case WalRecordType::kDelete:
      if (!r.TakeU8(out.origin) || !r.TakeString(out.key)) return false;
      break;
    case WalRecordType::kQBegin:
    case WalRecordType::kQEnd:
      if (!r.TakeString(out.key)) return false;
      break;
    case WalRecordType::kConfigId:
      if (!r.TakeU64(out.config_id)) return false;
      break;
    case WalRecordType::kQClear:
    case WalRecordType::kWipe:
      break;
    default:
      return false;
  }
  // Trailing bytes mean the length field disagrees with the payload: corrupt.
  return r.rest.empty();
}

Wal::~Wal() { Close(); }

std::string Wal::SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

bool Wal::ParseSegmentName(std::string_view name, uint64_t& seq) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  uint64_t v = 0;
  for (char c : name.substr(kPrefix.size(), 16)) {
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

Status Wal::Open(const std::string& dir, uint64_t seq) {
  Close();
  const std::string path = SegmentPath(dir, seq);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("cannot open wal segment", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("cannot stat wal segment", path);
  }
  if (Status s = SyncParentDir(path); !s.ok()) {
    ::close(fd);
    return s;
  }
  dir_ = dir;
  seq_ = seq;
  fd_ = fd;
  unsynced_bytes_ = 0;
  segment_bytes_ = static_cast<uint64_t>(st.st_size);
  PreallocateNext();
  return Status::Ok();
}

void Wal::PreallocateNext() {
  const std::string next = SegmentPath(dir_, seq_ + 1);
  const int fd = ::open(next.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return;
  // KEEP_SIZE: reserve extents without growing st_size, so the file scans
  // as an empty segment if a crash lands before rotation reaches it. A
  // filesystem that cannot reserve (EOPNOTSUPP) just skips — this is an
  // optimization, never a correctness requirement.
  (void)::fallocate(fd, FALLOC_FL_KEEP_SIZE, 0,
                    static_cast<off_t>(kSegmentBytes));
  ::close(fd);
}

namespace {

// Encode the payload in place after a header placeholder, then patch the
// header — no temporary buffer, so the hot path does not allocate beyond
// out's amortized growth. Works for any payload type with EncodeTo.
template <typename Record>
void EncodeFrameImpl(std::string& out, const Record& record) {
  const size_t header_pos = out.size();
  out.append(kFrameHeaderLen, '\0');
  const size_t payload_pos = out.size();
  record.EncodeTo(out);
  const std::string_view payload =
      std::string_view(out).substr(payload_pos);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload);
  char header[kFrameHeaderLen];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
    header[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  out.replace(header_pos, kFrameHeaderLen, header, kFrameHeaderLen);
}

}  // namespace

void Wal::EncodeFrame(std::string& out, const WalRecord& record) {
  EncodeFrameImpl(out, record);
}

void Wal::EncodeFrame(std::string& out, const WalUpsertRef& record) {
  EncodeFrameImpl(out, record);
}

Status Wal::Append(const WalRecord& record, bool sync_now) {
  std::string frame;
  EncodeFrame(frame, record);
  if (Status s = AppendRaw(frame); !s.ok() || !sync_now) return s;
  return Sync();
}

Status Wal::AppendRaw(std::string_view frames) {
  if (fd_ < 0) return Status(Code::kInternal, "wal: append on closed log");
  size_t off = 0;
  while (off < frames.size()) {
    const ssize_t n = ::write(fd_, frames.data() + off, frames.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("wal write failed", SegmentPath(dir_, seq_));
    }
    off += static_cast<size_t>(n);
  }
  segment_bytes_ += frames.size();
  unsynced_bytes_ += frames.size();
  return Status::Ok();
}

Status Wal::Sync() {
  if (fd_ < 0 || unsynced_bytes_ == 0) return Status::Ok();
  if (::fsync(fd_) != 0) {
    return Errno("wal fsync failed", SegmentPath(dir_, seq_));
  }
  ++fsync_count_;
  unsynced_bytes_ = 0;
  return Status::Ok();
}

Status Wal::Rotate() {
  if (fd_ < 0) return Status(Code::kInternal, "wal: rotate on closed log");
  if (Status s = Sync(); !s.ok()) return s;
  ::close(fd_);
  fd_ = -1;
  const std::string dir = dir_;
  return Open(dir, seq_ + 1);
}

void Wal::Close() {
  if (fd_ < 0) return;
  (void)Sync();
  ::close(fd_);
  fd_ = -1;
}

WalScanResult Wal::ScanFile(const std::string& path) {
  WalScanResult result;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    result.error = Errno("cannot open wal segment", path);
    return result;
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    result.error = Status(Code::kInternal, "cannot read wal segment " + path);
    return result;
  }

  uint64_t off = 0;
  const uint64_t size = contents.size();
  result.file_bytes = size;
  while (off < size) {
    if (size - off < kFrameHeaderLen) {
      result.torn_tail = true;  // partial frame header: crash mid-append
      break;
    }
    Reader header{std::string_view(contents).substr(off, kFrameHeaderLen)};
    uint32_t len = 0;
    uint32_t crc = 0;
    header.TakeU32(len);
    header.TakeU32(crc);
    if (len > kMaxPayloadLen) {
      // A length this large was never written by Append; the header bytes
      // themselves are damaged. A torn append cannot damage already-written
      // bytes, so this is corruption — unless the oversized length also runs
      // past EOF, which is indistinguishable from a torn header and must be
      // treated as the benign case only when nothing follows that could have
      // been a real frame. Be conservative: past-EOF => torn, in-file =>
      // corrupt.
      if (off + kFrameHeaderLen + len > size) {
        result.torn_tail = true;
        break;
      }
      result.error = Status(
          Code::kInternal,
          "wal segment " + path + ": oversized frame at offset " +
              std::to_string(off));
      break;
    }
    if (off + kFrameHeaderLen + len > size) {
      result.torn_tail = true;  // payload ran past EOF: crash mid-append
      break;
    }
    const std::string_view payload =
        std::string_view(contents).substr(off + kFrameHeaderLen, len);
    if (Crc32c(payload) != crc) {
      result.error = Status(
          Code::kInternal, "wal segment " + path +
                               ": crc mismatch at offset " +
                               std::to_string(off));
      break;
    }
    WalRecord record;
    if (!WalRecord::Decode(payload, record)) {
      result.error = Status(
          Code::kInternal, "wal segment " + path +
                               ": undecodable record at offset " +
                               std::to_string(off));
      break;
    }
    off += kFrameHeaderLen + len;
    result.records.push_back(std::move(record));
    result.record_ends.push_back(off);
  }
  result.valid_bytes = result.record_ends.empty() ? 0 : result.record_ends.back();
  return result;
}

}  // namespace gemini
