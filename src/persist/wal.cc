#include "src/persist/wal.h"

#include <tuple>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/codec.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"

namespace gemini {
namespace {

using codec::Blob;
using codec::u32;
using codec::u64;
using codec::u8;

// Frames cap the payload at 64 MiB: far above any cache entry this code base
// produces, low enough that a garbage length field from a torn write cannot
// drive a giant allocation.
constexpr uint32_t kMaxPayloadLen = 64u << 20;

/// u32 payload_len | u32 crc32c(payload)
using FrameHeader = std::tuple<u32, u32>;
constexpr size_t kFrameHeaderLen = codec::Field<FrameHeader>::kMinSize;

// Each record type's fields after its u8 type byte (PROTOCOL.md §9 "Log
// format"). kQBegin and kQEnd carry a Blob key, kConfigId a u64 config id,
// and kQClear and kWipe nothing.
/// origin | pinned | config_id | version | charged_bytes | key | data
using UpsertFields = std::tuple<u8, u8, u64, u64, u32, Blob, Blob>;
/// origin | key
using DeleteFields = std::tuple<u8, Blob>;

/// The one kUpsert encoder, for an owning WalRecord and a WalUpsertRef
/// alike.
template <typename Upsert>
void EncodeUpsert(std::string& out, const Upsert& r, uint8_t pinned) {
  codec::Encode<u8>(out, static_cast<uint8_t>(WalRecordType::kUpsert));
  codec::Encode<UpsertFields>(
      out, std::tie(r.origin, pinned, r.config_id, r.version, r.charged_bytes,
                    r.key, r.data));
}

}  // namespace

void WalRecord::EncodeTo(std::string& out) const {
  if (type == WalRecordType::kUpsert) {
    EncodeUpsert(out, *this, pinned ? 1 : 0);
    return;
  }
  codec::Encode<u8>(out, static_cast<uint8_t>(type));
  switch (type) {
    case WalRecordType::kDelete:
      codec::Encode<DeleteFields>(out, std::tie(origin, key));
      break;
    case WalRecordType::kQBegin:
    case WalRecordType::kQEnd:
      codec::Encode<Blob>(out, key);
      break;
    case WalRecordType::kConfigId:
      codec::Encode<u64>(out, config_id);
      break;
    default:  // kQClear, kWipe: the type byte alone
      break;
  }
}

void WalUpsertRef::EncodeTo(std::string& out) const {
  EncodeUpsert(out, *this, /*pinned=*/0);
}

bool WalRecord::Decode(std::string_view payload, WalRecord& out) {
  out = WalRecord{};
  if (payload.empty()) return false;
  out.type = static_cast<WalRecordType>(static_cast<uint8_t>(payload[0]));
  // Decode fails on trailing bytes too: the length field disagrees with the
  // payload, so the record is corrupt.
  const std::string_view fields = payload.substr(1);
  switch (out.type) {
    case WalRecordType::kUpsert: {
      uint8_t pinned = 0;
      auto upsert = std::tie(out.origin, pinned, out.config_id, out.version,
                             out.charged_bytes, out.key, out.data);
      if (!codec::Decode<UpsertFields>(fields, &upsert)) return false;
      out.pinned = pinned != 0;
      return true;
    }
    case WalRecordType::kDelete: {
      auto del = std::tie(out.origin, out.key);
      return codec::Decode<DeleteFields>(fields, &del);
    }
    case WalRecordType::kQBegin:
    case WalRecordType::kQEnd:
      return codec::Decode<Blob>(fields, &out.key);
    case WalRecordType::kConfigId:
      return codec::Decode<u64>(fields, &out.config_id);
    case WalRecordType::kQClear:
    case WalRecordType::kWipe:
      return fields.empty();
  }
  return false;  // unknown type
}

Wal::~Wal() { Close(); }

std::string Wal::SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + SeqFileName("wal-", seq, ".log");
}

bool Wal::ParseSegmentName(std::string_view name, uint64_t& seq) {
  return ParseSeqFileName(name, "wal-", ".log", seq);
}

Status Wal::Open(const std::string& dir, uint64_t seq) {
  Close();
  const std::string path = SegmentPath(dir, seq);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("cannot open wal segment", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("cannot stat wal segment", path);
    ::close(fd);
    return s;
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
// header — no heap buffer, so the hot path does not allocate beyond out's
// amortized growth. Works for any payload type with EncodeTo.
template <typename Record>
void EncodeFrameImpl(std::string& out, const Record& record) {
  const size_t header_pos = out.size();
  out.append(kFrameHeaderLen, '\0');
  record.EncodeTo(out);
  const std::string_view payload =
      std::string_view(out).substr(header_pos + kFrameHeaderLen);
  std::string header;  // 8 bytes: held inline (small-string buffer)
  codec::Encode<FrameHeader>(
      header, std::tuple(static_cast<uint32_t>(payload.size()),
                         Crc32c(payload)));
  out.replace(header_pos, kFrameHeaderLen, header);
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
  if (!WriteAll(fd_, frames)) {
    return ErrnoStatus("wal write failed", SegmentPath(dir_, seq_));
  }
  segment_bytes_ += frames.size();
  unsynced_bytes_ += frames.size();
  return Status::Ok();
}

Status Wal::Sync() {
  if (fd_ < 0 || unsynced_bytes_ == 0) return Status::Ok();
  if (::fsync(fd_) != 0) {
    return ErrnoStatus("wal fsync failed", SegmentPath(dir_, seq_));
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
  const Result<FileBytes> file = ReadWholeFile(path);
  if (!file.ok()) {
    result.error = file.status();
    return result;
  }
  const std::string_view contents = file->view();
  uint64_t off = 0;
  const uint64_t size = contents.size();
  result.file_bytes = size;
  while (off < size) {
    if (size - off < kFrameHeaderLen) {
      result.torn_tail = true;  // partial frame header: crash mid-append
      break;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    auto header = std::tie(len, crc);
    codec::Decode<FrameHeader>(contents.substr(off, kFrameHeaderLen), &header);
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
        contents.substr(off + kFrameHeaderLen, len);
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
